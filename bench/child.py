"""One pass of one workload in a fresh interpreter, for run.py.

Usage: python3 -I bench/child.py WORKLOAD SEED TRACE

Prints one JSON line: the monotonic clock reading once cobarext is
imported (the parent subtracts its spawn time to get set-up time), the
pass's wall time and peak RSS, its cell counts, the digest of its
canonical dump and, when TRACE is 1, the per-layer spans. WORKLOAD
"setup" imports cobarext and stops there.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

import cobarext.cli  # noqa: E402  (imports every cobarext module)
import time  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from cobarext import cobar  # noqa: E402


def main(name: str, seed: int, trace: bool) -> dict:
    out = {"ready": READY}
    if not os.path.realpath(cobarext.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"cobarext imported from {cobarext.__file__}, not {SRC}")
    if name == "setup":
        return out
    import spans
    import workloads

    tracer = spans.Tracer()
    if trace:
        tracer.install()
    cells, run_pass = workloads.WORKLOADS[name]
    outcome = workloads.Outcome(cells)
    error = None
    t0 = time.perf_counter()
    try:
        run_pass(outcome, seed)
    except Exception:
        error = traceback.format_exc()
        sys.stderr.write(error)
    wall = time.perf_counter() - t0
    tracer.uninstall()
    info = cobar._shared_complex.cache_info()
    out.update(
        wall_s=wall,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        cache={"hits": info.hits, "misses": info.misses, "size": info.currsize},
        error=error,
        attempted=outcome.attempted,
        finished=outcome.finished,
        failed=outcome.failed,
        certs=outcome.certs,
        digest=hashlib.sha256(outcome.text().encode("utf-8")).hexdigest(),
    )
    if trace:
        out["trace"] = {"self_s": tracer.self_s, "calls": tracer.calls,
                        "counts": tracer.counts, "missing": tracer.missing}
    return out


if __name__ == "__main__":
    workload, seed_arg, trace_arg = sys.argv[1:4]
    print(json.dumps(main(workload, int(seed_arg), trace_arg == "1")))
