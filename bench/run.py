"""cobarext benchmark: exact-Ext windows timed end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of einfty, vanishing, ext_table, dd_axioms (NOTES.md says why
each exists). Every pass runs in a fresh interpreter (``child.py``), one at
a time, with no pool and no threads, so each pass starts with empty caches
as a command-line user's would. Passes repeat while another one fits in
S seconds; at least one always runs.

With --trace 0 the run also times interpreter start-up to ``import
cobarext`` in several fresh interpreters and prints the end-to-end metrics
(medians). With --trace 1 it alternates untraced and traced passes and
prints the per-layer metrics. Every pass's canonical output is hashed and
compared with bench/digests.json; a mismatch, a nonzero exit or an
exception fails the pass's cells. The last stdout line is one JSON object
with keys correct, attempted, failed and metrics; the full record goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
SETUP_SAMPLES = 15
# every child must end before this many seconds into the run, so the run
# exits well inside its 180-second limit
HARD_LIMIT_S = 165.0

PER_LAYER_TIMES = [
    ("f2linalg.kernel_s", "f2linalg.kernel"),
    ("f2linalg.rank_s", "f2linalg.rank"),
    ("f2linalg.mul_s", "f2linalg.mul"),
    ("f2linalg.cohomology_s", "f2linalg.cohomology"),
    ("cobar.words_s", "cobar.words"),
    ("cobar.assemble_s", "cobar.assemble"),
    ("cobar.ext_dim_s", "cobar.ext_dim"),
    ("cobar.tower_map_s", "cobar.tower_map"),
    ("xadic.closed_form_s", "xadic.closed_form"),
    ("hopf.axioms_s", "hopf.axioms"),
    ("grading.label_s", "grading.label"),
    ("cli.main_s", "cli.main"),
]
# metric -> (span field, layer): work counts, identical on every run
PER_LAYER_COUNTS = [
    ("f2linalg.kernel_calls", "calls", "f2linalg.kernel"),
    ("f2linalg.kernel_bits", "counts", "f2linalg.kernel"),
    ("cobar.words", "counts", "cobar.words"),
    ("cobar.matrix_nnz", "counts", "cobar.assemble"),
    ("cobar.tower_map_calls", "counts", "cobar.tower_map"),
    ("xadic.closed_form_monomials", "counts", "xadic.closed_form"),
]


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be subtracted from the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cobarext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read() + b"\0")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "jobs": 1,
    }


class Runner:
    def __init__(self, workload: str, seed: int, pin: str, cells: int):
        self.workload = workload
        self.seed = seed
        self.pin = pin
        self.cells = cells
        self.start = clock()
        self.passes: list[dict] = []

    def spawn(self, name: str, trace: bool) -> tuple[float, dict | None, str]:
        """Run child.py once; returns (spawn clock, its JSON or None, stderr)."""
        timeout = max(1.0, HARD_LIMIT_S - (clock() - self.start))
        t0 = clock()
        try:
            got = subprocess.run(
                [sys.executable, "-I", CHILD, name, str(self.seed), "1" if trace else "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired as e:
            return t0, None, f"timed out after {timeout:.0f} s\n{e.stderr or ''}"
        lines = got.stdout.strip().splitlines()
        if got.returncode != 0 or not lines:
            return t0, None, f"exit {got.returncode}\n{got.stderr}"
        try:
            return t0, json.loads(lines[-1]), got.stderr
        except json.JSONDecodeError:
            return t0, None, f"unreadable output\n{got.stdout[-2000:]}\n{got.stderr}"

    def setup_times(self) -> list[float]:
        out = []
        for _ in range(SETUP_SAMPLES):
            t0, rec, err = self.spawn("setup", False)
            if rec is None:
                fail(f"set-up child failed: {err}")
            out.append(rec["ready"] - t0)
        return out

    def one_pass(self, trace: bool) -> dict:
        t0, rec, err = self.spawn(self.workload, trace)
        took = clock() - t0
        if rec is None:
            rec = {"error": err}
        elif rec["error"] is None and rec["digest"] != self.pin:
            rec["error"] = f"digest {rec['digest']} != pinned {self.pin}"
        cells = rec.get("attempted", self.cells)
        if rec["error"] is None:
            failed = rec["failed"] + rec["attempted"] - rec["finished"]
        else:
            failed = cells
            print(f"pass failed: {rec['error']}", file=sys.stderr)
        rec.update(traced=trace, took_s=took, cells=cells, cells_failed=failed)
        self.passes.append(rec)
        return rec

    def loop(self, seconds: float, traced_pairs: bool) -> None:
        """Passes until the next would end past ``seconds``; at least one."""
        t_begin = clock()
        while True:
            t0 = clock()
            first = self.one_pass(False)
            if traced_pairs:
                self.one_pass(True)
            step = clock() - t0
            if "wall_s" not in first or clock() - t_begin + step > seconds:
                return
            if clock() - self.start + step > HARD_LIMIT_S:
                return


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "min": values[0], "max": values[-1]}


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    good = [p for p in runner.passes if "wall_s" in p]
    walls = [p["wall_s"] for p in good]
    rss = [p["maxrss_kb"] / 1024 for p in good]
    stats = {"wall_s": quartiles(walls), "setup_s": quartiles(setup),
             "peak_rss_mb": quartiles(rss)}
    wall = stats["wall_s"]["median"]
    cells = good[0]["attempted"]
    stats["cells_per_s"] = {"median": cells / wall, "cells_per_pass": cells}
    metrics = {
        "wall_s": (wall, "s"),
        "cells_per_s": (cells / wall, "1/s"),
        "setup_s": (stats["setup_s"]["median"], "s"),
        "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB"),
    }
    return metrics, stats


def per_layer(runner: Runner) -> tuple[dict, dict]:
    traced = [p for p in runner.passes if p["traced"] and "wall_s" in p]
    plain = [p for p in runner.passes if not p["traced"] and "wall_s" in p]
    metrics: dict[str, tuple[float, str]] = {}
    for name, layer in PER_LAYER_TIMES:
        metrics[name] = (statistics.median(p["trace"]["self_s"][layer] for p in traced), "s")
    first = traced[0]
    for name, field, layer in PER_LAYER_COUNTS:
        metrics[name] = (first["trace"][field][layer], "count")
    cache = first["cache"]
    metrics["cobar.cache_hits"] = (cache["hits"], "count")
    metrics["cobar.cache_misses"] = (cache["misses"], "count")
    metrics["cobar.cache_evictions"] = (cache["misses"] - cache["size"], "count")
    metrics["cobar.certs_three_level"] = (first["certs"].get("three-level", 0), "count")
    metrics["cobar.certs_two_level"] = (first["certs"].get("two-level", 0), "count")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    stats = {"traced_wall_s": quartiles([p["wall_s"] for p in traced]),
             "untraced_wall_s": quartiles([p["wall_s"] for p in plain])}
    return metrics, stats


def counts_repeat(runner: Runner) -> bool:
    """Work counts and cache statistics must not differ between passes."""
    traced = [p for p in runner.passes if p["traced"] and "wall_s" in p]
    keys = [(p["trace"]["calls"], p["trace"]["counts"], p["cache"], p["certs"])
            for p in traced]
    return all(k == keys[0] for k in keys)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "cobarext", "__init__.py")):
        fail(f"no cobarext sources under {SRC}")
    sys.path[:0] = [SRC]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        pin = json.load(fh)[args.workload]
    runner = Runner(args.workload, args.seed, pin, workloads.WORKLOADS[args.workload][0])
    env = environment(args.seed)
    setup = [] if args.trace else runner.setup_times()
    runner.loop(args.seconds, traced_pairs=bool(args.trace))

    attempted = sum(p["cells"] for p in runner.passes)
    failed = sum(p["cells_failed"] for p in runner.passes)
    correct = failed == 0 and all(p["error"] is None for p in runner.passes)
    metrics: dict = {}
    stats: dict = {}
    measured = {p["traced"] for p in runner.passes if "wall_s" in p}
    if args.trace and measured == {False, True}:
        metrics, stats = per_layer(runner)
        correct = correct and counts_repeat(runner)
    elif not args.trace and measured:
        metrics, stats = end_to_end(runner, setup)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "digest_pinned": runner.pin,
        "stats": stats,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setup,
        "passes": runner.passes,
    }
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    path = os.path.join(BENCH, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        spread = stats.get(name)
        extra = ""
        if spread and "q1" in spread:
            extra = f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n {spread['n']})"
        print(f"{args.workload} {name} = {value:.6g} {unit}{extra}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ({failed}/{attempted} cells)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
