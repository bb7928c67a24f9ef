"""Checks of the benchmark itself.

Run from the repository root with ``python3 bench/test_bench.py`` or
``python3 -m pytest bench/test_bench.py``; it takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402

ELIMINATION = {"f2linalg.kernel", "f2linalg.rank", "f2linalg.mul", "f2linalg.cohomology",
               "cobar.words", "cobar.assemble"}
# the layers each workload must reach; every other layer must see no call
EXPECTED_LAYERS = {
    "einfty": ELIMINATION | {"cobar.ext_dim", "xadic.closed_form"},
    "vanishing": ELIMINATION | {"cobar.tower_map", "grading.label"},
    "ext_table": ELIMINATION | {"cobar.ext_dim", "grading.label", "cli.main"},
    "dd_axioms": {"f2linalg.mul", "cobar.words", "cobar.assemble", "hopf.axioms"},
}


def _child(workload: str, seed: int, trace: bool) -> dict:
    got = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH, "child.py"), workload, str(seed),
         "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(got.stdout.strip().splitlines()[-1])


def test_spans_cover_layers_and_keep_output():
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    for workload, layers in EXPECTED_LAYERS.items():
        plain = _child(workload, 3, False)
        traced = _child(workload, 3, True)
        for rec in (plain, traced):
            assert rec["error"] is None, rec["error"]
            assert rec["failed"] == 0 and rec["finished"] == rec["attempted"]
        assert plain["digest"] == traced["digest"] == pins[workload], workload
        assert not traced["trace"]["missing"]
        called = {layer for layer, n in traced["trace"]["calls"].items() if n}
        assert called == layers, (workload, sorted(called ^ layers))


def test_ext_table_shift_moves_u_exponents():
    assert workloads._shift_term("a^2 u^3 [x|x^2]", -4) == "a^2 u^-1 [x|x^2]"
    assert workloads._shift_term("a [x]", 1) == "a u [x]"
    assert workloads._shift_term("u^4", -4) == "1"
    assert workloads._shift_term("1", 4) == "u^4"
    row = "n\ts\tp\tq\tdim\tbasis\n2\t1\t6\t-6\t1\tu^5 [x] + a^2 u^4 [x^2]\n"
    assert workloads.unshift_ext_table(row, 1) == (
        "n\ts\tp\tq\tdim\tbasis\n2\t1\t2\t-2\t1\tu [x] + a^2 [x^2]\n")


def test_refuses_without_sources():
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "results")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        got = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "dd_axioms", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170, check=False,
        )
    assert got.returncode != 0
    assert '"correct"' not in got.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
