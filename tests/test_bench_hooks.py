"""The names the benchmark patches and reads still exist, and its workloads
still reproduce their pinned digests, with and without its tracer.

bench/spans.py wraps functions and methods by name and counts fresh slices
by reading the memo dicts of SliceComplex, and bench/child.py reads the
complex cache's statistics.  Its own tests are not in this suite, and a
missing memo dict makes spans count every call, so a rename would
otherwise go unnoticed here."""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from cobarext import cobar

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up by name
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    for owner, attr, layer, _, _ in _load("spans").TARGETS:
        assert callable(getattr(owner, attr, None)), (layer, attr)


def test_complex_cache_reports_its_statistics():
    info = cobar._shared_complex.cache_info()
    assert info.maxsize == 128
    assert min(info.hits, info.misses, info.currsize) >= 0


def test_words_and_matrix_fill_the_memos_spans_read():
    cx = cobar.SliceComplex(2, False, 3, 0)
    assert 0 not in cx._words and 0 not in cx._matrices
    cx.words(0)
    assert 0 in cx._words
    cx.matrix(0)
    assert 0 in cx._matrices


@pytest.mark.parametrize("name,seed", [("einfty", 0), ("vanishing", 0), ("ext_table", 0),
                                       ("ext_table", 1), ("dd_axioms", 0)])
def test_workload_reproduces_its_pinned_digest(name, seed):
    workloads = _load("workloads")
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    cells, run_pass = workloads.WORKLOADS[name]
    outcome = workloads.Outcome(cells)
    run_pass(outcome, seed)
    assert outcome.failed == 0
    assert hashlib.sha256(outcome.text().encode("utf-8")).hexdigest() == pinned


@pytest.mark.parametrize("name", ["vanishing", "ext_table"])
def test_a_traced_pass_reproduces_its_pinned_digest(name):
    spans, workloads = _load("spans"), _load("workloads")
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    cells, run_pass = workloads.WORKLOADS[name]
    outcome = workloads.Outcome(cells)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_pass(outcome, 0)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert outcome.failed == 0
    assert hashlib.sha256(outcome.text().encode("utf-8")).hexdigest() == pinned
