"""The names the benchmark patches and reads still exist.

bench/spans.py wraps functions and methods by name and counts fresh slices
by reading the memo dicts of SliceComplex, and bench/child.py reads the
complex cache's statistics.  Its own tests are not in this suite, and a
missing memo dict makes spans count every call, so a rename would
otherwise go unnoticed here."""

import importlib.util
import os

from cobarext import cobar

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    for owner, attr, layer, _, _ in _spans().TARGETS:
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
