"""The differentials and cohomology that slice complexes share through their
chain tables: a shared result equals the one a complex assembles alone,
complexes share exactly when their tables and `_coeff_key()` agree, and a
shared result lives only as long as its table."""

import gc
import weakref

import pytest

from cobarext import cobar, koszul
from cobarext.grading import RO2Degree

MODELS = [cobar.SliceComplex, koszul.KoszulComplex]
LEVELS = [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True),
          (None, False)]
WINDOW = range(-8, 9)
S_MAX = 4


@pytest.fixture
def fresh_tables(monkeypatch):
    """A function that gives the complexes built after each call an empty
    registry of chain tables, so that they share nothing with earlier ones."""
    def reset():
        monkeypatch.setattr(cobar, "_TABLES", weakref.WeakValueDictionary())
    return reset


@pytest.mark.parametrize("n,invert_u", LEVELS)
@pytest.mark.parametrize("model", MODELS)
def test_shared_results_equal_a_lone_assembly(model, n, invert_u, fresh_tables):
    keys = sorted({cobar.slice_key(RO2Degree(p, q), n, invert_u)
                   for p in WINDOW for q in WINDOW})
    # every complex of the window stays alive, so their tables are shared
    shared = [model(*key) for key in keys]
    got = [[(cx.matrix(s), cx.cohomology(s)) for s in range(S_MAX + 1)]
           for cx in shared]
    for key, results in zip(keys, got):
        fresh_tables()
        alone = model(*key)
        for s, (matrix, cohomology) in enumerate(results):
            assert alone.matrix(s) == matrix, (key, s)
            assert alone.cohomology(s) == cohomology, (key, s)


def test_cobar_complexes_share_exactly_under_equal_tables_and_coefficients():
    one = cobar.SliceComplex(2, True, 1, 0)
    # cut 2 lists the same slices 3 and 4 as cut 0, and p mod 4 is the same
    assert one.matrix(3) is cobar.SliceComplex(2, True, 1, 2).matrix(3)
    # the same slices 1 and 2, but u^1 and u^2 coact differently
    other_p = cobar.SliceComplex(2, True, 2, 0)
    assert one.matrix(1) is not other_p.matrix(1)
    assert one.matrix(1) != other_p.matrix(1)
    assert one._words[1] is other_p._words[1] and one._words[2] is other_p._words[2]


@pytest.mark.parametrize("s", range(1, 4))
def test_koszul_cuts_up_to_s_share_slice_s(s):
    low, high = koszul.KoszulComplex(2, True, 1, 0), koszul.KoszulComplex(2, True, 1, s)
    assert low.words(s) is high.words(s)
    assert low._words[s] is high._words[s]
    assert low.matrix(s) is high.matrix(s)
    # the higher cut drops y_0^(s-1) from slice s - 1, so H^s is not shared
    assert low.words(s - 1) != high.words(s - 1)
    assert low.cohomology(s) is not high.cohomology(s)


@pytest.mark.parametrize("model", MODELS)
def test_a_shared_matrix_leaves_with_its_table(model, fresh_tables):
    fresh_tables()
    one, other = model(2, True, 1, 0), model(2, True, 1, 2)
    matrix = weakref.ref(one.matrix(3))
    table = weakref.ref(one._words[3])
    assert other.matrix(3) is matrix() and other._words[3] is table()
    del one
    gc.collect()
    assert matrix() is not None and table() is not None
    del other
    gc.collect()
    assert matrix() is None and table() is None
