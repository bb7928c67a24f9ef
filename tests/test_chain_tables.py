"""The chain tables that slice complexes share: each slice lists exactly the
chains of its degree, complexes with the same chain inputs hold one table,
and a table lives only while some complex holds it."""

import gc
import weakref
from itertools import product

import pytest

from cobarext import cobar, koszul
from cobarext.grading import RO2Degree

LEVELS = [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True),
          (None, False)]
WINDOW = range(-8, 9)
S_MAX = 5


def _brute_slices(letters, s, invert_u, weight, ascending=False):
    """For each (p, q) of the window, the words of length s over `letters`
    whose monomial a^alpha u^beta exists in degree (p, q): alpha =
    2E - p - q >= 0 and, unless u is inverted, beta = p - E >= 0, for E the
    word's weight; in lex order."""
    pairs = [(w, weight(w)) for w in product(letters, repeat=s)
             if not ascending or list(w) == sorted(w)]
    by_cut = {}  # with u inverted only p + q matters
    out = {}
    for p in WINDOW:
        kept = pairs if invert_u else [(w, e) for w, e in pairs if e <= p]
        for q in WINDOW:
            key = p + q if invert_u else (p, q)
            if key not in by_cut:
                by_cut[key] = [w for w, e in kept if 2 * e >= p + q]
            out[p, q] = by_cut[key]
    return out


def _check_model(get, letters, n, invert_u, weight, ascending=False):
    for s in range(S_MAX + 1):
        want = _brute_slices(letters, s, invert_u, weight, ascending)
        for (p, q), words in want.items():
            d = RO2Degree(p, q)
            assert list(get(d, n, invert_u).words(s)) == words, (s, d)


@pytest.mark.parametrize("n,invert_u", LEVELS)
def test_cobar_words_are_the_brute_force_slice(n, invert_u):
    # at inf, E <= p <= 8 bounds every letter
    letters = range(1, (2**n if n is not None else max(WINDOW) + 1))
    _check_model(cobar.get_complex, letters, n, invert_u, sum)


@pytest.mark.parametrize("n,invert_u", LEVELS)
def test_koszul_chains_are_the_brute_force_slice(n, invert_u):
    # at inf, 2^r <= p <= 8 bounds every index
    indices = range(n if n is not None else max(WINDOW).bit_length())
    _check_model(koszul.get_koszul, indices, n, invert_u,
                 lambda chain: sum(1 << r for r in chain), ascending=True)


@pytest.mark.parametrize("model", [cobar.SliceComplex, koszul.KoszulComplex])
def test_equal_chain_inputs_share_one_table(model):
    # with u inverted, p enters the chains of neither model
    one, other = model(2, True, 1, 3), model(2, True, 2, 3)
    for s in range(4):
        assert one.words(s) is other.words(s)
        assert one.index(s) is other.index(s)
        assert one._words[s] is other._words[s]
    higher_cut = model(2, True, 1, 4)
    assert higher_cut.words(3) is not one.words(3)


@pytest.mark.parametrize("cap", [1, 3, 7])
def test_band_words_are_the_brute_force_band(cap, monkeypatch):
    for s in range(6):
        pairs = [(w, sum(w)) for w in product(range(1, cap + 1), repeat=s)]
        top = s * cap
        for lo in range(-1, top + 2):
            # empty bands, lo > hi, one weight, a few weights, to the top;
            # hi = cap is an untruncated band, whose cap is its top weight p
            for hi in (lo - 1, lo, lo + 3, cap, top, top + 1):
                want = [w for w, e in pairs if lo <= e <= hi]
                blocks = cobar._band_blocks(s, cap, lo, hi)
                got = sorted(w for block in blocks for w in block.words)
                assert got == want, (s, lo, hi)
                # the count is exact: a bound of the band's size passes, one
                # below it refuses
                monkeypatch.setattr(cobar, "MAX_SLICE_DIM", len(want))
                cobar._check_band(s, cap, lo, hi)
                if want:
                    monkeypatch.setattr(cobar, "MAX_SLICE_DIM", len(want) - 1)
                    with pytest.raises(cobar.ComplexTooLargeError):
                        cobar._check_band(s, cap, lo, hi)
                monkeypatch.undo()


def test_overlapping_bands_share_their_word_tuples():
    # at s = 3 the cuts list weights 3..9 and 5..9 of one letter cap
    low, high = cobar.SliceComplex(2, True, 1, 3), cobar.SliceComplex(2, True, 1, 5)
    assert low._chain_key(3) != high._chain_key(3)
    words, index = low.words(3), low.index(3)
    assert high.words(3) and set(high.words(3)) < set(words)
    assert all(words[index[w]] is w for w in high.words(3))


def test_an_oversized_cobar_slice_is_refused_from_counts(monkeypatch):
    # 15^6 words: counted, not listed, so no weight block is built
    built = []
    block = cobar._block
    monkeypatch.setattr(cobar, "_block", lambda *args: built.append(args) or block(*args))
    with pytest.raises(cobar.ComplexTooLargeError) as refused:
        cobar.SliceComplex(4, True, 0, 0).words(6)
    assert str(refused.value) == "slice s=6 exceeds 200000 monomials"
    assert built == []
    # far past the bound, a few factors of a lower bound refuse a band whose
    # exact count would take 33,334 terms of 40,000-digit binomials
    with pytest.raises(cobar.ComplexTooLargeError) as refused:
        cobar._check_band(50_000, 3, 50_000, 150_000)
    assert str(refused.value) == "slice s=50000 exceeds 200000 monomials"


def test_weight_blocks_and_their_split_terms_live_with_the_tables():
    # one weight, 35, at level 5, whose cap 31 binds at s = 3 and 4, so that
    # no table of another level or test holds these blocks
    cx = cobar.SliceComplex(5, False, 35, 35)
    cx.matrix(3)  # lists slices 3 and 4 and splits the words of slice 3
    here, up = cx._table(3), cx._table(4)
    assert here.blocks and up.blocks
    # the split targets are the word objects of the next slice's table
    for block in here.blocks.values():
        for targets in block.splits().values():
            assert all(up.words[up.index[t]] is t for t in targets)
    blocks = [weakref.ref(b) for table in (here, up) for b in table.blocks.values()]
    del cx, here, up, block
    gc.collect()
    assert all(b() is None for b in blocks)


def test_models_do_not_share_tables():
    # the same four numbers key a cobar and a Koszul slice
    cx, kx = cobar.SliceComplex(2, True, 1, 0), koszul.KoszulComplex(2, True, 1, 0)
    assert cx.words(1) == ((1,), (2,), (3,))
    assert kx.words(1) == ((0,), (1,))


@pytest.mark.parametrize("model", [cobar.SliceComplex, koszul.KoszulComplex])
def test_a_table_leaves_the_registry_with_its_last_complex(model):
    # a key no other test lists: level 4, u inverted, weight cut 21 at s = 3
    one, other = model(4, True, 5, 21), model(4, True, 9, 21)
    key = (model, one._chain_key(3))
    assert one.words(3) and other.words(3)
    table = weakref.ref(one._words[3])
    assert cobar._TABLES[key] is table() is other._words[3]
    del one
    gc.collect()
    assert cobar._TABLES[key] is table()
    del other
    gc.collect()
    assert table() is None and key not in cobar._TABLES
