"""Cobar differentials assembled weight block by weight block: equal to the
per-chain formula, with the split part of d kept per pair of chain tables
from the second coefficient key on, a missing boundary target refused on
every part, and slices of long words built without recursion."""

import subprocess
import sys
import weakref

import pytest

from cobarext import cobar, koszul
from cobarext.f2linalg import F2Matrix
from cobarext.grading import RO2Degree
from cobarext.hopf import coaction_letters, comult_reduced, letter_cap


def _per_chain(cx, s):
    """d out of slice s, chain by chain: the coaction letters of u^(p - E)
    prepended to each word, plus the splits of each letter by the reduced
    comultiplication at cx's level; repeats cancel."""
    words, row = cx.words(s), cx.index(s + 1)
    cols = []
    for word in words:
        col = 0
        for i in coaction_letters(cx.p_key - sum(word), cx.n):
            col ^= 1 << row[(i,) + word]
        for slot, e in enumerate(word):
            for i1, i2 in comult_reduced(e, cx.n):
                col ^= 1 << row[word[:slot] + (i1, i2) + word[slot + 1:]]
        cols.append(col)
    return F2Matrix(len(row), len(words), tuple(cols))


@pytest.fixture
def fresh(monkeypatch):
    """Empty table and block registries, so that every matrix is assembled
    here, not shared from another test's tables."""
    monkeypatch.setattr(cobar, "_TABLES", weakref.WeakValueDictionary())
    monkeypatch.setattr(cobar, "_BLOCKS", weakref.WeakValueDictionary())


# (level, u inverted, highest s); the p keys and cuts below
CASES = [(1, False, 5), (1, True, 5), (2, False, 5), (2, True, 5),
         (3, False, 5), (3, True, 4), (None, False, 5)]


@pytest.mark.parametrize("n,invert_u,s_max", CASES)
def test_block_assembly_is_the_per_chain_formula(fresh, n, invert_u, s_max):
    p_keys = range(2**n) if invert_u else (-3, 0, 1, 4, 7, 10)
    for p_key in p_keys:
        for e_floor in (0, 2, 5):
            cx = cobar.SliceComplex(n, invert_u, p_key, e_floor)
            for s in range(s_max + 1):
                assert cx.matrix(s) == _per_chain(cx, s), (p_key, e_floor, s)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_the_split_part_is_kept_from_the_second_coefficient_key_on(fresh, n, order):
    # with u inverted the complexes of every p mod 2^n share slices 2 and 3
    complexes = [cobar.SliceComplex(n, True, p_key, 0) for p_key in range(2**n)][::order]
    src, tgt = complexes[0]._table(2), complexes[0]._table(3)
    for k, cx in enumerate(complexes):
        assert cx._table(2) is src and cx._table(3) is tgt
        assert cx.matrix(2) == _per_chain(cx, 2), cx.p_key
        assert len(src.matrices) == k + 1
        assert list(src.split_cols) == ([tgt.key] if k else [])
    # the kept part is d's split part alone: d at p = 0 less its coaction
    coaction = [0] * len(src.words)
    for j, word in enumerate(src.words):
        for i in coaction_letters(-sum(word), n):
            coaction[j] ^= 1 << tgt.index[(i,) + word]
    zero = next(cx for cx in complexes if cx.p_key == 0)
    assert src.split_cols[tgt.key] == tuple(
        a ^ b for a, b in zip(zero.matrix(2).col_bits, coaction))


def test_a_coaction_target_outside_the_next_slice_is_refused(fresh, monkeypatch):
    first, second = cobar.SliceComplex(2, True, 0, 0), cobar.SliceComplex(2, True, 1, 0)
    letters = cobar.coaction_letters
    beyond = lambda beta, n: letters(beta, n) + (letter_cap(n) + 1,)  # noqa: E731
    # on the first key, which assembles both parts together
    with monkeypatch.context() as patch:
        patch.setattr(cobar, "coaction_letters", beyond)
        with pytest.raises(AssertionError, match="missing"):
            first.matrix(2)
    # on the second, which adds the coaction part to the kept split part
    first.matrix(2)
    monkeypatch.setattr(cobar, "coaction_letters", beyond)
    with pytest.raises(AssertionError, match="missing"):
        second.matrix(2)
    assert first._table(2).split_cols


def test_a_split_target_outside_the_next_slice_is_refused(fresh, monkeypatch):
    splits = cobar._splits
    monkeypatch.setattr(cobar, "_splits", lambda word: (*splits(word), (99,) + word))
    for s in (1, 2, 3):
        with pytest.raises(AssertionError, match="missing"):
            cobar.SliceComplex(2, True, 0, 0).matrix(s)


@pytest.mark.parametrize("invert_u", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_slices_0_and_1_are_listed_and_split_through_weight_blocks(fresh, monkeypatch,
                                                                   n, invert_u):
    cap = letter_cap(n)
    # two coefficient keys on one table of each of slices 0, 1 and 2
    one, other = (cobar.SliceComplex(n, invert_u, p_key, 0)
                  for p_key in ((0, 1) if invert_u else (2 * cap, 2 * cap + 1)))
    assert one._coeff_key() != other._coeff_key()
    for s in (0, 1):
        table = one._table(s)
        assert table is other._table(s) and one._table(s + 1) is other._table(s + 1)
        _, lo, hi = one._band(s)
        weights = range(max(lo, s), min(hi, s * cap) + 1)
        assert list(table.blocks) == list(weights)
        assert [block.words for block in table.blocks.values()] == [
            ((w,)[:s],) for w in weights]
    # the second key is served each block's split map: no word is split again
    served, split = [], []
    block_splits, word_splits = cobar._WeightBlock.splits, cobar._splits
    monkeypatch.setattr(cobar._WeightBlock, "splits",
                        lambda block: served.append(block_splits(block)) or served[-1])
    monkeypatch.setattr(cobar, "_splits", lambda word: split.append(word) or word_splits(word))
    assert one.matrix(1) == _per_chain(one, 1)
    first = {id(m) for m in served}
    assert first and split
    served.clear()
    split.clear()
    assert other.matrix(1) == _per_chain(other, 1)
    assert {id(m) for m in served} == first and split == []


def test_a_slice_of_long_words_is_built_without_recursion():
    # one word of 600 letters x per slice: a block per length, each built on the one below
    r = subprocess.run([sys.executable, "-m", "cobarext", "ext", "--n", "1", "--invert-u",
                        "--s", "600", "--p", "0", "--q", "1200"],
                       capture_output=True, text=True, timeout=30)
    assert r.returncode == 0, r.stderr
    assert '"dim": 1,' in r.stdout
    assert koszul.get_koszul(RO2Degree(0, 1200), 1, True).cohomology(600).dim == 1
