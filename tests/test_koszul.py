"""The Koszul model against the cobar reference: slice dims, full tower
reports, and the Koszul slice guard; towers from the stable level against
the level-free weight quotient."""

from itertools import product

import pytest

from cobarext import cobar, koszul, xadic
from cobarext.f2linalg import bits
from cobarext.grading import RO2Degree
from helpers import replace


def test_koszul_chains_and_differential_examples():
    cx = koszul.KoszulComplex(3, True, 0, 0)
    assert len(cx.words(4)) == 15  # C(3+4-1, 4)
    assert cx.words(1) == ((0,), (1,), (2,))
    with pytest.raises(ValueError, match="s=-1"):
        cx.words(-1)
    # beta = 0 - weight: d(y_0) has bits 0..2 of -1 set, d(y_2) only bit 2 of -4
    d = cx.matrix(1)
    index = cx.index(2)
    assert d.apply(1 << 0) == sum(1 << index[c] for c in ((0, 0), (0, 1), (0, 2)))
    assert d.apply(1 << 2) == 1 << index[(2, 2)]
    # the weight cut drops chains with alpha < 0
    assert koszul.KoszulComplex(3, True, 0, 3).words(1) == ((2,),)
    assert list(koszul.y_chains(3, 2, 3)) == [
        ((0, 1), 3), ((0, 2), 5), ((1, 1), 4), ((1, 2), 6), ((2, 2), 8)]


def test_y_chains_are_the_brute_force_weight_band():
    for r_top in range(5):
        for s in range(5):
            chains = [(c, sum(1 << r for r in c))
                      for c in product(range(r_top), repeat=s) if list(c) == sorted(c)]
            top = s << max(r_top - 1, 0)
            for w_min in range(-1, top + 2):
                # no bound, an empty band (w_max < w_min), one weight, a few, past the top
                for w_max in (None, w_min - 1, w_min, w_min + 3, top + 1):
                    want = [(c, w) for c, w in chains
                            if w >= w_min and (w_max is None or w <= w_max)]
                    assert list(koszul.y_chains(r_top, s, w_min, w_max)) == want, (
                        r_top, s, w_min, w_max)


def test_koszul_chains_with_u_not_inverted_and_at_inf():
    # beta = p - weight >= 0: at p = 5 the chains y_1 y_2 (6) and y_2^2 (8)
    # are gone, and d(y_0) = y_0 y_2 since beta = 4
    for n in (3, None):
        cx = koszul.KoszulComplex(n, False, 5, 0)
        assert cx.words(1) == ((0,), (1,), (2,))
        assert cx.words(2) == ((0, 0), (0, 1), (0, 2), (1, 1))
        assert cx.matrix(1).apply(1 << 0) == 1 << cx.index(2)[(0, 2)]
    # at inf the indices run below bit_length(p), and none above p < 0
    assert koszul.KoszulComplex(None, False, 8, 0).words(1) == ((0,), (1,), (2,), (3,))
    assert koszul.KoszulComplex(None, False, -1, 0).words(0) == ()
    assert koszul.KoszulComplex(None, False, 0, 0).words(0) == ((),)
    # shared under the cobar key; u inverted at inf is refused, as in cobar
    cx = koszul.get_koszul(RO2Degree(3, 1), None, False)
    assert (cx.n, cx.invert_u, cx.p_key, cx.e_floor) == cobar.slice_key(
        RO2Degree(3, 1), None, False)
    with pytest.raises(cobar.UnboundedBasisError):
        koszul.get_koszul(RO2Degree(1, 1), None, True)


def test_koszul_restriction_sends_high_indices_to_zero():
    hi = koszul.KoszulComplex(3, True, 1, 0)
    lo = koszul.KoszulComplex(2, True, 1, 0)
    index = lo.index(2)
    assert cobar._truncation_map(hi, lo, 2) == [index.get(c) if max(c) < 2 else None
                                                for c in hi.words(2)]
    with pytest.raises(AssertionError, match="missing downstairs"):
        cobar._truncation_map(hi, koszul.KoszulComplex(2, True, 1, 2), 1)
    # at inf every index is legal, so a chain missing downstairs is an error
    with pytest.raises(AssertionError, match="missing downstairs"):
        cobar._truncation_map(koszul.KoszulComplex(None, False, 3, 0),
                              koszul.KoszulComplex(None, False, 3, 2), 1)


def test_koszul_guard_raises_complex_too_large(slice_cap):
    slice_cap(20)
    cx = koszul.KoszulComplex(3, True, 0, 0)
    assert len(cx.words(4)) == 15
    with pytest.raises(cobar.ComplexTooLargeError):
        cx.words(5)  # C(7, 5) = 21 chains


def test_labels_need_the_cobar_slice_within_the_guard(slice_cap):
    # the Koszul slices fit under the cap, the cobar label slices do not
    default = cobar.MAX_SLICE_DIM
    slice_cap(10)
    report = cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3))
    assert report.stabilized and report.limit_dim == 1
    with pytest.raises(cobar.ComplexTooLargeError):
        report.basis_labels
    slice_cap(default)
    assert cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3)).basis_labels == ("[x]",)


def test_labels_cross_check_the_certified_dim():
    report = cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3))
    with pytest.raises(AssertionError, match="differs from the certified limit"):
        replace(report, limit_dim=2).basis_labels


def test_koszul_dims_match_cobar_ext():
    # u not inverted at inf, the path of `verify einfty --n inf` (the finite
    # levels are ACCEPT-01's); then u inverted at n = 1..3, level 3 last so
    # that the tower test below finds its cobar slices cached
    for n, invert_u in ((None, False), (1, True), (2, True), (3, True)):
        for s in range(5):
            for p in range(-8, 9):
                for q in range(-8, 9):
                    d = RO2Degree(p, q)
                    try:
                        want = cobar.ext_dim(s, d, n, invert_u).dim
                    except cobar.ComplexTooLargeError:
                        continue
                    got = koszul.get_koszul(d, n, invert_u).cohomology(s).dim
                    assert got == want, (n, invert_u, s, p, q)


def _cobar_tower(s, d, levels):
    return cobar.tower_report(s, d, [cobar.get_complex(d, n, True) for n in levels])


TOWER_CELLS = (
    [(s, p, total - p, (1, 2, 3))
     for s in range(5) for p in range(-6, 7) for total in range(-6, 7)]
    + [(s, p, total - p, (1, 2))
       for s in (5, 6) for p in range(-3, 4) for total in range(-3, 4)]
)


def test_koszul_towers_match_cobar_towers():
    # run after the dims test, this reuses most of its level-3 cobar slices
    stabilized = nonzero = 0
    for s, p, q, levels in TOWER_CELLS:
        d = RO2Degree(p, q)
        got = cobar.limit_ext_report(s, d, levels).to_dict()
        assert got == _cobar_tower(s, d, levels).to_dict(), (s, p, q, levels)
        stabilized += got["stabilized"]
        nonzero += bool(got["limit_dim"])
    # the window holds certified nonzero limits and uncertified cells
    assert nonzero and stabilized < len(TOWER_CELLS)


class WeightQuotient(cobar.SlicesBase):
    """K<, the Koszul chains y^I of weight w < e with
    d(y^I) = sum of y^(I + e_r) over the set bits r of p - w with
    w + 2^r < e.  Only y_r with 2^r < e occur, so it is one complex at
    every level."""

    def __init__(self, p: int, e: int):
        super().__init__(None, False, p, e)
        self._r_top = max(e - 1, 0).bit_length()

    def _band(self, s):
        return self._r_top, 0, self.e_floor - 1

    def _chains(self, s):
        r_top, lo, hi = self._band(s)
        return (chain for chain, _ in koszul.y_chains(r_top, s, lo, hi))

    def _targets(self, chain):
        w = sum(1 << r for r in chain)
        for r in bits((self.p_key - w) & ((1 << self._r_top) - 1)):
            if w + (1 << r) < self.e_floor:
                yield tuple(sorted(chain + (r,)))


def _quotient_limit(s, d):
    """Completed Ext dim read off K< by the long exact sequence."""
    e = max(0, cobar.ceil_half(d.p + d.q))
    if e == 0:
        return int(s == 0 and d.p == 0)
    if s == 0:
        return 0
    return WeightQuotient(d.p, e).cohomology(s - 1).dim - (s == 1 and d.p == 0)


STABLE_CELLS = [(s, RO2Degree(p, q))
                for s in range(7) for p in range(-12, 13) for q in range(-12, 13)]


def test_towers_from_the_stable_level_match_the_weight_quotient():
    for s, d in STABLE_CELLS:
        n = koszul.stable_level(s, d)
        report = cobar.limit_ext_report(s, d, range(n, n + 3))
        assert report.stabilized, (s, d)
        assert report.dims[0] == report.limit_dim == _quotient_limit(s, d), (s, d)


def test_completed_names_use_indices_below_the_stable_level():
    for s, d in STABLE_CELLS:
        n = koszul.stable_level(s, d)
        wide = xadic._window_monomials(n + 2, s, (d.p, d.p), (d.q, d.q),
                                       lambda m: m.admissible(None))[d.p, d.q]
        assert all(len(m.powers) <= n for m in wide), (s, d)
        assert xadic.completed_basis(s, d) == wide
