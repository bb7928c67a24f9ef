"""The Koszul model against the cobar reference: slice dims, full tower
reports, and the Koszul slice guard."""

import dataclasses

import pytest

from cobarext import cobar, koszul
from cobarext.grading import RO2Degree


def test_koszul_chains_and_differential_examples():
    cx = koszul.KoszulComplex(3, 0, 0)
    assert len(cx.words(4)) == 15  # C(3+4-1, 4)
    assert cx.words(1) == ((0,), (1,), (2,))
    # beta = 0 - weight: d(y_0) has bits 0..2 of -1 set, d(y_2) only bit 2 of -4
    d = cx.matrix(1)
    index = cx.index(2)
    assert d.apply(1 << 0) == sum(1 << index[c] for c in ((0, 0), (0, 1), (0, 2)))
    assert d.apply(1 << 2) == 1 << index[(2, 2)]
    # the weight cut drops chains with alpha < 0
    assert koszul.KoszulComplex(3, 0, 3).words(1) == ((2,),)


def test_koszul_restriction_sends_high_indices_to_zero():
    hi = koszul.KoszulComplex(3, 1, 0)
    lo = koszul.KoszulComplex(2, 1, 0)
    index = lo.index(2)
    assert hi.restrict(lo, 2) == [index.get(c) if max(c) < 2 else None
                                  for c in hi.words(2)]
    with pytest.raises(AssertionError, match="missing downstairs"):
        hi.restrict(koszul.KoszulComplex(2, 1, 2), 1)


def test_koszul_guard_raises_complex_too_large():
    cx = koszul.KoszulComplex(3, 0, 0, max_dim=20)
    assert len(cx.words(4)) == 15
    with pytest.raises(cobar.ComplexTooLargeError):
        cx.words(5)  # C(7, 5) = 21 chains


def test_labels_need_the_cobar_slice_within_the_guard():
    # the Koszul slices fit under the cap, the cobar label slices do not
    report = cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3), max_dim=10)
    assert report.stabilized and report.limit_dim == 1
    with pytest.raises(cobar.ComplexTooLargeError):
        report.basis_labels
    assert cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3)).basis_labels == ("[x]",)


def test_labels_cross_check_the_certified_dim():
    report = cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3))
    with pytest.raises(AssertionError, match="differs from the certified limit"):
        dataclasses.replace(report, limit_dim=2).basis_labels


def test_koszul_dims_match_cobar_ext():
    for n in (1, 2, 3):
        for s in range(5):
            for p in range(-8, 9):
                for q in range(-8, 9):
                    d = RO2Degree(p, q)
                    try:
                        want = cobar.ext_dim(s, d, n, True).dim
                    except cobar.ComplexTooLargeError:
                        continue
                    assert koszul.get_koszul(d, n).cohomology(s).dim == want, (n, s, p, q)


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
