import hashlib
import types

import pytest

from cobarext import cobar, koszul, xadic
from cobarext.grading import RO2Degree
from cobarext.xadic import EinftyMonomial


def names(monos):
    return [m.label() for m in monos]


def test_admissibility_examples():
    assert names(xadic.einfty_basis(2, 1, RO2Degree(1, 1))) == ["y_0"]
    for n in (1, 2, 3, None):
        assert xadic.einfty_basis(n, 1, RO2Degree(1, -1)) == []
    assert names(xadic.einfty_basis(1, 0, RO2Degree(2, -2))) == ["u^2"]
    # pure a-powers at n = inf, and only them, in the zero-y column
    assert names(xadic.einfty_basis(None, 0, RO2Degree(0, -3))) == ["a^3"]
    assert xadic.einfty_basis(None, 0, RO2Degree(4, -4)) == []


def test_degree_and_filtration():
    mono = EinftyMonomial(1, 4, (2, 1))
    assert mono.label() == "a u^4 y_0^2 y_1"
    assert mono.filtration == 3
    assert mono.degree() == RO2Degree(8, -1)


def test_closed_form_pages_pinned():
    # labels of every final page (n in 1, 2, 3, inf), every stage page
    # (t <= n, t <= 4 at inf) and the completed names over s <= 4 and
    # |p|, |q| <= 8, one line per list: a change to the page rule or the
    # enumerator must keep every page byte for byte
    window = [(s, RO2Degree(p, q)) for s in range(5)
              for p in range(-8, 9) for q in range(-8, 9)]
    pages = []
    for n in (1, 2, 3, None):
        pages += [xadic.einfty_basis(n, s, d) for s, d in window]
        for t in range(5 if n is None else n + 1):
            pages += [xadic.xadic_stage(n, t, s, d) for s, d in window]
    pages += [xadic.completed_basis(s, d) for s, d in window]
    assert len(pages) == 27455
    text = "".join(" | ".join(names(monos)) + "\n" for monos in pages)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "fd57fced26dd84152ff21b2663e05edd40321c06602bd9f26ebca0e505de093a"


def test_stage_examples():
    # stage 0 is the full polynomial ring's tridegree slice
    assert names(xadic.xadic_stage(2, 0, 0, RO2Degree(1, -1))) == ["u"]
    # u dies leaving stage 0, so it is absent from stage 1 on
    for t in (1, 2):
        assert xadic.xadic_stage(2, t, 0, RO2Degree(1, -1)) == []
    # the final stage equals the closed-form basis across a window
    for s in range(4):
        for p in range(-4, 5):
            for q in range(-4, 5):
                d = RO2Degree(p, q)
                assert names(xadic.xadic_stage(2, 2, s, d)) == \
                    names(xadic.einfty_basis(2, s, d))
    with pytest.raises(xadic.StageOutOfRangeError):
        xadic.xadic_stage(2, 3, 0, RO2Degree(0, 0))


def test_stage_monotone_counts():
    for s in range(4):
        for p in range(-4, 5):
            for q in range(-4, 5):
                d = RO2Degree(p, q)
                counts = [len(xadic.xadic_stage(3, t, s, d)) for t in range(4)]
                assert counts == sorted(counts, reverse=True)


def test_differential_examples():
    u = EinftyMonomial(0, 1, ())
    assert xadic.xadic_differential(2, 0, u) == frozenset(
        {EinftyMonomial(2, 0, (1,))})
    assert xadic.xadic_differential(2, 0, EinftyMonomial(0, 2, ())) == frozenset()
    assert xadic.xadic_differential(2, 0, EinftyMonomial(0, 3, ())) == frozenset(
        {EinftyMonomial(2, 2, (1,))})
    with pytest.raises(xadic.NotOnPageError):
        xadic.xadic_differential(2, 1, u)


def test_differential_degree_and_square():
    for t in (0, 1):
        for s in range(3):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    d = RO2Degree(p, q)
                    for mono in xadic.xadic_stage(3, t, s, d):
                        image = xadic.xadic_differential(3, t, mono)
                        acc = set()
                        for tgt in image:
                            assert tgt.degree() == d
                            assert tgt.filtration == s + 1
                            acc ^= set(xadic.xadic_differential(3, t, tgt))
                        assert not acc  # d after d vanishes termwise


def test_coboundary_examples():
    assert xadic.verify_coboundary(0, 0, 1).ok
    c = xadic.verify_coboundary(1, 1, 2)
    assert c.ok and c.source == "u^6"
    assert c.kept == ("a^4 u^4 [x^2]",) and c.discarded == ()
    c = xadic.verify_coboundary(2, 0, 3)
    assert c.ok and c.expected == "a^8 [x^4]"
    with pytest.raises(ValueError):
        xadic.verify_coboundary(2, 0, 2)
    for n in (0, 2):
        with pytest.raises(ValueError, match="r=-1"):
            xadic.verify_coboundary(-1, 0, n)


def test_coboundary_sweep():
    report = xadic.verify_coboundaries(3, 3, 4)
    assert report.ok
    assert [(c.r, c.m, c.n) for c in report.checks] == [
        (r, m, n) for r in range(4) for m in range(4) for n in range(r + 1, 5)]
    # each r is checked at least at its first level r + 1
    cases = [(c.r, c.m, c.n) for c in xadic.verify_coboundaries(2, 1, 2).checks]
    assert cases == [(0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (1, 0, 2), (1, 1, 2),
                     (2, 0, 3), (2, 1, 3)]
    for window in ((-1, 3, 4), (3, -1, 4)):
        report = xadic.verify_coboundaries(*window)
        assert report.checks == () and not report.ok


def test_vanishing_examples():
    report = xadic.verify_vanishing((0, 0), (-3, -3), 2)
    assert report.ok
    by_s = {e.s: e for e in report.entries if e.p == 0 and e.q == -3}
    assert by_s[0].expected_basis == ("a^3",) and by_s[0].got_basis == ("a^3",)
    assert by_s[1].got_dim == 0 and by_s[2].got_dim == 0
    assert xadic.verify_vanishing((-2, -2), (-1, -1), 2).ok
    assert xadic.verify_vanishing((3, 3), (-1, -1), 2).ok
    with pytest.raises(ValueError):
        xadic.verify_vanishing((0, 0), (-1, 0), 1)


def test_einfty_oracle_sample():
    report = xadic.verify_einfty(1, 5, 3)
    assert report.ok and report.checked == 4 * 11 * 11
    # an ordered map that evaluates the cells in another order changes nothing
    assert xadic.verify_einfty(
        1, 5, 3, map_fn=lambda fn, cells: [fn(c) for c in list(cells)[::-1]][::-1]
    ) == report


def test_verify_einfty_lists_the_monomials_of_each_filtration_once(monkeypatch):
    walks = []
    real = xadic.y_chains

    def counting(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(xadic, "y_chains", counting)
    assert xadic.verify_einfty(2, 5, 3).ok
    assert len(walks) == 4


def test_verify_einfty_reports_a_planted_koszul_dim(monkeypatch):
    # the Koszul dim of one cell is off by one; the report must name that
    # cell and no other, whatever order the map evaluates the items in
    class Planted:
        def __init__(self, cx):
            self.cx = cx

        def cohomology(self, s):
            res = self.cx.cohomology(s)
            return types.SimpleNamespace(dim=res.dim + 1) if s == 2 else res

    real = xadic.get_koszul

    def planting(d, n, invert_u=True):
        cx = real(d, n, invert_u)
        return Planted(cx) if d == RO2Degree(3, 1) else cx

    want = len(xadic.einfty_basis(1, 2, RO2Degree(3, 1)))
    monkeypatch.setattr(xadic, "get_koszul", planting)
    expected = (xadic.EinftyMismatch(1, 2, 3, 1, want + 1, want),)
    report = xadic.verify_einfty(1, 5, 3)
    assert report.mismatches == expected and report.checked == 4 * 11 * 11
    assert xadic.verify_einfty(
        1, 5, 3, map_fn=lambda fn, cells: [fn(c) for c in list(cells)[::-1]][::-1]
    ) == report


@pytest.mark.parametrize("k_min", [0, None])
def test_window_lists_equal_the_one_degree_lists(k_min):
    span = (-12, 12)
    for n in (1, 2, 3, None):
        def admissible(mono):
            return mono.admissible(n)

        for s in range(7):
            # with k >= 0 the window takes its top p's index bound and a lone
            # degree its own; with any k both take one bound
            top = koszul.index_top(n, False, span[1]) if k_min == 0 else n or 4
            window = xadic._window_monomials(top, s, span, span, admissible, k_min)
            assert len(window) == 25 * 25
            for (p, q), monos in window.items():
                r_top = koszul.index_top(n, False, p) if k_min == 0 else top
                assert monos == xadic._window_monomials(
                    r_top, s, (p, p), (q, q), admissible, k_min)[p, q], (n, s, p, q)


def test_closed_form_pages_refuse_a_negative_filtration():
    d = RO2Degree(0, 0)
    for page in (lambda: xadic.einfty_basis(2, -1, d),
                 lambda: xadic.xadic_stage(2, 0, -1, d),
                 lambda: xadic.completed_basis(-1, d)):
        with pytest.raises(ValueError, match=r"no page at negative filtration s=-1"):
            page()


def test_predicted_a_rank_matches_cobar():
    for n in (1, 2):
        for s in range(3):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    d = RO2Degree(p, q)
                    rank = cobar.a_multiplication_rank(s, d, n)
                    assert xadic.predicted_a_rank(n, s, d) == rank, (n, s, p, q)
                    # the rank is read on Koszul complexes; cobar's must agree
                    lower = cobar.get_complex(RO2Degree(p, q - 1), n, False)
                    assert cobar._image_in_lower(cobar.get_complex(d, n, False),
                                                 lower, s)[0] == rank, (n, s, p, q)


def test_completed_basis_negative_powers():
    # u-inverted world: the y_1 tower reaches down to negative u-exponents
    monos = xadic.completed_basis(1, RO2Degree(-2, 4))
    assert names(monos) == ["a^2 u^-4 y_1"]
    assert xadic.completed_basis(0, RO2Degree(0, -2)) == [EinftyMonomial(2, 0, ())]
    assert xadic.completed_basis(0, RO2Degree(2, -2)) == []
