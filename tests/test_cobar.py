from collections import Counter

import pytest

from cobarext import cobar, koszul
from cobarext.f2linalg import bits
from cobarext.grading import CobarMonomial, RO2Degree, element_label
from cobarext.xadic import einfty_basis


def labels(monos):
    return [m.label() for m in monos]


def test_basis_examples():
    assert labels(cobar.basis(0, RO2Degree(1, -1), 2)) == ["u"]
    assert labels(cobar.basis(0, RO2Degree(1, -1), None)) == ["u"]
    assert labels(cobar.basis(1, RO2Degree(1, 1), 1)) == ["[x]"]
    for n in (1, 2, 3, None):
        assert labels(cobar.basis(1, RO2Degree(1, -1), n)) == ["a^2 [x]"]


def test_basis_respects_letter_cap_and_alpha():
    b = cobar.basis(1, RO2Degree(4, 2), 2)
    assert all(1 <= m.word[0] <= 3 for m in b)
    assert all(m.alpha >= 0 and m.beta >= 0 for m in b)
    inv = cobar.basis(1, RO2Degree(4, 2), 2, invert_u=True)
    assert {m.label() for m in b} <= {m.label() for m in inv}


def test_unbounded_basis_rejected():
    with pytest.raises(cobar.UnboundedBasisError):
        cobar.basis(0, RO2Degree(0, 0), None, invert_u=True)


def test_differential_examples():
    # d(u) = a^2 [x]
    for n in (1, 2, 3):
        d = RO2Degree(1, -1)
        m = cobar.differential(0, d, n)
        assert labels(cobar.basis(0, d, n)) == ["u"]
        assert labels(cobar.basis(1, d, n)) == ["a^2 [x]"]
        assert m.rows == 1 and m.cols == 1 and m.entry(0, 0) == 1
    # d(u^2) = a^4 [x^2] needs the letter x^2, so level 2 and up
    d = RO2Degree(2, -2)
    m = cobar.differential(0, d, 2)
    basis1 = labels(cobar.basis(1, d, 2))
    assert m.apply(1) == 1 << basis1.index("a^4 [x^2]")
    assert cobar.differential(0, d, 1).is_zero()
    # d(a^alpha) = 0
    for alpha in range(1, 4):
        assert cobar.differential(0, RO2Degree(0, -alpha), 3).is_zero()


def test_differential_squares_to_zero():
    for n in (1, 2, 3):
        for s in (0, 1, 2):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    d = RO2Degree(p, q)
                    lo = cobar.differential(s, d, n)
                    hi = cobar.differential(s + 1, d, n)
                    assert hi.mul(lo).is_zero()  # also checked on assembly


def test_ext_examples():
    r = cobar.ext_dim(1, RO2Degree(1, 1), 2)
    assert r.dim == 1 and r.rep_labels == ("[x]",)
    for n in (1, 2, 3):
        assert cobar.ext_dim(1, RO2Degree(1, -1), n).dim == 0
    r = cobar.ext_dim(0, RO2Degree(2, -2), 1)
    assert r.dim == 1 and r.rep_labels == ("u^2",)


def test_ext_matches_closed_form_sample():
    for n in (1, 2, None):
        for s in (0, 1, 2, 3):
            for p in range(-4, 5):
                for q in range(-4, 5):
                    d = RO2Degree(p, q)
                    assert cobar.ext_dim(s, d, n).dim == len(einfty_basis(n, s, d))


def test_limit_examples():
    for q in (-1, -2, -5):
        rep = cobar.limit_ext_dim(0, RO2Degree(0, q))
        assert rep.limit_dim == 1
        assert rep.basis_labels == (CobarMonomial(-q, 0, ()).label(),)
    assert cobar.limit_ext_dim(1, RO2Degree(1, -3)).limit_dim == 0
    rep = cobar.limit_ext_dim(1, RO2Degree(1, 1))
    assert rep.limit_dim == 1 and rep.basis_labels == ("[x]",)


def test_limit_tower_certificate_rules():
    rep = cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2))
    assert rep.rule == "two-level" and rep.stabilized and rep.limit_dim == 1
    rep = cobar.limit_ext_report(1, RO2Degree(1, 1), (1, 2, 3))
    assert rep.rule == "three-level" and rep.stabilized
    with pytest.raises(ValueError):
        cobar.limit_ext_report(1, RO2Degree(1, 1), (2, 2))
    with pytest.raises(ValueError):
        cobar.limit_ext_report(1, RO2Degree(1, 1), (3,))


def test_limit_detects_late_birth():
    # the class in (s=1, d=(2,0)) only exists from level 2 on, and the
    # (1,2,3) window must refuse to certify rather than guess
    rep = cobar.limit_ext_report(1, RO2Degree(2, 0), (1, 2, 3))
    assert not rep.stabilized
    with pytest.raises(cobar.NotStabilizedError):
        cobar.limit_ext_dim(1, RO2Degree(2, 0), n_start=1, depth=2)
    rep = cobar.limit_ext_report(1, RO2Degree(2, 0), (2, 3, 4))
    assert rep.stabilized and rep.limit_dim == 1


def test_truncation_map_drops_exactly_the_words_above_the_cap():
    hi = cobar.SliceComplex(2, True, 1, 0)
    lo = cobar.SliceComplex(1, True, 1, 0)
    assert cobar._truncation_map(hi, lo, 1) == [0, None, None]  # [x], [x^2], [x^3]
    for s in (2, 3):
        index = lo.index(s)
        got = cobar._truncation_map(hi, lo, s)
        assert got == [None if max(w) > 1 else index[w] for w in hi.words(s)]
        assert sorted(t for t in got if t is not None) == list(range(len(index)))


def test_truncation_map_rejects_a_missing_word_within_the_cap():
    # the higher E-cut drops [x] downstairs although x is a legal letter there
    hi = cobar.SliceComplex(2, True, 1, 0)
    lo = cobar.SliceComplex(1, True, 1, 2)
    with pytest.raises(AssertionError, match="missing downstairs"):
        cobar._truncation_map(hi, lo, 1)


def test_a_multiplication_examples():
    d = RO2Degree(1, 1)
    assert cobar.ext_dim(1, d, 2).dim == 1
    assert cobar.a_multiplication_rank(1, d, 2) == 1
    assert cobar.a_multiplication_rank(1, RO2Degree(1, 0), 2) == 0
    # polynomial part: multiplication by a on Ext^0 is injective
    for q in range(0, 4):
        d0 = RO2Degree(0, -q)
        assert cobar.ext_dim(0, d0, 2).dim == 1
        assert cobar.a_multiplication_rank(0, d0, 2) == 1
    # y_1 sits at (s=1, d=(2,2)): a^3 times it is nonzero, a^4 kills it
    assert cobar.ext_dim(1, RO2Degree(2, 2), 2).dim == 1
    for step in range(3):
        assert cobar.a_multiplication_rank(1, RO2Degree(2, 2 - step), 2) == 1
    assert cobar.a_multiplication_rank(1, RO2Degree(2, -1), 2) == 0


def test_differential_degree_bookkeeping():
    d = RO2Degree(3, 1)
    n = 2
    src = cobar.basis(1, d, n)
    tgt = cobar.basis(2, d, n)
    m = cobar.differential(1, d, n)
    assert m.rows == len(tgt) and m.cols == len(src)
    for mono in src + tgt:
        assert mono.degree() == d
    assert all(len(mono.word) == 1 for mono in src)
    assert all(len(mono.word) == 2 for mono in tgt)


def test_localization_identity():
    report = cobar.verify_localization(n_values=(1, 2), window=3, s_max=2)
    assert report.ok
    assert len(report.entries) == 2 * 3 * 49


def test_complex_guard():
    with pytest.raises(cobar.ComplexTooLargeError):
        cobar.ext_dim(6, RO2Degree(0, 0), 3, invert_u=True, max_dim=1000)


def _window_reports(cells):
    return [cobar.limit_ext_report(s, RO2Degree(p, q), levels).to_dict()
            for s, p, q, levels in cells]


TOWER_WINDOW = [
    (s, p, budget - p, levels)
    for levels in ((1, 2, 3), (2, 3, 4))
    for s in range(4)
    for p in range(-4, 5)
    for budget in range(-4, 0)
]


def _clear_complex_caches():
    cobar._shared_complex.cache_clear()
    koszul._shared_koszul.cache_clear()


def test_tower_image_memo_keeps_reports_and_maps_each_triple_once(monkeypatch):
    def key(cx):
        return (cx.n, cx.invert_u, cx.p_key, cx.e_floor)

    # the towers restrict Koszul complexes; the labels of nonzero limits
    # truncate cobar complexes
    maps = {"cobar": Counter(), "koszul": Counter()}

    def counting(model, fn):
        def counted(src, dst, s):
            maps[model][key(src), key(dst), s] += 1
            return fn(src, dst, s)
        return counted

    monkeypatch.setattr(cobar, "_truncation_map", counting("cobar", cobar._truncation_map))
    monkeypatch.setattr(koszul.KoszulComplex, "restrict",
                        counting("koszul", koszul.KoszulComplex.restrict))
    _clear_complex_caches()
    cold = _window_reports(TOWER_WINDOW)
    warm = _window_reports(TOWER_WINDOW)
    for counts in maps.values():
        assert counts and set(counts.values()) == {1}
    # every report asks for three images; the window shares most of them
    assert len(maps["koszul"]) < 3 * len(TOWER_WINDOW)
    # memos filled in another order must give the same reports
    _clear_complex_caches()
    backwards = _window_reports(TOWER_WINDOW[::-1])[::-1]
    assert cold == warm == backwards
    assert any(r["stabilized"] and r["basis"] for r in cold)


def test_tower_image_memo_stores_no_error():
    # in both models the higher weight cut drops a chain within the lower level
    for hi, lo in ((cobar.SliceComplex(2, True, 1, 0), cobar.SliceComplex(1, True, 1, 2)),
                   (koszul.KoszulComplex(2, 1, 0), koszul.KoszulComplex(1, 1, 2))):
        for _ in range(2):
            with pytest.raises(AssertionError, match="missing downstairs"):
                cobar._image_in_lower(hi, lo, 1)
        assert not hi._images


def _basis_window():
    for n in (1, 2, 3, None):
        for invert_u in (False, True) if n is not None else (False,):
            for s in range(5):
                for p in range(-8, 9):
                    for q in range(-8, 9):
                        yield n, invert_u, s, RO2Degree(p, q)


def test_every_basis_word_is_a_valid_monomial():
    # ext_dim builds monomials only for representative words, so the
    # alpha >= 0 validation of every basis word is checked here instead
    for n, invert_u, s, d in _basis_window():
        assert all(m.degree() == d for m in cobar.basis(s, d, n, invert_u))


def test_rep_monomials_are_the_basis_entries_of_the_vector():
    for n, invert_u, s, d in _basis_window():
        if n == 3 and invert_u and s == 4:
            continue  # assembling their s = 5 targets takes about 10 s
        b = cobar.basis(s, d, n, invert_u)
        res = cobar.ext_dim(s, d, n, invert_u)
        old = tuple(element_label([b[j] for j in bits(v)]) for v in res.rep_vectors)
        for v in res.rep_vectors:
            assert res.rep_monomials(v) == [b[j] for j in bits(v)]
        assert res.rep_labels == old
