import hashlib

import pytest

from cobarext import hopf
from cobarext.grading import RO2Degree, binom_int
from cobarext.hopf import (
    LetterOutOfRangeError,
    NegativeConeClass,
    UnboundedCoactionError,
    check_axioms,
    coaction,
    coaction_letters,
    comult_reduced,
    cone_action,
    cone_element_label,
    eta_r_negative,
    positive_element_label,
)

X_DEGREE = RO2Degree(1, 1)


def coeff_degree(alpha: int, beta: int) -> RO2Degree:
    return RO2Degree(0, -1).scaled(alpha) + RO2Degree(1, -1).scaled(beta)


def test_comult_reduced_examples():
    for n in (2, 3, 4, None):
        for r in range(3):
            if n is not None and 2**r >= 2**n:
                continue
            assert comult_reduced(2**r, n) == frozenset()
    assert comult_reduced(3, 2) == frozenset({(1, 2), (2, 1)})
    assert comult_reduced(5, 3) == frozenset({(1, 4), (4, 1)})


def test_comult_letter_range():
    with pytest.raises(LetterOutOfRangeError):
        comult_reduced(4, 2)
    with pytest.raises(LetterOutOfRangeError):
        comult_reduced(0, 2)


def test_coaction_examples():
    assert coaction(0, 1, None) == frozenset({(0, 1, 0), (2, 0, 1)})
    assert coaction(3, 0, None) == frozenset({(3, 0, 0)})
    assert coaction(0, -1, 2) == frozenset(
        {(0, -1, 0), (2, -2, 1), (4, -3, 2), (6, -4, 3)})


def test_coaction_level1_square():
    # x^2 = 0 at level 1, so u^2 is a comodule primitive there
    assert coaction(0, 2, 1) == frozenset({(0, 2, 0)})


def test_negative_u_needs_truncation():
    with pytest.raises(UnboundedCoactionError):
        coaction(0, -1, None)


def test_coaction_letters_are_the_reduced_coaction():
    for n in (1, 2, 3, 4, None):
        for beta in range(-40 if n else 0, 41):
            top = beta if n is None else 2**n - 1
            want = tuple(i for i in range(1, top + 1) if binom_int(beta, i) % 2)
            assert coaction_letters(beta, n) == want, (beta, n)
            assert coaction(1, beta, n) == frozenset(
                [(1, beta, 0)] + [(1 + 2 * i, beta - i, i) for i in want])
    with pytest.raises(UnboundedCoactionError):
        coaction_letters(-1, None)


def test_coaction_inverse_multiplies_to_one():
    n = 2
    cap = 2**n
    prod = set()
    for a1, b1, k1 in coaction(0, 1, n):
        for a2, b2, k2 in coaction(0, -1, n):
            if k1 + k2 < cap:
                prod ^= {(a1 + a2, b1 + b2, k1 + k2)}
    assert prod == {(0, 0, 0)}


def test_coaction_degree_homogeneous():
    for alpha in range(4):
        for beta in range(-4, 5):
            want = coeff_degree(alpha, beta)
            for a2, b2, k in coaction(alpha, beta, 3):
                assert coeff_degree(a2, b2) + X_DEGREE.scaled(k) == want


def test_eta_r_positive_examples():
    # on the polynomial part the right unit is the untruncated coaction
    assert coaction(0, 1, None) == frozenset({(0, 1, 0), (2, 0, 1)})
    assert coaction(5, 0, None) == frozenset({(5, 0, 0)})
    assert coaction(0, 2, None) == frozenset({(0, 2, 0), (4, 0, 2)})
    assert positive_element_label(coaction(0, 1, None)) == "u + a^2 x"
    assert positive_element_label(coaction(3, 0, None)) == "a^3"


def test_eta_r_negative_examples():
    assert eta_r_negative(NegativeConeClass(0, 0)) == frozenset(
        {(NegativeConeClass(0, 0), 0)})
    assert eta_r_negative(NegativeConeClass(0, 1)) == frozenset(
        {(NegativeConeClass(0, 1), 0)})
    got = eta_r_negative(NegativeConeClass(2, 1))
    assert got == frozenset(
        {(NegativeConeClass(2, 1), 0), (NegativeConeClass(0, 2), 1)})
    assert cone_element_label(got) == "θ/(a^2 u) ⊗ 1 + θ/u^2 ⊗ x"


def test_eta_r_negative_torsion_bound_and_homogeneity():
    for i in range(9):
        for j in range(9):
            c = NegativeConeClass(i, j)
            terms = eta_r_negative(c)
            assert terms  # finite and nonempty (k = 0 term always present)
            for cls, k in terms:
                assert cls.i >= 0 and cls.j >= 0
                assert cls.degree() + X_DEGREE.scaled(k) == c.degree()


def test_cone_degree_and_action():
    assert NegativeConeClass(0, 0).degree() == RO2Degree(-2, 2)
    assert NegativeConeClass(2, 1).degree() == RO2Degree(-3, 5)
    c = NegativeConeClass(1, 1)
    assert cone_action(1, 0, c) == NegativeConeClass(0, 1)
    assert cone_action(0, 1, c) == NegativeConeClass(1, 0)
    assert cone_action(2, 0, c) is None
    assert cone_action(0, 2, c) is None


def test_cone_labels():
    assert NegativeConeClass(0, 0).label() == "θ"
    assert NegativeConeClass(1, 0).label() == "θ/a"
    assert NegativeConeClass(0, 2).label() == "θ/u^2"
    assert NegativeConeClass(3, 1).label() == "θ/(a^3 u)"


def test_axiom_suite_passes():
    for n in (1, 2, 3, 4):
        report = check_axioms(n, coeff_window=4, cone_window=4)
        assert report.ok, report.lines()


def test_axiom_suite_runs_each_level_up_to_nmax():
    suite = hopf.verify_axioms(2, 3)
    assert suite.reports == tuple(check_axioms(n, coeff_window=3, cone_window=3)
                                  for n in (1, 2))
    assert suite.ok
    assert not hopf.verify_axioms(0, 3).ok


def test_axiom_suite_pinned_window():
    assert check_axioms(2, 3, coeff_window=4, cone_window=4).ok


def test_axiom_suite_empty_window():
    report = check_axioms(2, 3, coeff_window=0, cone_window=0)
    assert report.ok


def test_axiom_suite_of_no_cases_fails():
    # every law's window is empty: a gate that checked nothing must fail
    report = check_axioms(1, -1, coeff_window=-1, cone_window=-1)
    assert report.checks and all(c.cases == 0 for c in report.checks)
    assert not report.ok
    assert report.lines() == [f"level 1: {c.name}: 0 cases: FAIL (no cases)"
                              for c in report.checks]


def test_axiom_suite_catches_corrupted_coaction():
    def corrupted(alpha, beta, n):
        # drop the interesting term of psi(u) on every u^1 monomial
        if beta == 1:
            return frozenset({(alpha, beta, 0)})
        return coaction(alpha, beta, n)

    report = check_axioms(2, 3, coeff_window=4, cone_window=4,
                          coaction_fn=corrupted)
    assert not report.ok
    assert report.lines() == [
        "level 2: comultiplication coassociativity: 4 cases: pass",
        "level 2: comultiplication counit: 4 cases: pass",
        "level 2: comodule coassociativity: 8 cases: FAIL (a^0 u^3)",
        "level 2: comodule counit: 45 cases: pass",
        "level 2: coaction multiplicativity: 6 cases: FAIL (a^0 u^-4 times a^0 u^1)",
        "level 2: right unit multiplicativity: 625 cases: pass",
        "level 2: right unit cone compatibility: 375 cases: pass",
    ]


def test_axiom_suite_catches_a_corrupted_right_unit(monkeypatch):
    """The right-unit laws read the module's coaction, untruncated; the
    coaction laws read coaction_fn, which keeps the sound default."""
    sound = hopf.coaction

    def corrupted(alpha, beta, n):
        if beta == 1:
            return frozenset({(alpha, beta, 0)})
        return sound(alpha, beta, n)

    monkeypatch.setattr(hopf, "coaction", corrupted)
    report = check_axioms(2, 3, coeff_window=4, cone_window=4)
    assert report.lines() == [
        "level 2: comultiplication coassociativity: 4 cases: pass",
        "level 2: comultiplication counit: 4 cases: pass",
        "level 2: comodule coassociativity: 45 cases: pass",
        "level 2: comodule counit: 45 cases: pass",
        "level 2: coaction multiplicativity: 2025 cases: pass",
        "level 2: right unit multiplicativity: 27 cases: FAIL (a^0 u^1 times a^0 u^1)",
        "level 2: right unit cone compatibility: 157 cases: FAIL (a^0 u^1 on θ/(a^2 u))",
    ]


def test_axiom_suite_reads_each_coaction_once_per_argument():
    calls = {}

    def counting(alpha, beta, n):
        calls[alpha, beta, n] = calls.get((alpha, beta, n), 0) + 1
        return coaction(alpha, beta, n)

    for run in (1, 2):
        report = check_axioms(3, coeff_window=4, cone_window=4, coaction_fn=counting)
        assert report.ok, report.lines()
        assert calls and set(calls.values()) == {run}


def test_axiom_suite_catches_a_level_4_only_fault_at_the_same_cases():
    def corrupted(alpha, beta, n):
        # x^8 first exists at level 4
        terms = coaction(alpha, beta, n)
        if beta < 0:
            return frozenset(t for t in terms if t[2] != 8)
        return terms

    assert check_axioms(3, coeff_window=6, cone_window=6, coaction_fn=corrupted).ok
    report = check_axioms(4, coeff_window=6, cone_window=6, coaction_fn=corrupted)
    assert report.lines() == [
        "level 4: comultiplication coassociativity: 16 cases: pass",
        "level 4: comultiplication counit: 16 cases: pass",
        "level 4: comodule coassociativity: 1 cases: FAIL (a^0 u^-6)",
        "level 4: comodule counit: 91 cases: pass",
        "level 4: coaction multiplicativity: 2 cases: FAIL (a^0 u^-6 times a^0 u^-5)",
        "level 4: right unit multiplicativity: 2401 cases: pass",
        "level 4: right unit cone compatibility: 1372 cases: pass",
    ]


def test_axiom_suite_lines_are_pinned():
    # the multiplicativity laws reuse the verdict of (m1, m2) for (m2, m1);
    # the lines of the sound suite, case counts included, stay as they were
    lines = [line for n in range(1, 5)
             for line in check_axioms(n, coeff_window=6, cone_window=6).lines()]
    assert len(lines) == 28
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == \
        "ab1f37ec6f7080141c48359ce7eb48c92c872dc99afd999e721c97b0a0af85fc"


def test_untruncated_requires_letter_bound():
    with pytest.raises(ValueError):
        check_axioms(None)
    assert check_axioms(None, 8, coeff_window=3, cone_window=3).ok
