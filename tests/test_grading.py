import math

import pytest

from cobarext.grading import (
    CobarMonomial,
    RO2Degree,
    binom_int,
    binom_mod2,
    element_label,
    parse_monomial,
)


def test_degree_examples():
    a = CobarMonomial(1, 0, ())
    u = CobarMonomial(0, 1, ())
    assert a.degree() == RO2Degree(0, -1)
    assert u.degree() == RO2Degree(1, -1)
    assert CobarMonomial(0, 2, (1, 1)).degree() == RO2Degree(4, 0)


def test_degree_additive_over_exponents():
    for alpha in range(4):
        for beta in range(-3, 4):
            m = CobarMonomial(alpha, beta, ())
            want = RO2Degree(0, -1).scaled(alpha) + RO2Degree(1, -1).scaled(beta)
            assert m.degree() == want


def test_binom_examples():
    assert binom_mod2(2, 1) == 0
    assert all(binom_mod2(-1, i) == 1 for i in range(64))
    assert binom_mod2(6, 2) == 1


def test_binom_against_integer_oracle():
    for k in range(-64, 65):
        for i in range(65):
            assert binom_mod2(k, i) == binom_int(k, i) % 2, (k, i)


def test_binom_int_is_the_binomial_coefficient():
    for k in range(0, 20):
        for i in range(0, 20):
            assert binom_int(k, i) == math.comb(k, i)
    # negative upper index: C(-n, i) = (-1)^i C(n+i-1, i)
    for n in range(1, 10):
        for i in range(0, 10):
            assert binom_int(-n, i) == (-1) ** i * math.comb(n + i - 1, i)


def test_monomial_type_invariants():
    with pytest.raises(ValueError):
        CobarMonomial(-1, 0, ())
    with pytest.raises(ValueError):
        CobarMonomial(0, 0, (0,))
    CobarMonomial(0, -5, ())  # negative u-power is a module concern, not a type error


def test_labels():
    assert CobarMonomial(0, 0, ()).label() == "1"
    assert CobarMonomial(1, 0, ()).label() == "a"
    assert CobarMonomial(0, -2, ()).label() == "u^-2"
    assert CobarMonomial(2, 1, (1, 3)).label() == "a^2 u [x|x^3]"
    assert CobarMonomial(0, 0, (1,)).label() == "[x]"
    assert element_label([]) == "0"
    assert element_label(
        [CobarMonomial(0, 1, ()), CobarMonomial(2, 0, (1,))]) == "u + a^2 [x]"


def test_parse_roundtrip():
    monos = [
        CobarMonomial(0, 0, ()),
        CobarMonomial(3, -4, ()),
        CobarMonomial(0, 0, (2, 5, 1)),
        CobarMonomial(1, 1, (7,)),
        CobarMonomial(2, 6, (1, 1, 1)),
    ]
    for m in monos:
        assert parse_monomial(m.label()) == m


def test_parse_rejects_junk():
    for bad in ["", "a^", "[x|]", "b^2", "a a", "[x^0]"]:
        with pytest.raises(ValueError):
            parse_monomial(bad)


def test_sort_key_is_total_order():
    monos = [
        CobarMonomial(a, b, w)
        for a in range(2)
        for b in range(-1, 2)
        for w in [(), (1,), (2,), (1, 1), (1, 2), (2, 1)]
    ]
    keys = [m.sort_key() for m in monos]
    assert len(set(keys)) == len(keys)
    # word length dominates, then word lex, then the coefficient exponents
    ordered = sorted(monos, key=lambda m: m.sort_key())
    lengths = [len(m.word) for m in ordered]
    assert lengths == sorted(lengths)
    assert element_label(monos) == element_label(reversed(monos))


def test_word_free_products_commute():
    m1 = CobarMonomial(2, 3, ())
    m2 = CobarMonomial(5, -1, ())
    prod = CobarMonomial(m1.alpha + m2.alpha, m1.beta + m2.beta, ())
    prod_rev = CobarMonomial(m2.alpha + m1.alpha, m2.beta + m1.beta, ())
    assert prod == prod_rev
    assert prod.degree() == m1.degree() + m2.degree()
