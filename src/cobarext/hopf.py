"""Structure maps of the truncated polynomial coalgebra and its comodules.

The coalgebra at level n is F2[x]/x^(2^n) with x primitive; n = None means
no truncation.  The base ring is F2[a, u] (u possibly inverted downstream),
the coaction is determined by psi(a) = a (x) 1 and
psi(u) = u (x) 1 + a^2 (x) x, which on monomials expands to

    psi(a^alpha u^beta) = sum_i C(beta, i) a^(alpha+2i) u^(beta-i) (x) x^i

with i running over 0 <= i < 2^n.  Right units: on the polynomial part
eta_r(u) = u + a^2 x, so eta_r(a^alpha u^beta) is the untruncated coaction
coaction(alpha, beta, None); on the two-sided torsion cone the classes
theta/(a^i u^j) expand per eta_r_negative.

Elements are modeled as frozensets of coefficient tuples; addition is
symmetric difference (everything is over F2).
"""

from __future__ import annotations

import functools
from itertools import product

from .grading import RO2Degree, binom_mod2, power_label
from .records import Record, set_field

# Truncation levels are ints >= 1, or None for the untruncated coalgebra.
TruncationLevel = int | None


class LetterOutOfRangeError(Exception):
    """A bar letter exponent lies outside 1..2^n - 1 for the given level."""


def check_level(n: TruncationLevel) -> None:
    if n is not None and n < 1:
        raise ValueError(f"truncation level must be >= 1 or None, got {n}")


def level_str(n: TruncationLevel) -> str:
    return "inf" if n is None else str(n)


def letter_cap(n: TruncationLevel) -> int | None:
    """Largest legal bar letter exponent at level n (None when unbounded)."""
    check_level(n)
    return None if n is None else 2**n - 1


def check_letter(e: int, n: TruncationLevel) -> None:
    cap = letter_cap(n)
    if e < 1 or (cap is not None and e > cap):
        raise LetterOutOfRangeError(f"letter x^{e} out of range at level {n}")


def comult_full(e: int, n: TruncationLevel) -> frozenset[tuple[int, int]]:
    """All splits of x^e under the comultiplication, counit terms included."""
    if e < 0 or (n is not None and e >= 2**n):
        raise LetterOutOfRangeError(f"x^{e} is not an element at level {n}")
    return frozenset((i, e - i) for i in range(e + 1) if binom_mod2(e, i))


@functools.cache
def comult_reduced(e: int, n: TruncationLevel) -> frozenset[tuple[int, int]]:
    """Splits of a bar letter x^e with both factors nontrivial.

    Memoised: slice assembly asks for it once per letter of every word.
    An out-of-range letter still raises on every call."""
    check_letter(e, n)
    return frozenset((i, e - i) for i in range(1, e) if binom_mod2(e, i))


@functools.cache
def coaction_letters(beta: int, n: TruncationLevel) -> tuple[int, ...]:
    """The letters i >= 1, ascending, with C(beta, i) odd and x^i nonzero at
    level n: the bar letters of the reduced coaction of u^beta.

    For beta < 0 a finite truncation level is required, since that set is
    infinite.  Memoised: slice assembly asks for it once per word."""
    cap = letter_cap(n)
    if cap is None:
        if beta < 0:
            raise UnboundedCoactionError(
                "coaction of a negative u-power needs a finite truncation level"
            )
        cap = beta
    return tuple(i for i in range(1, cap + 1) if binom_mod2(beta, i))


def coaction(alpha: int, beta: int, n: TruncationLevel) -> frozenset[tuple[int, int, int]]:
    """Coaction of a^alpha u^beta, as triples (alpha', beta', i) for ... (x) x^i.

    The i = 0 term is the identity term; u^(2^n) is primitive at level n.
    The other terms are the coaction_letters of beta.
    """
    return frozenset([(alpha, beta, 0)] + [
        (alpha + 2 * i, beta - i, i) for i in coaction_letters(beta, n)])


class UnboundedCoactionError(Exception):
    """The requested expansion would have infinitely many terms."""


class NegativeConeClass(Record):
    """Basis class theta/(a^i u^j) of the torsion cone, i, j >= 0."""

    i: int
    j: int
    __slots__ = tuple(__annotations__)

    def __init__(self, i: int, j: int):
        if i < 0 or j < 0:
            raise ValueError("cone classes need i, j >= 0")
        set_field(self, "i", i)
        set_field(self, "j", j)

    def degree(self) -> RO2Degree:
        # theta sits in degree (-2, 2); dividing by a^i u^j raises by (j, i+j)
        return RO2Degree(-2 - self.j, 2 + self.i + self.j)

    def label(self) -> str:
        if self.i == 0 and self.j == 0:
            return "θ"
        a_part = power_label("a", self.i) if self.i else None
        u_part = power_label("u", self.j) if self.j else None
        if a_part and u_part:
            return f"θ/({a_part} {u_part})"
        return f"θ/{a_part or u_part}"


def cone_action(alpha: int, beta: int, c: NegativeConeClass) -> NegativeConeClass | None:
    """Action of a^alpha u^beta on a cone class; None when it truncates to zero."""
    if alpha > c.i or beta > c.j:
        return None
    return NegativeConeClass(c.i - alpha, c.j - beta)


def eta_r_negative(c: NegativeConeClass) -> frozenset[tuple[NegativeConeClass, int]]:
    """Right unit on theta/(a^i u^j), as pairs (cone class, x-power).

    Expansion of (u + a^2 x)^(-j) theta/a^i: the sum over k >= 0 of
    C(-j, k) theta/(a^(i-2k) u^(j+k)) x^k, cut off at 2k <= i by a-torsion.
    """
    return frozenset(
        (NegativeConeClass(c.i - 2 * k, c.j + k), k)
        for k in range(c.i // 2 + 1)
        if binom_mod2(-c.j, k)
    )


def cone_element_label(terms) -> str:
    """Canonical string for a sum of (cone class, x-power) pairs."""
    ordered = sorted(terms, key=lambda t: (t[1], t[0].j, t[0].i))
    if not ordered:
        return "0"
    pieces = []
    for cls, k in ordered:
        x_part = power_label("x", k) if k else "1"
        pieces.append(f"{cls.label()} ⊗ {x_part}")
    return " + ".join(pieces)


def positive_element_label(terms) -> str:
    """Canonical string for a sum of (alpha, beta, xpow) triples."""
    ordered = sorted(terms, key=lambda t: (t[2], t[1], t[0]))
    if not ordered:
        return "0"
    pieces = []
    for alpha, beta, k in ordered:
        parts = []
        for sym, e in (("a", alpha), ("u", beta), ("x", k)):
            if e:
                parts.append(power_label(sym, e))
        pieces.append(" ".join(parts) if parts else "1")
    return " + ".join(pieces)


class AxiomCheck(Record):
    """One law's verdict; check_axioms sets ok only when the law ran at least
    one case and found no counterexample."""
    name: str
    cases: int
    ok: bool
    counterexample: str | None
    __slots__ = tuple(__annotations__)


class AxiomReport(Record):
    level: TruncationLevel
    checks: tuple[AxiomCheck, ...]
    __slots__ = tuple(__annotations__)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.ok else f"FAIL ({c.counterexample or 'no cases'})"
            out.append(f"level {self.level}: {c.name}: {c.cases} cases: {status}")
        return out

    def to_dict(self) -> dict:
        return {"n": self.level, "checks": [c.as_dict() for c in self.checks]}


class AxiomSuiteReport(Record):
    """The axiom suite at several levels, one AxiomReport each; a suite of
    no level is not ok."""
    reports: tuple[AxiomReport, ...]
    __slots__ = tuple(__annotations__)

    @property
    def ok(self) -> bool:
        return bool(self.reports) and all(r.ok for r in self.reports)

    def lines(self) -> list[str]:
        return [line for r in self.reports for line in r.lines()]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "levels": [r.to_dict() for r in self.reports]}


def _mono_label(m) -> str:
    return f"a^{m[0]} u^{m[1]}"


def _pair_label(pair) -> str:
    return f"{_mono_label(pair[0])} times {_mono_label(pair[1])}"


def _memo(fn):
    """fn with each value kept, as a tuple, for the life of the wrapper."""
    return functools.cache(lambda *args: tuple(fn(*args)))


def check_axioms(
    n: TruncationLevel,
    e_max: int | None = None,
    coeff_window: int = 4,
    cone_window: int = 4,
    coaction_fn=coaction,
) -> AxiomReport:
    """Run the coalgebra/comodule/right-unit axiom suite at level n.

    Checks, each over an exhaustive window:
      - coassociativity and counit laws for the comultiplication,
      - comodule coassociativity and counit for the coaction,
      - multiplicativity of the coaction on word-free monomials,
      - multiplicativity of the right unit on the polynomial part,
      - module compatibility of the right unit on the torsion cone, for
        pairs u^beta, theta/(a^i u^j) with beta <= j.  The cone model sets
        u^beta theta/(a^i u^j) to 0 once beta > j, while the right-unit
        expansion still reaches classes theta/(a^(i-2k) u^(j+k)) that u^beta
        does not kill: u theta/a^2 is 0 on the left and theta (x) x on the
        right.  Those pairs would fail by construction, not by a fault.

    Each law is a lazy stream of cases and a predicate; a law's case count
    stops at its first counterexample.  coaction_fn is injectable so
    corrupted structures can be fed to the suite in tests.  Each structure
    map (coaction_fn, the module's coaction as the right unit, and
    eta_r_negative) is read once per argument per call and its value kept
    until the call returns, and a multiplicativity case (m2, m1) reuses the
    verdict of (m1, m2) when that one passed, so an injected coaction_fn
    must be a pure function.
    """
    check_level(n)
    cap = letter_cap(n)
    if e_max is None:
        if cap is None:
            raise ValueError("e_max is required at the untruncated level")
        e_max = cap
    elif cap is not None:
        e_max = min(e_max, cap)

    # read at call time, so a patched module coaction is the one checked
    psi = _memo(coaction_fn)
    unit = _memo(coaction)
    unit_cone = _memo(eta_r_negative)

    def comult_coassociative(e):
        lhs: set[tuple[int, int, int]] = set()
        rhs: set[tuple[int, int, int]] = set()
        for i, j in comult_full(e, n):
            for i1, i2 in comult_full(i, n):
                lhs ^= {(i1, i2, j)}
            for j1, j2 in comult_full(j, n):
                rhs ^= {(i, j1, j2)}
        return lhs == rhs

    def comult_counital(e):
        splits = comult_full(e, n)
        return ({j for i, j in splits if i == 0} == {e}
                == {i for i, j in splits if j == 0})

    def comodule_coassociative(m):
        # (psi (x) 1) psi = (1 (x) comult) psi
        lhs: set[tuple[int, int, int, int]] = set()
        rhs: set[tuple[int, int, int, int]] = set()
        for a1, b1, i in psi(*m, n):
            for a2, b2, f in psi(a1, b1, n):
                lhs ^= {(a2, b2, f, i)}
            for i1, i2 in comult_full(i, n):
                rhs ^= {(a1, b1, i1, i2)}
        return lhs == rhs

    def comodule_counital(m):
        # (1 (x) counit) psi = id
        return {(a1, b1) for a1, b1, i in psi(*m, n) if i == 0} == {m}

    def multiplicative(level, fn):
        # fn(m1 m2) = fn(m1) fn(m2), dropping x^i past the level's cap; both
        # sides are symmetric in m1, m2, so (m2, m1) reuses (m1, m2)'s pass
        cap = letter_cap(level)
        passed = set()

        def holds(pair):
            m1, m2 = pair
            if (m2, m1) in passed:
                return True
            second = fn(*m2, level)
            prod: set[tuple[int, int, int]] = set()
            for a1, b1, i1 in fn(*m1, level):
                for a2, b2, i2 in second:
                    if cap is None or i1 + i2 <= cap:
                        t = (a1 + a2, b1 + b2, i1 + i2)
                        if t in prod:
                            prod.remove(t)
                        else:
                            prod.add(t)
            ok = set(fn(m1[0] + m2[0], m1[1] + m2[1], level)) == prod
            if ok:
                passed.add(pair)
            return ok
        return holds

    def cone_compatible(case):
        c, (alpha, beta) = case
        acted = cone_action(alpha, beta, c)
        lhs = unit_cone(acted) if acted is not None else ()
        eta_c = unit_cone(c)
        rhs: set[tuple[NegativeConeClass, int]] = set()
        for a1, b1, k1 in unit(alpha, beta, None):
            for cls, k2 in eta_c:
                cls2 = cone_action(a1, b1, cls)
                if cls2 is not None:
                    rhs ^= {(cls2, k1 + k2)}
        return set(lhs) == rhs

    monos = list(product(range(coeff_window + 1),
                         range(-coeff_window if n is not None else 0, coeff_window + 1)))
    pos = [m for m in monos if m[1] >= 0]
    cone = (NegativeConeClass(i, j) for i, j in product(range(cone_window + 1), repeat=2))
    laws = [
        ("comultiplication coassociativity", range(e_max + 1),
         comult_coassociative, lambda e: f"x^{e}"),
        ("comultiplication counit", range(e_max + 1),
         comult_counital, lambda e: f"x^{e}"),
        ("comodule coassociativity", monos, comodule_coassociative, _mono_label),
        ("comodule counit", monos, comodule_counital, _mono_label),
        ("coaction multiplicativity", product(monos, repeat=2),
         multiplicative(n, psi), _pair_label),
        # the right unit on the polynomial part is the untruncated coaction
        ("right unit multiplicativity", product(pos, repeat=2),
         multiplicative(None, unit), _pair_label),
        ("right unit cone compatibility",
         ((c, m) for c in cone for m in pos if m[1] <= c.j),
         cone_compatible, lambda case: f"{_mono_label(case[1])} on {case[0].label()}"),
    ]
    checks = []
    for name, cases, holds, label in laws:
        count = 0
        bad = None
        for case in cases:
            count += 1
            if not holds(case):
                bad = label(case)
                break
        checks.append(AxiomCheck(name, count, count > 0 and bad is None, bad))
    return AxiomReport(n, tuple(checks))


def verify_axioms(n_max: int, window: int) -> AxiomSuiteReport:
    """check_axioms at each level 1..n_max, with coefficient and cone
    exponents up to window."""
    return AxiomSuiteReport(tuple(
        check_axioms(n, coeff_window=window, cone_window=window)
        for n in range(1, n_max + 1)
    ))
