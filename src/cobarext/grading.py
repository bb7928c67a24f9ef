"""Bigraded degrees, cobar monomials, canonical labels, mod-2 binomials.

Degrees live in the rank-2 lattice written p + q*sigma and stored as (p, q).
The three generators sit in degree a = (0, -1), u = (1, -1), x = (1, 1).
A cobar monomial a^alpha u^beta [x^e1|...|x^es] therefore has

    p = beta + sum(e), q = -alpha - beta + sum(e),

which pins beta = p - E and alpha = 2E - p - q for each word weight E.
"""

from __future__ import annotations

import re
from functools import total_ordering
from math import comb

from .records import Record, set_field


@total_ordering
class RO2Degree(Record):
    """A degree p + q*sigma; degrees order as the pairs (p, q)."""

    p: int
    q: int
    __slots__ = tuple(__annotations__)

    def __lt__(self, other):
        if other.__class__ is not RO2Degree:
            return NotImplemented
        return (self.p, self.q) < (other.p, other.q)

    def __add__(self, other: RO2Degree) -> RO2Degree:
        return RO2Degree(self.p + other.p, self.q + other.q)

    def scaled(self, c: int) -> RO2Degree:
        return RO2Degree(c * self.p, c * self.q)

    def __str__(self) -> str:
        return f"({self.p}, {self.q})"


def binom_mod2(k: int, i: int) -> int:
    """Binomial coefficient C(k, i) mod 2, for any integer k and i >= 0.

    Negative upper index uses C(k, i) = (-1)^i C(i-k-1, i), and signs do not
    matter mod 2.  For k >= 0 this is Lucas: C(k, i) is odd iff i's bits are
    a subset of k's.
    """
    if i < 0:
        return 0
    if k < 0:
        k = i - k - 1
    return 1 if (k & i) == i else 0


def binom_int(k: int, i: int) -> int:
    """Exact integer binomial for any integer k, i >= 0 (test oracle)."""
    if i < 0:
        return 0
    if k >= 0:
        return comb(k, i)
    num = 1
    for t in range(i):
        num *= k - t
    for t in range(1, i + 1):
        num //= t
    return num


def power_label(sym: str, e: int) -> str:
    if e == 1:
        return sym
    return f"{sym}^{e}"


def word_label(word: tuple[int, ...]) -> str:
    return "[" + "|".join(power_label("x", e) for e in word) + "]"


class CobarMonomial(Record):
    alpha: int
    beta: int
    word: tuple[int, ...]
    __slots__ = tuple(__annotations__)

    def __init__(self, alpha: int, beta: int, word: tuple[int, ...]):
        # beta may be negative (u inverted); that is the module's business
        if alpha < 0:
            raise ValueError("a-exponent must be nonnegative")
        if min(word, default=1) < 1:
            raise ValueError("bar letters must be positive")
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "word", word)

    @property
    def filtration(self) -> int:
        return len(self.word)

    @property
    def weight(self) -> int:
        return sum(self.word)

    def degree(self) -> RO2Degree:
        e = self.weight
        return RO2Degree(self.beta + e, -self.alpha - self.beta + e)

    def sort_key(self):
        return (len(self.word), self.word, self.beta, self.alpha)

    def label(self) -> str:
        parts = []
        if self.alpha != 0:
            parts.append(power_label("a", self.alpha))
        if self.beta != 0:
            parts.append(power_label("u", self.beta))
        if self.word:
            parts.append(word_label(self.word))
        if not parts:
            return "1"
        return " ".join(parts)


def element_label(monomials) -> str:
    """Canonical string for an F2 sum of cobar monomials ('0' when empty)."""
    monos = sorted(monomials, key=CobarMonomial.sort_key)
    if not monos:
        return "0"
    return " + ".join(m.label() for m in monos)


_MONO_RE = re.compile(
    r"^(?:a(?:\^(-?\d+))?)?\s*(?:u(?:\^(-?\d+))?)?\s*(?:\[([x^|\d\s]*)\])?$"
)


def parse_monomial(label: str) -> CobarMonomial:
    """Inverse of CobarMonomial.label (accepts '1' for the unit)."""
    text = label.strip()
    if text == "1":
        return CobarMonomial(0, 0, ())
    m = _MONO_RE.match(text)
    if not m:
        raise ValueError(f"not a monomial label: {label!r}")
    alpha = 0
    beta = 0
    if text.startswith("a"):
        alpha = int(m.group(1)) if m.group(1) else 1
    if re.search(r"(?<![a-z])u", text):
        beta = int(m.group(2)) if m.group(2) else 1
    word: tuple[int, ...] = ()
    if m.group(3) is not None:
        letters = []
        for piece in m.group(3).split("|"):
            piece = piece.strip()
            if piece == "x":
                letters.append(1)
            else:
                letters.append(int(piece.removeprefix("x^")))
        word = tuple(letters)
    got = CobarMonomial(alpha, beta, word)
    if got.label() != text:
        raise ValueError(f"non-canonical monomial label: {label!r}")
    return got
