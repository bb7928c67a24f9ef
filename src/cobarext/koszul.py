"""Koszul complex slices: the small model of Ext, for both u flags and at
every level, the untruncated one included.

The dual of F2[x]/x^(2^n) is exterior on gamma_(2^r), r < n, so the Koszul
complex (Priddy, Koszul resolutions, Trans. AMS 152, 1970) computes the
cobar complex's Ext from chains a^alpha u^beta y^I, I a multiset of s
indices r < n (an ascending tuple here), weight w = sum of 2^r over I,
beta = p - w, alpha = 2w - p - q >= 0, and differential
d(y^I) = sum of y^(I + e_r) over the set bits r of beta below n.  That is at
most C(n+s-1, s) chains per slice, against about (2^n - 1)^s cobar words.
With u not inverted a chain also needs beta >= 0, i.e. w <= p; d keeps that,
since it adds y_r only when bit r of beta is set.  index_top bounds the
indices, here and on the closed-form pages of xadic.  At the untruncated
level (n = None, u not inverted) every bit of beta is used.  Complexes are
shared under the cobar key (n, invert_u, p_key, e_floor) in their own LRU.
The model supplies the hooks of cobar.SlicesBase: `_band`, the index bound
and the weights max(s, e_floor)..p (no bound and no p with u inverted) that
y_chains lists, `_chains`, `_targets` (the terms of d above) and `_legal`
(every index below n).  Its `_coeff_key` is p_key & _mask, the bits of beta
that d reads.  The base assembles the matrices, shared like the tables, and
cobar._truncation_map restricts to a lower level, sending y_r to 0 for
r >= lo.n.  stable_level gives the level from which the u-inverted tower of
a degree is constant; slice charts read one complex there, and
xadic.completed_basis bounds its indices by it.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement

from .cobar import SlicesBase, ceil_half, slice_key
from .f2linalg import bits
from .grading import RO2Degree
from .hopf import TruncationLevel


def y_chains(r_top: int, s: int, w_min: int, w_max: int | None = None):
    """The monomials y^I with |I| = s, indices r < r_top and weight
    w = sum of 2^r over I in w_min..w_max (no upper bound for None), as
    pairs (I, w); I is an ascending index tuple, in combinations order."""
    weights = [1 << r for r in range(r_top)]
    if w_max is None:
        w_max = s << r_top  # above every weight
    # both streams list the same multisets in the same order
    for chain, ws in zip(combinations_with_replacement(range(r_top), s),
                         combinations_with_replacement(weights, s)):
        w = sum(ws)
        if w_min <= w <= w_max:
            yield chain, w


def index_top(n: TruncationLevel, invert_u: bool, p: int) -> int:
    """The bound on the y-indices r of the chains of degree p at level n:
    r < n, and with u not inverted also 2^r <= p, since the weight w <= p
    (u-exponent p - w >= 0); at n = None only the second bound holds."""
    if invert_u:
        return n
    top = max(p, 0).bit_length()
    return top if n is None else min(top, n)


def stable_level(s: int, d: RO2Degree) -> int:
    """The level N(s, d) from which the tower of completed Ext in (s, d) is
    constant: max(1, bit_length(e - 1), v2(p) + 1 if s <= 1 and p != 0),
    for e = max(0, ceil((p+q)/2)).

    At level n, u inverted, the Koszul complex K of d with no weight cut is
    the tensor product over r < n of {1, u^(2^r)} (x) F2[y_r], so H(K) is F2
    at s = 0 when 2^n | p and 0 otherwise.  The slice complex is the
    subcomplex K>= of weight >= e, and the quotient K< of weight < e uses
    only y_r with 2^r < e: it is one complex at every n >= bit_length(e - 1).
    The long exact sequence gives H^s(K>=) = H^(s-1)(K<) for s >= 2,
    dim H^1(K>=) = dim H^0(K<) - [2^n | p] and H^0(K>=) = 0 for e >= 1
    (K>= = K for e = 0); [2^n | p] is [p = 0] from n = v2(p) + 1 on.
    """
    e = max(0, ceil_half(d.p + d.q))
    level = max(1, (e - 1).bit_length())
    if s <= 1 and d.p:
        level = max(level, (d.p & -d.p).bit_length())  # v2(p) + 1
    return level


class KoszulComplex(SlicesBase):
    """Koszul chains for one slice key (level, u flag, p key, weight cut)."""

    def __init__(self, n: TruncationLevel, invert_u: bool, p_key: int, e_floor: int):
        super().__init__(n, invert_u, p_key, e_floor)
        self._r_top = index_top(n, invert_u, p_key)
        self._mask = (1 << self._r_top) - 1

    def _band(self, s: int) -> tuple:
        # s indices weigh at least s, so every cut up to s lists one slice
        return self._r_top, max(s, self.e_floor), None if self.invert_u else self.p_key

    def _coeff_key(self) -> int:
        return self.p_key & self._mask

    def _chains(self, s: int):
        r_top, lo, hi = self._band(s)
        return (chain for chain, _ in y_chains(r_top, s, lo, hi))

    def _targets(self, chain: tuple[int, ...]):
        beta = self.p_key - sum(1 << r for r in chain)
        for r in bits(beta & self._mask):
            yield tuple(sorted(chain + (r,)))

    def _legal(self, chain: tuple[int, ...]) -> bool:
        return self.n is None or max(chain, default=-1) < self.n


_shared_koszul = functools.lru_cache(maxsize=128)(KoszulComplex)


def get_koszul(d: RO2Degree, n: TruncationLevel, invert_u: bool = True) -> KoszulComplex:
    """The shared Koszul complex of degree d at level n, under cobar's
    slice_key; n = None needs u not inverted (UnboundedBasisError)."""
    return _shared_koszul(*slice_key(d, n, invert_u))
