"""Koszul complex slices: the small model of completed Ext (u inverted,
integer levels).

The dual of F2[x]/x^(2^n) is exterior on gamma_(2^r), r < n, so the Koszul
complex (Priddy, Koszul resolutions, Trans. AMS 152, 1970) computes the
cobar complex's Ext from chains a^alpha u^beta y^I, I a multiset of s
indices r < n (an ascending tuple here), weight w = sum of 2^r over I,
beta = p - w, alpha = 2w - p - q >= 0, and differential
d(y^I) = sum of y^(I + e_r) over the set bits r of beta.  That is at most
C(n+s-1, s) chains per slice, against about (2^n - 1)^s cobar words.
Complexes are shared under the cobar key (n, True, p mod 2^n, e_floor) in
their own LRU.  The model supplies the three hooks of cobar.SlicesBase:
`_chains`, `_targets` (the terms of d above) and `_legal` (every index
below n).  The base assembles the matrices, and cobar._truncation_map
restricts to a lower level, sending y_r to 0 for r >= lo.n.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement

from .cobar import SlicesBase, slice_key
from .f2linalg import bits
from .grading import RO2Degree


def y_chains(r_top: int, s: int, w_min: int):
    """The monomials y^I with |I| = s, indices r < r_top and weight
    w = sum of 2^r over I at least w_min, as pairs (I, w); I is an ascending
    index tuple, in combinations order."""
    weights = [1 << r for r in range(r_top)]
    # both streams list the same multisets in the same order
    for chain, ws in zip(combinations_with_replacement(range(r_top), s),
                         combinations_with_replacement(weights, s)):
        w = sum(ws)
        if w >= w_min:
            yield chain, w


class KoszulComplex(SlicesBase):
    """Koszul chains for one (level, p mod 2^n, weight cut), u inverted."""

    def __init__(self, n: int, p_key: int, e_floor: int):
        super().__init__(n, True, p_key, e_floor)

    def _chains(self, s: int):
        return (chain for chain, _ in y_chains(self.n, s, self.e_floor))

    def _targets(self, chain: tuple[int, ...]):
        beta = self.p_key - sum(1 << r for r in chain)
        for r in bits(beta & ((1 << self.n) - 1)):
            yield tuple(sorted(chain + (r,)))

    def _legal(self, chain: tuple[int, ...]) -> bool:
        return max(chain, default=-1) < self.n


_shared_koszul = functools.lru_cache(maxsize=128)(KoszulComplex)


def get_koszul(d: RO2Degree, n: int) -> KoszulComplex:
    """The shared Koszul complex of degree d at level n, u inverted."""
    n, _, p_key, e_floor = slice_key(d, n, True)
    return _shared_koszul(n, p_key, e_floor)
