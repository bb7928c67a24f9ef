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
their own LRU.  Restriction to a lower level sends y_r to 0, r >= lo.n.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement

from .cobar import DEFAULT_MAX_DIM, SlicesBase, slice_key
from .f2linalg import F2Matrix, bits
from .grading import RO2Degree


class KoszulComplex(SlicesBase):
    """Koszul chains for one (level, p mod 2^n, weight cut), u inverted."""

    def __init__(self, n: int, p_key: int, e_floor: int, max_dim: int = DEFAULT_MAX_DIM):
        super().__init__(n, True, p_key, e_floor, max_dim)

    def _chains(self, s: int):
        for chain in combinations_with_replacement(range(self.n), s):
            if sum(1 << r for r in chain) >= self.e_floor:
                yield chain

    def _assemble(self, s: int) -> F2Matrix:
        src = self.words(s)
        tgt_index = self.index(s + 1)
        rows = [0] * len(tgt_index)
        low_bits = (1 << self.n) - 1
        for j, chain in enumerate(src):
            beta = self.p_key - sum(1 << r for r in chain)
            for r in bits(beta & low_bits):
                rows[tgt_index[tuple(sorted(chain + (r,)))]] ^= 1 << j
        return F2Matrix(len(rows), len(src), tuple(rows))

    def restrict(self, lo: "KoszulComplex", s: int) -> list[int | None]:
        """Index map of y_r -> 0 (r >= lo.n) into lo's slice s.

        A chain whose indices all lie below lo.n must exist downstairs."""
        lo_index = lo.index(s)
        out: list[int | None] = []
        for chain in self.words(s):
            t = lo_index.get(chain)
            if t is None and max(chain, default=-1) < lo.n:
                raise AssertionError(f"restricted chain {chain} missing downstairs")
            out.append(t)
        return out


_shared_koszul = functools.lru_cache(maxsize=128)(KoszulComplex)


def get_koszul(d: RO2Degree, n: int, max_dim: int = DEFAULT_MAX_DIM) -> KoszulComplex:
    """The shared Koszul complex of degree d at level n, u inverted."""
    n, _, p_key, e_floor = slice_key(d, n, True)
    return _shared_koszul(n, p_key, e_floor, max_dim)
