"""Exact linear algebra over GF(2) with packed-bit rows.

Matrices act on column vectors: a map V -> W is stored with one row per
W-coordinate and one column per V-coordinate.  Rows are Python ints used
as bitmasks, bit j = column j, so "leftmost" pivot means lowest bit.
"""

from __future__ import annotations

from dataclasses import dataclass


class CompositionNonzeroError(Exception):
    """The two maps do not compose to zero, so they are not a cochain pair."""


def lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def bits(v: int):
    """Indices of the set bits of v, ascending."""
    while v:
        yield (v & -v).bit_length() - 1
        v &= v - 1


def echelon_insert(pivots: dict[int, int], v: int) -> int:
    """Reduce v against an echelon set keyed by pivot column; insert if nonzero.

    Returns the residue (0 if v lies in the span).  Mutates pivots.
    """
    while v:
        c = lowest_bit(v)
        row = pivots.get(c)
        if row is None:
            pivots[c] = v
            return v
        v ^= row
    return 0


@dataclass(frozen=True)
class F2Matrix:
    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        for r in self.row_bits:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    @classmethod
    def zero(cls, rows: int, cols: int) -> F2Matrix:
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> F2Matrix:
        return cls(n, n, tuple(1 << j for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def is_zero(self) -> bool:
        return not any(self.row_bits)

    def transpose(self) -> F2Matrix:
        cols = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            for j in bits(r):
                cols[j] |= 1 << i
        return F2Matrix(self.cols, self.rows, tuple(cols))

    def mul(self, other: F2Matrix) -> F2Matrix:
        """Matrix product self @ other (apply other first, then self)."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = []
        for r in self.row_bits:
            acc = 0
            for j in bits(r):
                acc ^= other.row_bits[j]
            out.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(out))

    def apply(self, v: int) -> int:
        """Apply to a column vector packed as an int (bit j = coordinate j)."""
        out = 0
        for i, r in enumerate(self.row_bits):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def rank(self) -> int:
        pivots: dict[int, int] = {}
        n = 0
        for r in self.row_bits:
            if echelon_insert(pivots, r):
                n += 1
        return n

    def rref(self) -> tuple[list[int], list[int]]:
        """Reduced row-echelon rows and their pivot columns, ascending.

        Back-substitution runs from the highest pivot down, so every row it
        xors in is already reduced: that clears one pivot bit and sets no
        other.  After forward elimination the cost is one row xor per set
        pivot-column bit of the echelon rows.
        """
        pivots: dict[int, int] = {}
        for r in self.row_bits:
            echelon_insert(pivots, r)
        cols = sorted(pivots)
        done = 0  # pivot columns above the current one, all reduced
        for c in reversed(cols):
            row = pivots[c]
            for c2 in bits(row & done):
                row ^= pivots[c2]
            pivots[c] = row
            done |= 1 << c
        return [pivots[c] for c in cols], cols

    def kernel_basis(self) -> list[int]:
        """Basis of the null space, one vector per free column, ascending.

        The vector for free column f is e_f plus e_c for every reduced row
        (pivot c) with a 1 in column f, so it is the canonical reduced basis.
        It is assembled by walking the free-column bits of each reduced row:
        after rref the cost is proportional to those bits.
        """
        rref_rows, pivot_cols = self.rref()
        free = ((1 << self.cols) - 1) ^ sum(1 << c for c in pivot_cols)
        basis = {f: 1 << f for f in bits(free)}
        for row, c in zip(rref_rows, pivot_cols):
            for f in bits(row & free):
                basis[f] |= 1 << c
        return list(basis.values())


@dataclass(frozen=True)
class CohomologyResult:
    dim: int
    representatives: tuple[int, ...]


def cohomology_dim(d_in: F2Matrix, d_out: F2Matrix) -> CohomologyResult:
    """Dimension and representatives of ker(d_out)/im(d_in).

    d_in maps into the middle slot (its rows index it), d_out maps out of it
    (its columns index it).  Raises CompositionNonzeroError when
    d_out . d_in != 0.  Representatives are kernel vectors reduced against
    the image echelon, in kernel-basis order, so they are deterministic.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions differ")
    if not d_out.mul(d_in).is_zero():
        raise CompositionNonzeroError(
            f"composite is nonzero on a {d_in.cols}-dim source"
        )
    pivots: dict[int, int] = {}
    image_rank = 0
    for col in d_in.transpose().row_bits:
        if echelon_insert(pivots, col):
            image_rank += 1
    reps = []
    for v in d_out.kernel_basis():
        residue = echelon_insert(pivots, v)
        if residue:
            reps.append(residue)
    kernel_dim = d_out.cols - d_out.rank()
    if len(reps) != kernel_dim - image_rank:
        raise AssertionError("rank bookkeeping disagrees with representative count")
    return CohomologyResult(len(reps), tuple(reps))
