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


def reduce_vector(pivots: dict[int, int], v: int) -> int:
    """Reduce v against an echelon set without inserting."""
    while v:
        row = pivots.get(lowest_bit(v))
        if row is None:
            break
        v ^= row
    return v


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

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> F2Matrix:
        """Build from an iterable of (i, j) positions holding 1 (xor semantics)."""
        bits = [0] * rows
        for i, j in entries:
            bits[i] ^= 1 << j
        return cls(rows, cols, tuple(bits))

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
        """Reduced row-echelon rows and their pivot columns, ascending."""
        pivots: dict[int, int] = {}
        for r in self.row_bits:
            echelon_insert(pivots, r)
        cols = sorted(pivots)
        # back-substitute so each pivot column appears in exactly one row
        for c in cols:
            row = pivots[c]
            for c2 in cols:
                if c2 == c:
                    continue
                if (pivots[c2] >> c) & 1:
                    pivots[c2] ^= row
        return [pivots[c] for c in cols], cols

    def kernel_basis(self) -> list[int]:
        """Basis of the null space, one vector per free column, ascending."""
        rref_rows, pivot_cols = self.rref()
        pivot_set = set(pivot_cols)
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            v = 1 << f
            for row, c in zip(rref_rows, pivot_cols):
                if (row >> f) & 1:
                    v |= 1 << c
            basis.append(v)
        return basis


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
