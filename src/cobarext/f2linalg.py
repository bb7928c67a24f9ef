"""Exact linear algebra over GF(2) with packed-bit columns.

Matrices act on column vectors: a map V -> W is stored with one column per
V-coordinate, the image of that basis vector.  Columns are Python ints used
as bitmasks, bit i = row i, so a matrix is assembled, applied and eliminated
column by column with no transpose; the lowest set bit of a column is its
pivot row.  `row_bits` is a derived view.
"""

from __future__ import annotations

from .records import Record, set_field


class CompositionNonzeroError(Exception):
    """The two maps do not compose to zero, so they are not a cochain pair."""


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
        c = (v & -v).bit_length() - 1
        row = pivots.get(c)
        if row is None:
            pivots[c] = v
            return v
        v ^= row
    return 0


def image_echelon(m: F2Matrix) -> dict[int, int]:
    """The image echelon of m, keyed by pivot row: column_echelon's first
    value, from the same reductions in the same order, without the masks of
    the columns combined."""
    image: dict[int, int] = {}
    for v in m.col_bits:
        echelon_insert(image, v)
    return image


def _transposed(vectors, length: int) -> tuple[int, ...]:
    """The vectors of the transpose: bit i of out[j] is bit j of vectors[i]."""
    out = [0] * length
    for i, v in enumerate(vectors):
        bit = 1 << i
        for j in bits(v):
            out[j] |= bit
    return tuple(out)


class F2Matrix(Record):
    rows: int
    cols: int
    col_bits: tuple[int, ...]
    __slots__ = tuple(__annotations__)

    def __init__(self, rows: int, cols: int, col_bits: tuple[int, ...]):
        if len(col_bits) != cols:
            raise ValueError("column count mismatch")
        # every column lies in 0 .. 2^rows - 1 iff the least and the largest do
        if col_bits and (min(col_bits) < 0 or max(col_bits) >> rows):
            raise ValueError("column has bits outside the row range")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "col_bits", col_bits)

    @classmethod
    def from_rows(cls, rows: int, cols: int, row_bits) -> F2Matrix:
        """The matrix whose row i is row_bits[i] (bit j = column j)."""
        row_bits = tuple(row_bits)
        if len(row_bits) != rows:
            raise ValueError("row count mismatch")
        if any(r < 0 or r >> cols for r in row_bits):
            raise ValueError("row has bits outside the column range")
        return cls(rows, cols, _transposed(row_bits, cols))

    @classmethod
    def zero(cls, rows: int, cols: int) -> F2Matrix:
        return cls(rows, cols, (0,) * cols)

    @property
    def row_bits(self) -> tuple[int, ...]:
        return _transposed(self.col_bits, self.rows)

    def is_zero(self) -> bool:
        return not any(self.col_bits)

    def mul(self, other: F2Matrix) -> F2Matrix:
        """Matrix product self @ other (apply other first, then self)."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return F2Matrix(self.rows, other.cols, tuple(map(self.apply, other.col_bits)))

    def apply(self, v: int) -> int:
        """Apply to a column vector packed as an int (bit j = coordinate j):
        the sum of the columns that v picks.  The set bits are peeled inline,
        highest first: bit_length - 1 is the column, and xor clears it."""
        cols = self.col_bits
        out = 0
        while v:
            top = v.bit_length() - 1
            out ^= cols[top]
            v ^= 1 << top
        return out

    def rank(self) -> int:
        return len(image_echelon(self))

    def kernel_basis(self) -> list[int]:
        """The canonical null-space basis, from column_echelon: for each free
        column f, ascending, e_f plus the pivot columns that express column f."""
        return column_echelon(self)[1]


def column_echelon(m: F2Matrix) -> tuple[dict[int, int], list[int]]:
    """One elimination pass over the columns of m, as stored: the image
    echelon, keyed by pivot row, and the kernel basis.  A mask of the columns
    combined rides along, so a column j that reduces to zero leaves e_j plus
    the pivot columns expressing it; pivot columns are independent, so that
    is unique."""
    image: dict[int, int] = {}
    combos: dict[int, int] = {}  # pivot row -> the columns summed into it
    kernel = []
    for j, v in enumerate(m.col_bits):
        combo = 1 << j
        while v and (r := (v & -v).bit_length() - 1) in image:
            v ^= image[r]
            combo ^= combos[r]
        if v:
            image[r] = v
            combos[r] = combo
        else:
            kernel.append(combo)
    return image, kernel


class CohomologyResult(Record):
    dim: int
    representatives: tuple[int, ...]
    __slots__ = tuple(__annotations__)


def cohomology_dim(d_in: F2Matrix, d_out: F2Matrix) -> CohomologyResult:
    """Dimension and representatives of ker(d_out)/im(d_in).

    d_in maps into the middle slot (its rows index it), d_out maps out of it
    (its columns index it).  Representatives are d_out's kernel vectors
    reduced against d_in's image echelon (image_echelon), in kernel-basis
    order, so they are deterministic.

    Raises CompositionNonzeroError when d_out . d_in != 0, decided without
    the product: the echelon starts as a basis of im, of rank r, and each
    kernel vector that leaves a nonzero residue enlarges its span, which
    ends as ker + im.  So the residues number dim(ker + im) - r =
    dim ker - dim(ker & im).  That is dim ker - r exactly when
    ker & im = im, i.e. im lies in ker, i.e. d_out . d_in = 0.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions differ")
    pivots = image_echelon(d_in)
    image_rank = len(pivots)
    kernel = d_out.kernel_basis()
    reps = []
    for v in kernel:
        residue = echelon_insert(pivots, v)
        if residue:
            reps.append(residue)
    if len(reps) != len(kernel) - image_rank:
        raise CompositionNonzeroError(
            f"composite is nonzero on a {d_in.cols}-dim source"
        )
    return CohomologyResult(len(reps), tuple(reps))
