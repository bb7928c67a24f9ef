import random

import pytest

from cobarext.f2linalg import (
    CompositionNonzeroError,
    F2Matrix,
    bits,
    cohomology_dim,
    column_echelon,
    echelon_insert,
)


def packed(row):
    return sum(b << j for j, b in enumerate(row))


def identity(n):
    return F2Matrix(n, n, tuple(1 << j for j in range(n)))


def transpose(m):
    return F2Matrix.from_rows(m.cols, m.rows, m.col_bits)


def entry(m, i, j):
    return (m.col_bits[j] >> i) & 1


def mat(rows_as_lists, cols=None):
    rows = len(rows_as_lists)
    cols = cols if cols is not None else (len(rows_as_lists[0]) if rows else 0)
    return F2Matrix.from_rows(rows, cols, [packed(row) for row in rows_as_lists])


def naive_rref(rows_as_lists, cols):
    """Independent oracle: textbook Gauss-Jordan elimination on 0/1 lists,
    returning the nonzero reduced rows and their pivot columns."""
    m = [list(r) for r in rows_as_lists]
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[rank])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def naive_kernel(rows_as_lists, cols):
    """Canonical kernel basis: for each free column f ascending, e_f plus e_c
    for every pivot c whose reduced row has a 1 in column f."""
    rref, pivots = naive_rref(rows_as_lists, cols)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = 1
        for row, c in zip(rref, pivots):
            if row[f]:
                v[c] = 1
        basis.append(v)
    return basis


def test_rref_and_kernel_match_textbook_oracle_exactly():
    """kernel_basis() vectors are the canonical ones of the textbook rref,
    in order, and the image echelon has the oracle's rank; output bytes
    depend on the exact vectors, not only their span."""
    rng = random.Random(20261018)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 40), (40, 1), (40, 40), (3, 37), (37, 3)]
    shapes += [(rng.randrange(0, 41), rng.randrange(0, 41)) for _ in range(300)]
    for rows, cols in shapes:
        density = rng.choice([0.0, 0.05, 0.2, 0.5, 0.9])
        entries = [[int(rng.random() < density) for _ in range(cols)]
                   for _ in range(rows)]
        m = mat(entries, cols)
        assert len(column_echelon(m)[0]) == len(naive_rref(entries, cols)[1])
        assert m.kernel_basis() == [packed(v) for v in naive_kernel(entries, cols)]


def test_from_rows_stores_columns_and_round_trips():
    m = mat([[1, 0, 1], [0, 1, 1]])
    assert m.col_bits == (0b01, 0b10, 0b11)
    assert m.row_bits == (0b101, 0b110)
    assert [[entry(m, i, j) for j in range(3)] for i in range(2)] == [[1, 0, 1], [0, 1, 1]]
    rng = random.Random(1414)
    for _ in range(200):
        rows, cols = rng.randrange(0, 12), rng.randrange(0, 12)
        row_bits = tuple(rng.getrandbits(cols) for _ in range(rows))
        assert F2Matrix.from_rows(rows, cols, row_bits).row_bits == row_bits
    with pytest.raises(ValueError):
        F2Matrix.from_rows(1, 2, [0b100])
    with pytest.raises(ValueError):
        F2Matrix.from_rows(2, 2, [0b1])
    with pytest.raises(ValueError):
        F2Matrix(1, 1, (0b10,))


def test_rank_examples():
    assert F2Matrix.zero(0, 0).rank() == 0
    assert identity(3).rank() == 3
    assert mat([[1, 1], [1, 1]]).rank() == 1


def test_rank_against_naive_oracle():
    rng = random.Random(20260816)
    for _ in range(300):
        rows = rng.randrange(0, 13)
        cols = rng.randrange(0, 13)
        entries = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        m = mat(entries, cols)
        assert m.rank() == len(naive_rref(entries, cols)[1])
        assert m.rank() == transpose(m).rank()


def test_kernel_examples():
    assert mat([[1, 1]]).kernel_basis() == [0b11]
    assert identity(4).kernel_basis() == []
    assert mat([[0, 0]]).kernel_basis() == [0b01, 0b10]


def test_kernel_vectors_annihilated_and_independent():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randrange(0, 10)
        cols = rng.randrange(0, 10)
        m = mat([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)], cols)
        basis = m.kernel_basis()
        assert len(basis) == cols - m.rank()
        pivots = {}
        for v in basis:
            assert m.apply(v) == 0
            assert echelon_insert(pivots, v) != 0


def test_cohomology_examples():
    two = cohomology_dim(F2Matrix.zero(2, 0), F2Matrix.zero(0, 2))
    assert two.dim == 2 and len(two.representatives) == 2
    assert cohomology_dim(identity(3), F2Matrix.zero(0, 3)).dim == 0
    # short exact pattern: inject the diagonal, project onto the difference
    d_in = mat([[1], [1]])
    d_out = mat([[1, 1]])
    assert cohomology_dim(d_in, d_out).dim == 0


def test_composition_checked():
    with pytest.raises(CompositionNonzeroError):
        cohomology_dim(identity(2), identity(2))


def test_rank_nullity():
    rng = random.Random(99)
    for _ in range(100):
        rows = rng.randrange(0, 12)
        cols = rng.randrange(0, 12)
        m = mat([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)], cols)
        assert m.rank() + len(m.kernel_basis()) == cols


def test_cohomology_invariant_under_permutation():
    rng = random.Random(4242)
    for _ in range(60):
        a, b, c = (rng.randrange(1, 7) for _ in range(3))
        din_rows = [[rng.randrange(2) for _ in range(a)] for _ in range(b)]
        dout_rows = [[rng.randrange(2) for _ in range(b)] for _ in range(c)]
        d_in, d_out = mat(din_rows, a), mat(dout_rows, b)
        try:
            base = cohomology_dim(d_in, d_out).dim
        except CompositionNonzeroError:
            continue
        perm = list(range(b))
        rng.shuffle(perm)
        din_p = [[din_rows[perm[i]][j] for j in range(a)] for i in range(b)]
        dout_p = [[dout_rows[i][perm.index(j)] for j in range(b)] for i in range(c)]
        assert cohomology_dim(mat(din_p, a), mat(dout_p, b)).dim == base


def test_representatives_reduce_to_zero_against_image_and_kernel():
    rng = random.Random(11)
    for _ in range(80):
        a, b, c = (rng.randrange(1, 8) for _ in range(3))
        d_in = mat([[rng.randrange(2) for _ in range(a)] for _ in range(b)], a)
        d_out_rows = [[0] * b for _ in range(c)]
        d_out = mat(d_out_rows, b)  # zero d_out keeps the pair composable
        res = cohomology_dim(d_in, d_out)
        pivots = {}
        for col in d_in.col_bits:
            echelon_insert(pivots, col)
        for v in res.representatives:
            assert d_out.apply(v) == 0
            assert echelon_insert(dict(pivots), v) == v  # already fully reduced
            assert v != 0


def test_mul_and_apply_agree():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (rng.randrange(1, 8) for _ in range(3))
        m1 = mat([[rng.randrange(2) for _ in range(b)] for _ in range(c)], b)
        m2 = mat([[rng.randrange(2) for _ in range(a)] for _ in range(b)], a)
        prod = m1.mul(m2)
        for j in range(a):
            assert prod.apply(1 << j) == m1.apply(m2.apply(1 << j))


def test_apply_and_mul_match_the_entries():
    rng = random.Random(11)
    shapes = [(1, 1, 1), (130, 3, 2), (3, 130, 2), (70, 90, 3)]
    shapes += [(rng.randrange(1, 90), rng.randrange(1, 90), rng.randrange(1, 6))
               for _ in range(30)]
    for rows, inner, cols in shapes:
        a = F2Matrix(rows, inner, tuple(rng.getrandbits(rows) for _ in range(inner)))
        b = F2Matrix(inner, cols, tuple(rng.getrandbits(inner) for _ in range(cols)))
        assert a.apply(0) == 0
        for v in (0, rng.getrandbits(inner), (1 << inner) - 1):
            want = sum((sum(entry(a, i, j) for j in range(inner) if (v >> j) & 1) % 2) << i
                       for i in range(rows))
            assert a.apply(v) == want
        prod = a.mul(b)
        assert (prod.rows, prod.cols) == (rows, cols)
        for i in range(rows):
            for k in range(cols):
                want = sum(entry(a, i, j) & entry(b, j, k) for j in range(inner)) % 2
                assert entry(prod, i, k) == want


def test_bits_ascending():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    rng = random.Random(7)
    for _ in range(50):
        v = rng.getrandbits(200)
        assert list(bits(v)) == [j for j in range(200) if (v >> j) & 1]
