"""Property tests for the F2 invariants of f2linalg.

Examples are derandomized and no example database is kept, so every run
checks the same matrices.  Hypothesis still caches the constants it reads
from local source files, and its pytest plugin does so while collecting, so
its home directory is moved to the system temp directory at import; no
.hypothesis/ directory appears in the working tree.
"""

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from cobarext.f2linalg import (  # noqa: E402
    CohomologyResult,
    CompositionNonzeroError,
    F2Matrix,
    bits,
    cohomology_dim,
    column_echelon,
    echelon_insert,
    image_echelon,
)

set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "cobarext-hypothesis"))
PROPS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def row_lists(draw, cols=None):
    """(rows, cols, row bitmasks), cols drawn unless given."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12)) if cols is None else cols
    return rows, cols, draw(st.lists(st.integers(0, (1 << cols) - 1),
                                     min_size=rows, max_size=rows))


@st.composite
def matrices(draw):
    return F2Matrix.from_rows(*draw(row_lists()))


@st.composite
def cochain_pairs(draw):
    """(d_in, d_out) with d_out . d_in = 0: every row of d_out is a sum of
    vectors orthogonal to all columns of d_in."""
    d_in = draw(matrices())
    annihilator = F2Matrix.from_rows(d_in.cols, d_in.rows, d_in.col_bits).kernel_basis()
    masks = draw(st.lists(st.integers(0, (1 << len(annihilator)) - 1), max_size=8))
    rows = []
    for mask in masks:
        row = 0
        for k in bits(mask):
            row ^= annihilator[k]
        rows.append(row)
    return d_in, F2Matrix.from_rows(len(rows), d_in.rows, rows)


@st.composite
def composable_pairs(draw):
    """(d_in, d_out) with as many columns of d_out as rows of d_in: half of
    them cochain pairs, the rest drawn freely."""
    if draw(st.booleans()):
        return draw(cochain_pairs())
    d_in = draw(matrices())
    return d_in, F2Matrix.from_rows(*draw(row_lists(cols=d_in.rows)))


@PROPS
@given(matrices())
def test_rank_plus_nullity_is_cols(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@PROPS
@given(matrices())
def test_kernel_vectors_are_canonical_and_annihilated(m):
    # pivot columns: those independent of the columns before them
    echelon: dict[int, int] = {}
    pivots = [j for j, col in enumerate(m.col_bits)
              if echelon_insert(echelon, col)]
    pivot_mask = sum(1 << c for c in pivots)
    free = [f for f in range(m.cols) if f not in pivots]
    kernel = m.kernel_basis()
    assert len(kernel) == len(free)
    for f, v in zip(free, kernel):
        assert m.apply(v) == 0
        assert v & ~pivot_mask == 1 << f  # e_f plus pivot columns only


@PROPS
@given(cochain_pairs())
def test_cohomology_dim_is_cols_minus_ranks(pair):
    d_in, d_out = pair
    res = cohomology_dim(d_in, d_out)
    assert res.dim == d_out.cols - d_out.rank() - d_in.rank()
    assert len(res.representatives) == res.dim


@PROPS
@given(st.data())
def test_mul_and_apply_match_the_row_form_product(data):
    inner, cols, b_rows = data.draw(row_lists())
    rows, _, a_rows = data.draw(row_lists(cols=inner))
    v = data.draw(st.integers(0, (1 << inner) - 1))
    a = F2Matrix.from_rows(rows, inner, a_rows)
    b = F2Matrix.from_rows(inner, cols, b_rows)
    # row i of a.b is the sum of the rows of b that row i of a picks
    product = []
    for r in a_rows:
        acc = 0
        for j in range(inner):
            if r >> j & 1:
                acc ^= b_rows[j]
        product.append(acc)
    assert a.mul(b) == F2Matrix.from_rows(rows, cols, product)
    assert a.mul(b).row_bits == tuple(product)
    # coordinate i of a.v is the parity of row i of a against v
    assert a.apply(v) == sum(((r & v).bit_count() & 1) << i for i, r in enumerate(a_rows))


@PROPS
@given(composable_pairs())
def test_the_composition_check_is_exact(pair):
    d_in, d_out = pair
    assert image_echelon(d_in) == column_echelon(d_in)[0]
    if not d_out.mul(d_in).is_zero():
        with pytest.raises(CompositionNonzeroError):
            cohomology_dim(d_in, d_out)
        return
    # d_out's kernel reduced against the image echelon of a full elimination
    pivots = column_echelon(d_in)[0]
    reps = [echelon_insert(pivots, v) for v in d_out.kernel_basis()]
    reps = tuple(r for r in reps if r)
    assert cohomology_dim(d_in, d_out) == CohomologyResult(len(reps), reps)
