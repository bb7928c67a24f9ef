"""Property tests: the Koszul model agrees with the cobar reference on random
small cells, slice by slice (both u flags, finite levels and inf), in the
rank of multiplication by a, and tower by tower.

Examples are derandomized and no example database is kept; Hypothesis's
home directory is moved to the system temp directory, as in
test_f2linalg_props.py.
"""

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from cobarext import cobar, koszul  # noqa: E402
from cobarext.grading import RO2Degree  # noqa: E402

set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "cobarext-hypothesis"))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(levels=st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True),
       s=st.integers(0, 3), p=st.integers(-8, 8), q=st.integers(-8, 8))
def test_koszul_matches_cobar_on_random_cells(levels, s, p, q):
    levels = sorted(levels)
    d = RO2Degree(p, q)
    for n in levels:
        assert koszul.get_koszul(d, n).cohomology(s).dim == cobar.ext_dim(s, d, n, True).dim
    reference = cobar.tower_report(s, d, [cobar.get_complex(d, n, True) for n in levels])
    assert cobar.limit_ext_report(s, d, levels).to_dict() == reference.to_dict()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3, None]), invert_u=st.booleans(),
       s=st.integers(0, 3), p=st.integers(-8, 8), q=st.integers(-8, 8))
def test_koszul_dims_and_a_ranks_match_cobar(n, invert_u, s, p, q):
    d = RO2Degree(p, q)
    if n is None and invert_u:
        with pytest.raises(cobar.UnboundedBasisError):
            koszul.get_koszul(d, n, invert_u)
        return
    assert koszul.get_koszul(d, n, invert_u).cohomology(s).dim == \
        cobar.ext_dim(s, d, n, invert_u).dim
    lower = cobar.get_complex(RO2Degree(p, q - 1), n, invert_u)
    assert cobar.a_multiplication_rank(s, d, n, invert_u) == \
        cobar._image_in_lower(cobar.get_complex(d, n, invert_u), lower, s)[0]
