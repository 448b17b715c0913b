"""The band-only cutoff kernels give bitwise the full formulas' results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcalc import capped_identity, capped_identity_deriv, radial_cutoff_deriv

from oracles import (assert_bitwise, capped_identity_full,
                     capped_identity_deriv_full, radial_cutoff_deriv_full)

_LEVELS = (3.0, 4.0, 6.0, 8.0)
_KERNELS = ((capped_identity, capped_identity_full),
            (capped_identity_deriv, capped_identity_deriv_full),
            (radial_cutoff_deriv, radial_cutoff_deriv_full))


def edge_inputs(level):
    """Band ends and their neighbours, signed zeros, infinities and NaNs."""
    pts = [level - 2.0, level, level - 1.0, 0.5 * (2.0 * level - 2.0)]
    pts += [np.nextafter(p, d) for p in (level - 2.0, level)
            for d in (-np.inf, np.inf)]
    pts += [np.inf, np.nan, np.copysign(np.nan, -1.0), 1e-310, 1.0, 1e300]
    pos = np.array(pts)
    return np.concatenate([pos, -pos, [0.0, -0.0]])


@pytest.mark.parametrize("level", _LEVELS)
@pytest.mark.parametrize("fast,full", _KERNELS)
def test_kernels_match_the_full_formula_at_edges(fast, full, level):
    x = edge_inputs(level)
    assert_bitwise(fast(x, level), full(x, level))
    assert_bitwise(fast(x.reshape(2, -1), level), full(x.reshape(2, -1), level))
    for scalar in (level - 1.0, -0.0, np.nan):
        assert type(fast(scalar, level)) is type(full(scalar, level))
        assert_bitwise(fast(scalar, level), full(scalar, level))


def test_edge_values_are_the_closed_forms():
    for level in _LEVELS:
        x = np.array([level - 2.0, -level, np.inf, -0.0, np.nan])
        val = capped_identity(x, level)
        assert np.array_equal(val[:4], [level - 2.0, 1.0 - level, level - 1.0, 0.0])
        assert np.signbit(val[3]) == np.signbit(capped_identity_full(-0.0, level))
        assert np.isnan(val[4])
        der = capped_identity_deriv(x, level)
        assert np.array_equal(der[:4], [1.0, 0.0, 0.0, 1.0])
        assert np.isnan(der[4])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=60),
       st.one_of(st.sampled_from(_LEVELS), st.floats(3.0, 1e6)))
def test_kernels_match_the_full_formula(values, level):
    x = np.array(values, dtype=float)
    for fast, full in _KERNELS:
        assert_bitwise(fast(x, level), full(x, level))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
       st.sampled_from(_LEVELS))
def test_kernels_match_the_full_formula_across_the_band(offsets, level):
    """Dense cover of the transition band and a unit either side of it."""
    x = (level - 1.0) + 2.0 * np.array(offsets)
    x = np.concatenate([x, -x])
    for fast, full in _KERNELS:
        assert_bitwise(fast(x, level), full(x, level))
