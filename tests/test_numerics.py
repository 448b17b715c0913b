"""Kernels rewritten for speed give bitwise their reference forms' results."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcalc import capped_identity, capped_identity_deriv, radial_cutoff_deriv
from wcalc.numerics import (_segment_integrals, antiderivative_at, quantiles,
                            row_sums, uniform_interp, weighted_row_sums,
                            weighted_sum)

from oracles import (antiderivative_at_searchsorted, assert_bitwise,
                     capped_identity_full, capped_identity_deriv_full,
                     radial_cutoff_deriv_full, segment_integrals_whole)

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


_ANTIDERIVATIVE_INPUTS = {
    "repeated": np.array([0.3, -1.2, 0.3, 2.5, -1.2, 0.3, 1e-3]),
    "zeros": np.array([0.0, -0.0, 1.5, 0.0, -0.7]),
    "negative-only": np.array([-2.0, -0.5, -1.25, -0.5]),
    "2-D": np.random.default_rng(5).standard_normal((40, 3)).round(1),
    "normal": np.random.default_rng(6).standard_normal(5000),
}


@pytest.mark.parametrize("case", sorted(_ANTIDERIVATIVE_INPUTS))
def test_antiderivative_at_matches_the_searchsorted_form(case):
    xs = _ANTIDERIVATIVE_INPUTS[case]
    fn = lambda u: np.exp(-0.5 * u * u) * np.cos(3.0 * u)
    assert_bitwise(antiderivative_at(fn, xs),
                   antiderivative_at_searchsorted(fn, xs))


@pytest.mark.parametrize("order", [7, 15])
def test_blocked_segment_integrals_match_one_pass_bitwise(order):
    """20000 segments span three evaluation blocks; each segment's integral
    is the one the whole-array evaluation gives."""
    b = np.cumsum(np.random.default_rng(7).exponential(1e-3, 20001))
    fn = lambda u: np.exp(-0.5 * u * u) * np.cos(3.0 * u)
    assert_bitwise(_segment_integrals(fn, b[:-1], b[1:], order),
                   segment_integrals_whole(fn, b[:-1], b[1:], order))


def _uniform_grids():
    """Uniform grids built both ways the package builds them."""
    lo, hi, n = -3.7, 5.1, 1025
    return {"linspace": np.linspace(lo, hi, n),
            "arange": lo + ((hi - lo) / (n - 1)) * np.arange(n)}


@pytest.mark.parametrize("kind", ["linspace", "arange"])
def test_uniform_interp_is_np_interp_bitwise(kind):
    """Random points, every node and its neighbours, both ends and points
    beyond both ends read exactly what np.interp reads."""
    grid = _uniform_grids()[kind]
    rng = np.random.default_rng(11)
    span = grid[-1] - grid[0]
    x = np.concatenate([
        rng.uniform(grid[0] - 0.05 * span, grid[-1] + 0.05 * span, 20000),
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        [grid[0], grid[-1], grid[0] - 1.0, grid[-1] + 1.0, -1e300, 1e300]])
    tables = [rng.standard_normal(grid.size),
              np.cumsum(rng.standard_normal(grid.size)),
              np.where(rng.random(grid.size) < 0.5, -0.0, 0.0)]
    got = uniform_interp(x, grid, tables)
    assert len(got) == len(tables)
    for read, t in zip(got, tables):
        assert_bitwise(read, np.interp(x, grid, t))
    two_d = uniform_interp(x[:20000].reshape(400, 50), grid, tables[:1])[0]
    assert_bitwise(two_d, np.interp(x[:20000], grid, tables[0]).reshape(400, 50))


def test_uniform_interp_rejects_nan_points():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="NaN"):
        uniform_interp(np.array([0.5, np.nan]), grid, [grid])


def test_uniform_interp_rejects_a_grid_that_is_not_uniform():
    """Squared nodes put the divided-out cell more than one cell off."""
    grid = np.linspace(0.0, 1.0, 101) ** 2
    with pytest.raises(ValueError, match="not uniform"):
        uniform_interp(np.linspace(0.0, 1.0, 57), grid, [grid])


@pytest.mark.parametrize("width", range(1, 17))
def test_row_sums_match_numpy_bitwise(width):
    """Column by column below 8 columns, numpy's own sum from 8 on: the same
    bits as x.sum(axis=1) on contiguous arrays, column slices, rows of
    signed zeros and infinities, and arrays with no rows."""
    rng = np.random.default_rng(width)
    full = rng.standard_normal((500, 2 * width)) \
        * 10.0 ** rng.integers(-8, 9, (500, 2 * width))
    full[::7] = -0.0
    full[3::11, 0] = np.inf
    for x in (np.ascontiguousarray(full[:, :width]), full[:, :width],
              full[:, width:], full[:, ::2], full[:0, :width]):
        assert_bitwise(row_sums(x), x.sum(axis=1))


@pytest.mark.parametrize("width", range(1, 8))
def test_weighted_row_sums_of_0_1_weights_match_row_sums_bitwise(width):
    """Every 0/1 weight row below 8 columns gives row_sums and numpy's sum
    of the selected columns, bit for bit, on the same edge rows; other
    weights scale each column before it is added."""
    rng = np.random.default_rng(width)
    x = rng.standard_normal((300, width)) * 10.0 ** rng.integers(-8, 9, (300, width))
    x[::7] = -0.0
    x[3::11, 0] = np.inf
    for bits in range(1, 1 << width):
        w = np.array([(bits >> j) & 1 for j in range(width)], dtype=float)
        assert_bitwise(weighted_row_sums(x, w), row_sums(x[:, w != 0.0]))
        assert_bitwise(weighted_row_sums(x, w), x[:, w != 0.0].sum(axis=1))
    w = np.linspace(-1.5, 2.0, width)
    want = np.zeros(len(x))
    for j in range(width):
        want = want + w[j] * x[:, j]
    assert_bitwise(weighted_row_sums(x, w), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4000, 20000])
def test_quantiles_match_numpy_bitwise(n):
    """np.quantile's default linear method, for arrays of q and for each q
    alone, on distinct values and on values with ties (not of -0.0 with 0.0,
    which numpy's partition may order either way)."""
    rng = np.random.default_rng(n)
    qs = [0.0, 0.05, 0.5, 0.95, 1.0, *rng.random(20)]
    ties = np.floor(4.0 * rng.standard_normal(n)) + 0.5
    for values in (rng.standard_normal(n), ties):
        assert_bitwise(quantiles(values, qs), np.quantile(values, qs))
        for q in qs:
            assert_bitwise(quantiles(values, q), np.quantile(values, q))


@pytest.mark.parametrize("n", [1, 7, 129, 20_000, 100_000])
def test_weighted_sum_is_the_exact_pairing_to_roundoff(n):
    """Against the correctly rounded sum of the same products: adding n
    terms in any order errs by at most (n - 1) u times the sum of their
    sizes, u the unit roundoff."""
    rng = np.random.default_rng(n)
    w, v = rng.random(n), rng.standard_normal(n)
    exact = math.fsum((w * v).tolist())
    u = np.finfo(float).eps / 2
    assert abs(weighted_sum(w, v) - exact) <= (n - 1) * u * np.abs(w * v).sum()
