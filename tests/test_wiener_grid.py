import sys
import threading

import numpy as np
import pytest

from wcalc import (PathPool, TimeGrid, make_grid, sample_paths, brownian_at,
                   constant_process, dyadic_coarsen, shift_forward)
from wcalc.wiener_grid import _knot_columns
from oracles import assert_bitwise


def test_make_grid_basics():
    g = make_grid(8, horizon=2.0)
    assert g.n_steps == 8
    assert g.horizon == 2.0
    assert np.allclose(g.steps, 0.25)
    assert g.is_uniform() is True
    assert g.knot_index(0.5) == 2
    assert TimeGrid(np.array([0.0, 0.1, 0.5, 2.0])).is_uniform() is False


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("horizon", [1.0, 0.7, 3.3])
def test_fine_grids_stay_uniform(n, horizon):
    """np.linspace steps spread by about n * 2**-52 relative, so a relative
    step tolerance refuses make_grid's own fine grids; their coarsening
    must still work. A knot moved by 1e-6 of a step is refused."""
    grid = make_grid(n, horizon)
    assert grid.is_uniform()
    coarse = dyadic_coarsen(sample_paths(grid, 10, 1), 1)
    assert coarse.grid.n_steps == 2
    knots = grid.knots.copy()
    knots[n // 3] += 1e-6 * (horizon / n)
    assert not TimeGrid(knots).is_uniform()


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(0)
    with pytest.raises(ValueError):
        make_grid(4, horizon=-1.0)
    with pytest.raises(ValueError):
        TimeGrid(knots=np.array([0.0, 0.5, 0.25, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(knots=np.array([0.1, 0.5, 1.0]))


def test_knot_index_requires_grid_point():
    g = make_grid(4)
    with pytest.raises(ValueError):
        g.knot_index(0.3)


def test_sample_paths_moments():
    """Increment columns should look like N(0, dt_i) at MC accuracy."""
    g = make_grid(6)
    pool = sample_paths(g, 50000, seed=101)
    assert pool.increments.shape == (50000, 6)
    se = np.sqrt(g.steps / 50000)
    assert np.all(np.abs(pool.increments.mean(axis=0)) < 4 * se)
    assert np.allclose(pool.increments.var(axis=0), g.steps, rtol=0.05)


def test_sample_paths_seed_reproducible():
    g = make_grid(4)
    a = sample_paths(g, 64, seed=7)
    b = sample_paths(g, 64, seed=7)
    c = sample_paths(g, 64, seed=8)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def _cumsum_positions(inc):
    """The position matrix as np.cumsum writes it: column 0 zero."""
    want = np.zeros((inc.shape[0], inc.shape[1] + 1))
    np.cumsum(inc, axis=1, out=want[:, 1:])
    return want


def _fresh():
    pool = sample_paths(make_grid(5), 32, seed=3)
    return pool, _cumsum_positions(pool.increments)


def _subset(build_first):
    def make():
        pool, want = _fresh()
        if build_first:
            pool.cumulative
        return pool.subset([1, 4, 9, 30]), want[[1, 4, 9, 30]]
    return make


def _coarsened():
    pool = sample_paths(make_grid(8), 16, seed=5)
    # the fine pool's positions at the block knots 0, 2, 4, 6, 8
    return (dyadic_coarsen(pool, level=2),
            _cumsum_positions(pool.increments)[:, ::2])


def _shifted():
    pool = sample_paths(make_grid(4), 32, seed=9)
    shifted = shift_forward(pool, constant_process(pool.grid, 0.5), 1.0)
    return shifted, _cumsum_positions(shifted.increments)


def _signed_zeros():
    inc = sample_paths(make_grid(3), 8, seed=2).increments.copy()
    inc[::2, 0] = -0.0
    inc[::4, 1] = -0.0
    want = _cumsum_positions(inc)
    assert np.signbit(want[::4, 1:3]).all()
    return PathPool(make_grid(3), inc), want


@pytest.mark.parametrize("make", [
    _fresh, _subset(False), _subset(True), _coarsened, _shifted,
    _signed_zeros],
    ids=["fresh", "subset-before-build", "subset-after-build", "coarsened",
         "shifted", "signed-zeros"])
@pytest.mark.parametrize("matrix_first", [True, False])
def test_positions_are_cumsum_bitwise(make, matrix_first):
    """brownian_at at every knot, the column walk that the knot-table
    readers take and pool.cumulative are the np.cumsum positions bit for
    bit (-0.0 included), whichever is read first; the matrix is read-only,
    and neither of the other two reads builds it."""
    pool, want = make()

    def knots():
        built = pool._cumulative is not None
        for j, t in enumerate(pool.grid.knots):
            assert_bitwise(brownian_at(pool, t), want[:, j])
        for j, col in enumerate(_knot_columns(pool, pool.grid.n_steps + 1)):
            assert_bitwise(col, want[:, j])
        assert j == pool.grid.n_steps
        assert (pool._cumulative is not None) == built

    def matrix():
        assert_bitwise(pool.cumulative, want)
        assert not pool.cumulative.flags.writeable

    for read in ((matrix, knots) if matrix_first else (knots, matrix)):
        read()


def test_positions_built_by_racing_threads_agree():
    """Threads that build one pool's matrix at once (as _run_units' workers
    may through dyadic_coarsen) each get the np.cumsum bits, and so does
    the matrix the pool keeps."""
    pool = sample_paths(make_grid(16), 20_000, seed=4)
    n_threads = 8
    start = threading.Barrier(n_threads)
    got = [None] * n_threads

    def build(i):
        start.wait(timeout=10)
        got[i] = pool.cumulative

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = _cumsum_positions(pool.increments)
    for g in got + [pool.cumulative]:
        assert_bitwise(g, want)


def test_pool_refuses_misshapen_arrays():
    grid = make_grid(4)
    with pytest.raises(ValueError, match=r"got shape \(4,\)"):
        PathPool(grid, np.ones(4))
    with pytest.raises(ValueError, match=r"got shape \(3, 5\)"):
        PathPool(grid, np.ones((3, 5)))
    with pytest.raises(ValueError, match=r"positions must be \(3, 5\), "
                                         r"got shape \(3, 4\)"):
        PathPool(grid, np.ones((3, 4)), np.ones((3, 4)))


def test_subset_keeps_rows():
    g = make_grid(3)
    pool = sample_paths(g, 10, seed=1)
    sub = pool.subset([2, 5, 7])
    assert sub.n_samples == 3
    assert np.array_equal(sub.increments, pool.increments[[2, 5, 7]])


def test_dyadic_coarsen_sums_blocks():
    g = make_grid(8)
    pool = sample_paths(g, 16, seed=5)
    coarse = dyadic_coarsen(pool, level=2)
    assert coarse.grid.n_steps == 4
    want = pool.increments.reshape(16, 4, 2).sum(axis=2)
    assert np.allclose(coarse.increments, want)
    # the endpoint is the fine pool's, bit for bit
    assert_bitwise(brownian_at(coarse, 1.0), brownian_at(pool, 1.0))


def test_dyadic_coarsen_needs_divisible_grid():
    g = make_grid(6)
    pool = sample_paths(g, 4, seed=5)
    with pytest.raises(ValueError):
        dyadic_coarsen(pool, level=2)
