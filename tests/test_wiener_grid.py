import numpy as np
import pytest

from wcalc import TimeGrid, make_grid, sample_paths, brownian_at, dyadic_coarsen


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


def test_brownian_at_is_cumsum():
    g = make_grid(5)
    pool = sample_paths(g, 32, seed=3)
    want = pool.increments[:, :3].sum(axis=1)
    assert np.allclose(brownian_at(pool, g.knots[3]), want)
    assert np.allclose(brownian_at(pool, 0.0), 0.0)


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
    # endpoint is preserved exactly
    assert np.allclose(coarse.increments.sum(axis=1),
                       pool.increments.sum(axis=1))


def test_dyadic_coarsen_needs_divisible_grid():
    g = make_grid(6)
    pool = sample_paths(g, 4, seed=5)
    with pytest.raises(ValueError):
        dyadic_coarsen(pool, level=2)
