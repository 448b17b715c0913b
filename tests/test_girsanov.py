import numpy as np
import pytest

from wcalc import (make_grid, sample_paths, brownian_at, constant_process,
                   deterministic_process, table_process, history_process,
                   doleans_exponential, shift_forward, shift_backward,
                   girsanov_check, weighted_expectation)
from oracles import doleans_naive, FROZEN


@pytest.fixture(scope="module")
def pool():
    return sample_paths(make_grid(10), 30000, seed=222)


def test_doleans_matches_naive_loop(pool):
    gamma = history_process(pool.grid,
                            lambda i, hist: 0.4 * np.cos(hist.sum(axis=1)),
                            bound=0.4)
    got = doleans_exponential(pool, gamma, pool.grid.horizon)
    cols = np.empty_like(pool.increments)
    for i in range(pool.grid.n_steps):
        cols[:, i] = gamma.column(i, pool.increments[:, :i])
    want = doleans_naive(pool.increments[:64], pool.grid.steps, cols[:64])
    assert np.allclose(got[:64], want, rtol=1e-12)


def test_doleans_mean_one_along_knots(pool):
    gamma = constant_process(pool.grid, 0.7)
    for t in pool.grid.knots[1:]:
        dens = doleans_exponential(pool, gamma, float(t))
        m = weighted_expectation(pool, np.ones(pool.n_samples), dens)
        se = dens.std() / np.sqrt(pool.n_samples)
        assert abs(m - 1.0) < 4 * se + 1e-12


def test_constant_shift_reproduces_gaussian_mean(pool):
    """Reweighting by E(c) makes B_T a N(cT, T) variable."""
    c = 0.8
    gamma = constant_process(pool.grid, c)
    dens = doleans_exponential(pool, gamma, pool.grid.horizon)
    bt = brownian_at(pool, pool.grid.horizon)
    got = weighted_expectation(pool, dens, bt)
    se = np.abs(dens * bt).std() / np.sqrt(pool.n_samples)
    assert abs(got - c * pool.grid.horizon) < 4 * se
    assert abs(weighted_expectation(pool, dens, np.ones_like(bt))
               - FROZEN["gaussian_shift_mean"] * 1.0) < 4 * se


def test_girsanov_check_two_routes(pool):
    gamma = deterministic_process(pool.grid,
                                  np.linspace(0.2, 0.8, pool.grid.n_steps))
    lhs, rhs, se = girsanov_check(
        pool, gamma, lambda p: np.sin(brownian_at(p, p.grid.horizon)))
    assert abs(lhs - rhs) <= 3 * se


def test_flow_inversion_exact(pool):
    gamma = history_process(pool.grid,
                            lambda i, hist: np.tanh(hist.sum(axis=1)),
                            bound=1.0)
    fwd = shift_forward(pool, gamma, pool.grid.horizon)
    back = shift_backward(fwd, gamma, pool.grid.horizon)
    assert np.max(np.abs(back.increments - pool.increments)) < 1e-12
    # forward genuinely moves the paths
    assert np.max(np.abs(fwd.increments - pool.increments)) > 1e-3


def test_table_process_round_trip(pool):
    tab = np.random.default_rng(4).uniform(-0.5, 0.5,
                                           size=pool.increments.shape)
    proc = table_process(pool.grid, tab)
    for i in (0, 3, 9):
        assert np.array_equal(proc.column(i, pool.increments[:, :i]),
                              tab[:, i])
    with pytest.raises(ValueError):
        proc.column(0, pool.increments[:10, :0])


def test_step_process_bound_enforced(pool):
    proc = history_process(pool.grid, lambda i, hist: np.full(hist.shape[0], 2.0),
                           bound=1.0)
    with pytest.raises(ValueError):
        proc.values(pool.increments)

