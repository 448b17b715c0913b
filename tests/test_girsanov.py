import numpy as np
import pytest

from wcalc import (make_grid, sample_paths, brownian_at, StepProcess,
                   constant_process, deterministic_process, table_process,
                   doleans_exponential, shift_forward, shift_backward,
                   girsanov_check, weighted_expectation)
from wcalc.checks import _girsanov_processes
from oracles import assert_bitwise, doleans_exponential_at, doleans_naive, \
    FROZEN


@pytest.fixture(scope="module")
def pool():
    return sample_paths(make_grid(10), 30000, seed=222)


def test_doleans_matches_naive_loop(pool):
    gamma = StepProcess(pool.grid,
                        lambda i, hist: 0.4 * np.cos(hist.sum(axis=1)),
                        bound=0.4)
    got = doleans_exponential(pool, gamma)[:, -1]
    cols = np.empty_like(pool.increments)
    for i in range(pool.grid.n_steps):
        cols[:, i] = gamma.column(i, pool.increments[:, :i])
    want = doleans_naive(pool.increments[:64], pool.grid.steps, cols[:64])
    assert np.allclose(got[:64], want, rtol=1e-12)


def test_doleans_mean_one_along_knots(pool):
    table = doleans_exponential(pool, constant_process(pool.grid, 0.7))
    assert table.shape == (pool.n_samples, pool.grid.n_steps + 1)
    for dens in table.T[1:]:
        m = weighted_expectation(pool, np.ones(pool.n_samples), dens)
        se = dens.std() / np.sqrt(pool.n_samples)
        assert abs(m - 1.0) < 4 * se + 1e-12


def test_constant_shift_reproduces_gaussian_mean(pool):
    """Reweighting by E(c) makes B_T a N(cT, T) variable."""
    c = 0.8
    gamma = constant_process(pool.grid, c)
    dens = doleans_exponential(pool, gamma)[:, -1]
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
    gamma = StepProcess(pool.grid,
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
    proc = StepProcess(pool.grid, lambda i, hist: np.full(hist.shape[0], 2.0),
                       bound=1.0)
    with pytest.raises(ValueError):
        proc.values(pool.increments)


@pytest.mark.parametrize("table", [np.zeros((10, 3)), np.zeros(4)],
                         ids=["wrong-columns", "one-dimensional"])
def test_table_process_rejects_a_misshapen_table(table):
    with pytest.raises(ValueError, match="2-D with 4 columns"):
        table_process(make_grid(4), table)


def test_every_column_matches_the_per_knot_exponential():
    """The table of every knot equals, bitwise, the exponential computed
    one knot per call; column 0 is the exponential at time 0, all ones."""
    grid = make_grid(16)
    pool = sample_paths(grid, 4000, seed=7303)
    tab = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4000, 16))
    procs = _girsanov_processes(grid) + [("table", table_process(grid, tab))]
    for _, gamma in procs:
        got = doleans_exponential(pool, gamma)
        assert np.all(got[:, 0] == 1.0)
        for j, t in enumerate(grid.knots):
            assert_bitwise(got[:, j], doleans_exponential_at(pool, gamma, t))


def test_step_process_reads_exactly_the_earlier_increments(pool):
    proc = constant_process(pool.grid, 0.5)
    with pytest.raises(ValueError, match="earlier increments"):
        proc.column(3, pool.increments[:, :2])
    with pytest.raises(ValueError, match="earlier increments"):
        proc.values(np.zeros((5, pool.grid.n_steps + 1)))
