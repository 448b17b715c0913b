import numpy as np
import pytest

from wcalc import (make_grid, sample_paths, brownian_at, StepProcess,
                   constant_process, deterministic_process,
                   doleans_exponential, shift_forward, shift_backward,
                   girsanov_check, weighted_expectation)
from wcalc import checks, run_check
from wcalc.checks import _girsanov_processes
from wcalc.wiener_grid import _pool_from_increments
from oracles import assert_bitwise, check_girsanov_per_pair, \
    doleans_exponential_at, doleans_naive, FROZEN


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
        m = weighted_expectation(np.ones(pool.n_samples), dens)
        se = dens.std() / np.sqrt(pool.n_samples)
        assert abs(m - 1.0) < 4 * se + 1e-12


def test_constant_shift_reproduces_gaussian_mean(pool):
    """Reweighting by E(c) makes B_T a N(cT, T) variable."""
    c = 0.8
    gamma = constant_process(pool.grid, c)
    dens = doleans_exponential(pool, gamma)[:, -1]
    bt = brownian_at(pool, pool.grid.horizon)
    got = weighted_expectation(dens, bt)
    se = np.abs(dens * bt).std() / np.sqrt(pool.n_samples)
    assert abs(got - c * pool.grid.horizon) < 4 * se
    assert abs(weighted_expectation(dens, np.ones_like(bt))
               - FROZEN["gaussian_shift_mean"] * 1.0) < 4 * se


def test_girsanov_check_two_routes(pool):
    gamma = deterministic_process(pool.grid,
                                  np.linspace(0.2, 0.8, pool.grid.n_steps))
    lhs, rhs, se = girsanov_check(
        pool, doleans_exponential(pool, gamma)[:, -1],
        shift_forward(pool, gamma, pool.grid.horizon),
        lambda p: np.sin(brownian_at(p, p.grid.horizon)))
    assert abs(lhs - rhs) <= 3 * se


def test_girsanov_check_rejects_inputs_of_another_pool(pool):
    gamma = constant_process(pool.grid, 0.5)
    table = doleans_exponential(pool, gamma)
    shifted = shift_forward(pool, gamma, pool.grid.horizon)
    phi = lambda p: brownian_at(p, p.grid.horizon)
    for exponential, moved in ((table, shifted), (table[:10, -1], shifted),
                               (table[:, -1], shifted.subset(slice(10)))):
        with pytest.raises(ValueError, match="match the pool"):
            girsanov_check(pool, exponential, moved, phi)


def test_flow_inversion_exact(pool):
    gamma = StepProcess(pool.grid,
                        lambda i, hist: np.tanh(hist.sum(axis=1)),
                        bound=1.0)
    fwd = shift_forward(pool, gamma, pool.grid.horizon)
    back = shift_backward(fwd, gamma, pool.grid.horizon)
    assert np.max(np.abs(back.increments - pool.increments)) < 1e-12
    # forward genuinely moves the paths
    assert np.max(np.abs(fwd.increments - pool.increments)) > 1e-3


def test_step_process_bound_enforced(pool):
    proc = StepProcess(pool.grid, lambda i, hist: np.full(hist.shape[0], 2.0),
                       bound=1.0)
    with pytest.raises(ValueError):
        proc.column(0, pool.increments[:, :0])


def test_every_column_matches_the_per_knot_exponential():
    """The table of every knot equals, bitwise, the exponential computed
    one knot per call; column 0 is the exponential at time 0, all ones."""
    grid = make_grid(16)
    pool = sample_paths(grid, 4000, seed=7303)
    tab = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4000, 16))
    table = StepProcess(grid, lambda i, hist: tab[:, i], bound=0.5)
    procs = _girsanov_processes(grid) + [("table", table)]
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
        proc.column(pool.grid.n_steps, np.zeros((5, pool.grid.n_steps)))


@pytest.mark.parametrize("seed", [3, 20260815])
def test_girsanov_battery_matches_the_per_pair_oracle_bitwise(seed):
    """One exponential and one shifted pool per integrand, shared by its
    pairs, its inversion and its mean-one record, move no record."""
    got = run_check("girsanov", 4000, 16, seed=seed)
    want = check_girsanov_per_pair(4000, 16, seed=seed)
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        assert_bitwise([g.lhs, g.rhs, g.std_err, g.tolerance],
                       [w.lhs, w.rhs, w.std_err, w.tolerance])


def _counted(fn, calls):
    def counting(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return counting


def test_girsanov_battery_builds_one_table_and_one_shift_per_integrand(
        monkeypatch):
    calls = []
    for name in ("doleans_exponential", "shift_forward"):
        monkeypatch.setattr(checks, name, _counted(getattr(checks, name), calls))
    run_check("girsanov", 1000, 8, seed=3)
    n_integrands = len(_girsanov_processes(make_grid(8)))
    assert calls.count("doleans_exponential") == n_integrands
    assert calls.count("shift_forward") == n_integrands


def _uncompensated_exponential(pool, gamma):
    """The Doleans exponential without its -gamma^2 dt / 2 term."""
    inc = pool.increments
    logs = np.zeros((inc.shape[0], pool.grid.n_steps + 1))
    for i in range(pool.grid.n_steps):
        logs[:, i + 1] = logs[:, i] + gamma.column(i, inc[:, :i]) * inc[:, i]
    return np.exp(logs)


def _shift_reading_the_unshifted_history(pool, gamma, t):
    inc = pool.increments.copy()
    for i in range(pool.grid.knot_index(t)):
        inc[:, i] += gamma.column(i, pool.increments[:, :i]) * pool.grid.steps[i]
    return _pool_from_increments(pool.grid, inc)


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_girsanov_battery_catches_an_uncompensated_exponential(monkeypatch,
                                                                seed):
    """Power: without its compensator the exponential is no martingale, so
    both mean-one records and most reweight-vs-shift pairs fail at
    reference size."""
    monkeypatch.setattr(checks, "doleans_exponential",
                        _uncompensated_exponential)
    records = run_check("girsanov", n_paths=20_000, n_steps=16, seed=seed)
    failed = {r.name for r in records if not r.passed}
    assert {"girsanov/mean-one|const-", "girsanov/mean-one|tanh-B"} <= failed
    assert len(failed) >= 9, sorted(failed)


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_girsanov_inverse_catches_a_shift_that_reads_the_unshifted_history(
        monkeypatch, seed):
    """Power: the inversion record shifts back the pool the pairs share, so
    a forward flow off its triangular fixed point fails it by orders of
    magnitude."""
    monkeypatch.setattr(checks, "shift_forward",
                        _shift_reading_the_unshifted_history)
    records = run_check("girsanov", n_paths=20_000, n_steps=16, seed=seed)
    inverse = {r.name: r for r in records}["girsanov/inverse|tanh-B"]
    assert inverse.gap > 1e7 * inverse.tolerance
