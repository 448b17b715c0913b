"""Exponential martingales of adapted step integrands and the pathwise
measure-change flows they generate.

A StepProcess is piecewise constant on the grid intervals; its coefficient on
interval i may read only the increments of intervals < i, which is what makes
the forward shift flow triangular and therefore exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import mean_and_se
from .wiener_grid import PathPool, TimeGrid, _pool_from_increments


@dataclass(frozen=True)
class StepProcess:
    """Adapted piecewise-constant integrand on a grid.

    rule(i, history) -> per-path value on interval i, where history is the
    (n_paths, i) matrix of earlier increments. bound is a promised sup
    bound on |values|; evaluation enforces it.
    """

    grid: TimeGrid
    rule: Callable
    bound: float

    def __post_init__(self):
        if not (self.bound > 0 and np.isfinite(self.bound)):
            raise ValueError("bound must be positive and finite")

    def column(self, i: int, history: np.ndarray) -> np.ndarray:
        if not (0 <= i < self.grid.n_steps and history.shape[1] == i):
            raise ValueError(f"interval {i} of {self.grid.n_steps} needs its "
                             f"{i} earlier increments, got {history.shape[1]}")
        vals = np.asarray(self.rule(i, history), dtype=float)
        vals = np.broadcast_to(vals, (history.shape[0],)).astype(float)
        if np.any(np.abs(vals) > self.bound * (1.0 + 1e-12)):
            raise ValueError(f"integrand exceeded its bound {self.bound} on interval {i}")
        return vals


def constant_process(grid: TimeGrid, c: float) -> StepProcess:
    c = float(c)
    return StepProcess(grid, lambda i, hist: np.full(hist.shape[0], c),
                       bound=max(abs(c), np.finfo(float).tiny))


def deterministic_process(grid: TimeGrid, values) -> StepProcess:
    """Integrand equal to a fixed number on each interval."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_steps,):
        raise ValueError("need one value per interval")
    bound = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    return StepProcess(grid, lambda i, hist: np.full(hist.shape[0], vals[i]),
                       bound=bound)


def doleans_exponential(pool: PathPool, gamma: StepProcess) -> np.ndarray:
    """Per-path exponential martingale at every knot: an
    (n_paths, n_steps + 1) array whose column 0 is ones.

    log E accumulates gamma_i B(D_i) - 0.5 gamma_i^2 dt_i per interval and
    is exponentiated once, so the result is strictly positive and
    overflow-safe for long grids.
    """
    grid = pool.grid
    if gamma.grid.n_steps != grid.n_steps:
        raise ValueError("integrand grid does not match the path grid")
    inc = pool.increments
    dts = grid.steps
    logs = np.zeros((inc.shape[0], grid.n_steps + 1))
    for i in range(grid.n_steps):
        g = gamma.column(i, inc[:, :i])
        logs[:, i + 1] = logs[:, i] + g * inc[:, i] - 0.5 * g * g * dts[i]
    return np.exp(logs, out=logs)


def shift_forward(pool: PathPool, gamma: StepProcess, t: float) -> PathPool:
    """Flow adding the integrand's drift: increments become
    B(D_i) + gamma_i(shifted history) dt_i for intervals up to t.

    The coefficient reads the already-shifted history, which is exactly the
    triangular fixed point; adaptedness makes it explicit, no iteration.
    """
    j = pool.grid.knot_index(t)
    dts = pool.grid.steps
    inc = pool.increments.copy()
    for i in range(j):
        g = gamma.column(i, inc[:, :i])
        inc[:, i] = pool.increments[:, i] + g * dts[i]
    return _pool_from_increments(pool.grid, inc)


def shift_backward(pool: PathPool, gamma: StepProcess, t: float) -> PathPool:
    """Inverse flow: subtracts gamma_i(original history) dt_i; explicit."""
    j = pool.grid.knot_index(t)
    dts = pool.grid.steps
    inc = pool.increments.copy()
    for i in range(j):
        g = gamma.column(i, pool.increments[:, :i])
        inc[:, i] = pool.increments[:, i] - g * dts[i]
    return _pool_from_increments(pool.grid, inc)


def girsanov_check(pool: PathPool, exponential, shifted: PathPool,
                   phi: Callable):
    """Two estimators of the same expectation under the reweighted measure.

    exponential is one integrand's E_T on the pool (doleans_exponential's
    last column) and shifted the pool under its forward flow to the
    horizon, each built once for every observable paired with it.
    lhs: mean of E_T * phi(paths); rhs: mean of phi(shifted paths).
    Returns (lhs, rhs, std_err) where std_err is the common-random-number
    standard error of the per-path difference.
    """
    density = np.asarray(exponential, dtype=float)
    if density.shape != (pool.n_samples,) or shifted.n_samples != pool.n_samples:
        raise ValueError("exponential and shifted pool must match the pool's paths")
    lhs_vals = density * np.asarray(phi(pool), dtype=float)
    rhs_vals = np.asarray(phi(shifted), dtype=float)
    _, std_err = mean_and_se(lhs_vals - rhs_vals)
    return float(lhs_vals.mean()), float(rhs_vals.mean()), std_err
