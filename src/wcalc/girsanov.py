"""Exponential martingales of adapted step integrands and the pathwise
measure-change flows they generate.

A StepProcess is piecewise constant on the grid intervals; its coefficient on
interval i may read only the increments of intervals < i, which is what makes
the forward shift flow triangular and therefore exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .wiener_grid import PathPool, TimeGrid, _pool_from_increments


@dataclass(frozen=True)
class StepProcess:
    """Adapted piecewise-constant integrand on a grid.

    coeff_fns[i](history) -> per-path value on interval i, where history is
    the (n_paths, i) matrix of earlier increments. bound is a promised sup
    bound on |values|; evaluation enforces it.
    """

    grid: TimeGrid
    coeff_fns: Sequence[Callable]
    bound: float

    def __post_init__(self):
        if len(self.coeff_fns) != self.grid.n_steps:
            raise ValueError("one coefficient function per interval required")
        if not (self.bound > 0 and np.isfinite(self.bound)):
            raise ValueError("bound must be positive and finite")

    def column(self, i: int, history: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.coeff_fns[i](history), dtype=float)
        vals = np.broadcast_to(vals, (history.shape[0],)).astype(float)
        if np.any(np.abs(vals) > self.bound * (1.0 + 1e-12)):
            raise ValueError(f"integrand exceeded its bound {self.bound} on interval {i}")
        return vals

    def values(self, increments: np.ndarray) -> np.ndarray:
        """Full (n_paths, n_steps) table of coefficients along given paths."""
        inc = np.asarray(increments, dtype=float)
        out = np.empty_like(inc)
        for i in range(inc.shape[1]):
            out[:, i] = self.column(i, inc[:, :i])
        return out


def constant_process(grid: TimeGrid, c: float) -> StepProcess:
    fns = [(lambda hist, c=c: np.full(hist.shape[0], float(c)))
           for _ in range(grid.n_steps)]
    return StepProcess(grid, fns, bound=max(abs(c), np.finfo(float).tiny))


def deterministic_process(grid: TimeGrid, values) -> StepProcess:
    """Integrand equal to a fixed number on each interval."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_steps,):
        raise ValueError("need one value per interval")
    fns = [(lambda hist, v=float(v): np.full(hist.shape[0], v)) for v in vals]
    bound = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    return StepProcess(grid, fns, bound=bound)


def table_process(grid: TimeGrid, table: np.ndarray, bound=None) -> StepProcess:
    """Integrand frozen to a per-path table (n_paths, n_steps).

    Only evaluable on path batches with the same row count the table was
    built from; used to feed extracted integrands back into the exponential.
    """
    tab = np.asarray(table, dtype=float)

    def make(i):
        def fn(hist, i=i):
            if hist.shape[0] != tab.shape[0]:
                raise ValueError("table integrand used with a mismatched pool")
            return tab[:, i]
        return fn

    fns = [make(i) for i in range(grid.n_steps)]
    b = float(np.max(np.abs(tab))) if bound is None else float(bound)
    return StepProcess(grid, fns, bound=max(b, np.finfo(float).tiny))


def history_process(grid: TimeGrid, fn: Callable, bound: float) -> StepProcess:
    """Integrand gamma_i = fn(i, history); one shared adapted rule."""
    fns = [(lambda hist, i=i: fn(i, hist)) for i in range(grid.n_steps)]
    return StepProcess(grid, fns, bound=bound)


def _log_exponential_table(grid: TimeGrid, increments: np.ndarray,
                           gamma: StepProcess) -> np.ndarray:
    """log E_t at every knot: cumulative gamma_i B(D_i) - 0.5 gamma_i^2 dt_i."""
    if gamma.grid.n_steps != grid.n_steps:
        raise ValueError("integrand grid does not match the path grid")
    inc = np.asarray(increments, dtype=float)
    dts = grid.steps
    out = np.zeros((inc.shape[0], grid.n_steps + 1))
    for i in range(grid.n_steps):
        g = gamma.column(i, inc[:, :i])
        out[:, i + 1] = out[:, i] + g * inc[:, i] - 0.5 * g * g * dts[i]
    return out


def doleans_exponential(pool: PathPool, gamma: StepProcess, t: float) -> np.ndarray:
    """Per-path exponential martingale value at knot t.

    Computed exactly per interval in log space and exponentiated once, so the
    result is strictly positive and overflow-safe for long grids.
    """
    j = pool.grid.knot_index(t)
    logs = _log_exponential_table(pool.grid, pool.increments, gamma)
    return np.exp(logs[:, j])


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


def girsanov_check(pool: PathPool, gamma: StepProcess, phi: Callable):
    """Two estimators of the same expectation under the reweighted measure.

    lhs: mean of E_T * phi(paths); rhs: mean of phi(shifted paths).
    Returns (lhs, rhs, std_err) where std_err is the common-random-number
    standard error of the per-path difference.
    """
    horizon = pool.grid.horizon
    density = doleans_exponential(pool, gamma, horizon)
    lhs_vals = density * np.asarray(phi(pool), dtype=float)
    rhs_vals = np.asarray(phi(shift_forward(pool, gamma, horizon)), dtype=float)
    lhs = float(lhs_vals.mean())
    rhs = float(rhs_vals.mean())
    diff = lhs_vals - rhs_vals
    var = float(np.mean((diff - diff.mean()) ** 2))
    std_err = float(np.sqrt(var / max(pool.n_samples - 1, 1)))
    return lhs, rhs, std_err
