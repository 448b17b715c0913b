"""Discretized Wiener space: time grids, Gaussian increment pools and dyadic
coarsening.

A PathPool is the computational stand-in for the Wiener space: an
unweighted i.i.d. sample of paths represented by their increment matrix.
Increments over (t_{i-1}, t_i] are i.i.d. N(0, dt_i); every change of
measure is a per-path density, never a property of the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import substream

_KNOT_ATOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < t_1 < ... < t_n = horizon."""

    knots: np.ndarray

    def __post_init__(self):
        knots = _readonly(self.knots)
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or len(knots) < 2:
            raise ValueError("grid needs at least one step")
        if knots[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return len(self.knots) - 1

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.knots)

    def is_uniform(self) -> bool:
        """Equal steps up to the knots' rounding, a few ulps of the horizon."""
        return bool(np.ptp(self.steps) <= 4.0 * np.spacing(self.horizon))

    def knot_index(self, t: float) -> int:
        """Index j with knots[j] == t; rejects off-knot times (no interpolation)."""
        j = int(np.searchsorted(self.knots, t))
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < len(self.knots) and abs(self.knots[cand] - t) <= _KNOT_ATOL:
                return cand
        raise ValueError(f"t={t} is not a grid knot")


def make_grid(n_steps: int, horizon: float = 1.0) -> TimeGrid:
    """Uniform grid with dt = horizon / n_steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    knots = np.linspace(0.0, horizon, n_steps + 1)
    knots[0] = 0.0
    knots[-1] = horizon
    return TimeGrid(knots)


@dataclass(frozen=True)
class PathPool:
    """Immutable batch of discretized Brownian paths, each of weight 1/n.

    `cumulative` holds the path values at the knots (column 0 is zero). It is
    carried explicitly so that coarsening can subset it instead of re-summing,
    which keeps path values bitwise identical across coarsening levels.
    """

    grid: TimeGrid
    increments: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        inc = _readonly(self.increments)
        cum = _readonly(self.cumulative)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "cumulative", cum)
        n, m = inc.shape
        if m != self.grid.n_steps:
            raise ValueError("increment columns must match grid steps")
        if cum.shape != (n, m + 1):
            raise ValueError("cumulative matrix shape mismatch")

    @property
    def n_samples(self) -> int:
        return self.increments.shape[0]

    def subset(self, rows) -> "PathPool":
        """Row-sliced pool."""
        return PathPool(self.grid, self.increments[rows], self.cumulative[rows])


def _pool_from_increments(grid: TimeGrid, increments: np.ndarray) -> PathPool:
    n = increments.shape[0]
    cum = np.zeros((n, grid.n_steps + 1))
    np.cumsum(increments, axis=1, out=cum[:, 1:])
    return PathPool(grid, increments, cum)


def sample_paths(grid: TimeGrid, n_samples: int, seed: int) -> PathPool:
    """Draw n_samples independent increment vectors, N(0, dt_i) per column.

    Deterministic given (grid, n_samples, seed).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed, 0)
    z = rng.standard_normal((n_samples, grid.n_steps))
    z *= np.sqrt(grid.steps)
    return _pool_from_increments(grid, z)


def brownian_at(pool: PathPool, t: float) -> np.ndarray:
    """Per-path value B_t; t must be a grid knot."""
    j = pool.grid.knot_index(t)
    return pool.cumulative[:, j].copy()


def _block_edges(grid: TimeGrid, level: int) -> np.ndarray:
    """Knot indices delimiting 2^level equal blocks of fine steps."""
    if level < 0:
        raise ValueError("level must be >= 0")
    blocks = 1 << level
    n = grid.n_steps
    if n % blocks != 0:
        raise ValueError(f"2^level = {blocks} does not divide n_steps = {n}")
    if not grid.is_uniform():
        raise ValueError("block coarsening requires a uniform grid")
    return np.arange(0, n + 1, n // blocks)


def dyadic_coarsen(pool: PathPool, level: int) -> PathPool:
    """Pool of the 2^level block-sum increments B(block_j).

    Path values at the surviving knots are subset, not re-summed, so
    brownian_at agrees bitwise between the fine and coarse pools.
    """
    edges = _block_edges(pool.grid, level)
    if len(edges) - 1 == pool.grid.n_steps:
        return pool
    cum = pool.cumulative[:, edges]
    inc = np.diff(cum, axis=1)
    grid = TimeGrid(pool.grid.knots[edges])
    return PathPool(grid, inc, cum)
