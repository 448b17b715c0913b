"""Discretized Wiener space: time grids, Gaussian increment pools and dyadic
coarsening.

A PathPool is the computational stand-in for the Wiener space: an
unweighted i.i.d. sample of paths represented by their increment matrix.
Increments over (t_{i-1}, t_i] are i.i.d. N(0, dt_i); every change of
measure is a per-path density, never a property of the pool. The matrix of
positions at the knots is built from the increments on first read, and
coarsening still subsets the fine positions instead of re-summing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    built from the increments on first read, so a pool that is only read at
    a few knots never holds it; a pool made by coarsening is given its
    positions, the fine pool's at the block knots, instead of re-summing,
    which keeps path values bitwise identical across coarsening levels.
    """

    grid: TimeGrid
    increments: np.ndarray
    _cumulative: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        inc = _readonly(self.increments)
        n, m = len(inc), self.grid.n_steps
        if inc.ndim != 2 or inc.shape[1] != m:
            raise ValueError(f"increments must be (paths, {m}), "
                             f"got shape {inc.shape}")
        object.__setattr__(self, "increments", inc)
        if self._cumulative is not None:
            cum = _readonly(self._cumulative)
            if cum.shape != (n, m + 1):
                raise ValueError(f"positions must be ({n}, {m + 1}), "
                                 f"got shape {cum.shape}")
            object.__setattr__(self, "_cumulative", cum)

    @property
    def cumulative(self) -> np.ndarray:
        """Read-only (paths, steps + 1) positions, built on first read. Two
        threads that both build it run one np.cumsum on the same read-only
        increments, so whichever matrix is kept holds the same bits."""
        if self._cumulative is None:
            cum = np.zeros((self.n_samples, self.grid.n_steps + 1))
            np.cumsum(self.increments, axis=1, out=cum[:, 1:])
            object.__setattr__(self, "_cumulative", _readonly(cum))
        return self._cumulative

    @property
    def n_samples(self) -> int:
        return self.increments.shape[0]

    def subset(self, rows) -> "PathPool":
        """Row-sliced pool, carrying the positions only if they are built."""
        cum = self._cumulative
        return PathPool(self.grid, self.increments[rows],
                        None if cum is None else cum[rows])


def sample_paths(grid: TimeGrid, n_samples: int, seed: int) -> PathPool:
    """Draw n_samples independent increment vectors, N(0, dt_i) per column.

    Deterministic given (grid, n_samples, seed).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed, 0)
    z = rng.standard_normal((n_samples, grid.n_steps))
    z *= np.sqrt(grid.steps)
    return PathPool(grid, z)


def _knot_columns(pool: PathPool, stop: int):
    """Positions at knots 0, ..., stop - 1, one column at a time: the
    matrix's columns if it is built, else increment columns added to a copy
    of column 0 as in np.cumsum, so the bits (-0.0 too) are the matrix's.
    A column is overwritten by the next one; copy it to keep it."""
    if pool._cumulative is not None:
        yield from pool._cumulative[:, :stop].T
        return
    b = np.zeros(pool.n_samples)
    for j in range(stop):
        if j:
            col = pool.increments[:, j - 1]
            b = col.copy() if j == 1 else np.add(b, col, out=b)
        yield b


def brownian_at(pool: PathPool, t: float) -> np.ndarray:
    """Per-path value B_t; t must be a grid knot. Reads the position matrix
    only if it is built, with the bits of its column either way."""
    *_, b = _knot_columns(pool, pool.grid.knot_index(t) + 1)
    return b.copy()


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
