"""Constructive approximation of density curves by smooth step-process
exponentials.

A differentiable curve of Wiener densities, which reads only the path
endpoint (a DensityCurve), is pushed through seven stages that
end in bounded smooth step processes whose stochastic exponentials
approximate the curve and its parameter derivative in L2(Q):

1. condition on the dyadic block filtration, which is exact because the
   terminal coordinate is measurable at every block level; the
   representation of the result as a function of block coordinates is a
   data-layout fact and needs no computation of its own;
3. truncate through a slope-capped identity on values and radial support
   cutoffs on the terminal coordinate and parameter;
4. mollify jointly in (parameter, terminal coordinate) against a compact
   bump kernel by fixed-node quadrature;
5. floor and renormalize to a strictly positive density with pool mean
   exactly one;
6. extract the logarithmic integrand as the ratio of the conditionally
   smoothed gradient to the conditional mean;
7. freeze that integrand to its left-endpoint values on a coarser grid
   and exponentiate.

Stages 1-4 therefore act on one coordinate. The stage-4 density is a
function of (parameter, terminal coordinate u) alone and vanishes for
|u| >= truncation level + mollification width, so it is tabulated once per
parameter value on a uniform u-lattice over that support, which the
mollifier's B_T nodes step along (one truncated-density evaluation per
lattice point and parameter node), and stages 4-7 read it from there by
cubic Hermite interpolation:
the per-path values behind stages 4 and 5 and the normalization constant,
and every Gauss-Hermite node of the integrand tables. Stage 3 and the
consistency check evaluate their densities directly (the check with one
moll.triple call per block knot), so it stays an independent measure of
the tabulation. Every Gaussian smoothing in the terminal coordinate goes
through clark_ocone.knot_tables, the kernel the clark-ocone battery uses.
In stages 6 and 7 the integrand and its slope are its tables on a uniform
grid of the running terminal coordinate, read linearly along every path
(clark_ocone._read_knot_tables) and exponentiated at the horizon over
every block knot's column (stage 6), then over every (2**dyadic_level /
step_count)-th (stage 7): the two coincide when step_count equals
2**dyadic_level, and then stage 7 reuses stage 6's exponential. The
consistency gap calls knot_tables at each checked path's own position.
final_errors_at builds the table at the step_count knots only.
Independent passes and ladder rungs share up to two threads, bitwise.

Every stage reports L2(Q) distances to the target curve, both at a primary
parameter value and integrated along a parameter segment.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .artifacts import atomic_write_csv, atomic_write_json
from .clark_ocone import _read_knot_tables, _table_y_grid, knot_tables
from .density_deriv import DensityCurve
from .numerics import (bump_lattice_1d, bump_quad_1d, capped_identity,
                       capped_identity_deriv, gauss_hermite, gauss_legendre,
                       radial_cutoff, mean_and_se, radial_cutoff_deriv,
                       row_sums, uniform_cell)
from .wiener_grid import PathPool, _block_edges, dyadic_coarsen

_MOLL_NODES = 17
# Coordinate nodes of the mollifier sit at j / _LATTICE_CELLS kernel widths
_LATTICE_CELLS = 16
# A u-table's spacing is at most 2 S / (_U_POINTS - 1)
_U_POINTS = 4097
# Threads per _run_units call: each unit holds its own tables (peak RSS grew
# 4.5 MB per thread at 10k paths, 35 MB at 100k); wall measured on 2 CPUs.
_MAX_THREADS = 2
_SEGMENT_NODES = 4
_CHECK_PATHS = 128
_GROSS_GAP = 5e-3

# Frozen end-to-end error budget for the reference configuration (dyadic
# level 3, truncation 6, mollification 0.1, floor 0.1, eight steps at 1e5
# paths). The value bound is the hard anchor; the derivative and segment
# bounds sit at 1.5x the calibrated errors, which are dominated by the
# deliberate positivity-floor bias of the normalization stage.
DEFAULT_THRESHOLDS = {"value": 0.05, "deriv": 0.16, "segment": 0.28,
                      "gamma_gap": 5e-3}


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the seven-stage approximation.

    dyadic_level: block filtration level; the working grid has 2**level
        blocks of fine steps.
    truncation_level: cap/cutoff level for stage 3, finite, in [3, 1023 *
        mollify_eps]. The stage-4 u-table spacing is at most mollify_eps /
        16 by construction, so the bound caps its lattice at about 32 * 1024
        points; reads are not accurate at every such level, as the capped
        value bends within about 2 / (parameter * level).
    mollify_eps: kernel half-width for stage 4, in (0, 1).
    positivity_floor: stage-5 floor, in (0, 1].
    step_count: step intervals kept by stage 7; must divide the block count.
    quad_order: Gauss-Hermite order for conditional smoothing.

    No stage draws random numbers: every output is a deterministic function
    of the curve, the configuration and the path pool.
    """

    dyadic_level: int
    truncation_level: float
    mollify_eps: float
    positivity_floor: float
    step_count: int
    quad_order: int

    def __post_init__(self):
        if self.dyadic_level < 0:
            raise ValueError("dyadic_level must be >= 0")
        if not 3 <= self.truncation_level < np.inf:
            raise ValueError("truncation_level must be finite and >= 3")
        if not 0.0 < self.mollify_eps < 1.0:
            raise ValueError("mollify_eps must lie in (0, 1)")
        if self.truncation_level > 1023 * self.mollify_eps:
            raise ValueError("truncation_level must be at most 1023 * "
                             "mollify_eps: the stage-4 u-table must not "
                             "exceed about 32 * 1024 points")
        if not 0.0 < self.positivity_floor <= 1.0:
            raise ValueError("positivity_floor must lie in (0, 1]")
        blocks = 1 << self.dyadic_level
        if self.step_count < 1 or blocks % self.step_count != 0:
            raise ValueError("step_count must divide the block count 2**dyadic_level")
        if self.quad_order < 2:
            raise ValueError("quad_order must be >= 2")


@dataclass(frozen=True)
class StageReport:
    """L2(Q) distances of one stage's output to the target curve.

    l2_error_value and l2_error_deriv are taken at the primary parameter
    value; along_segment_error integrates the summed squared value and
    derivative errors over the straight parameter segment, so a single
    number covers the pair.
    """

    stage: int
    l2_error_value: float
    l2_error_deriv: float
    along_segment_error: float

    def __post_init__(self):
        if self.stage not in (1, 2, 3, 4, 5, 6, 7):
            raise ValueError("stage id out of range")
        for v in (self.l2_error_value, self.l2_error_deriv, self.along_segment_error):
            if not np.isfinite(v) or v < 0.0:
                raise ValueError("stage errors must be finite and nonnegative")


def _l2(diff: np.ndarray) -> Tuple[float, float]:
    """L2(Q) distance sqrt(mean(diff^2)) on the pool and its delta-method
    standard error SE / (2 err), SE that of the mean; 0 when err is 0."""
    mean_sq, se = mean_and_se(diff * diff)
    err = float(np.sqrt(mean_sq))
    return err, (se / (2.0 * err) if err > 0.0 else 0.0)


class ConditionedDensity:
    """Conditional expectation of a density curve given dyadic block sums.

    A density curve reads only the terminal value, which is measurable for
    every block level. Conditioning is then exact, the coordinate system
    collapses to that one terminal coordinate, and every evaluation is a
    single call of the curve's triple.

    Values and parameter derivatives are renormalized per parameter so the
    represented density has mean one on the reference pool; the
    same constants renormalize the targets, keeping stage errors free of a
    spurious normalization offset.
    """

    def __init__(self, curve: DensityCurve, level: int, pool: PathPool):
        _block_edges(pool.grid, level)  # the level must still fit the grid
        self.curve = curve
        self.level = int(level)
        self._renorm_cache: Dict[float, Tuple[float, float]] = {}
        self._u = row_sums(pool.increments)
        lam_mid = 0.5 * (curve.lam_lo + curve.lam_hi)
        if not np.all(np.isfinite(self.parts(lam_mid, self._u)[:2])):
            raise FloatingPointError("conditioning produced non-finite values")

    def _renorm(self, lam: float) -> Tuple[float, float]:
        key = float(lam)
        hit = self._renorm_cache.get(key)
        if hit is not None:
            return hit
        raw, draw, _ = self.curve.triple(lam, self._u)
        pair = (float(raw.mean()), float(draw.mean()))
        self._renorm_cache[key] = pair
        return pair

    def parts(self, lam: float, coords: np.ndarray, out=None):
        """Renormalized (value, parameter derivative, coordinate
        derivative), written into out, three arrays shaped like coords, or
        into fresh ones."""
        r, dr = self._renorm(lam)
        coords = np.asarray(coords, dtype=float)
        val, dlam, du = out or [np.empty(coords.shape) for _ in range(3)]
        v, d, cdu = (np.asarray(a, dtype=float)
                     for a in self.curve.triple(lam, coords))
        np.subtract(np.divide(d, r, out=dlam),
                    np.multiply(v, dr / (r * r), out=du), out=dlam)
        return np.divide(v, r, out=val), dlam, np.divide(cdu, r, out=du)


class TruncatedDensity:
    """Cap-and-cutoff composition of a conditioned density.

    Values go through the slope-capped identity, coordinates through the
    radial support cutoff, and the parameter through both; the output is
    bounded by the level and vanishes once parameter or coordinates leave
    the level ball.
    """

    def __init__(self, cond: ConditionedDensity, level: float):
        if level < 3:
            raise ValueError("truncation level must be >= 3")
        self.cond = cond
        self.level = float(level)

    def parts(self, lam: float, coords: np.ndarray, _cutoffs=None, _lam=None,
              _out=None):
        """(value, parameter derivative, coordinate derivative).

        A caller evaluating many parameters on the same coordinates hands
        in what they share: _cutoffs from cutoffs(coords), _lam the
        _lam_factors row at lam, and _out five work arrays shaped like
        coords, which the result is written into (valid until their reuse).
        """
        lev = self.level
        coords = np.asarray(coords, dtype=float)
        lam_c, dlam_c, cut_l, dcut_l = _lam or self._lam_factors([lam])[0]
        cut, dcut, inner = _cutoffs or self.cutoffs(coords)
        h, dh, hu, tmp, pd = _out or [np.empty(coords.shape) for _ in range(5)]
        h, dh, hu = self.cond.parts(lam_c, coords, (h, dh, hu))
        # Capped identity: on |h| <= level - 2 it is h + 0.0 (-0.0 becomes
        # +0.0, as in sign(h) * |h|) with the exact slope 1.0, so the formulas
        # run on the rest only, NaN included; h, dh, hu become ph, dph * dh/hu.
        outer = np.flatnonzero(~(np.abs(h, out=tmp) <= lev - 2.0))
        h_out = h[outer]
        slope = capped_identity_deriv(h_out, lev)
        h += 0.0
        h[outer] = capped_identity(h_out, lev)
        dh[outer] *= slope
        hu[outer] *= slope
        np.multiply(h, dcut, out=pd)
        # Products associate left (ph * cut * cut_l), so sharing ph * cut and
        # skipping each factor 1.0 (the coordinate cutoff on its inner slice,
        # dlam_c and cut_l inside level - 2) keeps every bit of the formula.
        if dlam_c != 1.0:
            dh *= dlam_c
        for arr in (h, dh, hu):
            for part in (slice(None, inner.start), slice(inner.stop, None)):
                arr[part] *= cut[part]
        if cut_l != 1.0:
            dh *= cut_l
        dh += np.multiply(h, dcut_l, out=tmp)  # kept at dcut_l == -0.0: NaN, signs
        if cut_l != 1.0:
            for arr in (h, hu, pd):
                arr *= cut_l
        hu += pd
        return h, dh, hu

    def cutoffs(self, coords: np.ndarray):
        """Coordinate cutoff, its derivative, and the longest slice of
        coords on which the cutoff is exactly 1.0 (empty if none)."""
        cut = radial_cutoff(coords, self.level)
        dcut = radial_cutoff_deriv(coords, self.level)
        ones = np.concatenate(([False], cut == 1.0, [False]))
        runs = np.flatnonzero(ones[1:] != ones[:-1]).reshape(-1, 2)
        i0, i1 = runs[np.argmax(runs[:, 1] - runs[:, 0])] if runs.size else (0, 0)
        return cut, dcut, slice(int(i0), int(i1))

    def _lam_factors(self, lams):
        """Per parameter, [capped value, its slope, cutoff, its slope]."""
        lams = np.asarray(lams, dtype=float)
        return np.column_stack([f(lams, self.level) for f in (
            capped_identity, capped_identity_deriv, radial_cutoff,
            radial_cutoff_deriv)]).tolist()


class MollifiedDensity:
    """Joint parameter/coordinate mollification against a compact bump.

    Evaluation is a fixed tensor quadrature over the kernel support: the
    17-node Gauss-Legendre bump rule in the parameter and the trapezoid
    bump rule at the nodes j / 16, |j| <= 15, in the terminal coordinate,
    making the object a finite smooth combination of shifted copies of the
    truncated functional. Its derivatives are the exact derivatives of that
    finite combination (the shift structure lets every derivative land on
    the truncated functional itself), not separate quadratures, so value
    and derivative routes agree to roundoff. triple makes the coordinate
    cutoffs, work arrays and parameter factors once per call, for the
    consistency gap's few thousand points. lattice_triple serves a lattice
    that refines the coordinate nodes, on which shifted points coincide.
    """

    n_coords = 1  # the terminal coordinate; the benchmark's tracer keys on it

    def __init__(self, trunc: TruncatedDensity, eps: float):
        if not 0.0 < eps < 1.0:
            raise ValueError("mollification width must lie in (0, 1)")
        self.trunc = trunc
        self.eps = float(eps)
        self._alpha, self._wa = bump_quad_1d(_MOLL_NODES)
        self._beta, self._wb = bump_lattice_1d(_LATTICE_CELLS)

    def triple(self, lam: float, coords: np.ndarray):
        """(value, parameter derivative, coordinate derivative) at coords."""
        X = np.asarray(coords, dtype=float)
        lams = lam - self.eps * self._alpha
        flat = (X[:, None] - self.eps * self._beta[None, :]).reshape(-1)
        cutoffs = self.trunc.cutoffs(flat)
        work = [np.empty(flat.size) for _ in range(5)]
        out = (np.zeros(X.size), np.zeros(X.size), np.zeros(X.size))
        for la, fac, wa in zip(lams, self.trunc._lam_factors(lams), self._wa):
            parts = self.trunc.parts(la, flat, _cutoffs=cutoffs, _lam=fac,
                                     _out=work)
            for acc, p in zip(out, parts):
                acc += wa * (p.reshape(X.size, self._wb.size) @ self._wb)
        return out

    def lattice_triple(self, lam: float, k: int, n: int):
        """triple, to roundoff, at the lattice points h * arange(-n, n + 1),
        h = eps / 16 / k. Every coordinate node shifts a point by whole
        lattice steps, so the truncated density is evaluated once per
        parameter node on the lattice widened by the largest shift; the
        parameter sum comes first, and the coordinate sum adds shifted
        slices of it."""
        reach = (self._beta.size // 2) * k
        wide = self.eps / _LATTICE_CELLS / k * np.arange(-n - reach,
                                                         n + reach + 1)
        cutoffs = self.trunc.cutoffs(wide)
        work = [np.empty(wide.size) for _ in range(5)]
        lams = lam - self.eps * self._alpha
        sums = [np.zeros(wide.size) for _ in range(3)]
        for la, fac, wa in zip(lams, self.trunc._lam_factors(lams), self._wa):
            for acc, p in zip(sums, self.trunc.parts(
                    la, wide, _cutoffs=cutoffs, _lam=fac, _out=work)):
                acc += wa * p
        out = [np.zeros(2 * n + 1) for _ in range(3)]
        for i, wb in enumerate(self._wb):  # node (i - 15) / 16: (i - 15) k steps
            for acc, p in zip(out, sums):
                acc += wb * p[2 * reach - i * k:][:2 * n + 1]
        return out


def _hermite_coefs(y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per-interval coefficients of 1, t, t**2, t**3, t = (x - x_i) / h, of
    the cubic through values y with slopes m (already scaled by h)."""
    y0, y1, m0, m1 = y[:-1], y[1:], m[:-1], m[1:]
    dy = y1 - y0
    return np.stack([y0, m0, 3.0 * dy - 2.0 * m0 - m1, m0 + m1 - 2.0 * dy],
                    axis=1)


def _central_slopes(f: np.ndarray) -> np.ndarray:
    """h times the fourth-order central-difference derivative of f, with f
    zero beyond both ends."""
    p = np.pad(f, 2)
    return (p[:-4] - p[4:] + 8.0 * (p[3:-1] - p[1:-3])) / 12.0


class _UTable:
    """The stage-4 density at one parameter value, tabulated in the terminal
    coordinate u.

    The density vanishes for |u| >= S = truncation level + mollification
    width, so one moll.lattice_triple call on h * arange(-n, n + 1),
    n = ceil(S / h), holds all of it; h = eps / 16 / k, the coarsest such
    spacing within 2 S / (_U_POINTS - 1). Reads are piecewise cubic
    Hermite: the value through the exact u-derivative column, the parameter
    and u-derivatives through fourth-order central differences of their own
    columns, which zero padding makes exact at the ends. A read at a grid
    node returns the table entry bitwise, and every read at or beyond +-S
    is exactly 0.
    """

    def __init__(self, moll: MollifiedDensity, lam: float):
        S = moll.trunc.level + moll.eps
        self.half_width = S
        cell = moll.eps / _LATTICE_CELLS
        k = int(np.ceil(cell / (2.0 * S / (_U_POINTS - 1))))
        self.h = cell / k
        n = int(np.ceil(S / self.h))
        self.grid = self.h * np.arange(-n, n + 1)
        v, dl, du = moll.lattice_triple(lam, k, n)
        # (interval, power of t, column): one gather per read serves all three
        self._coef = np.stack([_hermite_coefs(v, du * self.h),
                               _hermite_coefs(dl, _central_slopes(dl)),
                               _hermite_coefs(du, _central_slopes(du))], axis=2)

    def read(self, x: np.ndarray):
        """(value, parameter derivative, u-derivative) at the points x."""
        x = np.asarray(x, dtype=float)
        i, xc = uniform_cell(x, self.grid)
        t = ((xc - self.grid[i]) / self.h)[:, None]
        c = self._coef[i]
        p = c[:, 0] + t * (c[:, 1] + t * (c[:, 2] + t * c[:, 3]))
        p[np.abs(x) >= self.half_width] = 0.0
        return tuple(np.ascontiguousarray(p.T))


def stage5_normalize(values: np.ndarray, eps_pos: float) -> np.ndarray:
    """Floor and renormalize: (eps + F) / (eps + pool mean of F).

    The output is strictly positive and its pool mean is exactly one
    because the same empirical mean appears in the denominator.
    """
    vals = np.asarray(values, dtype=float)
    if np.any(vals < 0.0):
        raise ValueError("stage-5 input must be nonnegative")
    if not 0.0 < eps_pos <= 1.0:
        raise ValueError("positivity floor must lie in (0, 1]")
    return (eps_pos + vals) / (eps_pos + float(vals.mean()))


def stage5_derivative(values: np.ndarray, dvalues: np.ndarray,
                      eps_pos: float) -> np.ndarray:
    """Parameter derivative matching stage5_normalize by the quotient rule."""
    vals = np.asarray(values, dtype=float)
    dvals = np.asarray(dvalues, dtype=float)
    denom = eps_pos + float(vals.mean())
    dmean = float(dvals.mean())
    return dvals / denom - (eps_pos + vals) * (dmean / denom ** 2)


def integrand_tables(table: _UTable, eps_pos: float,
                     denom: float, ddenom: float,
                     knot_times: np.ndarray, horizon: float,
                     quad_order: int, y_grid: np.ndarray):
    """Tabulate the logarithmic integrand and its parameter slope.

    Returns (gamma, dgamma): arrays of shape (len(knot_times), len(y_grid))
    giving, per left knot, the integrand as a function of the running
    terminal coordinate, read from the stage-4 u-table at one parameter
    value. denom and ddenom are the stage-5 normalization constant
    eps_pos + E[F] and its parameter derivative, frozen from the reference
    pool by the caller.

    The integrand at time t is g1/g2 with g2 the Gaussian smoothing of the
    normalized density in the remaining variance and g1 the smoothing of
    its coordinate derivative; the parameter slope uses the Gaussian
    integration-by-parts identity E[f'(y + s V)] = E[f(y + s V) V]/s to
    reach the mixed derivative without differentiating the tables twice.
    """
    x, _ = gauss_hermite(quad_order)

    def smoothed(U):
        F, Fl, Fu = (a.reshape(U.shape) for a in table.read(U.ravel()))
        ht = (eps_pos + F) / denom
        htl = Fl / denom - (eps_pos + F) * (ddenom / denom ** 2)
        return ht, Fu / denom, htl, htl * x[None, :]

    g2, g1, dg2, dg1 = knot_tables(
        smoothed, knot_times, horizon, quad_order,
        np.broadcast_to(y_grid, (len(knot_times), len(y_grid))))
    dg1 /= np.sqrt(horizon - np.asarray(knot_times, dtype=float))[:, None]
    gam = g1 / g2
    dgam = (dg1 * g2 - g1 * dg2) / (g2 * g2)
    return gam, dgam


def _horizon_exponential(pool: PathPool, gamma: np.ndarray) -> np.ndarray:
    """Per-path stochastic exponential at the horizon of the step integrand
    whose value on interval i is gamma[:, i]: girsanov.doleans_exponential's
    last column, bitwise, since the log accumulates in the same order."""
    log = np.zeros(pool.n_samples)
    for g, b, dt in zip(gamma.T, pool.increments.T, pool.grid.steps,
                        strict=True):
        log = log + g * b - 0.5 * g * g * dt
    return np.exp(log)


def _exponential_slope(pool: PathPool, gamma: np.ndarray,
                       dgamma: np.ndarray) -> np.ndarray:
    """Log-derivative factor of the stochastic exponential: the integral of
    the slope against the increments minus the cross term against time."""
    dts = pool.grid.steps
    return (np.sum(dgamma * pool.increments, axis=1)
            - np.sum(gamma * dgamma * dts, axis=1))


def _exponentials(table: _UTable, config: PipelineConfig,
                  denom: float, ddenom: float, y_grid: np.ndarray, pools):
    """Horizon exponentials of the table-read integrand and their
    parameter derivatives.

    The integrand and its slope are tabulated at the knots of pools[0] and
    read at every path's left-knot position. Each pool in `pools` keeps
    every (n/k)-th of those columns, k being its step count, and gets
    (E, dE/dlam) at the horizon on its own increments. The pools coarsen
    the same paths, so one step count gives one result, computed once.
    Returns that list and the integrand table.
    """
    grid = pools[0].grid
    gam_tab, dgam_tab = integrand_tables(
        table, config.positivity_floor, denom, ddenom, grid.knots[:-1],
        grid.horizon, config.quad_order, y_grid)
    g, dg = _read_knot_tables(pools[0], np.broadcast_to(y_grid, gam_tab.shape),
                              (gam_tab, dgam_tab))
    out = {}
    for k, pool in {p.grid.n_steps: p for p in pools}.items():
        gk, dgk = g[:, ::grid.n_steps // k], dg[:, ::grid.n_steps // k]
        E = _horizon_exponential(pool, gk)
        out[k] = (E, E * _exponential_slope(pool, gk, dgk))
    return [out[pool.grid.n_steps] for pool in pools], gam_tab


def _mollified(curve: DensityCurve, config: PipelineConfig,
               pool: PathPool) -> MollifiedDensity:
    """Stages 1, 3 and 4 of a density curve."""
    cond = ConditionedDensity(curve, config.dyadic_level, pool)
    trunc = TruncatedDensity(cond, config.truncation_level)
    return MollifiedDensity(trunc, config.mollify_eps)


@dataclass(frozen=True)
class PipelineReport:
    """Full seven-stage run record.

    stages holds one report per computed stage id (1, 3, 4, 5, 6, 7); the
    final_* fields repeat the stage-7 numbers, which are the quantities the
    construction is meant to drive to zero, and final_value_se /
    final_deriv_se are the standard errors of the two primary ones.
    gamma_table tabulates the extracted integrand at the primary parameter
    on gamma_y, one row per step-process knot. primary_table is the stage-4
    u-table at the primary parameter, which pipeline_ladders reads again.
    """

    lam: float
    lam_prime: float
    config: PipelineConfig
    stages: Tuple[StageReport, ...]
    final_value_error: float
    final_deriv_error: float
    final_segment_error: float
    final_value_se: float
    final_deriv_se: float
    gamma_consistency_gap: float
    knot_times: np.ndarray
    gamma_y: np.ndarray
    gamma_table: np.ndarray
    primary_table: Optional[_UTable] = field(default=None, compare=False,
                                               repr=False)

    def stage(self, stage_id: int) -> StageReport:
        for rep in self.stages:
            if rep.stage == stage_id:
                return rep
        raise KeyError(f"no report for stage {stage_id}")

    def to_dict(self) -> dict:
        return {
            "schema": "pipeline-report-v1",
            "lam": self.lam,
            "lam_prime": self.lam_prime,
            "config": dataclasses.asdict(self.config),
            "stages": [dataclasses.asdict(rep) for rep in self.stages],
            "final_value_error": self.final_value_error,
            "final_deriv_error": self.final_deriv_error,
            "final_segment_error": self.final_segment_error,
            "gamma_consistency_gap": self.gamma_consistency_gap,
            "knot_times": [float(t) for t in self.knot_times],
        }

    def save(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_json(os.path.join(out_dir, "pipeline_report.json"),
                          self.to_dict())
        header = ["y"] + [f"gamma_t{float(t):g}" for t in self.knot_times]
        rows = np.column_stack([self.gamma_y, self.gamma_table.T])
        atomic_write_csv(os.path.join(out_dir, "gamma_table.csv"), header, rows)


def _segment_scheme(lam: float, lam_prime: float):
    nodes, gl_w = gauss_legendre(_SEGMENT_NODES)
    s = 0.5 * (nodes + 1.0)
    weights = 0.5 * gl_w
    return lam + (lam_prime - lam) * s, weights


def pipeline_run(curve: DensityCurve, lam: float, lam_prime: float,
                 config: PipelineConfig, pool: PathPool) -> PipelineReport:
    """Run all stages and measure value/derivative errors at lam plus the
    integrated errors along the straight segment to lam_prime.

    The integrand used by stages 6 and 7 is read from per-knot tables in
    the terminal coordinate; each run cross-checks a path subsample against
    the direct decomposition of the stage-5 functional and records the
    largest discrepancy as gamma_consistency_gap.
    """
    if lam == lam_prime:
        raise ValueError("segment endpoints must differ")
    for la in (lam, lam_prime):
        if not curve.contains(la):
            raise ValueError("segment endpoints must lie in the parameter range")
    moll = _mollified(curve, config, pool)
    trunc = moll.trunc
    cond = trunc.cond

    u_fine = row_sums(pool.increments)
    block_pool = dyadic_coarsen(pool, config.dyadic_level)
    # stage 6's pool itself when step_count == 2**dyadic_level
    k_pool = dyadic_coarsen(block_pool, config.step_count.bit_length() - 1)
    stride = block_pool.grid.n_steps // config.step_count
    y_grid = _table_y_grid(block_pool.cumulative[:, :-1])

    seg_lams, seg_w = _segment_scheme(lam, lam_prime)
    stage_ids = (1, 3, 4, 5, 6, 7)

    def one_pass(job):
        """Stage errors at one parameter; the primary pass also keeps its
        u-table, integrand table and stage-5 denominator."""
        la, is_primary = job
        target_v, target_d = curve.eval_pair(la, pool)
        errs: Dict[int, Tuple[float, float]] = {}

        def record(sid, v, d):
            # (value error, its SE, derivative error, its SE)
            errs[sid] = _l2(v - target_v) + _l2(d - target_d)

        record(1, *cond.parts(la, u_fine)[:2])
        record(3, *trunc.parts(la, u_fine)[:2])
        table = _UTable(moll, la)
        F, Fl, _ = table.read(u_fine)
        record(4, F, Fl)
        record(5, stage5_normalize(F, config.positivity_floor),
               stage5_derivative(F, Fl, config.positivity_floor))
        denom = config.positivity_floor + float(F.mean())
        ((E6, dE6), (E7, dE7)), gam_tab = _exponentials(
            table, config, denom, float(Fl.mean()), y_grid,
            (block_pool, k_pool))
        record(6, E6, dE6)
        record(7, E7, dE7)
        return errs, ((table, gam_tab, denom) if is_primary else None)

    # the passes are independent; only the primary's tables outlive its pass
    passes = _run_units(one_pass, [(la, False) for la in seg_lams]
                        + [(lam, True)])
    seg_sq = {sid: 0.0 for sid in stage_ids}
    for sw, (errs, _) in zip(seg_w, passes):  # summed in parameter order
        for sid in stage_ids:
            seg_sq[sid] += sw * (errs[sid][0] ** 2 + errs[sid][2] ** 2)
    primary, (primary_u, primary_tab, primary_denom) = passes[-1]

    gap = _consistency_gap(moll, lam, config, primary_denom, block_pool,
                           y_grid, primary_tab)

    stages = tuple(
        StageReport(sid, primary[sid][0], primary[sid][2],
                    float(np.sqrt(seg_sq[sid])))
        for sid in stage_ids)
    st7 = stages[-1]
    return PipelineReport(
        lam=lam, lam_prime=lam_prime, config=config, stages=stages,
        final_value_error=st7.l2_error_value,
        final_deriv_error=st7.l2_error_deriv,
        final_segment_error=st7.along_segment_error,
        final_value_se=primary[7][1],
        final_deriv_se=primary[7][3],
        gamma_consistency_gap=gap,
        knot_times=k_pool.grid.knots[:-1].copy(),
        gamma_y=y_grid,
        gamma_table=primary_tab[::stride].copy(),
        primary_table=primary_u,
    )


def _consistency_gap(moll: MollifiedDensity, lam: float,
                     config: PipelineConfig, denom: float,
                     block_pool: PathPool, y_grid: np.ndarray,
                     gam_tab: np.ndarray) -> float:
    """Largest subsample discrepancy between the block-knot integrand table
    that stages 6 and 7 read and gamma = Z / M of the stage-5 density, both
    conditional means from one moll.triple call per block knot."""
    m = min(_CHECK_PATHS, block_pool.n_samples)
    sub = block_pool.subset(np.arange(m))
    floor = config.positivity_floor

    def normalized(u):
        v, _, du = moll.triple(lam, u.ravel())
        return (du / denom).reshape(u.shape), ((floor + v) / denom).reshape(u.shape)

    # each path's own prefix sum, not sub.cumulative, which rounds differently
    grid = sub.grid
    Z, M = knot_tables(normalized, grid.knots[:-1], grid.horizon,
                       config.quad_order,
                       [sub.increments[:, :i].sum(axis=1)
                        for i in range(grid.n_steps)])
    gam_read, = _read_knot_tables(sub, np.broadcast_to(y_grid, gam_tab.shape),
                                  (gam_tab,))
    gap = float(np.abs(Z.T / M.T - gam_read).max())
    if gap > _GROSS_GAP:
        raise ValueError(f"integrand table disagrees with the direct "
                         f"decomposition (gap {gap:.2e})")
    return gap


def final_errors_at(curve: DensityCurve, lam: float, config: PipelineConfig,
                    pool: PathPool, table: Optional[_UTable] = None):
    """Stage-7 exponential errors at one parameter value, with standard
    errors; the light-weight core used for refinement ladders. The table
    is built at the step_count knots only, so when step_count equals
    2**dyadic_level the errors are pipeline_run's final errors. table, when
    given, is the u-table at lam of this curve, pool and config."""
    if table is None:
        table = _UTable(_mollified(curve, config, pool), lam)
    F, Fl, _ = table.read(row_sums(pool.increments))
    k_pool = dyadic_coarsen(pool, config.step_count.bit_length() - 1)
    [(E, dE)], _ = _exponentials(
        table, config, config.positivity_floor + float(F.mean()),
        float(Fl.mean()), _table_y_grid(k_pool.cumulative[:, :-1]), (k_pool,))
    target_v, target_d = curve.eval_pair(lam, pool)
    ev, se_v = _l2(E - target_v)
    ed, se_d = _l2(dE - target_d)
    return ev, ed, se_v, se_d


# Refinement ladder rungs, one knob moved at a time. The dyadic ladder pins
# step_count at 2 so step_count divides the block count at every level.
_LADDER_RUNGS = (("dyadic_level", (1, 2, 3)),
                 ("truncation_level", (4.0, 6.0, 8.0)),
                 ("mollify_eps", (0.4, 0.2, 0.1)),
                 ("step_count", (2, 4, 8)))


def _ladder_configs(config: PipelineConfig):
    """(knob, value, config) for every ladder rung, in ladder order; a rung
    that PipelineConfig rejects raises ValueError naming the rung."""
    rungs = []
    for knob, values in _LADDER_RUNGS:
        for value in values:
            change = {knob: value}
            if knob == "dyadic_level":
                change["step_count"] = 2
            try:
                rungs.append((knob, value, dataclasses.replace(config, **change)))
            except ValueError as exc:
                raise ValueError(f"ladder rung {knob}={value}: {exc}") from exc
    return rungs


def pipeline_ladders(curve: DensityCurve, lam: float, config: PipelineConfig,
                     pool: PathPool,
                     report: Optional[PipelineReport] = None) -> Dict[str, list]:
    """Refinement ladders: final stage-7 errors while one knob moves.

    A curve reads only the endpoint, so conditioning is exact at every
    dyadic level, that ladder is flat by construction and the step-count
    ladder carries the time-resolution convergence.

    Rungs share one final_errors_at call per distinct (truncation_level,
    mollify_eps, positivity_floor, step_count, quad_order), the fields it
    reads; dyadic_level is only validated, so the three dyadic rungs and
    the step_count-2 rung are one computation. report, when given, is
    pipeline_run's report for the same curve, lam, config and pool; if
    step_count == 2**dyadic_level its stage-7 errors are the base rung's
    final_errors_at result bitwise, so the base rung is taken from it. Its
    primary_table serves the rungs at the base truncation_level and
    mollify_eps (step_count 2 and 4), the only table a rung reads again.
    """
    def key(cfg):
        return (cfg.truncation_level, cfg.mollify_eps, cfg.positivity_floor,
                cfg.step_count, cfg.quad_order)

    errors: Dict[tuple, tuple] = {}
    table = None
    if report is not None:
        if report.lam != lam or report.config != config:
            raise ValueError("report was computed at another lam or config")
        table = report.primary_table
        if config.step_count == 1 << config.dyadic_level:
            errors[key(config)] = (report.final_value_error,
                                   report.final_deriv_error,
                                   report.final_value_se,
                                   report.final_deriv_se)
    rungs = _ladder_configs(config)
    todo = {}
    for _, _, cfg in rungs:
        _block_edges(pool.grid, cfg.dyadic_level)
        if key(cfg) not in errors:
            todo.setdefault(key(cfg), cfg)

    def rung_errors(cfg):
        tab = table if key(cfg)[:2] == key(config)[:2] else None
        return final_errors_at(curve, lam, cfg, pool, tab)

    errors.update(zip(todo, _run_units(rung_errors, list(todo.values()))))
    ladders: Dict[str, list] = {}
    for knob, value, cfg in rungs:
        ev, ed, se_v, se_d = errors[key(cfg)]
        ladders.setdefault(knob, []).append(
            {"knob": knob, "value": value, "value_error": ev,
             "deriv_error": ed, "value_se": se_v, "deriv_se": se_d})
    return ladders


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _run_units(fn, units: list) -> list:
    """[fn(u) for u in units] in input order, computed on the calling thread
    plus one worker thread per further CPU, up to _MAX_THREADS in all, each
    taking the next unit. A unit's exception stops new units; once every
    worker has joined, the first failure in input order is re-raised here
    (every earlier unit has run), so no thread outlives the call."""
    results = [None] * len(units)
    failures = []
    lock = threading.Lock()
    order = iter(range(len(units)))

    def work():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(units[i])
            except BaseException as exc:  # re-raised on the calling thread
                with lock:
                    failures.append((i, exc))

    workers = [threading.Thread(target=work)
               for _ in range(min(_cpu_count(), _MAX_THREADS, len(units)) - 1)]
    for t in workers:
        t.start()
    work()
    for t in workers:
        t.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results
