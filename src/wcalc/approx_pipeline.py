"""Constructive approximation of density curves by smooth step-process
exponentials.

A differentiable curve of Wiener densities that reads only the path
endpoint (a curve with scalar_triple) is pushed through seven stages that
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
5. floor and renormalize to a strictly positive density with weighted mean
   exactly one;
6. extract the logarithmic integrand as the ratio of the conditionally
   smoothed gradient to the conditional mean;
7. freeze that integrand to a left-endpoint step process on a coarser grid
   and exponentiate.

Stages 1-4 therefore act on one coordinate. In stages 6 and 7 the
integrand is tabulated once per parameter value on a grid of the running
terminal coordinate, read along every path and exponentiated, first at
every block knot (stage 6) and then at every (2**dyadic_level /
step_count)-th knot (stage 7), so the two coincide when step_count equals
2**dyadic_level. final_errors_at runs the same step with the table built
at the step_count knots only.

Every stage reports L2(Q) distances to the target curve, both at a primary
parameter value and integrated along a parameter segment.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .artifacts import atomic_write_csv, atomic_write_json
from .clark_ocone import SmoothFunctional, clark_ocone_decompose, scalar_functional
from .density_deriv import DensityCurve
from .girsanov import StepProcess, doleans_exponential, table_process
from .numerics import (bump_quad_1d, capped_identity, capped_identity_deriv,
                       gauss_hermite, gauss_legendre, radial_cutoff,
                       radial_cutoff_deriv)
from .wiener_grid import PathPool, TimeGrid, _block_edges, dyadic_coarsen

_MOLL_NODES = 17
_TABLE_POINTS = 1025
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
    truncation_level: cap/cutoff level for stage 3 (at least 3).
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
        if self.truncation_level < 3:
            raise ValueError("truncation_level must be >= 3")
        if not 0.0 < self.mollify_eps < 1.0:
            raise ValueError("mollify_eps must lie in (0, 1)")
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


def _normalized(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def _weighted_l2(w: np.ndarray, diff: np.ndarray) -> float:
    return float(np.sqrt(np.dot(w, diff * diff)))


def _l2_with_se(w: np.ndarray, diff: np.ndarray) -> Tuple[float, float]:
    """Weighted L2 distance plus a delta-method standard error."""
    sq = diff * diff
    mean_sq = float(np.dot(w, sq))
    err = float(np.sqrt(mean_sq))
    n_eff = 1.0 / float(np.dot(w, w))
    var = float(np.dot(w, (sq - mean_sq) ** 2)) / max(n_eff - 1.0, 1.0)
    if err <= 0.0:
        return err, 0.0
    return err, float(np.sqrt(var) / (2.0 * err))


class ConditionedDensity:
    """Conditional expectation of a density curve given dyadic block sums.

    The curve must carry scalar_triple, so it reads only the terminal
    value, which is measurable for every block level. Conditioning is then
    exact, the coordinate system collapses to that one terminal coordinate,
    and every evaluation is a single scalar_triple call (the curve checked
    it against its full form when it was built).

    Values and parameter derivatives are renormalized per parameter so the
    represented density has weighted mean one on the reference pool; the
    same constants renormalize the targets, keeping stage errors free of a
    spurious normalization offset.
    """

    def __init__(self, curve: DensityCurve, level: int, pool: PathPool):
        if curve.scalar_triple is None:
            raise ValueError("conditioning needs a curve with scalar_triple "
                             "(a density that reads only the terminal value)")
        _block_edges(pool.grid, level)  # the level must still fit the grid
        self.curve = curve
        self.level = int(level)
        self.n_coords = 1
        self._w = _normalized(pool.weights)
        self._renorm_cache: Dict[float, Tuple[float, float]] = {}
        self._u = self.coords_of(pool.increments)
        lam_mid = 0.5 * (curve.lam_lo + curve.lam_hi)
        if not np.all(np.isfinite(self.value(lam_mid, self._u))):
            raise FloatingPointError("conditioning produced non-finite values")

    def coords_of(self, increments: np.ndarray) -> np.ndarray:
        return np.asarray(increments, dtype=float).sum(axis=1)

    def _renorm(self, lam: float) -> Tuple[float, float]:
        key = float(lam)
        hit = self._renorm_cache.get(key)
        if hit is not None:
            return hit
        raw, draw, _ = self.curve.scalar_triple(lam, self._u)
        pair = (float(np.dot(self._w, raw)), float(np.dot(self._w, draw)))
        self._renorm_cache[key] = pair
        return pair

    def _raw_parts(self, lam: float, coords: np.ndarray, want_du: bool):
        v, d, du = self.curve.scalar_triple(lam, np.asarray(coords, dtype=float))
        du = np.asarray(du, dtype=float) if want_du else None
        return np.asarray(v, dtype=float), np.asarray(d, dtype=float), du

    def parts(self, lam: float, coords: np.ndarray, want_du: bool = False):
        """Renormalized (value, parameter derivative, coordinate derivative)."""
        r, dr = self._renorm(lam)
        v, d, du = self._raw_parts(lam, coords, want_du)
        out_du = None if du is None else du / r
        return v / r, d / r - v * (dr / (r * r)), out_du

    def pair(self, lam: float, coords: np.ndarray):
        v, d, _ = self.parts(lam, coords, False)
        return v, d

    def value(self, lam: float, coords: np.ndarray) -> np.ndarray:
        r, _ = self._renorm(lam)
        return self._raw_parts(lam, coords, False)[0] / r


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
        self.n_coords = cond.n_coords

    def parts(self, lam: float, coords: np.ndarray, want_du: bool,
              _cutoffs=None):
        """(value, parameter derivative, coordinate derivative or None).

        _cutoffs, when given, is (radial_cutoff(coords), radial_cutoff_deriv
        (coords) or None) at this level, precomputed by a caller that
        evaluates many parameters on the same coordinates.
        """
        lev = self.level
        lam_arr = np.array([lam], dtype=float)
        lam_c = float(capped_identity(lam_arr, lev)[0])
        dlam_c = float(capped_identity_deriv(lam_arr, lev)[0])
        cut_l = float(radial_cutoff(lam_arr, lev)[0])
        dcut_l = float(radial_cutoff_deriv(lam_arr, lev)[0])
        if _cutoffs is None:
            _cutoffs = self.cutoffs(coords, want_du)
        cut, dcut = _cutoffs
        h, dh, hu = self.cond.parts(lam_c, coords, want_du)
        ph = capped_identity(h, lev)
        dph = capped_identity_deriv(h, lev)
        del h  # dead from here on; freeing it lowers the peak on large pools
        val = ph * cut * cut_l
        dlam = dph * dh * dlam_c * cut * cut_l + ph * cut * dcut_l
        du = None
        if want_du:
            du = dph * hu * cut * cut_l + ph * dcut * cut_l
        return val, dlam, du

    def cutoffs(self, coords: np.ndarray, want_du: bool):
        """Coordinate cutoff and, if want_du, its derivative at coords."""
        dcut = radial_cutoff_deriv(coords, self.level) if want_du else None
        return radial_cutoff(coords, self.level), dcut



class MollifiedDensity:
    """Joint parameter/coordinate mollification against a compact bump.

    Evaluation is a fixed tensor quadrature over the kernel support in the
    parameter and the terminal coordinate, making the object a finite
    smooth combination of shifted copies of the truncated functional. Its
    derivatives are the exact derivatives of that finite combination (the
    shift structure lets every derivative land on the truncated functional
    itself), not separate quadratures, so value and derivative routes agree
    to roundoff. The coordinate cutoffs depend only on the shifted
    coordinates, so each call computes them once and hands them to all
    parameter nodes.
    """

    def __init__(self, trunc: TruncatedDensity, eps: float,
                 n_nodes: int = _MOLL_NODES):
        if not 0.0 < eps < 1.0:
            raise ValueError("mollification width must lie in (0, 1)")
        self.trunc = trunc
        self.eps = float(eps)
        self.n_coords = trunc.n_coords
        self._alpha, self._wa = bump_quad_1d(n_nodes)

    def _acc(self, lam: float, coords: np.ndarray, want_du: bool):
        X = np.asarray(coords, dtype=float)
        m = X.shape[0]
        n_cells = self._wa.size
        flat = (X[:, None] - self.eps * self._alpha[None, :]).reshape(-1)
        cutoffs = self.trunc.cutoffs(flat, want_du)
        outv = np.zeros(m)
        outl = np.zeros(m)
        outu = np.zeros(m) if want_du else None
        for a, wa in zip(self._alpha, self._wa):
            v, dl, du = self.trunc.parts(lam - self.eps * a, flat, want_du,
                                         _cutoffs=cutoffs)
            outv += wa * (v.reshape(m, n_cells) @ self._wa)
            outl += wa * (dl.reshape(m, n_cells) @ self._wa)
            if want_du:
                outu += wa * (du.reshape(m, n_cells) @ self._wa)
        return outv, outl, outu

    def value(self, lam: float, coords: np.ndarray) -> np.ndarray:
        return self._acc(lam, coords, False)[0]

    def du(self, lam: float, coords: np.ndarray) -> np.ndarray:
        return self._acc(lam, coords, True)[2]

    def pair(self, lam: float, coords: np.ndarray):
        v, dl, _ = self._acc(lam, coords, False)
        return v, dl

    def triple(self, lam: float, coords: np.ndarray):
        return self._acc(lam, coords, True)


def stage5_normalize(values: np.ndarray, eps_pos: float,
                     weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Floor and renormalize: (eps + F) / (eps + weighted mean of F).

    The output is strictly positive and its weighted mean is exactly one
    because the same empirical mean appears in the denominator.
    """
    vals = np.asarray(values, dtype=float)
    if np.any(vals < 0.0):
        raise ValueError("stage-5 input must be nonnegative")
    if not 0.0 < eps_pos <= 1.0:
        raise ValueError("positivity floor must lie in (0, 1]")
    w = (np.full(vals.shape[0], 1.0 / vals.shape[0]) if weights is None
         else _normalized(weights))
    mean = float(np.dot(w, vals))
    return (eps_pos + vals) / (eps_pos + mean)


def stage5_derivative(values: np.ndarray, dvalues: np.ndarray, eps_pos: float,
                      weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Parameter derivative matching stage5_normalize by the quotient rule."""
    vals = np.asarray(values, dtype=float)
    dvals = np.asarray(dvalues, dtype=float)
    w = (np.full(vals.shape[0], 1.0 / vals.shape[0]) if weights is None
         else _normalized(weights))
    denom = eps_pos + float(np.dot(w, vals))
    dmean = float(np.dot(w, dvals))
    return dvals / denom - (eps_pos + vals) * (dmean / denom ** 2)


def stage7_stepify(grid: TimeGrid, gamma_table: np.ndarray, k: int) -> StepProcess:
    """Freeze a per-path integrand table to k left-endpoint step values.

    gamma_table has one column per interval of `grid`; the output keeps
    every (n_steps/k)-th column as the constant value on the corresponding
    wider interval.
    """
    table = np.asarray(gamma_table, dtype=float)
    n = grid.n_steps
    if table.ndim != 2 or table.shape[1] != n:
        raise ValueError("integrand table does not match the grid")
    if k < 1 or n % k != 0:
        raise ValueError("step count must divide the grid")
    stride = n // k
    sub = TimeGrid(grid.knots[::stride])
    frozen = table[:, ::stride]
    bound = float(np.abs(table).max()) if table.size else 0.0
    return table_process(sub, frozen, bound=bound)


def stage6_functional(moll: MollifiedDensity, lam: float, eps_pos: float,
                      denom: float, n_args: int) -> SmoothFunctional:
    """Package the normalized mollified density as a smooth functional of
    the block increments; everything reads the terminal coordinate, so the
    scalar fast path applies at any block count."""

    def fn(u):
        u = np.asarray(u, dtype=float)
        return ((eps_pos + moll.value(lam, u.ravel())) / denom).reshape(u.shape)

    def fn_prime(u):
        u = np.asarray(u, dtype=float)
        return (moll.du(lam, u.ravel()) / denom).reshape(u.shape)

    return scalar_functional(n_args, fn, fn_prime)


def integrand_tables(moll: MollifiedDensity, lam: float, eps_pos: float,
                     denom: float, ddenom: float,
                     knot_times: np.ndarray, horizon: float,
                     quad_order: int, y_grid: np.ndarray):
    """Tabulate the logarithmic integrand and its parameter slope.

    Returns (gamma, dgamma): arrays of shape (len(knot_times), len(y_grid))
    giving, per left knot, the integrand as a function of the running
    terminal coordinate. denom and ddenom are the stage-5 normalization
    constant eps_pos + E[F] and its parameter derivative, frozen from the
    reference pool by the caller.

    The integrand at time t is g1/g2 with g2 the Gaussian smoothing of the
    normalized density in the remaining variance and g1 the smoothing of
    its coordinate derivative; the parameter slope uses the Gaussian
    integration-by-parts identity E[f'(y + s V)] = E[f(y + s V) V]/s to
    reach the mixed derivative without differentiating the tables twice.
    """
    x, wq = gauss_hermite(quad_order)
    ny = y_grid.size
    gam = np.empty((len(knot_times), ny))
    dgam = np.empty((len(knot_times), ny))
    for j, t in enumerate(knot_times):
        var = horizon - float(t)
        if var <= 0.0:
            raise ValueError("knots must lie strictly before the horizon")
        rv = np.sqrt(var)
        U = (y_grid[:, None] + rv * x[None, :]).ravel()
        F, Fl, Fu = moll.triple(lam, U)
        F = F.reshape(ny, -1)
        Fl = Fl.reshape(ny, -1)
        Fu = Fu.reshape(ny, -1)
        ht = (eps_pos + F) / denom
        htu = Fu / denom
        htl = Fl / denom - (eps_pos + F) * (ddenom / denom ** 2)
        g2 = ht @ wq
        g1 = htu @ wq
        dg2 = htl @ wq
        dg1 = ((htl * x[None, :]) @ wq) / rv
        gam[j] = g1 / g2
        dgam[j] = (dg1 * g2 - g1 * dg2) / (g2 * g2)
    return gam, dgam


def _read_table(table: np.ndarray, y_grid: np.ndarray,
                b_left: np.ndarray) -> np.ndarray:
    """Evaluate per-knot y-tables at per-path terminal positions."""
    out = np.empty((b_left.shape[0], table.shape[0]))
    for j in range(table.shape[0]):
        out[:, j] = np.interp(b_left[:, j], y_grid, table[j])
    return out


def _exponential_slope(pool: PathPool, gamma: np.ndarray,
                       dgamma: np.ndarray) -> np.ndarray:
    """Log-derivative factor of the stochastic exponential: the integral of
    the slope against the increments minus the cross term against time."""
    dts = pool.grid.steps
    return (np.sum(dgamma * pool.increments, axis=1)
            - np.sum(gamma * dgamma * dts, axis=1))


def _table_y_grid(pool: PathPool) -> np.ndarray:
    """Terminal-coordinate grid covering every path's left-knot position."""
    left = pool.cumulative[:, :-1]
    return np.linspace(float(left.min()) - 1.0, float(left.max()) + 1.0,
                       _TABLE_POINTS)


def _exponentials(moll: MollifiedDensity, lam: float, config: PipelineConfig,
                  denom: float, ddenom: float, y_grid: np.ndarray, pools):
    """Doleans exponentials of the table-read integrand and their
    parameter derivatives.

    The integrand and its slope are tabulated at the knots of pools[0] and
    read at every path's left-knot position. Each pool in `pools` keeps
    every (n/k)-th of those columns, k being its step count, and gets
    (E, dE/dlam) on its own increments. Returns that list and the
    integrand table.
    """
    grid = pools[0].grid
    gam_tab, dgam_tab = integrand_tables(
        moll, lam, config.positivity_floor, denom, ddenom, grid.knots[:-1],
        grid.horizon, config.quad_order, y_grid)
    left = pools[0].cumulative[:, :-1]
    g = _read_table(gam_tab, y_grid, left)
    dg = _read_table(dgam_tab, y_grid, left)
    out = []
    for pool in pools:
        stride = grid.n_steps // pool.grid.n_steps
        E = doleans_exponential(pool, stage7_stepify(grid, g, pool.grid.n_steps),
                                grid.horizon)
        out.append((E, E * _exponential_slope(pool, g[:, ::stride],
                                              dg[:, ::stride])))
    return out, gam_tab


def _mollified(curve: DensityCurve, config: PipelineConfig,
               pool: PathPool) -> MollifiedDensity:
    """Stages 1, 3 and 4 for a curve with scalar_triple."""
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
    on gamma_y, one row per step-process knot.
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

    w = _normalized(pool.weights)
    u_fine = cond.coords_of(pool.increments)
    block_pool = dyadic_coarsen(pool, config.dyadic_level)
    k_pool = dyadic_coarsen(pool, config.step_count.bit_length() - 1)
    stride = block_pool.grid.n_steps // config.step_count
    y_grid = _table_y_grid(block_pool)

    seg_lams, seg_w = _segment_scheme(lam, lam_prime)
    stage_ids = (1, 3, 4, 5, 6, 7)
    primary: Dict[int, Tuple[float, float]] = {}
    seg_sq = {sid: 0.0 for sid in stage_ids}

    for la, sw in [(lam, None)] + list(zip(seg_lams, seg_w)):
        target_v = curve.eval(la, pool)
        target_d = curve.deriv(la, pool)
        errs: Dict[int, Tuple[float, float]] = {}

        def record(sid, v, d):
            errs[sid] = (_weighted_l2(w, v - target_v),
                         _weighted_l2(w, d - target_d))

        record(1, *cond.pair(la, u_fine))
        record(3, *trunc.parts(la, u_fine, False)[:2])
        F, Fl = moll.pair(la, u_fine)
        record(4, F, Fl)
        record(5, stage5_normalize(F, config.positivity_floor, pool.weights),
               stage5_derivative(F, Fl, config.positivity_floor, pool.weights))
        denom = config.positivity_floor + float(np.dot(w, F))
        ((E6, dE6), (E7, dE7)), gam_tab = _exponentials(
            moll, la, config, denom, float(np.dot(w, Fl)), y_grid,
            (block_pool, k_pool))
        record(6, E6, dE6)
        record(7, E7, dE7)

        if sw is None:
            primary = errs
            primary_tab, primary_denom = gam_tab, denom
            final_se = (_l2_with_se(w, E7 - target_v)[1],
                        _l2_with_se(w, dE7 - target_d)[1])
        else:
            for sid in stage_ids:
                seg_sq[sid] += sw * (errs[sid][0] ** 2 + errs[sid][1] ** 2)

    gap = _consistency_gap(moll, lam, config, primary_denom, block_pool,
                           y_grid, primary_tab)

    stages = tuple(
        StageReport(sid, primary[sid][0], primary[sid][1],
                    float(np.sqrt(seg_sq[sid])))
        for sid in stage_ids)
    st7 = stages[-1]
    return PipelineReport(
        lam=lam, lam_prime=lam_prime, config=config, stages=stages,
        final_value_error=st7.l2_error_value,
        final_deriv_error=st7.l2_error_deriv,
        final_segment_error=st7.along_segment_error,
        final_value_se=final_se[0],
        final_deriv_se=final_se[1],
        gamma_consistency_gap=gap,
        knot_times=k_pool.grid.knots[:-1].copy(),
        gamma_y=y_grid,
        gamma_table=primary_tab[::stride].copy(),
    )


def _consistency_gap(moll: MollifiedDensity, lam: float,
                     config: PipelineConfig, denom: float,
                     block_pool: PathPool, y_grid: np.ndarray,
                     gam_tab: np.ndarray) -> float:
    """Largest subsample discrepancy between the block-knot integrand table
    that stages 6 and 7 read and the direct decomposition of the stage-5
    functional."""
    m = min(_CHECK_PATHS, block_pool.n_samples)
    sub = block_pool.subset(np.arange(m))
    functional = stage6_functional(moll, lam, config.positivity_floor,
                                   denom, block_pool.grid.n_steps)
    gam_direct = clark_ocone_decompose(functional, sub,
                                       quad_order=config.quad_order)[2]
    gam_read = _read_table(gam_tab, y_grid, sub.cumulative[:, :-1])
    gap = float(np.abs(gam_direct - gam_read).max())
    if gap > _GROSS_GAP:
        raise ValueError(f"integrand table disagrees with the direct "
                         f"decomposition (gap {gap:.2e})")
    return gap


def final_errors_at(curve: DensityCurve, lam: float, config: PipelineConfig,
                    pool: PathPool):
    """Stage-7 exponential errors at one parameter value, with standard
    errors; the light-weight core used for refinement ladders. The table
    is built at the step_count knots only, so when step_count equals
    2**dyadic_level the errors are pipeline_run's final errors."""
    moll = _mollified(curve, config, pool)
    w = _normalized(pool.weights)
    F, Fl = moll.pair(lam, moll.trunc.cond.coords_of(pool.increments))
    k_pool = dyadic_coarsen(pool, config.step_count.bit_length() - 1)
    [(E, dE)], _ = _exponentials(
        moll, lam, config, config.positivity_floor + float(np.dot(w, F)),
        float(np.dot(w, Fl)), _table_y_grid(k_pool), (k_pool,))
    ev, se_v = _l2_with_se(w, E - curve.eval(lam, pool))
    ed, se_d = _l2_with_se(w, dE - curve.deriv(lam, pool))
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

    For scalar-form curves conditioning is exact at every dyadic level, so
    that ladder is flat by construction and the step-count ladder carries
    the time-resolution convergence.

    Rungs share one final_errors_at call per distinct (truncation_level,
    mollify_eps, positivity_floor, step_count, quad_order), the fields it
    reads; dyadic_level is only validated, so the three dyadic rungs and
    the step_count-2 rung are one computation. report, when given, is
    pipeline_run's report for the same curve, lam, config and pool; if
    step_count == 2**dyadic_level its stage-7 errors are the base rung's
    final_errors_at result bitwise, so the base rung is taken from it.
    """
    def key(cfg):
        return (cfg.truncation_level, cfg.mollify_eps, cfg.positivity_floor,
                cfg.step_count, cfg.quad_order)

    errors: Dict[tuple, tuple] = {}
    if report is not None:
        if report.lam != lam or report.config != config:
            raise ValueError("report was computed at another lam or config")
        if config.step_count == 1 << config.dyadic_level:
            errors[key(config)] = (report.final_value_error,
                                   report.final_deriv_error,
                                   report.final_value_se,
                                   report.final_deriv_se)
    ladders: Dict[str, list] = {}
    for knob, value, cfg in _ladder_configs(config):
        _block_edges(pool.grid, cfg.dyadic_level)
        if key(cfg) not in errors:
            errors[key(cfg)] = final_errors_at(curve, lam, cfg, pool)
        ev, ed, se_v, se_d = errors[key(cfg)]
        ladders.setdefault(knob, []).append(
            {"knob": knob, "value": value, "value_error": ev,
             "deriv_error": ed, "value_se": se_v, "deriv_se": se_d})
    return ladders
