"""Derivatives of measure functionals along curves of densities.

The objects here connect three views of the same derivative:
  * the profile x -> integral of the Lions derivative, recentered;
  * the chain rule along a differentiable density curve;
  * the stochastic-integral representation in several dimensions.
Each has an independent route, so they cross-check one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .clark_ocone import _as_loading, clark_ocone_decompose, gaussian_smooth
from .functionals import CylindricalFn, NestedFn
from .measure_ops import EmpiricalLaw, pushforward_law, weighted_expectation
from .numerics import antiderivative_at, row_sums, weighted_row_sums, \
    weighted_sum
from .wiener_grid import PathPool, TimeGrid

_FD_STEP = 1e-2  # nested_derivative_check's step along each bump


@dataclass(frozen=True)
class DensityCurve:
    """Differentiable curve lambda -> L^lambda of per-path densities that
    read only the path endpoint u = B_T.

    triple(lam, u) returns the raw value, its lambda-derivative and its
    u-derivative at the endpoint values u. raw/raw_pair read it at the row
    sums of an increment matrix; eval/eval_pair renormalize by the pool
    mean so every probe has mean exactly one, and the derivative is
    transformed consistently, which also forces its mean to zero.
    """

    lam_lo: float
    lam_hi: float
    triple: Callable

    def __post_init__(self):
        if not self.lam_lo < self.lam_hi:
            raise ValueError("empty parameter interval")

    def contains(self, lam: float) -> bool:
        return self.lam_lo <= lam <= self.lam_hi

    def _require(self, lam: float):
        if not self.contains(lam):
            raise ValueError(f"lambda={lam} outside [{self.lam_lo}, {self.lam_hi}]")

    def raw_pair(self, lam: float, increments: np.ndarray):
        """Raw value and lambda-derivative on the paths of increments."""
        self._require(lam)
        v, d, _ = self.triple(lam, row_sums(increments))
        return np.asarray(v, dtype=float), np.asarray(d, dtype=float)

    def raw(self, lam: float, increments: np.ndarray) -> np.ndarray:
        return self.raw_pair(lam, increments)[0]

    def eval(self, lam: float, pool: PathPool) -> np.ndarray:
        return renormalize(self.raw(lam, pool.increments))

    def eval_pair(self, lam: float, pool: PathPool):
        """(eval, deriv) at lam from one raw evaluation of the curve."""
        return renormalize(*self.raw_pair(lam, pool.increments))


def renormalize(vals: np.ndarray, dvals: Optional[np.ndarray] = None):
    """Raw curve values over their own mean (mean one); given the raw
    lambda-derivative too, the pair, the derivative transformed to match
    (mean zero). Rows of a full-pool evaluation give a shard's density."""
    r = float(vals.mean())
    if dvals is None:
        return vals / r
    dr = float(dvals.mean())
    return vals / r, dvals / r - vals * (dr / (r * r))


def exponential_curve(grid: TimeGrid, lam_lo: float,
                      lam_hi: float) -> DensityCurve:
    """L^lam = exp(lam B_T - lam^2 T / 2), the Girsanov density of the
    constant drift lam."""
    horizon = grid.horizon

    def triple(lam, u):
        # one exponential, the derivatives fall out algebraically
        v = np.exp(lam * u - 0.5 * lam * lam * horizon)
        return v, v * (u - lam * horizon), lam * v

    return DensityCurve(lam_lo, lam_hi, triple)


def mixture_curve(base: Callable, other: Callable, lam_lo: float = 0.0,
                  lam_hi: float = 1.0) -> DensityCurve:
    """Linear interpolation L^lam = (1-lam) base + lam other between two
    endpoint densities, each a function of u = B_T that returns its value
    and u-derivative (scalars for a constant density)."""

    def triple(lam, u):
        b, db = base(u)
        o, do = other(u)
        return (1.0 - lam) * b + lam * o, o - b, (1.0 - lam) * db + lam * do

    return DensityCurve(lam_lo, lam_hi, triple)


def density_derivative_profile(f: CylindricalFn, law: EmpiricalLaw,
                               x_grid, phi_values) -> np.ndarray:
    """Profile x -> int_0^x (Lions derivative)(law, y) dy - centering, at
    every point of x_grid (same shape). phi_values is phi at the law's
    atoms, as in chain_rule_rhs.

    The centering makes the profile average to zero under the law itself
    (at its atoms), pinning the additive freedom. Base point 0 is a
    convention; any other base changes the profile by a constant that the
    centering immediately absorbs.
    """
    if law.dim != 1:
        raise ValueError("profile construction is one-dimensional")
    xs = np.asarray(x_grid, dtype=float)
    atoms = law.atoms_1d()
    # the Lions derivative c * grad phi, with the law's one factor c read
    # once rather than at every quadrature pass
    c = f.slope(law, phi_values)

    def integrand(ys):
        return c * np.asarray(f.grad_phi(ys[:, None]), dtype=float)[:, 0]

    joint = antiderivative_at(integrand, np.concatenate([xs.ravel(), atoms]))
    a_grid = joint[:xs.size].reshape(xs.shape)
    a_atoms = joint[xs.size:]
    centering = law.integrate(a_atoms)
    return a_grid - centering


def recenter_to_base(values: np.ndarray) -> np.ndarray:
    """Subtract the plain path mean so the result has base-measure mean zero."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("need one value per path")
    return vals - vals.mean()


def recenter_to_density(values: np.ndarray,
                        density_values: np.ndarray) -> np.ndarray:
    """Subtract the density-weighted mean (mean under the reweighted measure)."""
    vals = np.asarray(values, dtype=float)
    dens = np.asarray(density_values, dtype=float)
    if vals.ndim != 1 or dens.shape != vals.shape:
        raise ValueError("need one value and one density value per path")
    return vals - weighted_sum(dens, vals) / float(dens.sum())


def _require_1d(f: CylindricalFn) -> None:
    if f.dim != 1:
        raise ValueError(f"the chain rule along a scalar observable needs a "
                         f"one-dimensional functional, got dim {f.dim}")


def grad_phi_antiderivative(f: CylindricalFn, xi_values) -> np.ndarray:
    """Phi(x) = integral of grad phi from 0 to x, at every observable value.

    The antiderivative of the Lions derivative h'(<phi, law>) grad phi is
    h'(<phi, law>) Phi, and Phi does not depend on the law, so one Phi
    serves every law of the same observable values (and any subset of
    them, read by row). It is integrated numerically on purpose: taking
    phi(x) - phi(0) would let the rhs share phi with the lhs.
    """
    _require_1d(f)
    xi = np.asarray(xi_values, dtype=float).reshape(-1)
    return antiderivative_at(
        lambda ys: np.asarray(f.grad_phi(ys[:, None]), dtype=float)[:, 0], xi)


def chain_rule_rhs(f: CylindricalFn, law: EmpiricalLaw, deriv_values,
                   phi_values, anti_values) -> float:
    """h'(<phi, law>) times the mean of Phi(xi) dL/dlam.

    law is the law of xi under the curve's density at one lambda,
    deriv_values the density's lambda-derivative there, one per atom
    (DensityCurve.eval_pair), and phi_values and anti_values are phi and
    grad_phi_antiderivative(f, .) at the law's atoms: both are law-free,
    so one evaluation serves every law of those atoms, or a shard by row.
    """
    _require_1d(f)
    return f.slope(law, phi_values) * weighted_expectation(
        deriv_values, anti_values)


def chain_rule_lhs_fd(f: CylindricalFn, law_below: EmpiricalLaw,
                      law_above: EmpiricalLaw, phi_values, h_step: float) -> float:
    """Central difference of lam -> f(law^lam): law_below and law_above are
    the laws of xi under the curve's densities at lam - h_step and
    lam + h_step on the same pool, and phi_values is phi at their atoms."""
    if not (np.isfinite(h_step) and h_step > 0):
        raise ValueError(f"h_step must be finite and positive, got {h_step}")
    return (f.value(law_above, phi_values)
            - f.value(law_below, phi_values)) / (2.0 * h_step)


def second_order_check_1d(f: CylindricalFn, law: EmpiricalLaw, x_grid,
                          h_step: float) -> float:
    """Max over the grid of |FD_x of the profile - Lions derivative|. The
    profile is c Phi (c = f.slope, Phi = grad_phi_antiderivative) minus
    a centering constant that cancels in the difference, so only c Phi at
    the 2m points x +- h_step is integrated, never the law's atoms."""
    xs = np.asarray(x_grid, dtype=float).reshape(-1)
    anti = grad_phi_antiderivative(f, np.concatenate([xs + h_step, xs - h_step]))
    m = xs.size
    cd = f.slope(law) * (anti[:m] - anti[m:]) / (2.0 * h_step)
    target = f.lions_derivative(law, xs)
    return float(np.max(np.abs(cd - target)))


def second_order_check_multidim(f: CylindricalFn, law: EmpiricalLaw, x_grid,
                                h_step: float) -> float:
    """Gradient consistency in d dimensions.

    The profile generalizes to the centered potential h'(int phi dmu) phi(x);
    its gradient should reproduce the Lions derivative componentwise. The
    centering constant drops out of the differences entirely.
    """
    pts = np.asarray(x_grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != f.dim or law.dim != f.dim:
        raise ValueError("point dimension does not match the functional")
    c = f.slope(law)
    target = f.lions_derivative(law, pts)
    worst = 0.0
    for j in range(pts.shape[1]):
        up = pts.copy()
        dn = pts.copy()
        up[:, j] += h_step
        dn[:, j] -= h_step
        cd = c * (np.asarray(f.phi(up), dtype=float)
                  - np.asarray(f.phi(dn), dtype=float)) / (2.0 * h_step)
        worst = max(worst, float(np.max(np.abs(cd - target[:, j]))))
    return worst


def multidim_derivative_repr(fs: Sequence[CylindricalFn],
                             endpoint: Tuple[Callable, Callable],
                             xi_loading, pool: PathPool,
                             quad_order: int = 32) -> List[np.ndarray]:
    """Per-path derivative values via the drift-corrected stochastic
    integral, one array per functional in fs.

    Each interval contributes H_i * (B(D_i) - gamma_i dt_i): H_i is the
    density-weighted predictable projection of (Lions derivative at xi) dot
    (interval gradient of xi), and gamma is the logarithmic integrand of
    the density L = l(B_T), so the corrected increments are driftless under
    the reweighted measure. The density reads the endpoint only and comes
    as endpoint = (l, l'): l gives L on the paths and on the projection
    mesh, and both feed clark_ocone_decompose, which extracts gamma.

    xi_k = sum_j A[k, j] B(D_j) for the finite k x n_steps matrix
    A = xi_loading (checked before any evaluation), so its gradient on
    interval i is the constant A[k, i]. The law, the decomposition of L
    and each knot's projection mesh are shared by every functional. The
    projections integrate over the rank of the stacked loading [1^T; A],
    and per mesh chunk each distinct row of it is summed once, so L and an
    endpoint xi share one sum; only grad phi and the outer slope differ.
    """
    grid = pool.grid
    A = _as_loading(xi_loading, grid.n_steps)
    loading = np.vstack([np.ones(grid.n_steps), A])
    rows = {}  # distinct row -> its index (np.unique would import numpy.ma)
    which = [rows.setdefault(tuple(row), len(rows)) for row in loading]

    def stats(x):
        """(L, xi) at the increments x, one sum per distinct loading row."""
        sums = [weighted_row_sums(x, row) for row in rows]
        return (np.asarray(endpoint[0](sums[which[0]]), dtype=float),
                np.column_stack([sums[r] for r in which[1:]]))

    inc = pool.increments
    l_vals, xi_pts = stats(inc)
    if np.any(l_vals <= 0.0):
        raise ValueError("density must be strictly positive pathwise")
    law = pushforward_law(l_vals, xi_pts)
    slopes = [f.slope(law) for f in fs]

    _, M, gamma = clark_ocone_decompose(*endpoint, pool, quad_order=quad_order)

    def component(i):
        def comp(args):
            lv, pts = stats(args)
            outs = []
            for f, c in zip(fs, slopes):
                dphi = np.asarray(f.grad_phi(pts), dtype=float)
                total = np.zeros(len(pts))
                for k in range(A.shape[0]):
                    total += dphi[:, k] * A[k, i]
                outs.append(c * total * lv)
            return tuple(outs)
        return comp

    outs = [np.zeros(pool.n_samples) for _ in fs]
    for i in range(grid.n_steps):
        t = grid.knots[i]
        projs = gaussian_smooth(grid, t, inc[:, :i], component(i), loading,
                                quad_order=quad_order)
        corrected = inc[:, i] - gamma[:, i] * grid.steps[i]
        for out, proj in zip(outs, projs):
            out += proj / M[:, i] * corrected
    return outs


def nested_derivative_check(fn: NestedFn, law: EmpiricalLaw,
                            x_probes) -> float:
    """Partial-derivative formula vs a direct perturbation of the joint law
    of (xi1, xi2).

    For Gaussian bumps eta_j centered at the probes, compares the derivative
    of the nested functional along the reweighted laws w(1 + s(eta_j - mean))
    with the law's pairing of fn.density_derivative, the closed-form
    partial derivative, against the same centered direction. Agreement says the formula really
    is the density derivative, up to FD and kernel-regression error.
    """
    probes = np.asarray(x_probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != 2:
        raise ValueError("probes live in the plane (xi1, xi2): need (m, 2)")
    prof = fn.density_derivative(law)
    x1, x2 = law.atoms[:, 0], law.atoms[:, 1]
    w = law.weights

    spread = max(np.std(x1), np.std(x2))
    bump_width = 0.5 * spread if spread > 0 else 1.0

    worst = 0.0
    for a, b in probes:
        eta = np.exp(-((x1 - a) ** 2 + (x2 - b) ** 2) / (2.0 * bump_width ** 2))
        direction = eta - law.integrate(eta)

        def nested_at(s):
            return fn.value(EmpiricalLaw(law.atoms, w * (1.0 + s * direction)))

        lhs = (nested_at(_FD_STEP) - nested_at(-_FD_STEP)) / (2.0 * _FD_STEP)
        worst = max(worst, abs(lhs - law.integrate(prof * direction)))
    return worst
