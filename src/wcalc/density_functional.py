"""Functionals of probability density functions and their link to measure
derivatives.

Weighted empirical laws are smoothed into grid densities by a Gaussian
kernel estimator on a window and bandwidth that the caller sets: the
smoothing bias scales like the squared bandwidth, so each check runs its
own bandwidth ladder. A one-dimensional cylindrical functional
f(mu) = Psi(integral of rho d mu), with Psi = f.h and rho = f.phi, is also
the density functional Phi(h) = Psi(integral of rho * h dx), whose analytic
L2(dx) derivative Psi' * rho is centered here to zero mean on the grid
window. Two identities between the two readings become two-sided numerical
checks: the measure derivative equals the x-derivative of the
density-functional representer, and the centered representer profile
equals the centered antiderivative of the measure derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density_deriv import density_derivative_profile
from .functionals import CylindricalFn
from .measure_ops import EmpiricalLaw
from .numerics import _check_bandwidth, binned_gaussian_smooth, weighted_sum

_GRID_POINTS = 2048
_WINDOW_SIGMAS = 5.0


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative function tabulated on a uniform grid.

    mass is the trapezoid integral, derived at construction; normalized()
    rescales values so the mass is one, which is how every estimator here
    returns its output.
    """

    x_grid: np.ndarray
    values: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise ValueError("grid and values must be matching 1-d arrays")
        spacing = np.diff(x)
        if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
            raise ValueError("grid must be uniform")
        if np.any(v < 0.0):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mass", float(np.trapezoid(v, x)))

    @property
    def spacing(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    def normalized(self) -> "GridDensity":
        if self.mass <= 0.0:
            raise ValueError("cannot normalize a zero-mass density")
        return GridDensity(self.x_grid, self.values / self.mass)


def density_grid(points, bandwidth: float) -> np.ndarray:
    """Uniform window covering the given points plus kernel tails."""
    pts = np.asarray(points, dtype=float)
    pad = _WINDOW_SIGMAS * _check_bandwidth(bandwidth)
    return np.linspace(pts.min() - pad, pts.max() + pad, _GRID_POINTS)


def kde_density(law: EmpiricalLaw, x_grid, bandwidth: float) -> GridDensity:
    """Weighted Gaussian kernel density of a 1-d law on the uniform grid
    x_grid (density_grid builds one that covers the atoms), renormalized to
    unit trapezoid mass. The bandwidth must be finite and positive.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    raw, = binned_gaussian_smooth(law.atoms_1d(), [law.weights], bandwidth,
                                  x_grid)
    return GridDensity(x_grid, np.maximum(raw, 0.0)).normalized()


def _require_1d(f: CylindricalFn) -> None:
    if f.dim != 1:
        raise ValueError(f"a density functional acts on 1-D densities, got a "
                         f"{f.dim}-D functional")


def _representer(f: CylindricalFn, h: GridDensity):
    """L2(dx) derivative of Phi at h, Psi'(integral) * rho centered to zero
    dx-mean over the grid window, with Psi = f.h and rho = f.phi of a 1-D
    cylindrical functional: a function of (m,) points inside the window
    returning (representer, rho) there. rho is read on the grid once, here,
    for the slope and the centering."""
    phi_grid = f.phi(h.x_grid[:, None])
    slope = float(f.h_prime(float(np.trapezoid(phi_grid * h.values, h.x_grid))))
    window = h.x_grid[-1] - h.x_grid[0]
    centering = slope * float(np.trapezoid(phi_grid, h.x_grid)) / window

    def at(x):
        pts = np.asarray(x, dtype=float)
        if pts.min() < h.x_grid[0] or pts.max() > h.x_grid[-1]:
            raise ValueError("representer points must lie inside the grid window")
        phi = np.asarray(f.phi(pts[:, None]), dtype=float)
        return slope * phi - centering, phi
    return at


def _x_derivative(representer, h: GridDensity, x_probes) -> np.ndarray:
    """Central finite difference in x of the representer, deliberately not
    the analytic slope: this side of the comparison must come from the
    density-functional route alone."""
    pts = np.asarray(x_probes, dtype=float)
    step = h.spacing
    lo = np.maximum(pts - step, h.x_grid[0])
    hi = np.minimum(pts + step, h.x_grid[-1])
    up, dn = np.split(representer(np.concatenate([hi, lo]))[0], 2)
    return (up - dn) / (hi - lo)


def bensoussan_check(f: CylindricalFn, law: EmpiricalLaw, x_probes,
                     bandwidth: float) -> float:
    """Two-sided link between density-functional and measure derivatives.

    Smooths the 1-D law (of xi under the density-reweighted measure, say) to
    a grid density with the given kernel bandwidth, on a window that covers
    the atoms and the probes, and checks, at every probe:

    1. the measure derivative of f at the smoothed law equals the
       x-derivative (finite differences on the grid) of the representer of
       the density functional Phi(h) = f.h(integral of f.phi * h dx);
    2. the representer centered under the law equals the centered
       antiderivative profile of the measure derivative at the law.

    Returns the largest absolute discrepancy across both comparisons; the
    first is limited by FD resolution, the second by smoothing bias.
    """
    _require_1d(f)
    probes = np.asarray(x_probes, dtype=float)
    atoms = law.atoms_1d()
    # the window covers the probes too: a small law's atoms may not reach them
    window = density_grid(np.concatenate([atoms, probes]), bandwidth)
    h = kde_density(law, window, bandwidth)

    # the smoothed law as an atomic law on the grid, trapezoid-weighted
    wgrid = np.full(h.x_grid.size, h.spacing)
    wgrid[0] *= 0.5
    wgrid[-1] *= 0.5
    kde_law = EmpiricalLaw(h.x_grid[:, None], wgrid * h.values)

    lhs = f.lions_derivative(kde_law, probes)
    # both comparisons read one representer, so rho on the grid once
    representer = _representer(f, h)
    rhs = _x_derivative(representer, h, probes)
    err_slope = float(np.abs(lhs - rhs).max())

    # the window covers the probes and the atoms; the profile's outer slope
    # reads the same phi at the atoms
    rep, phi = representer(np.concatenate([probes, atoms]))
    rep_at_probes, rep_at_atoms = np.split(rep, [probes.size])
    rep_mean = weighted_sum(law.weights / law.weights.sum(), rep_at_atoms)
    centered_rep = rep_at_probes - rep_mean
    profile = density_derivative_profile(f, law, probes, phi[probes.size:])
    err_profile = float(np.abs(centered_rep - profile).max())
    return max(err_slope, err_profile)
