"""Weighted empirical measures, pushforward laws under a density, the exact
one-dimensional Wasserstein-1 distance, and kernel conditional expectations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import binned_gaussian_smooth, weighted_sum
from .wiener_grid import _readonly


@dataclass(frozen=True)
class EmpiricalLaw:
    """Probability law on R^dim: atoms with weights >= 0 summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        atoms = _readonly(atoms)
        w = _readonly(self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)
        if len(atoms) != len(w):
            raise ValueError("one weight per atom required")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(w))):
            raise ValueError("atoms and weights must be finite")
        if np.any(w < 0):
            raise ValueError("law weights cannot be negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("law weights must sum to 1")

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def atoms_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError("operation requires a 1-D law")
        return self.atoms[:, 0]

    def integrate(self, values) -> float:
        """Linear pairing sum_i w_i * v_i (v may be a callable of the atoms)."""
        v = values(self.atoms) if callable(values) else np.asarray(values, dtype=float)
        if v.shape != (self.n_atoms,):
            raise ValueError("need one value per atom")
        return weighted_sum(self.weights, v)


def pushforward_law(density_values, observable_values) -> EmpiricalLaw:
    """Law of the observable under the density-reweighted sample measure.

    One row per path: atoms are the observable values (n,) or (n, dim);
    weights are the density values, scaled to sum to 1. The density must be
    nonnegative with a sample mean compatible with one.
    """
    L = np.asarray(density_values, dtype=float)
    obs = np.asarray(observable_values, dtype=float)
    if L.ndim != 1 or len(obs) != len(L):
        raise ValueError(f"need one density value per observable row, got "
                         f"{L.shape} and {obs.shape}")
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(obs))):
        raise ValueError("density and observable values must be finite")
    if np.any(L < 0):
        raise ValueError("probability law requested but density has negative values")
    mean = L.mean()
    sd = float(np.std(L, ddof=1)) if len(L) > 1 else 0.0
    slack = 6.0 * sd / np.sqrt(len(L)) + 1e-9
    if abs(mean - 1.0) > slack:
        raise ValueError(
            f"density mean {mean:.6g} is incompatible with a probability law")
    return EmpiricalLaw(obs, L / L.sum())


def wasserstein1(a: EmpiricalLaw, b: EmpiricalLaw) -> float:
    """Exact W1 between two discrete 1-D probability laws.

    Merged-quantile form: integrate |CDF_a - CDF_b| between consecutive
    merged atom positions.
    """
    if a.dim != 1 or b.dim != 1:
        raise ValueError("wasserstein1 is implemented for 1-D laws only")
    xa, xb = a.atoms_1d(), b.atoms_1d()
    wa, wb = a.weights, b.weights
    ia, ib = np.argsort(xa, kind="stable"), np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    allx = np.sort(np.concatenate([xa, xb]), kind="stable")
    deltas = np.diff(allx)
    ca = np.concatenate([[0.0], np.cumsum(wa)])
    cb = np.concatenate([[0.0], np.cumsum(wb)])
    cdf_a = ca[np.searchsorted(xa, allx[:-1], side="right")]
    cdf_b = cb[np.searchsorted(xb, allx[:-1], side="right")]
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def weighted_expectation(density_values, g_values) -> float:
    """Plain reweighted average: mean of L_i g_i over the paths."""
    L = np.asarray(density_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if L.shape != g.shape or L.ndim != 1:
        raise ValueError(f"need one density value per value of g, got "
                         f"{L.shape} and {g.shape}")
    if len(L) == 0:
        raise ValueError("no paths to average over")
    return weighted_sum(L, g) / len(L)


def kernel_regression(x_values, y_values, weights, bandwidth: float,
                      eval_points):
    """Weighted Nadaraya-Watson estimate of E[x | y = p] at each eval point.

    Gaussian kernel of the given bandwidth, which must be finite and
    positive; computed by linear binning and convolution, which agrees
    with the direct double loop to O((bin spacing)^2) and runs in
    O(n + bins) instead of O(n * m).
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    numer, denom = binned_gaussian_smooth(y, [w * x, w], bandwidth, eval_points)
    floor = np.finfo(float).tiny * len(y)
    return numer / np.maximum(denom, floor)


def conditional_expectation(x_values, y_values, density_values,
                            bandwidth: float) -> np.ndarray:
    """Density-weighted kernel regression of x on y, with the given
    bandwidth, evaluated at each sample's own y."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    L = np.asarray(density_values, dtype=float)
    if not (len(x) == len(y) == len(L)):
        raise ValueError("arrays must have equal length")
    return kernel_regression(x, y, L, bandwidth, y)
