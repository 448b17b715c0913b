"""Measure functionals with analytic derivatives.

Two classes cover everything the verification batteries need, each with its
value and closed-form derivatives as methods: cylindrical functionals
f(mu) = h(integral of phi d mu), with Lions derivative h'(<phi, mu>) grad phi,
and nested conditional functionals g(E[h(E[psi(xi1) | xi2])]). A
finite-difference oracle on the lift provides the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure_ops import EmpiricalLaw, conditional_expectation, pushforward_law
from .numerics import _check_bandwidth
from .rng import substream

_PROBE_SEED = 0x5EEDED
_FD_MIN_STEP = 1e-10


def _check_fd_derivative(fn, dfn, probes, label: str,
                         rel_tol: float = 1e-6) -> None:
    u = np.asarray(probes, dtype=float)
    step = 1e-5 * (1.0 + np.abs(u))
    fd = (fn(u + step) - fn(u - step)) / (2.0 * step)
    got = dfn(u)
    if not np.all(np.abs(got - fd) <= rel_tol * (1.0 + np.abs(fd))):
        raise ValueError(f"{label}: stored derivative disagrees with finite differences")


def _check_gradient(fn, grad, points, label: str, rel_tol: float = 1e-6) -> None:
    x = np.asarray(points, dtype=float)
    g = np.asarray(grad(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"{label}: gradient shape mismatch")
    for j in range(x.shape[1]):
        step = 1e-5 * (1.0 + np.abs(x[:, j]))
        up, dn = x.copy(), x.copy()
        up[:, j] += step
        dn[:, j] -= step
        fd = (fn(up) - fn(dn)) / (2.0 * step)
        if not np.all(np.abs(g[:, j] - fd) <= rel_tol * (1.0 + np.abs(fd))):
            raise ValueError(f"{label}: gradient component {j} disagrees with finite differences")


def _probe_points(dim: int, n: int = 24) -> np.ndarray:
    rng = substream(_PROBE_SEED, dim)
    return rng.uniform(-2.0, 2.0, size=(n, dim))


@dataclass(frozen=True)
class CylindricalFn:
    """f(mu) = h(integral of phi d mu) with user-supplied derivatives.

    phi maps (m, dim) points to (m,) values; grad_phi maps (m, dim) to
    (m, dim). Stored derivatives are validated against central finite
    differences on a probe grid at construction time.
    """

    h: Callable
    h_prime: Callable
    phi: Callable
    grad_phi: Callable
    dim: int = 1
    descriptor: str = ""

    def __post_init__(self):
        _check_fd_derivative(self.h, self.h_prime,
                             np.linspace(-2.0, 2.0, 9), f"h[{self.descriptor}]")
        pts = _probe_points(self.dim)
        _check_gradient(self.phi, self.grad_phi, pts, f"phi[{self.descriptor}]")

    def _pairing(self, law: EmpiricalLaw, phi_values):
        """integral of phi d law; phi_values is phi at its atoms, if known."""
        if law.dim != self.dim:
            raise ValueError("law dimension does not match the functional")
        return law.integrate(self.phi if phi_values is None else phi_values)

    def value(self, law: EmpiricalLaw, phi_values=None) -> float:
        """h(integral phi d law)."""
        return float(self.h(self._pairing(law, phi_values)))

    def slope(self, law: EmpiricalLaw, phi_values=None) -> float:
        """h'(integral phi d law): the one factor of the Lions derivative
        that depends on the law."""
        return float(self.h_prime(self._pairing(law, phi_values)))

    def lions_derivative(self, law: EmpiricalLaw, x) -> np.ndarray:
        """Analytic measure derivative h'(integral phi d law) * grad_phi(x).

        x is a batch of points: (m, dim), or (m,) for a 1-D functional. The
        result is (m, dim), or (m,) for a 1-D functional.
        """
        pts = np.asarray(x, dtype=float)
        if self.dim == 1 and pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"point dimension mismatch: need (m, {self.dim}) "
                             f"points, got shape {pts.shape}")
        g = self.slope(law) * np.asarray(self.grad_phi(pts), dtype=float)
        return g[:, 0] if self.dim == 1 else g


@dataclass(frozen=True)
class NestedFn:
    """G(mu) = g(E[h(m(xi2))]) with m(y) = E[psi(xi1) | xi2 = y] by kernel
    regression of the given bandwidth, which is part of what G means."""

    g: Callable
    g_prime: Callable
    h: Callable
    h_prime: Callable
    psi: Callable
    bandwidth: float
    descriptor: str = ""

    def __post_init__(self):
        _check_bandwidth(self.bandwidth)
        grid = np.linspace(-2.0, 2.0, 9)
        _check_fd_derivative(self.g, self.g_prime, grid, f"g[{self.descriptor}]")
        _check_fd_derivative(self.h, self.h_prime, grid, f"h[{self.descriptor}]")

    def _regression(self, law: EmpiricalLaw):
        """(psi(xi1), m(xi2)) at the atoms of the joint law."""
        if law.dim != 2:
            raise ValueError(f"the nested functional needs the 2-D joint law of "
                             f"(xi1, xi2), got a {law.dim}-D law")
        psi1 = self.psi(law.atoms[:, 0])
        return psi1, conditional_expectation(psi1, law.atoms[:, 1],
                                             law.weights, self.bandwidth)

    def value(self, law: EmpiricalLaw) -> float:
        """G at the joint law: g(E[h(m(xi2))])."""
        return float(self.g(law.integrate(self.h(self._regression(law)[1]))))

    def density_derivative(self, law: EmpiricalLaw) -> np.ndarray:
        """Closed-form first partial derivative of G at each atom x = (x1, x2):
            g'(E[h(m(xi2))]) * ( h(m(x2)) + h'(m(x2)) * (psi(x1) - m(x2)) )."""
        psi1, m = self._regression(law)
        hm = self.h(m)
        outer = float(self.g_prime(law.integrate(hm)))
        return np.asarray(outer * (hm + self.h_prime(m) * (psi1 - m)),
                          dtype=float)


def lifted_derivative_fd(f, density_values, xi_values, direction_values,
                         step: float) -> float:
    """Central-difference directional derivative of the lift of f.

    Perturbs the observable along the direction eta with common random
    numbers (the same density on both sides) and differences f.value of the
    resulting laws: the Gateaux derivative E[d_mu f(law, xi) . eta].
    """
    if not (np.isfinite(step) and step >= _FD_MIN_STEP):
        raise ValueError(f"step must be finite and at least {_FD_MIN_STEP}, "
                         f"got {step}")
    xi = np.asarray(xi_values, dtype=float)
    eta = np.asarray(direction_values, dtype=float)
    if xi.shape != eta.shape:
        raise ValueError("direction must match the observable's shape")
    up = pushforward_law(density_values, xi + step * eta)
    dn = pushforward_law(density_values, xi - step * eta)
    return (f.value(up) - f.value(dn)) / (2.0 * step)


def _poly_phi(power: int):
    def phi(x):
        return x[:, 0] ** power

    def grad(x):
        g = np.zeros_like(x)
        g[:, 0] = power * x[:, 0] ** (power - 1) if power > 1 else 1.0
        return g

    return phi, grad


def make_functional(name: str):
    """Registry of the named cylindrical built-ins."""
    if name == "mean":
        phi, grad = _poly_phi(1)
        return CylindricalFn(h=lambda u: u, h_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                             phi=phi, grad_phi=grad, dim=1, descriptor="mean")
    if name == "mean_sq":
        phi, grad = _poly_phi(1)
        return CylindricalFn(h=lambda u: u ** 2, h_prime=lambda u: 2.0 * u,
                             phi=phi, grad_phi=grad, dim=1, descriptor="mean_sq")
    if name == "sin_mean":
        return CylindricalFn(h=lambda u: u, h_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                             phi=lambda x: np.sin(x[:, 0]),
                             grad_phi=lambda x: np.cos(x),
                             dim=1, descriptor="sin_mean")
    raise KeyError(f"unknown functional id: {name}")
