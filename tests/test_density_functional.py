import dataclasses
import warnings

import numpy as np
import pytest
from scipy import stats

from wcalc import (make_grid, sample_paths, brownian_at, EmpiricalLaw,
                   GridDensity, kde_density, density_grid,
                   CylindricalFn, bensoussan_check,
                   pushforward_law, exponential_curve, checks,
                   kernel_regression)
from wcalc.density_functional import _representer, _x_derivative
from oracles import kde_naive


def normal_law(n=4000, seed=2, scale=1.0):
    rng = np.random.default_rng(seed)
    atoms = scale * rng.standard_normal(n)
    return EmpiricalLaw(atoms[:, None], np.full(n, 1.0 / n))


def sin_phi():
    """Psi = sin and rho = sin, as a 1-D cylindrical functional."""
    return CylindricalFn(h=np.sin, h_prime=np.cos,
                         phi=lambda x: np.sin(x[:, 0]), grad_phi=np.cos,
                         descriptor="sin-sin")


def grid_integral(f, h):
    """Integral of rho * h dx on the grid density h."""
    return float(np.trapezoid(f.phi(h.x_grid[:, None]) * h.values, h.x_grid))


# ------------------------------------------------------------- GridDensity

def test_grid_density_validation():
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        GridDensity(x, np.ones(10))  # shape mismatch
    with pytest.raises(ValueError):
        GridDensity(np.cumsum(np.arange(11.0)), np.ones(11))
    with pytest.raises(ValueError):
        GridDensity(x, -np.ones(11))


def test_grid_density_mass_and_normalization():
    x = np.linspace(-1.0, 1.0, 201)
    h = GridDensity(x, 1.0 - x * x)
    assert h.mass == pytest.approx(4.0 / 3.0, rel=1e-4)
    assert h.spacing == pytest.approx(0.01)
    hn = h.normalized()
    assert hn.mass == pytest.approx(1.0, abs=1e-12)

    flat = GridDensity(x, np.zeros(201))
    with pytest.raises(ValueError):
        flat.normalized()


# --------------------------------------------------------------------- KDE

def test_kde_matches_naive_oracle():
    law = normal_law(n=500, seed=11)
    x = np.linspace(-4.0, 4.0, 400)
    got = kde_density(law, x_grid=x, bandwidth=0.3)
    want = kde_naive(law.atoms_1d(), law.weights, 0.3, x)
    want = want / np.trapezoid(want, x)
    assert np.max(np.abs(got.values - want)) < 2e-4


def test_kde_recovers_the_normal_density():
    law = normal_law(n=40000, seed=4)
    h = kde_density(law, density_grid(law.atoms_1d(), 0.15), 0.15)
    err = np.sqrt(np.trapezoid(
        (h.values - stats.norm.pdf(h.x_grid)) ** 2, h.x_grid))
    assert err < 0.02


def test_kde_translation_equivariance():
    law = normal_law(n=800, seed=6)
    shift = 2.5
    shifted = EmpiricalLaw(law.atoms + shift, law.weights)
    x = np.linspace(-4.0, 4.0, 300)
    a = kde_density(law, x_grid=x, bandwidth=0.25)
    b = kde_density(shifted, x_grid=x + shift, bandwidth=0.25)
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_kde_input_validation():
    law = normal_law(n=100, seed=1)
    with pytest.raises(ValueError):
        kde_density(law, np.linspace(-4.0, 4.0, 101), 0.0)
    pair = EmpiricalLaw(np.zeros((10, 2)), np.full(10, 0.1))
    with pytest.raises(ValueError):
        kde_density(pair, np.linspace(-1.0, 1.0, 101), 0.2)


def _bandwidth_route(route, bandwidth):
    rng = np.random.default_rng(8)
    x1, x2 = rng.standard_normal((2, 200))
    weights = np.full(200, 1.0 / 200)
    if route == "kernel_regression":
        return kernel_regression(x1, x2, weights, bandwidth,
                                 np.linspace(-1.0, 1.0, 5))
    if route == "kde_density":
        return kde_density(EmpiricalLaw(x2, weights),
                           np.linspace(-4.0, 4.0, 201), bandwidth)
    if route == "NestedFn":
        return checks._nested_battery(bandwidth)
    return bensoussan_check(sin_phi(), EmpiricalLaw(x2, weights),
                            np.linspace(-1.0, 1.0, 3), bandwidth)


@pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("route", ["kernel_regression", "kde_density",
                                   "NestedFn", "bensoussan_check"])
def test_a_bad_bandwidth_is_refused_before_any_arithmetic(route, bandwidth):
    """A bandwidth that is not finite and positive raises a ValueError
    naming it on every smoothing route, before numpy warns or fails; a
    nested functional, whose regression bandwidth is part of its
    definition, refuses it when it is built."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"bandwidth must be finite and "
                                             f"positive, got {bandwidth}"):
            _bandwidth_route(route, bandwidth)


def test_density_grid_covers_kernel_tails():
    law = normal_law(n=200, seed=9)
    x = density_grid(law.atoms_1d(), bandwidth=0.4)
    atoms = law.atoms_1d()
    assert x[0] <= atoms.min() - 1.9
    assert x[-1] >= atoms.max() + 1.9


# ------------------------------------------------------------ representers

def dPhi_representer(f, h, x):
    """The representer alone at the points x."""
    return _representer(f, h)(x)[0]


def test_representer_has_zero_window_mean():
    law = normal_law(n=3000, seed=3)
    h = kde_density(law, density_grid(law.atoms_1d(), 0.3), 0.3)
    f = sin_phi()
    vals = dPhi_representer(f, h, h.x_grid)
    assert abs(np.trapezoid(vals, h.x_grid)) < 1e-9


def test_representer_is_the_functional_gradient():
    """Pairing the representer with a mean-zero perturbation reproduces the
    finite-difference slope of Phi itself."""
    law = normal_law(n=3000, seed=3)
    h = kde_density(law, density_grid(law.atoms_1d(), 0.3), 0.3)
    f = sin_phi()
    x = h.x_grid
    g = -x * np.exp(-0.5 * x * x)       # d/dx of a Gaussian bump, mean zero
    g -= np.trapezoid(g, x) / (x[-1] - x[0])
    eps = 1e-5
    up = GridDensity(x, np.maximum(h.values + eps * g, 0.0))
    dn = GridDensity(x, np.maximum(h.values - eps * g, 0.0))
    fd = (f.h(grid_integral(f, up)) - f.h(grid_integral(f, dn))) / (2 * eps)
    pairing = float(np.trapezoid(dPhi_representer(f, h, x) * g, x))
    assert abs(fd - pairing) < 1e-6


def test_representer_rejects_points_outside_the_window():
    law = normal_law(n=500, seed=5)
    h = kde_density(law, density_grid(law.atoms_1d(), 0.3), 0.3)
    with pytest.raises(ValueError):
        dPhi_representer(sin_phi(), h, np.array([h.x_grid[-1] + 1.0]))


def test_representer_x_derivative_matches_analytic_slope():
    law = normal_law(n=3000, seed=7)
    h = kde_density(law, density_grid(law.atoms_1d(), 0.3), 0.3)
    f = sin_phi()
    probes = np.linspace(-1.0, 1.0, 9)
    got = _x_derivative(_representer(f, h), h, probes)
    slope = float(f.h_prime(grid_integral(f, h)))
    assert np.allclose(got, slope * np.cos(probes), atol=1e-5)


def test_density_functional_routes_reject_a_2d_functional():
    """A density here lives on the line, so a functional of plane points is
    refused up front by the battery's check, naming its dimension."""
    law = normal_law(n=500, seed=5)
    plane = CylindricalFn(h=np.sin, h_prime=np.cos,
                          phi=lambda x: np.sin(x[:, 0] + x[:, 1]),
                          grad_phi=lambda x: np.cos(
                              x.sum(axis=1, keepdims=True)).repeat(2, axis=1),
                          dim=2, descriptor="plane")
    with pytest.raises(ValueError, match="2-D functional"):
        bensoussan_check(plane, law, np.zeros(3), bandwidth=0.3)


# ------------------------------------------------------- two-sided linkage

@pytest.fixture(scope="module")
def reweighted():
    grid = make_grid(16)
    pool = sample_paths(grid, 20000, seed=606)
    curve = exponential_curve(grid, 0.1, 0.9)
    return pushforward_law(curve.eval(0.3, pool),
                           brownian_at(pool, grid.horizon))


def test_bensoussan_linear_psi_case(reweighted):
    law = reweighted
    f = CylindricalFn(h=lambda s: 2.0 * s,
                      h_prime=lambda s: np.full_like(np.asarray(s, float), 2.0),
                      phi=lambda x: np.sin(x[:, 0]), grad_phi=np.cos,
                      descriptor="linear-sin")
    err = bensoussan_check(f, law, np.linspace(-1.5, 1.5, 7), bandwidth=0.25)
    assert err < 5e-3


def test_bensoussan_reads_phi_on_the_grid_twice():
    """One call of the battery's sin-sin record at bandwidth 0.25 evaluates
    phi four times: on the 2048-point grid once for the measure derivative
    at the smoothed law and once for the representer's slope and centering,
    which both comparisons share, at the 2 x 7 difference points, and at
    the 7 probes and 20000 atoms together, which the profile's outer slope
    reads too."""
    grid = make_grid(16)
    pool = sample_paths(grid, 20000, seed=20260815)
    curve = checks._curve_battery(grid)[0][1]
    law = pushforward_law(curve.eval(0.3, pool), brownian_at(pool, grid.horizon))
    base = checks._phi_battery()[0][1]
    sizes = []

    def phi(x):
        sizes.append(len(x))
        return base.phi(x)

    f = dataclasses.replace(base, phi=phi)
    sizes.clear()  # the construction check read phi on its probes
    bensoussan_check(f, law, np.linspace(-1.5, 1.5, 7), bandwidth=0.25)
    assert sizes == [2048, 2048, 14, 20007]


def test_bensoussan_error_shrinks_with_bandwidth(reweighted):
    law = reweighted
    f = sin_phi()
    probes = np.linspace(-1.5, 1.5, 7)
    errs = [bensoussan_check(f, law, probes, bandwidth=bw)
            for bw in (0.5, 0.35, 0.25)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3
