import numpy as np
import pytest

from wcalc import (CylindricalFn, NestedFn, make_functional, eval_cyl,
                   lions_derivative, lifted_derivative_fd, eval_nested,
                   nested_derivative_check, EmpiricalLaw, make_grid,
                   sample_paths, pushforward_law)
from oracles import gaussian_expectation


def unit_law(atoms):
    a = np.asarray(atoms, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return EmpiricalLaw(atoms=a, weights=np.full(a.shape[0], 1.0 / a.shape[0]))


def test_registry_ids():
    for name in ("mean", "mean_sq", "sin_mean"):
        assert isinstance(make_functional(name), CylindricalFn)
    assert isinstance(make_functional("nested_gauss"), NestedFn)
    with pytest.raises(KeyError):
        make_functional("nope")


def test_bad_outer_derivative_rejected():
    phi = lambda x: x[:, 0]
    grad = lambda x: np.ones_like(x)
    with pytest.raises(ValueError):
        CylindricalFn(h=lambda u: u ** 2, h_prime=lambda u: 3.0 * u,
                      phi=phi, grad_phi=grad, dim=1)


def test_bad_gradient_rejected():
    with pytest.raises(ValueError):
        CylindricalFn(h=lambda u: u,
                      h_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                      phi=lambda x: np.sin(x[:, 0]),
                      grad_phi=lambda x: 2.0 * np.cos(x), dim=1)


def test_eval_cyl_closed_form():
    f = make_functional("mean_sq")
    l = unit_law([-1.0, 0.0, 1.0, 2.0])
    # (mean of atoms)^2 = 0.25
    assert np.isclose(eval_cyl(f, l), 0.25)


def test_lions_derivative_cylindrical_form():
    """For h(int phi dmu) the derivative at x is h'(...) * grad phi(x)."""
    f = make_functional("mean_sq")
    l = unit_law([0.0, 1.0, 3.0])
    got = lions_derivative(f, l, np.array([0.5, 2.0]))
    want = 2.0 * (4.0 / 3.0) * np.ones(2)
    assert np.allclose(got, want)

    g = make_functional("sin_mean")
    got = lions_derivative(g, l, np.array([0.0, 1.0]))
    assert np.allclose(got, np.cos([0.0, 1.0]))


def test_lions_derivative_takes_batches_of_points():
    """A 1-D functional takes (m,) or (m, 1) points and returns (m,); a 2-D
    one takes (m, 2) and returns (m, 2). Any other shape is refused."""
    f = make_functional("sin_mean")
    law = unit_law([0.0, 1.0, 3.0])
    xs = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(lions_derivative(f, law, xs),
                          lions_derivative(f, law, xs[:, None]))
    plane = CylindricalFn(h=lambda u: u,
                          h_prime=lambda u: np.ones_like(np.asarray(u, float)),
                          phi=lambda x: np.sin(x[:, 0] + x[:, 1]),
                          grad_phi=lambda x: np.cos(
                              x.sum(axis=1, keepdims=True)).repeat(2, axis=1),
                          dim=2, descriptor="plane")
    plane_law = unit_law(np.zeros((3, 2)))
    assert lions_derivative(plane, plane_law, np.zeros((4, 2))).shape == (4, 2)
    for bad_f, bad_law, pts in ((f, law, np.zeros((4, 2))), (f, law, 0.5),
                                (plane, plane_law, np.zeros(2)),
                                (plane, plane_law, np.zeros((4, 3)))):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            lions_derivative(bad_f, bad_law, pts)


def test_lions_derivative_matches_lifted_fd():
    """Gateaux difference of the lift along eta equals E[d_mu f . eta]."""
    grid = make_grid(4)
    pool = sample_paths(grid, 30000, seed=31)
    xi = pool.increments.sum(axis=1)
    dens = np.exp(0.25 * xi - 0.5 * 0.25 ** 2)
    f = make_functional("sin_mean")
    eta = np.cos(xi)
    fd = lifted_derivative_fd(lambda l: eval_cyl(f, l), dens, xi, eta,
                              step=1e-4)
    law = pushforward_law(dens, xi)
    pairing = law.integrate(lions_derivative(f, law, xi[:, None]) * eta)
    assert abs(fd - pairing) < 1e-6


def test_nested_eval_against_quadrature_oracle():
    """Nested functional on an exact Gaussian pool section.

    With xi1 = B_{1/2}, xi2 = B_1, the inner regression m(y) =
    E[psi(B_{1/2}) | B_1 = y] has closed Gaussian form; the quadrature oracle
    integrates it directly.
    """
    grid = make_grid(2)
    pool = sample_paths(grid, 200000, seed=37)
    x1 = pool.increments[:, 0]
    x2 = pool.increments.sum(axis=1)
    fn = make_functional("nested_gauss")
    got = eval_nested(fn, pushforward_law(np.ones(pool.n_samples),
                                          np.column_stack([x1, x2])),
                      bandwidth=0.08)

    # m(y) = E[psi(Z)], Z ~ N(y/2, 1/4) for psi Gaussian; outer expectation
    # over y ~ N(0,1), all by adaptive quadrature.
    def m(y):
        return gaussian_expectation(fn.psi, 0.5 * y, 0.25)

    want = gaussian_expectation(lambda y: fn.h(m(y)), 0.0, 1.0)
    assert abs(got - want) < 5e-3


def test_nested_route_rejects_a_one_dimensional_law():
    fn = make_functional("nested_gauss")
    law = unit_law([-1.0, 0.0, 0.5, 2.0])
    with pytest.raises(ValueError, match=r"2-D joint law of \(xi1, xi2\)"):
        eval_nested(fn, law, bandwidth=0.5)
    with pytest.raises(ValueError, match=r"2-D joint law of \(xi1, xi2\)"):
        nested_derivative_check(fn, law, [[0.0, 0.0]], bandwidth=0.5)


def test_nested_bad_derivative_rejected():
    with pytest.raises(ValueError):
        NestedFn(g=lambda u: u ** 2, g_prime=lambda u: u,
                 h=lambda u: u, h_prime=lambda u: np.ones_like(u),
                 psi=lambda x: x)
