import numpy as np
import pytest

from wcalc import (CylindricalFn, NestedFn, checks, make_functional,
                   lifted_derivative_fd, nested_derivative_check,
                   EmpiricalLaw, make_grid, sample_paths, pushforward_law)
from oracles import gaussian_expectation


def unit_law(atoms):
    a = np.asarray(atoms, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return EmpiricalLaw(atoms=a, weights=np.full(a.shape[0], 1.0 / a.shape[0]))


def nested_gauss(bandwidth):
    return dict(checks._nested_battery(bandwidth))["nested_gauss"]


def test_registry_ids():
    """The registry holds the cylindrical built-ins; the nested ones are
    built with their regression bandwidth by the lemma34 battery."""
    for name in ("mean", "mean_sq", "sin_mean"):
        assert isinstance(make_functional(name), CylindricalFn)
    for _, fn in checks._nested_battery(0.3):
        assert isinstance(fn, NestedFn) and fn.bandwidth == 0.3
    for name in ("nested_gauss", "nope"):
        with pytest.raises(KeyError):
            make_functional(name)


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


def test_cylindrical_value_closed_form():
    f = make_functional("mean_sq")
    l = unit_law([-1.0, 0.0, 1.0, 2.0])
    # (mean of atoms)^2 = 0.25
    assert np.isclose(f.value(l), 0.25)


def test_lions_derivative_cylindrical_form():
    """For h(int phi dmu) the derivative at x is h'(...) * grad phi(x)."""
    f = make_functional("mean_sq")
    l = unit_law([0.0, 1.0, 3.0])
    got = f.lions_derivative(l, np.array([0.5, 2.0]))
    want = 2.0 * (4.0 / 3.0) * np.ones(2)
    assert np.allclose(got, want)

    g = make_functional("sin_mean")
    got = g.lions_derivative(l, np.array([0.0, 1.0]))
    assert np.allclose(got, np.cos([0.0, 1.0]))


def test_lions_derivative_takes_batches_of_points():
    """A 1-D functional takes (m,) or (m, 1) points and returns (m,); a 2-D
    one takes (m, 2) and returns (m, 2). Any other shape is refused."""
    f = make_functional("sin_mean")
    law = unit_law([0.0, 1.0, 3.0])
    xs = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(f.lions_derivative(law, xs),
                          f.lions_derivative(law, xs[:, None]))
    plane = CylindricalFn(h=lambda u: u,
                          h_prime=lambda u: np.ones_like(np.asarray(u, float)),
                          phi=lambda x: np.sin(x[:, 0] + x[:, 1]),
                          grad_phi=lambda x: np.cos(
                              x.sum(axis=1, keepdims=True)).repeat(2, axis=1),
                          dim=2, descriptor="plane")
    plane_law = unit_law(np.zeros((3, 2)))
    assert plane.lions_derivative(plane_law, np.zeros((4, 2))).shape == (4, 2)
    for bad_f, bad_law, pts in ((f, law, np.zeros((4, 2))), (f, law, 0.5),
                                (plane, plane_law, np.zeros(2)),
                                (plane, plane_law, np.zeros((4, 3)))):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            bad_f.lions_derivative(bad_law, pts)


def test_lions_derivative_matches_lifted_fd():
    """Gateaux difference of the lift along eta equals E[d_mu f . eta]."""
    grid = make_grid(4)
    pool = sample_paths(grid, 30000, seed=31)
    xi = pool.increments.sum(axis=1)
    dens = np.exp(0.25 * xi - 0.5 * 0.25 ** 2)
    f = make_functional("sin_mean")
    eta = np.cos(xi)
    fd = lifted_derivative_fd(f, dens, xi, eta, step=1e-4)
    law = pushforward_law(dens, xi)
    pairing = law.integrate(f.lions_derivative(law, xi[:, None]) * eta)
    assert abs(fd - pairing) < 1e-6


@pytest.mark.parametrize("step", [np.nan, np.inf, -1e-3, 0.0, 1e-12])
def test_lifted_fd_refuses_a_bad_step_by_name(step):
    """A step that is not finite or lies below the floor is refused with a
    message naming it, before any law is built."""
    xi = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match=f"step must be finite and at least "
                                         f"1e-10, got {step}"):
        lifted_derivative_fd(make_functional("mean"), np.ones(5), xi,
                             np.ones(5), step=step)


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
    fn = nested_gauss(0.08)
    got = fn.value(pushforward_law(np.ones(pool.n_samples),
                                   np.column_stack([x1, x2])))

    # m(y) = E[psi(Z)], Z ~ N(y/2, 1/4) for psi Gaussian; outer expectation
    # over y ~ N(0,1), all by adaptive quadrature.
    def m(y):
        return gaussian_expectation(fn.psi, 0.5 * y, 0.25)

    want = gaussian_expectation(lambda y: fn.h(m(y)), 0.0, 1.0)
    assert abs(got - want) < 5e-3


def test_nested_route_rejects_a_one_dimensional_law():
    fn = nested_gauss(0.5)
    law = unit_law([-1.0, 0.0, 0.5, 2.0])
    with pytest.raises(ValueError, match=r"2-D joint law of \(xi1, xi2\)"):
        fn.value(law)
    with pytest.raises(ValueError, match=r"2-D joint law of \(xi1, xi2\)"):
        nested_derivative_check(fn, law, [[0.0, 0.0]])


def test_nested_bad_derivative_rejected():
    with pytest.raises(ValueError):
        NestedFn(g=lambda u: u ** 2, g_prime=lambda u: u,
                 h=lambda u: u, h_prime=lambda u: np.ones_like(u),
                 psi=lambda x: x, bandwidth=0.5)
