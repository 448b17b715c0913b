import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (make_grid, sample_paths, exponential_curve,
                   mixture_curve, density_derivative_profile,
                   recenter_to_base, recenter_to_density, antiderivative_at,
                   pushforward_law, make_functional, weighted_expectation,
                   brownian_at, chain_rule_lhs_fd, chain_rule_rhs,
                   grad_phi_antiderivative, CylindricalFn, renormalize,
                   nested_derivative_check, second_order_check_multidim)
from wcalc.checks import (_CHAIN_LAMS, _FD_STEP, _curve_battery,
                          _nested_battery, _plane_functionals, _shard_rows)
from oracles import assert_bitwise, density_derivative_profile_per_pass


@pytest.fixture(scope="module")
def pool16():
    return sample_paths(make_grid(16), 20000, seed=71)


def test_exponential_curve_is_a_density(pool16):
    curve = exponential_curve(pool16.grid, 0.0, 1.0)
    vals = curve.eval(0.4, pool16)
    assert np.all(vals > 0)
    pair = curve.eval_pair(0.4, pool16)
    assert_bitwise(pair[0], vals)
    # renormalized: mean one, and a derivative of mean zero
    assert abs(vals.mean() - 1.0) < 1e-12 and abs(pair[1].mean()) < 1e-12
    assert abs(weighted_expectation(np.ones(len(vals)), vals) - 1.0) < 0.02


@pytest.mark.parametrize("cid", ["exp", "mix"])
def test_row_read_shard_density_is_the_subset_density_bitwise(pool16, cid):
    """Rows of one full-pool evaluation, renormalized by their own mean, are
    the shard's density and derivative as the curve gives them on the
    shard's own paths."""
    curve = dict(_curve_battery(pool16.grid))[cid]
    for lam in (0.2, 0.45 + 1e-3):
        raw, raw_deriv = curve.raw_pair(lam, pool16.increments)
        for r in _shard_rows(pool16.n_samples):
            shard = pool16.subset(r)
            assert_bitwise(renormalize(raw[r]), curve.eval(lam, shard))
            for got, want in zip(renormalize(raw[r], raw_deriv[r]),
                                 curve.eval_pair(lam, shard)):
                assert_bitwise(got, want)


def test_mixture_curve_interpolates(pool16):
    def other(u):
        e = np.exp(0.5 * u - 0.125)
        return e, 0.5 * e

    curve = mixture_curve(lambda u: (1.0, 0.0), other)
    inc = pool16.increments
    v0, _ = curve.raw_pair(0.0, inc)
    v1, _ = curve.raw_pair(1.0, inc)
    vh, dh = curve.raw_pair(0.5, inc)
    assert np.allclose(vh, 0.5 * v0 + 0.5 * v1)
    assert np.allclose(dh, v1 - v0)
    # normalized derivative agrees with a central difference of eval
    h = 1e-5
    fd = (curve.eval(0.3 + h, pool16) - curve.eval(0.3 - h, pool16)) / (2 * h)
    assert np.allclose(curve.eval_pair(0.3, pool16)[1], fd, atol=1e-7)
    # the u-derivative agrees with a central difference in the endpoint
    u = np.linspace(-2.0, 2.0, 9)
    fd_u = (curve.triple(0.3, u + h)[0] - curve.triple(0.3, u - h)[0]) / (2 * h)
    assert np.allclose(curve.triple(0.3, u)[2], fd_u, atol=1e-8)


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_battery_curves_keep_their_endpoint_formulas_bitwise(seed):
    """The battery's curves read u = B_T as the row sum of the increments
    and give, bit for bit, exp(lam u - lam^2 T / 2) with its
    lambda-derivative and (1 - lam) + lam e with e - 1, e = exp(0.8 u -
    0.32 T). A read of u that rounds differently (say the last column of
    the cumulative sum) would move every chain-rule record."""
    pool = sample_paths(make_grid(16), 2000, seed=seed)
    inc = pool.increments
    u = inc.sum(axis=1)
    T = pool.grid.horizon
    curves = dict(_curve_battery(pool.grid))
    for lam in [lam + d for lam in _CHAIN_LAMS
                for d in (-_FD_STEP, 0.0, _FD_STEP)]:
        v = np.exp(lam * u - 0.5 * lam * lam * T)
        e = np.exp(0.8 * u - 0.32 * T)
        assert_bitwise(curves["exp"].raw_pair(lam, inc),
                       (v, v * (u - lam * T)))
        assert_bitwise(curves["mix"].raw_pair(lam, inc),
                       ((1.0 - lam) * np.ones_like(u) + lam * e,
                        e - np.ones_like(u)))


def test_profile_is_centered_antiderivative(pool16):
    """The derivative profile integrates the Lions derivative and has zero
    density-weighted mean by construction."""
    f = make_functional("mean_sq")
    xi = pool16.increments.sum(axis=1)
    dens = np.exp(0.3 * xi - 0.045)
    law = pushforward_law(dens, xi)
    prof = density_derivative_profile(f, law, xi, f.phi(law.atoms))
    mean = weighted_expectation(dens, prof)
    assert abs(mean) < 1e-10
    # slope recovers the derivative: finite difference on the profile grid
    probes = np.array([-0.5, 0.0, 0.7])
    h = 1e-4
    up = density_derivative_profile(f, law, probes + h, f.phi(law.atoms))
    dn = density_derivative_profile(f, law, probes - h, f.phi(law.atoms))
    assert np.allclose((up - dn) / (2 * h), f.lions_derivative(law, probes),
                       atol=1e-6)


@pytest.mark.parametrize("name", ["mean_sq", "sin_mean"])
def test_profile_reads_the_outer_slope_once_bitwise(pool16, name):
    """Integrating the law's slope times grad phi gives, bitwise, the
    profile that re-read the slope through lions_derivative at every pass."""
    f = make_functional(name)
    xi = pool16.increments.sum(axis=1)
    law = pushforward_law(np.exp(0.3 * xi - 0.045), xi)
    x_grid = np.linspace(-2.0, 2.0, 41)
    assert_bitwise(density_derivative_profile(f, law, x_grid,
                                              f.phi(law.atoms)),
                   density_derivative_profile_per_pass(f, law, x_grid))


@pytest.mark.parametrize("h_step", [0.0, np.nan, -1e-3, np.inf])
def test_chain_rule_lhs_rejects_a_bad_step(pool16, h_step):
    curve = exponential_curve(pool16.grid, 0.0, 1.0)
    law = pushforward_law(curve.eval(0.45, pool16), brownian_at(pool16, 1.0))
    f = make_functional("mean")
    phi = f.phi(law.atoms)
    with pytest.raises(ValueError, match="h_step"):
        chain_rule_lhs_fd(f, law, law, phi, h_step)


def test_chain_rule_rhs_rejects_a_planar_functional(pool16):
    f = CylindricalFn(h=lambda u: u, h_prime=lambda u: np.ones_like(u),
                      phi=lambda x: x[:, 0] * x[:, 1],
                      grad_phi=lambda x: x[:, ::-1].copy(), dim=2)
    curve = exponential_curve(pool16.grid, 0.0, 1.0)
    dens, deriv = curve.eval_pair(0.45, pool16)
    xi = brownian_at(pool16, 1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        grad_phi_antiderivative(f, xi)
    for x in (xi, np.column_stack([xi, xi])):
        law = pushforward_law(dens, x)
        with pytest.raises(ValueError, match="one-dimensional"):
            chain_rule_rhs(f, law, deriv, xi, xi)


def test_nested_check_rejects_a_one_dimensional_law(pool16):
    law = pushforward_law(np.ones(pool16.n_samples), brownian_at(pool16, 1.0))
    with pytest.raises(ValueError, match="2-D joint law of \\(xi1, xi2\\)"):
        nested_derivative_check(_nested_battery(0.3)[0][1], law,
                                [[0.0, 0.0]])


def test_plane_checks_take_a_batch_of_plane_points(pool16):
    """The planar checks take (m, 2) points only: a single point or a
    column of scalars is refused with a ValueError."""
    law = pushforward_law(np.ones(pool16.n_samples), np.column_stack(
        [brownian_at(pool16, 0.5), brownian_at(pool16, 1.0)]))
    with pytest.raises(ValueError, match=r"need \(m, 2\)"):
        nested_derivative_check(_nested_battery(0.3)[0][1], law,
                                [0.0, 0.0])
    f = _plane_functionals()[0]
    for pts in (np.zeros(2), np.zeros(5), np.zeros((5, 3))):
        with pytest.raises(ValueError, match="does not match the functional"):
            second_order_check_multidim(f, law, pts, 1e-3)


def test_antiderivative_at_vs_quadrature():
    xs = np.array([-1.0, 0.3, 2.0])
    got = antiderivative_at(lambda y: np.exp(-y ** 2), xs)
    from scipy import integrate
    want = [integrate.quad(lambda y: np.exp(-y ** 2), 0.0, float(x))[0]
            for x in xs]
    assert np.allclose(got, want, atol=1e-8)


# Recentering battery: 100 random instances each, seeded and exhaustive
# rather than sampled, because the count itself is part of the contract.

def _random_instance(rng):
    n = int(rng.integers(10, 200))
    steps = int(rng.integers(1, 6))
    pool = sample_paths(make_grid(steps), n, seed=int(rng.integers(1 << 30)))
    vals = rng.normal(size=n) * rng.uniform(0.1, 5.0)
    dens = np.exp(rng.uniform(-0.5, 0.5) * pool.increments.sum(axis=1))
    dens /= weighted_expectation(np.ones(n), dens)
    return vals, dens


def test_recenter_to_base_battery():
    rng = np.random.default_rng(909)
    for _ in range(100):
        vals, _ = _random_instance(rng)
        c = recenter_to_base(vals)
        assert abs(c.mean()) < 1e-9 * (1 + np.abs(vals).max())
        # round trip: recentering is idempotent and shift-invariant
        assert np.allclose(recenter_to_base(c), c, atol=1e-12)
        assert np.allclose(recenter_to_base(vals + 3.7), c, atol=1e-9)


def test_recenter_to_density_battery():
    rng = np.random.default_rng(910)
    for _ in range(100):
        vals, dens = _random_instance(rng)
        c = recenter_to_density(vals, dens)
        w = dens / dens.sum()
        assert abs(np.dot(w, c)) < 1e-9 * (1 + np.abs(vals).max())
        assert np.allclose(recenter_to_density(c, dens), c, atol=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_recenter_shift_property(seed):
    rng = np.random.default_rng(seed)
    vals, dens = _random_instance(rng)
    shift = float(rng.normal()) * 10.0
    a = recenter_to_density(vals + shift, dens)
    b = recenter_to_density(vals, dens)
    assert np.allclose(a, b, atol=1e-8 * (1 + abs(shift)))
