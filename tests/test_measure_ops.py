import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (EmpiricalLaw, pushforward_law, wasserstein1,
                   weighted_expectation, kernel_regression,
                   conditional_expectation, make_grid, sample_paths)
from oracles import w1_lp, nw_naive, FROZEN


def law(atoms, weights=None):
    a = np.asarray(atoms, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if weights is None:
        weights = np.full(a.shape[0], 1.0 / a.shape[0])
    return EmpiricalLaw(atoms=a, weights=np.asarray(weights, dtype=float))


def test_law_validation():
    with pytest.raises(ValueError):
        law([0.0, 1.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        law([0.0, 1.0], [1.3, -0.3])
    with pytest.raises(ValueError):
        EmpiricalLaw(atoms=np.array([[np.inf]]), weights=np.array([1.0]))


def test_integrate_and_expectation():
    l = law([0.0, 2.0])
    assert l.integrate(np.array([1.0, 3.0])) == 2.0
    assert l.integrate(lambda a: a[:, 0] ** 2) == 2.0


def test_wasserstein_two_point_vs_middle():
    a = law([0.0, 2.0])
    b = law([1.0])
    assert np.isclose(wasserstein1(a, b), FROZEN["w1_two_point_vs_middle"])


def test_wasserstein_matches_lp_oracle_battery():
    """200 random small instances against the brute-force transport LP."""
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(200):
        na, nb = rng.integers(1, 6, size=2)
        a = rng.normal(size=na) * rng.uniform(0.5, 3.0)
        b = rng.normal(size=nb) * rng.uniform(0.5, 3.0)
        wa = rng.uniform(0.05, 1.0, size=na)
        wa /= wa.sum()
        wb = rng.uniform(0.05, 1.0, size=nb)
        wb /= wb.sum()
        got = wasserstein1(law(a, wa), law(b, wb))
        want = w1_lp(a, wa, b, wb)
        worst = max(worst, abs(got - want))
    assert worst < 1e-9, f"worst deviation from LP oracle {worst}"


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_wasserstein_metric_properties(xs, ys, shift):
    a, b = law(xs), law(ys)
    dab = wasserstein1(a, b)
    assert dab >= 0
    assert np.isclose(wasserstein1(b, a), dab, atol=1e-10)
    assert np.isclose(wasserstein1(a, a), 0.0, atol=1e-10)
    # translation invariance
    a2 = law(np.asarray(xs) + shift)
    b2 = law(np.asarray(ys) + shift)
    assert np.isclose(wasserstein1(a2, b2), dab, atol=1e-8)


@given(st.lists(st.floats(-20, 20), min_size=1, max_size=5),
       st.lists(st.floats(-20, 20), min_size=1, max_size=5),
       st.lists(st.floats(-20, 20), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_wasserstein_triangle(xs, ys, zs):
    a, b, c = law(xs), law(ys), law(zs)
    assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9


def test_pushforward_builds_normalized_law():
    grid = make_grid(4)
    pool = sample_paths(grid, 5000, seed=2)
    dens = np.exp(0.3 * pool.increments.sum(axis=1) - 0.045)
    xi = pool.increments.sum(axis=1)
    l = pushforward_law(dens, xi)
    assert np.isclose(l.weights.sum(), 1.0)
    assert l.n_atoms == 5000
    # reweighted mean of B_1 under the exponential shift is 0.3 * T
    assert abs(l.integrate(l.atoms_1d()) - 0.3) < 4 * 1.1 / np.sqrt(5000)


def test_pushforward_rejects_far_from_mean_one():
    grid = make_grid(4)
    pool = sample_paths(grid, 4000, seed=2)
    with pytest.raises(ValueError):
        pushforward_law(np.full(4000, 1.8), pool.increments.sum(axis=1))


def test_weighted_expectation_lognormal_frozen():
    grid = make_grid(6)
    pool = sample_paths(grid, 60000, seed=4)
    s = 0.7
    dens = np.exp(s * pool.increments.sum(axis=1) - 0.5 * s * s)
    got = weighted_expectation(dens, np.ones(60000))
    assert abs(got - FROZEN["lognormal_mean"]) < 0.02


@pytest.mark.parametrize("fn", [pushforward_law, weighted_expectation],
                         ids=["pushforward_law", "weighted_expectation"])
def test_unequal_lengths_are_rejected(fn):
    with pytest.raises(ValueError, match="one density value per"):
        fn(np.ones(5), np.zeros(4))
    with pytest.raises(ValueError, match="one density value per"):
        fn(np.ones(4), np.zeros(5))


def test_kernel_regression_matches_naive_loop():
    rng = np.random.default_rng(5)
    y = rng.normal(size=3000)
    x = np.sin(y) + 0.1 * rng.normal(size=3000)
    w = rng.uniform(0.5, 1.5, size=3000)
    pts = np.linspace(-1.5, 1.5, 9)
    got = kernel_regression(x, y, w, 0.3, pts)
    want = nw_naive(x, y, w, 0.3, pts)
    assert np.allclose(got, want, atol=2e-4)


def test_conditional_expectation_recovers_smooth_target():
    rng = np.random.default_rng(6)
    y = rng.normal(size=40000)
    x = np.tanh(y) + 0.05 * rng.normal(size=40000)
    got = conditional_expectation(x, y, np.ones(40000), bandwidth=0.15)
    inside = np.abs(y) < 1.5
    assert np.max(np.abs(got[inside] - np.tanh(y[inside]))) < 0.05

