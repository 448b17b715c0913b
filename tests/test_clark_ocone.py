import math

import numpy as np
import pytest

from wcalc import (make_grid, sample_paths, gaussian_smooth,
                   clark_ocone_decompose, clark_ocone_integrand,
                   reconstruction_error, run_check)
from wcalc import clark_ocone
from wcalc.numerics import gauss_hermite
from oracles import (assert_bitwise, decompose_per_path, gaussian_expectation,
                     tensor_nodes)


@pytest.fixture(scope="module")
def pool():
    return sample_paths(make_grid(8), 20000, seed=333)


# f and f' of the tanh-shaped endpoint density 1 + tanh(B_T) / 2
TANH = (lambda s: 1.0 + 0.5 * np.tanh(s), lambda s: 0.5 / np.cosh(s) ** 2)


def tanh_density(grid):
    """The tanh density as a one-array gaussian_smooth component, with its
    endpoint loading 1^T."""
    return (lambda x: (TANH[0](x.sum(axis=1)),)), np.ones((1, grid.n_steps))


@pytest.mark.parametrize("loading", [np.ones(3), np.ones((1, 4)),
                                     np.ones((1, 2)), [[1.0, np.nan, 0.0]],
                                     [[1.0, np.inf, 0.0]], np.empty((0, 3))])
def test_malformed_loadings_are_refused(loading):
    """A loading of the wrong shape or width, or a non-finite one, is
    refused by gaussian_smooth before the component is called, at a knot
    with intervals left and at the horizon."""
    grid = make_grid(3)
    calls = []
    for j in (1, 3):
        with pytest.raises(ValueError, match="loading must be"):
            gaussian_smooth(grid, grid.knots[j], np.zeros((2, j)),
                            _recording(calls), loading)
    assert calls == []


def test_gaussian_smooth_against_quadrature_oracle(pool):
    """Conditional expectation at an interior knot vs adaptive quadrature."""
    component, loading = tanh_density(pool.grid)
    t = pool.grid.knots[3]
    got, = gaussian_smooth(pool.grid, t, pool.increments[:64, :3], component,
                           loading)
    y = pool.increments[:64, :3].sum(axis=1)
    var = pool.grid.horizon - t
    want = [gaussian_expectation(lambda u: 1.0 + 0.5 * math.tanh(u), m, var)
            for m in y]
    assert np.allclose(got, want, atol=1e-10)


def test_gaussian_smooth_scalar_vs_tensor_route(pool):
    """The rank-1 route of the endpoint loading and the identity loading's
    tensor mesh integrate the same thing.

    Run on a short suffix (three remaining intervals) so the tensor route is
    exact too; the measured gap at order 32 sits far below the pinned bound.
    """
    grid = make_grid(5)
    p = sample_paths(grid, 512, seed=7)
    component = lambda x: (np.exp(0.4 * x.sum(axis=1) - 0.08),)
    t = grid.knots[2]
    a, = gaussian_smooth(grid, t, p.increments[:, :2], component,
                         np.ones((1, 5)), quad_order=32)
    b, = gaussian_smooth(grid, t, p.increments[:, :2], component, np.eye(5),
                         quad_order=32)
    assert np.max(np.abs(a - b)) < 1e-7


def test_gaussian_smooth_mc_fallback_agrees(pool):
    component, loading = tanh_density(pool.grid)
    t = pool.grid.knots[1]
    pre = pool.increments[:128, :1]
    exact, = gaussian_smooth(pool.grid, t, pre, component, loading)
    # the identity loading leaves rank 7, past the tensor cap
    mc, = gaussian_smooth(pool.grid, t, pre, component, np.eye(8),
                          mc_fallback=(4000, 99))
    assert np.max(np.abs(exact - mc)) < 0.05


def test_decompose_exponential_integrand_frozen(pool):
    """gamma for exp(s B_T - s^2 T/2) is the constant s, to quadrature
    accuracy; this is the closed form the whole extraction leans on."""
    s = 0.6
    T = pool.grid.horizon
    Z, M, gamma = clark_ocone_decompose(
        lambda u: np.exp(s * u - 0.5 * s * s * T),
        lambda u: s * np.exp(s * u - 0.5 * s * s * T), pool, quad_order=32)
    assert np.max(np.abs(gamma - s)) < 1e-8
    # M at the first knot is the unconditional mean, exactly one
    assert np.allclose(M[:, 0], 1.0, atol=1e-12)


def test_decompose_left_endpoint_measurability(pool):
    """Column i of Z and M reads only the first i increments, so shuffling
    the suffix across paths cannot move it; column 0 is unconditional.
    Knot i's table grid spans the positions at knot i alone, which the
    shuffle leaves in place, so the columns stay bit for bit."""
    Z, M, _ = clark_ocone_decompose(*TANH, pool, quad_order=24)
    assert np.ptp(M[:, 0]) == 0.0
    assert np.ptp(Z[:, 0]) == 0.0
    i = 3
    perm = np.random.default_rng(1).permutation(pool.n_samples)
    shuffled = pool.increments.copy()
    shuffled[:, i:] = shuffled[perm, i:]
    from wcalc.wiener_grid import _pool_from_increments
    p2 = _pool_from_increments(pool.grid, shuffled)
    Z2, M2, _ = clark_ocone_decompose(*TANH, p2, quad_order=24)
    assert_bitwise(M2[:, :i + 1], M[:, :i + 1])
    assert_bitwise(Z2[:, :i + 1], Z[:, :i + 1])


def test_linear_functional_reconstructs_exactly(pool):
    """For L = 1 + c B_T the integrand is the constant c and the defect is
    zero on the nose, at every grid size."""
    c = 0.25
    fn_prime = lambda s: np.full_like(np.asarray(s, dtype=float), c)
    Z = clark_ocone_integrand(fn_prime, pool, quad_order=16)
    vals = 1.0 + c * pool.increments.sum(axis=1)
    assert reconstruction_error(vals, Z, pool) < 1e-10


def test_defect_halves_per_grid_doubling():
    errs = []
    for n in (8, 16):
        g = make_grid(n)
        p = sample_paths(g, 30000, seed=900 + n)
        Z, _, _ = clark_ocone_decompose(*TANH, p, quad_order=32)
        vals = TANH[0](p.increments.sum(axis=1))
        errs.append(reconstruction_error(vals, Z, p))
    assert 1.2 < errs[0] / errs[1] < 1.8


def coupled_functional(n):
    """Non-scalar one-array component with a cross term, and the identity
    loading, so gaussian_smooth integrates over every remaining interval
    (tensor or Monte Carlo route)."""
    a = np.linspace(0.3, -0.4, n)

    def component(x):
        return (np.exp(x @ a) * (1.0 + 0.2 * np.sin(x[:, 1] * x[:, -1])),)

    return component, np.eye(n)


def per_row_tensor_mean(component, grid, j, prefix, order):
    """Oracle: the tensor mesh over the remaining intervals, summed row by
    row with no chunking and no shared knot-0 mean."""
    mesh, w = tensor_nodes(grid.steps[j:], order)
    out = np.empty(prefix.shape[0])
    for r, row in enumerate(prefix):
        args = np.hstack([np.tile(row, (mesh.shape[0], 1)), mesh])
        out[r] = component(args)[0] @ w
    return out


def test_tensor_route_integrates_knot_zero_once():
    grid = make_grid(4)
    component, loading = coupled_functional(4)
    m, order = 7, 8
    got, = gaussian_smooth(grid, 0.0, np.empty((m, 0)), component, loading,
                           quad_order=order)
    want = per_row_tensor_mean(component, grid, 0, np.empty((m, 0)), order)
    assert got.shape == (m,)
    assert np.ptp(got) == 0.0
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_tensor_route_chunking_does_not_move_the_result(monkeypatch):
    """A budget of eight rows per chunk splits ten rows 8 + 2; a budget
    below one row's mesh takes one row a chunk, never more. The identity
    loading projects onto every remaining interval, so it reproduces the
    axis-aligned oracle mesh to roundoff."""
    grid = make_grid(4)
    component, loading = coupled_functional(4)
    inc = sample_paths(grid, 10, seed=41).increments
    order = 6
    for j in range(4):
        t = grid.knots[j]
        q = order ** (4 - j)
        default, = gaussian_smooth(grid, t, inc[:, :j], component, loading,
                                   quad_order=order)
        # knot 0 integrates one row for all
        rows = 1 if j == 0 else 8
        for budget, most in ((8 * q, rows * q), (q - 1, q)):
            seen = []

            def sized(x):
                seen.append(len(x))
                return component(x)

            monkeypatch.setattr(clark_ocone, "_ROW_BUDGET", budget)
            chunked, = gaussian_smooth(grid, t, inc[:, :j], sized, loading,
                                       quad_order=order)
            monkeypatch.undo()
            assert max(seen) == most
            assert np.allclose(chunked, default, rtol=1e-14, atol=0.0)
        assert np.allclose(default, per_row_tensor_mean(
            component, grid, j, inc[:, :j], order), rtol=1e-14, atol=0.0)


def two_projection_integrand(n, polynomial):
    """Integrand reading only y1 = B(T/2) and y2 = B_T, the directions of
    the second-order battery's representation check, with its loading."""
    half = n // 2

    def fn(x):
        x = np.asarray(x, dtype=float)
        y1, y2 = x[:, :half].sum(axis=1), x.sum(axis=1)
        if polynomial:
            return 1.0 + y1 + 0.5 * y1 * y2 + 0.25 * y2 ** 3
        return np.exp(0.4 * y2) * np.cos(y1) * (1.0 + 0.3 * np.sin(y1 * y2))

    loading = np.vstack([np.ones(n), (np.arange(n) < half).astype(float)])
    return fn, loading


def test_duplicate_loading_rows_do_not_change_the_projection():
    """A stacked loading with a repeated row has the rank of the loading
    without it, and the Gauss-Hermite rule integrates the polynomial
    integrand exactly along either set of principal axes."""
    grid = make_grid(4)
    fn, loading = two_projection_integrand(4, polynomial=True)
    stacked = np.vstack([loading, loading[0], 2.0 * loading[1]])
    inc = sample_paths(grid, 6, seed=8).increments
    one = lambda x: (fn(x),)
    for j in range(4):
        t = grid.knots[j]
        plain, = gaussian_smooth(grid, t, inc[:, :j], one, loading,
                                 quad_order=4)
        dup, = gaussian_smooth(grid, t, inc[:, :j], one, stacked, quad_order=4)
        assert np.allclose(dup, plain, rtol=1e-13, atol=1e-13)


def test_rank_zero_loading_returns_the_integrand_at_the_prefix():
    """Past B(T/2) the integrand reading only B(T/2) is already revealed:
    the one-node rank-0 mesh returns it bitwise, between knots and at the
    horizon, where no interval remains."""
    grid = make_grid(4)
    fn = lambda x: (np.exp(np.asarray(x, dtype=float)[:, :2].sum(axis=1)),)
    inc = sample_paths(grid, 5, seed=9).increments
    loading = np.array([[1.0, 1.0, 0.0, 0.0]])
    for j, load in ((2, loading), (3, loading), (4, loading), (4, np.eye(4))):
        got, = gaussian_smooth(grid, grid.knots[j], inc[:, :j], fn, load)
        assert_bitwise(got, np.exp(inc[:, :2].sum(axis=1)))


def test_a_tuple_component_smooths_like_separate_calls(monkeypatch):
    """Arrays returned together from one mesh are, bitwise, what one call
    per array gives: at knot 0 (integrated once), at a middle knot, at the
    last knot where the loading has rank 0, across chunk boundaries, and
    on the Monte Carlo route with the same draws. A component that returns
    one array, not a tuple, is refused."""
    grid = make_grid(4)
    inc = sample_paths(grid, 10, seed=43).increments
    order = 5
    fn, loading = two_projection_integrand(4, polynomial=False)
    both = lambda x: (fn(x), fn(x) ** 2)
    head = lambda x: np.exp(np.asarray(x, dtype=float)[:, :2].sum(axis=1))
    head_pair = lambda x: (head(x), np.cos(np.log(head(x))))
    cases = [(0, both, loading, None), (2, both, loading, None),
             (3, head_pair, [[1.0, 1.0, 0.0, 0.0]], None),
             # rank 2 at knot 1: 25 nodes a row, chunks of 8 + 2 rows
             (1, both, loading, 8 * order ** 2)]
    for j, pair, load, budget in cases:
        if budget is not None:
            monkeypatch.setattr(clark_ocone, "_ROW_BUDGET", budget)
        got = gaussian_smooth(grid, grid.knots[j], inc[:, :j], pair, load,
                              quad_order=order)
        assert isinstance(got, tuple) and len(got) == 2
        for k in range(2):
            want, = gaussian_smooth(grid, grid.knots[j], inc[:, :j],
                                    lambda x: (pair(x)[k],), load,
                                    quad_order=order)
            assert_bitwise(got[k], want)
    monkeypatch.undo()

    with pytest.raises(TypeError, match="tuple"):
        gaussian_smooth(grid, grid.knots[1], inc[:, :1], fn, loading)

    grid6 = make_grid(6)
    fn6, _ = two_projection_integrand(6, polynomial=False)
    pre = sample_paths(grid6, 6, seed=44).increments[:, :1]
    t, every, mc = grid6.knots[1], np.eye(6), (20, 5)
    got = gaussian_smooth(grid6, t, pre, lambda x: (fn6(x), 2.0 * fn6(x)),
                          every, mc_fallback=mc)
    assert_bitwise(got[0], gaussian_smooth(grid6, t, pre, lambda x: (fn6(x),),
                                           every, mc_fallback=mc)[0])
    assert_bitwise(got[1], gaussian_smooth(
        grid6, t, pre, lambda x: (2.0 * fn6(x),), every, mc_fallback=mc)[0])


def test_low_rank_loading_takes_quadrature_on_a_fine_grid():
    """Five intervals remain at knot 1 of a six-step grid: beyond the tensor
    cap without a loading, rank 2 with one. The quadrature agrees with the
    Monte Carlo route over all five increments to within 4 standard
    errors, estimated from the same draws."""
    grid = make_grid(6)
    fn, loading = two_projection_integrand(6, polynomial=False)
    pre = sample_paths(grid, 6, seed=12).increments[:, :1]
    t = grid.knots[1]
    one = lambda x: (fn(x),)
    with pytest.raises(ValueError, match="rank 5"):
        gaussian_smooth(grid, t, pre, one, np.eye(6), quad_order=12)
    quad, = gaussian_smooth(grid, t, pre, one, loading, quad_order=12)
    draws = 4000
    mean, second = gaussian_smooth(grid, t, pre, lambda x: (fn(x), fn(x) ** 2),
                                   np.eye(6), mc_fallback=(draws, 21))
    se = np.sqrt((second - mean ** 2) / (draws - 1))
    assert np.all(np.abs(quad - mean) <= 4.0 * se)


def test_mc_route_keeps_per_row_draws_at_knot_zero():
    """The knot-0 shortcut belongs to quadrature; Monte Carlo rows stay
    independent estimates of the same mean."""
    grid = make_grid(6)
    component, loading = coupled_functional(6)
    got, = gaussian_smooth(grid, 0.0, np.empty((5, 0)), component, loading,
                           mc_fallback=(50, 3))
    assert np.ptp(got) > 0.0


@pytest.mark.parametrize("n_draws", [0, -2])
def test_gaussian_smooth_rejects_nonpositive_draw_count(n_draws):
    grid = make_grid(6)
    component, loading = coupled_functional(6)
    with pytest.raises(ValueError, match="n_draws"):
        gaussian_smooth(grid, 0.0, np.empty((5, 0)), component, loading,
                        mc_fallback=(n_draws, 3))


def test_decompose_rejects_zero_quadrature_order(pool):
    with pytest.raises(ValueError, match="quad_order"):
        clark_ocone_decompose(*TANH, pool, quad_order=0)


_SIG = 0.4
_EXP = lambda u: np.exp(_SIG * u - 0.5 * _SIG * _SIG)
# f, f', and bounds on |f''| and on the third derivative of each endpoint
# density; None where the bound is relative (the exponential, see below)
ENDPOINT_DENSITIES = {
    "exp": (_EXP, lambda u: _SIG * _EXP(u), None, None),
    "tanh": (lambda s: 1.0 + 0.5 * np.tanh(s), lambda s: 0.5 / np.cosh(s) ** 2,
             2.0 / (3.0 * np.sqrt(3.0)), 1.0),
}


@pytest.mark.parametrize("name", sorted(ENDPOINT_DENSITIES))
def test_decompose_reads_tables_within_the_interpolation_bound(name):
    """Z and M read off the knot tables, against the per-path oracle that
    smooths at every path's own position (decompose_per_path).

    Both apply the same q-point Gauss-Hermite rule Q(y) = sum_k w_k
    f(y + s x_k), s = sqrt(T - t_i): the oracle at the path's position y,
    the table at the grid nodes. So away from roundoff the table route
    returns the linear interpolant of Q between the nodes around y, which
    is off by at most h**2 / 8 * max |Q''| over the cell, h the grid step.
    The weights are positive and sum to one, so |Q''| is at most the
    largest |f''| for M, and the largest third derivative of f for Z.

    tanh: f = 1 + tanh/2 has |f''| = |tanh sech^2| <= 2 / (3 sqrt 3), and
    its third derivative, the second of f' = sech^2 / 2, is 2 S - 3 S^2
    with S = sech^2 in (0, 1], at most 1 in size.

    exp: f = exp(sig u - sig^2 / 2) has Q'' = sig^2 Q, and Q grows by at
    most exp(sig h) across a cell, so the bound is relative:
    sig^2 h^2 / 8 * exp(sig h) * Q(y), for Z = sig M alike.

    Roundoff: each table entry and each oracle value is a sum of q
    positive terms, within q u of its exact value (u the unit roundoff),
    and the read adds at most 4 u, so (2 q + 8) u times the largest value
    on the cell covers both routes. gamma = Z / M of the exponential is
    sig on both routes: Z's terms are sig times M's, each rounded once, so
    the ratio is off by at most (2 q + 1) u from the sums, 8 u from the two
    reads and u from the division; (2 q + 16) u sig covers it.

    Each knot has its own grid, so h is taken per column; knot 0's grid
    has a node at y = 0, where every path starts. The integrand-only entry
    returns the same Z.
    """
    f, f_prime, d2, d3 = ENDPOINT_DENSITIES[name]
    q, u = 32, np.finfo(float).eps / 2
    p = sample_paths(make_grid(16), 3000, seed=41)
    Z, M, gamma = clark_ocone_decompose(f, f_prime, p, quad_order=q)
    Z0, M0, _ = decompose_per_path(f, f_prime, p, quad_order=q)
    h = np.array([np.diff(clark_ocone._table_y_grid(y)[:2])[0]
                  for y in p.cumulative[:, :-1].T])
    assert np.all(h < 0.01)
    roundoff = (2 * q + 8) * u
    if d2 is None:
        rel = (_SIG ** 2 * h * h / 8.0 + roundoff) * np.exp(_SIG * h)
        assert np.all(np.abs(M - M0) <= rel * M0)
        assert np.all(np.abs(Z - Z0) <= rel * Z0)
        assert np.max(np.abs(gamma - _SIG)) <= (2 * q + 16) * u * _SIG
    else:
        assert np.all(np.abs(M - M0) <= h * h / 8.0 * d2 + roundoff * 1.5)
        assert np.all(np.abs(Z - Z0) <= h * h / 8.0 * d3 + roundoff * 0.5)
    assert_bitwise(clark_ocone_integrand(f_prime, p, quad_order=q), Z)


def test_integrand_rejects_what_decompose_rejects(pool):
    """A bad quadrature order is refused before f' is evaluated."""
    calls = []
    with pytest.raises(ValueError, match="quad_order"):
        clark_ocone_integrand(_recording(calls), pool, quad_order=0)
    assert calls == []


def _recording(calls):
    def fn(U):
        calls.append(U.shape)
        return (U,)
    return fn


_GRID = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize("knots,quad_order,points,match", [
    ([0.0, 0.5], 0, [_GRID, _GRID], "quad_order"),
    ([0.0, 0.5], -3, [_GRID, _GRID], "quad_order"),
    ([0.0, 1.0], 8, [_GRID, _GRID], "horizon"),
    ([0.0, 1.5], 8, [_GRID, _GRID], "horizon"),
    ([np.nan], 8, [_GRID], "horizon"),
    ([0.0], 8, [[0.0, np.nan, 0.2]], "finite"),
    ([0.0], 8, [[0.0, 0.1, np.inf]], "finite"),
    ([0.0, 0.5], 8, [_GRID, [0.0, -np.inf, 0.2, 0.3, 0.4]], "finite"),
    ([0.0, 0.5], 8, [_GRID], "one row per knot"),
    ([0.0], 8, [_GRID, _GRID], "one row per knot"),
    ([0.0], 8, _GRID, "one row per knot"),
    ([0.0, 0.5], 8, np.zeros((2, 3, 1)), "one row per knot"),
])
def test_knot_tables_refuse_bad_input_before_any_evaluation(
        knots, quad_order, points, match):
    calls = []
    with pytest.raises(ValueError, match=match):
        clark_ocone.knot_tables(_recording(calls), knots, 1.0, quad_order,
                                np.asarray(points, dtype=float))
    assert calls == []


def test_knot_tables_smooth_each_array_on_one_argument():
    """Row i of each table is the Gauss-Hermite mean of f(y + sqrt(T - t_i)
    X) at every point of row i, for every array fn returns from the same
    argument; rows need not be uniform, sorted or alike."""
    x, w = gauss_hermite(12)
    y_grid = np.linspace(-2.0, 2.0, 9)
    points = np.stack([y_grid, y_grid[::-1] ** 3, y_grid + 0.1])
    knots = [0.0, 0.25, 0.75]
    a, b = clark_ocone.knot_tables(lambda U: (np.sin(U), U ** 2), knots, 1.0,
                                   12, points)
    assert a.shape == b.shape == (3, 9)
    for i, t in enumerate(knots):
        var = 1.0 - t
        y = points[i]
        assert np.allclose(b[i], y ** 2 + var, rtol=1e-13, atol=1e-13)
        assert np.allclose(a[i], np.sin(y) * np.exp(-0.5 * var),
                           rtol=1e-12, atol=1e-13)
    one, = clark_ocone.knot_tables(lambda U: (np.cos(U),), [0.5], 1.0, 12,
                                   y_grid[None, :])
    assert one.shape == (1, 9)
    assert np.allclose(one[0], [np.cos(y + np.sqrt(0.5) * x) @ w
                                for y in y_grid], rtol=0.0, atol=1e-15)


_PATH_READS = clark_ocone._path_reads


def _right_knot_reads(fns, pool, quad_order):
    """Mutant of the table reads: Z (read for fns[0] = f') at interval i
    reads knot i + 1's table at the path's position at knot i + 1, and at
    the last interval f' at the endpoint itself; M stays at knot i."""
    Z, *rest = _PATH_READS(fns, pool, quad_order)
    end = fns[0](pool.cumulative[:, -1])
    return [np.column_stack([Z[:, 1:], end])] + rest


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_clark_battery_catches_a_right_endpoint_integrand(monkeypatch, seed):
    """Power: Z shifted off its left endpoint fails every record of the
    clark-ocone battery at reference size."""
    monkeypatch.setattr(clark_ocone, "_path_reads", _right_knot_reads)
    records = run_check("clark-ocone", n_paths=20_000, n_steps=16, seed=seed)
    assert len(records) == 4
    assert not any(r.passed for r in records), [r.name for r in records
                                                if r.passed]
