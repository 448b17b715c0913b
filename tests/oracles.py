"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written against a different code path than the
package (LP instead of merged CDFs, adaptive quad instead of Gauss-Hermite,
plain Python loops instead of vectorized kernels) so that agreement between
the two routes is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, stats

from wcalc import (antiderivative_at, brownian_at, checks,
                   clark_ocone_decompose, conditional_expectation,
                   density_deriv, density_derivative_profile,
                   doleans_exponential, gaussian_smooth,
                   grad_phi_antiderivative, kernel_regression,
                   make_functional, make_grid, pushforward_law, sample_paths,
                   shift_backward, shift_forward, weighted_expectation)
from wcalc.approx_pipeline import _CHECK_PATHS
from wcalc.checks import (_CHAIN_LAMS, _CLOSED_FORM, _FD_BIAS_CHAIN,
                          _FD_STEP, _N_SHARDS, _curve_battery,
                          _girsanov_observables, _girsanov_processes,
                          _nested_battery, _rec, _shard_rows, _shard_se)
from wcalc.numerics import mean_and_se
from wcalc.numerics import (_segment_integrals, gauss_hermite, gauss_legendre,
                            radial_cutoff, smoothstep)


def w1_lp(atoms_a, weights_a, atoms_b, weights_b) -> float:
    """Brute-force 1-D optimal transport with cost |x-y| as a linear program.

    min sum_ij |a_i - b_j| pi_ij  s.t.  pi >= 0, row sums = w_a, col sums = w_b.
    Only meant for tiny instances (<= 5 atoms per side).
    """
    a = np.asarray(atoms_a, dtype=float).ravel()
    b = np.asarray(atoms_b, dtype=float).ravel()
    wa = np.asarray(weights_a, dtype=float)
    wb = np.asarray(weights_b, dtype=float)
    if not (np.isclose(wa.sum(), 1.0) and np.isclose(wb.sum(), 1.0)):
        raise ValueError("oracle expects probability weights")
    na, nb = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    # equality constraints: na row-sum rows + nb col-sum rows
    A_eq = np.zeros((na + nb, na * nb))
    for i in range(na):
        A_eq[i, i * nb:(i + 1) * nb] = 1.0
    for j in range(nb):
        A_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([wa, wb])
    res = optimize.linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                           method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def gaussian_expectation(fn, mean: float, var: float, tol: float = 1e-11) -> float:
    """E[fn(X)] for X ~ N(mean, var) by adaptive quadrature (not Gauss-Hermite)."""
    sd = float(np.sqrt(var))
    val, _ = integrate.quad(lambda z: fn(mean + sd * z) * stats.norm.pdf(z),
                            -12.0, 12.0, epsabs=tol, epsrel=tol, limit=200)
    return float(val)


def nw_naive(x_values, y_values, weights, bandwidth, eval_points):
    """Plain O(n*m) Nadaraya-Watson with a Gaussian kernel (loop form)."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    out = np.empty(len(eval_points))
    for j, p in enumerate(np.asarray(eval_points, dtype=float)):
        k = w * np.exp(-0.5 * ((p - y) / bandwidth) ** 2)
        out[j] = np.dot(k, x) / k.sum()
    return out


def kde_naive(atoms, weights, bandwidth, grid):
    """Plain weighted Gaussian KDE evaluated on a grid (loop form)."""
    a = np.asarray(atoms, dtype=float).ravel()
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    g = np.asarray(grid, dtype=float)
    out = np.zeros_like(g)
    for ai, wi in zip(a, w):
        out += wi * np.exp(-0.5 * ((g - ai) / bandwidth) ** 2)
    return out / (bandwidth * np.sqrt(2.0 * np.pi))


def doleans_naive(increments, dts, gamma_cols):
    """Per-path Doleans-Dade exponential at the horizon, plain product loop.

    gamma_cols: array [n_paths, n_steps] of integrand values per interval.
    """
    inc = np.asarray(increments, dtype=float)
    out = np.ones(inc.shape[0])
    for p in range(inc.shape[0]):
        acc = 0.0
        for i in range(inc.shape[1]):
            g = gamma_cols[p, i]
            acc += g * inc[p, i] - 0.5 * g * g * dts[i]
        out[p] = np.exp(acc)
    return out


def log_exponential_table(grid, increments, gamma):
    """log E_t at every knot: cumulative gamma_i B(D_i) - 0.5 gamma_i^2 dt_i."""
    if gamma.grid.n_steps != grid.n_steps:
        raise ValueError("integrand grid does not match the path grid")
    inc = np.asarray(increments, dtype=float)
    dts = grid.steps
    out = np.zeros((inc.shape[0], grid.n_steps + 1))
    for i in range(grid.n_steps):
        g = gamma.column(i, inc[:, :i])
        out[:, i + 1] = out[:, i] + g * inc[:, i] - 0.5 * g * g * dts[i]
    return out


def doleans_exponential_at(pool, gamma, t):
    """Per-path exponential martingale at knot t, one knot per call: the
    whole log table is rebuilt and only column t is exponentiated (the form
    before wcalc.doleans_exponential returned every knot at once)."""
    j = pool.grid.knot_index(t)
    logs = log_exponential_table(pool.grid, pool.increments, gamma)
    return np.exp(logs[:, j])


def read_table_interp(table, grids, b_left):
    """Per-knot y-tables, row j made on grids[j], read along the paths by
    np.interp, one binary search per table and knot (the reader before
    uniform_interp)."""
    out = np.empty((b_left.shape[0], table.shape[0]))
    for j in range(table.shape[0]):
        out[:, j] = np.interp(b_left[:, j], grids[j], table[j])
    return out


def reconstruction_error_whole(L_values, Z, pool):
    """clark_ocone.reconstruction_error with the (paths, steps) product
    Z * B(D_i) formed in one piece (the route before the row blocks)."""
    resid = (np.asarray(L_values, dtype=float) - 1.0
             - np.sum(Z * pool.increments, axis=1))
    return float(np.sqrt(np.mean(resid ** 2)))


def decompose_per_path(fn, fn_prime, pool, quad_order: int = 32):
    """(Z, M, gamma) of the endpoint functional fn(B_T), fn' its
    derivative, by Gauss-Hermite quadrature at every path's own position at
    every knot, with separate arguments for M and for Z (the route before
    the knot tables)."""
    grid = pool.grid
    Z = np.empty(pool.increments.shape)
    M = np.empty(pool.increments.shape)
    nodes, w = gauss_hermite(quad_order)
    for i in range(grid.n_steps):
        pre = pool.increments[:, :i]
        var = float(grid.horizon - grid.knots[i])
        y = pre.sum(axis=1)
        M[:, i] = np.asarray(fn(y[:, None] + np.sqrt(var) * nodes[None, :])) @ w
        y = pre.sum(axis=1)
        Z[:, i] = np.asarray(
            fn_prime(y[:, None] + np.sqrt(var) * nodes[None, :])) @ w
    return Z, M, Z / M


def assert_bitwise(got, want):
    """Same shape and the same 64 bits per element, NaN payloads and
    signbits included; None only matches None."""
    if want is None or got is None:
        assert got is want
        return
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def capped_identity_full(r, level: float):
    """Slope-capped identity with the transition formula evaluated at every
    element (the form before the band-only kernel)."""
    r = np.asarray(r, dtype=float)
    sign = np.sign(r)
    u = np.abs(r)
    t = np.clip((u - (level - 2.0)) / 2.0, 0.0, 1.0)
    # integral of (1 - smoothstep) over the transition, closed form
    s_int = t ** 4 * (t * (t - 3.0) + 2.5)
    val = np.where(u <= level - 2.0, u, (level - 2.0) + 2.0 * (t - s_int))
    return sign * np.minimum(val, level - 1.0)


def capped_identity_deriv_full(r, level: float):
    r = np.asarray(r, dtype=float)
    t = np.clip((np.abs(r) - (level - 2.0)) / 2.0, 0.0, 1.0)
    return 1.0 - smoothstep(t)


def radial_cutoff_deriv_full(x, level: float):
    """d/dr of the scalar cutoff profile at radius |x| (1-D input)."""
    x = np.asarray(x, dtype=float)
    r = np.abs(x)
    t = (r - (level - 2.0)) / 2.0
    inside = (t > 0.0) & (t < 1.0)
    ds = np.where(inside, 30.0 * np.clip(t, 0, 1) ** 2 * (np.clip(t, 0, 1) - 1.0) ** 2, 0.0)
    return -0.5 * ds * np.sign(x)


def truncated_parts(trunc, lam, coords):
    """TruncatedDensity.parts with every factor recomputed on each call,
    through the full-formula kernels above."""
    lev = trunc.level
    lam_arr = np.array([lam], dtype=float)
    lam_c = float(capped_identity_full(lam_arr, lev)[0])
    dlam_c = float(capped_identity_deriv_full(lam_arr, lev)[0])
    cut_l = float(radial_cutoff(lam_arr, lev)[0])
    dcut_l = float(radial_cutoff_deriv_full(lam_arr, lev)[0])
    h, dh, hu = trunc.cond.parts(lam_c, coords)
    ph = capped_identity_full(h, lev)
    dph = capped_identity_deriv_full(h, lev)
    cut = radial_cutoff(coords, lev)
    val = ph * cut * cut_l
    dlam = dph * dh * dlam_c * cut * cut_l + ph * cut * dcut_l
    du = dph * hu * cut * cut_l \
        + ph * radial_cutoff_deriv_full(coords, lev) * cut_l
    return val, dlam, du


def mollified_acc(moll, lam, coords, rules=None):
    """MollifiedDensity's quadrature, its parameter rule over its coordinate
    rule, with the coordinate cutoffs recomputed at every parameter node,
    through truncated_parts. rules, when given, is a pair of (nodes,
    weights) on [-1, 1], for the parameter and the coordinate, used in
    place of moll's."""
    (alpha, wa_all), (beta, wb) = rules or ((moll._alpha, moll._wa),
                                            (moll._beta, moll._wb))
    X = np.asarray(coords, dtype=float)
    m = X.shape[0]
    n_cells = wb.size
    flat = (X[:, None] - moll.eps * beta[None, :]).reshape(-1)
    outv = np.zeros(m)
    outl = np.zeros(m)
    outu = np.zeros(m)
    for a, wa in zip(alpha, wa_all):
        v, dl, du = truncated_parts(moll.trunc, lam - moll.eps * a, flat)
        outv += wa * (v.reshape(m, n_cells) @ wb)
        outl += wa * (dl.reshape(m, n_cells) @ wb)
        outu += wa * (du.reshape(m, n_cells) @ wb)
    return outv, outl, outu


def stage6_functions(moll, lam, eps_pos, denom):
    """The normalized stage-4 density (eps_pos + F) / denom of the terminal
    coordinate and its u-derivative, each from its own moll.triple call."""

    def fn(u):
        u = np.asarray(u, dtype=float)
        return ((eps_pos + moll.triple(lam, u.ravel())[0]) / denom).reshape(u.shape)

    def fn_prime(u):
        u = np.asarray(u, dtype=float)
        return (moll.triple(lam, u.ravel())[2] / denom).reshape(u.shape)

    return fn, fn_prime


def consistency_gap_decomposed(moll, lam, config, denom, block_pool, y_grid,
                               gam_tab):
    """approx_pipeline._consistency_gap through stage6_functions and
    decompose_per_path, the table read by np.interp (the route before the
    check read one triple per knot): (gap, (Z, M, gamma))."""
    sub = block_pool.subset(np.arange(min(_CHECK_PATHS, block_pool.n_samples)))
    direct = decompose_per_path(
        *stage6_functions(moll, lam, config.positivity_floor, denom), sub,
        quad_order=config.quad_order)
    gam_read = read_table_interp(gam_tab, np.broadcast_to(y_grid, gam_tab.shape),
                                 sub.cumulative[:, :-1])
    return float(np.abs(direct[2] - gam_read).max()), direct


def tensor_nodes(variances: np.ndarray, order: int):
    """Mesh of independent Gaussian nodes, one axis per variance entry (the
    axis-aligned mesh over every remaining interval, before projections)."""
    base_x, base_w = gauss_hermite(order)
    axes = [base_x * np.sqrt(v) for v in variances]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    w = np.ones(1)
    for _ in variances:
        w = np.multiply.outer(w, base_w).ravel()
    return mesh, w


def segment_integrals_whole(fn, a, b, order: int):
    """numerics._segment_integrals with every segment's nodes in one array
    (before the evaluation was blocked)."""
    x, w = gauss_legendre(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * x
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ w)


def density_derivative_profile_per_pass(f, law, x_grid):
    """density_derivative_profile with the integrand read through
    f.lions_derivative, which integrates phi against the law at every
    quadrature pass; the centering sums over the atoms as the code does."""
    xs = np.asarray(x_grid, dtype=float)
    atoms = law.atoms_1d()
    joint = antiderivative_at(lambda ys: f.lions_derivative(law, ys),
                              np.concatenate([xs.ravel(), atoms]))
    a_grid = joint[:xs.size].reshape(xs.shape)
    return a_grid - law.integrate(joint[xs.size:])


def second_order_check_1d_profile(f, law, x_grid, h_step):
    """second_order_check_1d as it was when it central-differenced the
    centered profile, which integrates grad phi over every atom of the law
    for a centering constant that the difference cancels."""
    xs = np.asarray(x_grid, dtype=float).reshape(-1)
    prof = density_derivative_profile(f, law, np.concatenate([xs + h_step,
                                                              xs - h_step]),
                                      f.phi(law.atoms))
    m = xs.size
    cd = (prof[:m] - prof[m:]) / (2.0 * h_step)
    return float(np.max(np.abs(cd - f.lions_derivative(law, xs))))


def antiderivative_at_searchsorted(fn, xs, tol: float = 1e-9, max_depth: int = 14):
    """antiderivative_at as it was when the evaluation points were located
    with np.searchsorted instead of np.unique's inverse indices."""
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    pts = np.unique(np.concatenate([flat, [0.0]]))
    a, b = pts[:-1], pts[1:]
    total = np.zeros(len(a))
    idx = np.arange(len(a))
    depth = 0
    span = max(pts[-1] - pts[0], np.finfo(float).tiny)
    while len(a) > 0:
        coarse = _segment_integrals(fn, a, b, 7)
        fine = _segment_integrals(fn, a, b, 15)
        err = np.abs(fine - coarse)
        share = tol * (b - a) / span
        ok = (err <= share) | (depth >= max_depth)
        np.add.at(total, idx[ok], fine[ok])
        if np.all(ok):
            if depth >= max_depth and np.any(err > np.maximum(share, tol)):
                raise RuntimeError("antiderivative quadrature did not converge")
            break
        bad = ~ok
        mid = 0.5 * (a[bad] + b[bad])
        a = np.concatenate([a[bad], mid])
        b = np.concatenate([mid, b[bad]])
        idx = np.concatenate([idx[bad], idx[bad]])
        depth += 1
    cum = np.concatenate([[0.0], np.cumsum(total)])
    cum -= cum[np.searchsorted(pts, 0.0)]
    out = cum[np.searchsorted(pts, flat)]
    return out.reshape(xs.shape)


# Frozen closed forms used across the test-suite (derived before implementing):
#   E[exp(s*Z - s^2/2)] = 1                      (lognormal normalization)
#   E[Z * exp(Z - 1/2)] = 1                      (Gaussian shift of N(0,1) mean)
#   E[(Z + c)^2] = 1 + c^2                       (shifted second moment)
#   Var(fine increment | block of k equal steps) = dt * (1 - 1/k)
#   E[fine increment | block sum S]              = S / k   (equal steps)
#   W1({0,2} equal weights, {1}) = 1             (also reproduced by w1_lp)
#   gamma for L = exp(s*B_1 - s^2/2) is constant = s (Clark-Ocone integrand)
FROZEN = {
    "lognormal_mean": 1.0,
    "gaussian_shift_mean": 1.0,
    "shifted_second_moment_c0.5": 1.25,
    "w1_two_point_vs_middle": 1.0,
}


# --- the chain-rule battery as it was when every (functional, curve, lambda,
# shard) re-evaluated its densities and re-integrated the whole Lions
# derivative -----------------------------------------------------------------

def chain_rule_rhs_per_call(f, curve, lam, xi_values, pool):
    """Mean of (antiderivative of the Lions derivative at xi) times dL/dlam."""
    density, dd = curve.eval_pair(lam, pool)
    law = pushforward_law(density, xi_values)
    xi = np.asarray(xi_values, dtype=float).reshape(-1)
    anti = antiderivative_at(lambda ys: f.lions_derivative(law, ys), xi)
    return weighted_expectation(dd, anti)


def chain_rule_lhs_fd_per_call(f, curve, lam, xi_values, pool, h_step):
    """Central difference of lam -> f(law^lam) on the same pool both sides."""
    if not (curve.contains(lam - h_step) and curve.contains(lam + h_step)):
        raise ValueError("lambda too close to the parameter boundary for this step")

    def at(l):
        return f.value(pushforward_law(curve.eval(l, pool), xi_values))

    return (at(lam + h_step) - at(lam - h_step)) / (2.0 * h_step)


def _shards(pool, k):
    idx = np.arange(pool.n_samples)
    return [pool.subset(idx[j::k]) for j in range(k)]


def check_chain_rule_per_call(n_paths=20000, n_steps=16, seed=7101,
                              horizon=1.0):
    """wcalc.checks.check_chain_rule as it was, one route call per
    (functional, curve, lambda, pool), with the closed form recomputed."""
    chain_rule_lhs_fd = chain_rule_lhs_fd_per_call
    chain_rule_rhs = chain_rule_rhs_per_call

    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    xi = brownian_at(pool, grid.horizon)
    shards = _shards(pool, _N_SHARDS)
    shard_xi = [brownian_at(p, grid.horizon) for p in shards]
    fd_bias = _FD_BIAS_CHAIN * _FD_STEP ** 2
    records = []
    for fid in ("mean", "mean_sq", "sin_mean"):
        f = make_functional(fid)
        for cid, curve in _curve_battery(grid):
            for lam in (0.2, 0.45, 0.7):
                lhs = chain_rule_lhs_fd(f, curve, lam, xi, pool, _FD_STEP)
                rhs = chain_rule_rhs(f, curve, lam, xi, pool)
                diffs = [chain_rule_lhs_fd(f, curve, lam, x, p, _FD_STEP)
                         - chain_rule_rhs(f, curve, lam, x, p)
                         for p, x in zip(shards, shard_xi)]
                se = _shard_se(diffs)
                records.append(_rec(f"chain/{fid}|{cid}|lam={lam:.2f}",
                                    lhs, rhs, se, 3.0 * se + fd_bias))

    # Closed form: under exp(lam B_T - lam^2 T / 2) the mean of B_T is lam T,
    # so the lam-derivative is the horizon itself on both routes.
    f = make_functional("mean")
    curve = _curve_battery(grid)[0][1]
    lam = 0.45
    lhs = chain_rule_lhs_fd(f, curve, lam, xi, pool, _FD_STEP)
    rhs = chain_rule_rhs(f, curve, lam, xi, pool)
    se_l = _shard_se([chain_rule_lhs_fd(f, curve, lam, x, p, _FD_STEP)
                      for p, x in zip(shards, shard_xi)])
    se_r = _shard_se([chain_rule_rhs(f, curve, lam, x, p)
                      for p, x in zip(shards, shard_xi)])
    records.append(_rec("chain/closed-form-fd", lhs, grid.horizon,
                        se_l, 3.0 * se_l + fd_bias))
    records.append(_rec("chain/closed-form-repr", rhs,
                        grid.horizon, se_r, 3.0 * se_r))
    return records


# --- the chain-rule battery as it was when every shard was a copied PathPool
# that evaluated the curve on its own paths and phi at its own atoms ----------

def check_chain_rule_per_shard(n_paths=20000, n_steps=16, seed=7101,
                               horizon=1.0):
    """wcalc.checks.check_chain_rule with the densities of every shard from
    curve.eval(., pool.subset(rows)) and both routes written out: h of
    <phi, law> and h' of it, phi evaluated at each law's atoms."""
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    xi = brownian_at(pool, grid.horizon)
    shard_rows = _shard_rows(pool.n_samples)
    pools = [pool] + [pool.subset(r) for r in shard_rows]
    rows = [slice(None)] + shard_rows
    fns = {fid: make_functional(fid) for fid in ("mean", "mean_sq", "sin_mean")}
    antis = {fid: grad_phi_antiderivative(f, xi) for fid, f in fns.items()}
    curves = _curve_battery(grid)
    routes = {}
    for cid, curve in curves:
        for lam in _CHAIN_LAMS:
            for p, r in zip(pools, rows):
                x = xi[r]
                below = pushforward_law(curve.eval(lam - _FD_STEP, p), x)
                above = pushforward_law(curve.eval(lam + _FD_STEP, p), x)
                density, deriv = curve.eval_pair(lam, p)
                law = pushforward_law(density, x)
                for fid, f in fns.items():
                    lhs = (f.value(above) - f.value(below)) \
                        / (2.0 * _FD_STEP)
                    rhs = f.slope(law) * weighted_expectation(
                        deriv, antis[fid][r])
                    routes.setdefault((fid, cid, lam), []).append((lhs, rhs))

    fd_bias = _FD_BIAS_CHAIN * _FD_STEP ** 2
    records = []
    for fid in fns:
        for cid, _ in curves:
            for lam in _CHAIN_LAMS:
                (lhs, rhs), *shards = routes[fid, cid, lam]
                se = _shard_se([l - r for l, r in shards])
                records.append(_rec(f"chain/{fid}|{cid}|lam={lam:.2f}",
                                    lhs, rhs, se, 3.0 * se + fd_bias))
    (lhs, rhs), *shards = routes[_CLOSED_FORM]
    se_l = _shard_se([l for l, _ in shards])
    se_r = _shard_se([r for _, r in shards])
    records.append(_rec("chain/closed-form-fd", lhs, grid.horizon,
                        se_l, 3.0 * se_l + fd_bias))
    records.append(_rec("chain/closed-form-repr", rhs,
                        grid.horizon, se_r, 3.0 * se_r))
    return records


# --- the girsanov battery as it was when every pair rebuilt its exponential
# and its shifted pool, and the inversion and mean-one records built theirs --

def girsanov_check_rebuilding(pool, gamma, phi):
    """(lhs, rhs, std_err) of one pair, the exponential and the shifted pool
    built inside the call."""
    density = doleans_exponential(pool, gamma)[:, -1]
    shifted = shift_forward(pool, gamma, pool.grid.horizon)
    lhs_vals = density * np.asarray(
        phi(pool, brownian_at(pool, pool.grid.horizon)), dtype=float)
    rhs_vals = np.asarray(
        phi(shifted, brownian_at(shifted, pool.grid.horizon)), dtype=float)
    _, std_err = mean_and_se(lhs_vals - rhs_vals)
    return float(lhs_vals.mean()), float(rhs_vals.mean()), std_err


def check_girsanov_per_pair(n_paths=20000, n_steps=16, seed=7303,
                            horizon=1.0):
    """wcalc.checks.check_girsanov as one loop per record family."""
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    gammas = _girsanov_processes(grid)
    phis = _girsanov_observables()
    pairs = [(i, i) for i in range(5)] + [(0, 2), (1, 3), (2, 4), (3, 0), (4, 1)]
    records = []
    for gi, pi in pairs:
        gname, gamma = gammas[gi]
        pname, phi = phis[pi]
        lhs, rhs, se = girsanov_check_rebuilding(pool, gamma, phi)
        records.append(_rec(f"girsanov/{gname}*{pname}",
                            lhs, rhs, se, 3.0 * se + 1e-12))
    for gname in ("sin-t", "tanh-B"):
        gamma = dict(gammas)[gname]
        back = shift_backward(shift_forward(pool, gamma, grid.horizon),
                              gamma, grid.horizon)
        err = float(np.max(np.abs(back.increments - pool.increments)))
        records.append(_rec(f"girsanov/inverse|{gname}",
                            err, 0.0, 0.0, 1e-10))
    for gname in ("const-", "tanh-B"):
        table = doleans_exponential(pool, dict(gammas)[gname])
        worst, worst_se, worst_gap = 1.0, 0.0, -1.0
        for j in range(1, table.shape[1]):
            m, se = mean_and_se(table[:, j])
            if abs(m - 1.0) - 3.0 * se > worst_gap:
                worst, worst_se = m, se
                worst_gap = abs(m - 1.0) - 3.0 * se
        records.append(_rec(f"girsanov/mean-one|{gname}",
                            worst, 1.0, worst_se, 3.0 * worst_se + 1e-9))
    return records


# --- the representation check as it was when each functional ran its own
# decomposition and its own projections --------------------------------------

def multidim_derivative_repr_single(f, endpoint, xi_loading, pool,
                                    quad_order: int = 32):
    """Per-path derivative values of one functional via the drift-corrected
    stochastic integral: its own law, decomposition of L = l(B_T) (from
    endpoint = (l, l')) and projection mesh at every knot, with xi (the
    0/1 loading's statistics, by repr_values_summed), its written-out
    gradient matrices and L (on numpy's row sums) evaluated inside."""
    grid = pool.grid

    def density(x):
        return np.asarray(endpoint[0](x.sum(axis=1)), dtype=float)

    loading = np.vstack([np.ones((1, grid.n_steps)), xi_loading])
    inc = pool.increments
    l_vals = density(inc)
    xi_pts = repr_values_summed(inc, xi_loading)
    c = f.slope(pushforward_law(l_vals, xi_pts))
    Z, M, gamma = clark_ocone_decompose(*endpoint, pool, quad_order=quad_order)

    def component(i):
        def comp(args):
            pts = repr_values_summed(args, xi_loading)
            dphi = np.asarray(f.grad_phi(pts), dtype=float)
            total = np.zeros(args.shape[0])
            for k, row in enumerate(xi_loading):
                total += dphi[:, k] * np.tile(row, (args.shape[0], 1))[:, i]
            return (c * total * density(args),)
        return comp

    out = np.zeros(pool.n_samples)
    for i in range(grid.n_steps):
        proj, = gaussian_smooth(grid, grid.knots[i], inc[:, :i], component(i),
                                loading, quad_order=quad_order)
        h_i = proj / M[:, i]
        out += h_i * (inc[:, i] - gamma[:, i] * grid.steps[i])
    return out


# --- the nested route as it was when it read a pool, a density and the two
# observable arrays instead of their joint law ------------------------------

def eval_nested_pooled(fn, pool, density_values, xi1_values, xi2_values,
                       bandwidth):
    """g(E[h(m(xi2))]) with the regression weighted by L and the outer mean
    taken as the mean of L h(m) over the pool."""
    L = np.asarray(density_values, dtype=float)
    m = conditional_expectation(fn.psi(xi1_values), xi2_values, L, bandwidth)
    return float(fn.g(np.dot(L, fn.h(m)) / pool.n_samples))


def partial_mu_G_nested_pooled(fn, pool, density_values, xi1_values,
                               xi2_values, pts, bandwidth):
    """The closed-form partial derivative at the (m, 2) points pts, weighted
    by L as eval_nested_pooled is."""
    L = np.asarray(density_values, dtype=float)
    psi1 = fn.psi(xi1_values)
    m = conditional_expectation(psi1, xi2_values, L, bandwidth)
    outer = float(fn.g_prime(np.dot(L, fn.h(m)) / pool.n_samples))
    m_at = kernel_regression(psi1, xi2_values, L, bandwidth, pts[:, 1])
    return outer * (fn.h(m_at) + fn.h_prime(m_at) * (fn.psi(pts[:, 0]) - m_at))


def nested_derivative_check_pooled(fn, pool, density_values, xi1_values,
                                   xi2_values, x_probes, bandwidth,
                                   fd_step=1e-2):
    """wcalc.nested_derivative_check on (pool, density, xi1, xi2): each bump
    rescales the density to L(1 + s(eta - mean)) and the pairings divide by
    the sum of L."""
    dens = np.asarray(density_values, dtype=float)
    x1 = np.asarray(xi1_values, dtype=float)
    x2 = np.asarray(xi2_values, dtype=float)
    spread = max(np.std(x1), np.std(x2))
    bump_width = 0.5 * spread if spread > 0 else 1.0
    prof = partial_mu_G_nested_pooled(fn, pool, dens, x1, x2,
                                      np.column_stack([x1, x2]), bandwidth)
    worst = 0.0
    for a, b in np.asarray(x_probes, dtype=float):
        eta = np.exp(-((x1 - a) ** 2 + (x2 - b) ** 2) / (2.0 * bump_width ** 2))
        direction = eta - float(np.dot(dens, eta) / dens.sum())
        up, dn = (eval_nested_pooled(fn, pool, dens * (1.0 + s * direction),
                                     x1, x2, bandwidth)
                  for s in (fd_step, -fd_step))
        lhs = (up - dn) / (2.0 * fd_step)
        rhs = float(np.dot(dens, prof * direction) / dens.sum())
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_lemma34_pooled(n_paths=20000, n_steps=16, seed=7505, horizon=1.0):
    """(name, lhs) of every wcalc.checks.check_lemma34 record, each from
    nested_derivative_check_pooled on the battery's pool and density. The
    pooled route takes each rung's bandwidth as an argument and reads only
    the functions of the battery's functionals."""
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    dens = _curve_battery(grid)[0][1].eval(0.3, pool)
    x1 = brownian_at(pool, 0.5 * grid.horizon)
    x2 = brownian_at(pool, grid.horizon)
    probes = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.3]])
    return [(f"lemma34/{fid}|bw={bw:.2f}",
             nested_derivative_check_pooled(fn, pool, dens, x1, x2, probes,
                                            bandwidth=bw))
            for fid, fn in _nested_battery(0.5) for bw in (0.5, 0.35, 0.25)]


# --- the representation statistics as they were when every row sum was
# numpy's and every gradient a written-out (rows, n_args) matrix -------------

def weighted_row_sums_summed(x, weights):
    """wcalc.numerics.weighted_row_sums for 0/1 weights: numpy's sum of the
    columns they select."""
    w = np.asarray(weights, dtype=float)
    assert np.all((w == 0.0) | (w == 1.0)), "0/1 weights only"
    return x[:, w != 0.0].sum(axis=1)


def repr_values_summed(x, loading):
    """(rows, k) statistics of a 0/1 loading, one numpy sum per row of it."""
    return np.column_stack([weighted_row_sums_summed(x, row) for row in loading])


def use_summed_route(monkeypatch):
    """Route wcalc.checks.check_second_order through np.quantile for its
    probe grids and through weighted_row_sums_summed for every statistic of
    its representation records, on the pool and on the mesh."""
    monkeypatch.setattr(checks, "quantiles", np.quantile)
    for mod in (checks, density_deriv):
        monkeypatch.setattr(mod, "weighted_row_sums", weighted_row_sums_summed)
