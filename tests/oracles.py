"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written against a different code path than the
package (LP instead of merged CDFs, adaptive quad instead of Gauss-Hermite,
plain Python loops instead of vectorized kernels) so that agreement between
the two routes is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, stats

from wcalc.numerics import radial_cutoff, smoothstep


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


def truncated_parts(trunc, lam, coords, want_du):
    """TruncatedDensity.parts with every factor recomputed on each call,
    through the full-formula kernels above."""
    lev = trunc.level
    lam_arr = np.array([lam], dtype=float)
    lam_c = float(capped_identity_full(lam_arr, lev)[0])
    dlam_c = float(capped_identity_deriv_full(lam_arr, lev)[0])
    cut_l = float(radial_cutoff(lam_arr, lev)[0])
    dcut_l = float(radial_cutoff_deriv_full(lam_arr, lev)[0])
    h, dh, hu = trunc.cond.parts(lam_c, coords, want_du)
    ph = capped_identity_full(h, lev)
    dph = capped_identity_deriv_full(h, lev)
    cut = radial_cutoff(coords, lev)
    val = ph * cut * cut_l
    dlam = dph * dh * dlam_c * cut * cut_l + ph * cut * dcut_l
    du = None
    if want_du:
        du = dph * hu * cut * cut_l \
            + ph * radial_cutoff_deriv_full(coords, lev) * cut_l
    return val, dlam, du


def mollified_acc(moll, lam, coords, want_du):
    """MollifiedDensity's quadrature with the coordinate cutoffs recomputed
    at every parameter node, through truncated_parts."""
    X = np.asarray(coords, dtype=float)
    m = X.shape[0]
    n_cells = moll._wa.size
    flat = (X[:, None] - moll.eps * moll._alpha[None, :]).reshape(-1)
    outv = np.zeros(m)
    outl = np.zeros(m)
    outu = np.zeros(m) if want_du else None
    for a, wa in zip(moll._alpha, moll._wa):
        v, dl, du = truncated_parts(moll.trunc, lam - moll.eps * a, flat,
                                    want_du)
        outv += wa * (v.reshape(m, n_cells) @ moll._wa)
        outl += wa * (dl.reshape(m, n_cells) @ moll._wa)
        if want_du:
            outu += wa * (du.reshape(m, n_cells) @ moll._wa)
    return outv, outl, outu


def loglog_slope(h_values, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    lh = np.log(np.asarray(h_values, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(lh, le, 1)[0])


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
