"""Shared numerical kernels: Gaussian quadrature, an adaptive vectorized
antiderivative, linear-binned kernel smoothing, and smooth cutoff/bump
functions used by the truncation and mollification stages.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)


@lru_cache(maxsize=64)
def gauss_hermite(order: int):
    """Nodes/weights for E[f(Z)] with Z ~ N(0,1): sum w_i f(x_i)."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / w.sum()


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _segment_integrals(fn, a, b, order: int):
    x, w = gauss_legendre(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * x
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ w)


def antiderivative_at(fn, xs, tol: float = 1e-9, max_depth: int = 14):
    """A(x) = integral of fn from 0 to x, evaluated at every x in xs.

    Adaptive composite Gauss-Legendre: each segment between consecutive
    evaluation points gets an embedded 15/7-point error estimate and is
    bisected until the estimated error is below its share of tol. Vectorized
    across segments; fn must accept a flat array.
    """
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


def silverman_bandwidth(values, weights=None) -> float:
    """Silverman's rule on a (weighted) sample."""
    v = np.asarray(values, dtype=float)
    if weights is None:
        w = np.full(len(v), 1.0 / len(v))
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    mu = np.dot(w, v)
    var = np.dot(w, (v - mu) ** 2)
    sd = np.sqrt(var)
    order = np.argsort(v)
    cw = np.cumsum(w[order])
    q25, q75 = np.interp([0.25, 0.75], cw, v[order])
    iqr = q75 - q25
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    n_eff = 1.0 / np.sum(w ** 2)
    if scale <= 0:
        raise ValueError("degenerate sample: bandwidth rule needs spread")
    return 0.9 * scale * n_eff ** (-0.2)


def _linear_bin(y, weights, lo, spacing, n_bins):
    pos = (np.asarray(y, dtype=float) - lo) / spacing
    base = np.floor(pos).astype(int)
    frac = pos - base
    base = np.clip(base, 0, n_bins - 2)
    out = np.zeros(n_bins)
    np.add.at(out, base, weights * (1.0 - frac))
    np.add.at(out, base + 1, weights * frac)
    return out


def binned_gaussian_smooth(y, weight_columns, bandwidth: float, eval_points,
                           min_bins: int = 2048):
    """Gaussian-kernel sums evaluated by linear binning plus convolution.

    For each weight column w returns, at every eval point p,
    sum_j w_j * exp(-((p - y_j)/bandwidth)^2 / 2) / (bandwidth * sqrt(2 pi)).
    Accurate to O((bin spacing)^2); the grid is refined so spacing <= bw/4.
    """
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    pad = 6.0 * bandwidth
    lo = min(y.min(), eval_points.min()) - pad
    hi = max(y.max(), eval_points.max()) + pad
    span = max(hi - lo, bandwidth)
    n_bins = int(max(min_bins, np.ceil(span / (bandwidth / 4.0)) + 1))
    n_bins = min(n_bins, 1 << 22)
    spacing = span / (n_bins - 1)
    half = int(np.ceil(pad / spacing))
    kx = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-0.5 * (kx / bandwidth) ** 2) / (bandwidth * _SQRT2PI)
    grid = lo + spacing * np.arange(n_bins)
    outs = []
    for w in weight_columns:
        binned = _linear_bin(y, np.asarray(w, dtype=float), lo, spacing, n_bins)
        smooth = np.convolve(binned, kernel, mode="same")
        outs.append(np.interp(eval_points, grid, smooth))
    return outs


def smoothstep(t):
    """C^2 monotone step: 0 for t<=0, 1 for t>=1, with flat ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def capped_identity(r, level: float):
    """Slope-capped truncation: identity on |r| <= level-2, flat at
    +/- (level-1) for |r| >= level, derivative in [0, 1] throughout.

    The transition polynomial is evaluated only on its band
    level-2 < |r| < level (and on NaN, which it propagates); elsewhere the
    closed form is exactly |r| or level-1, so the result is bitwise the
    same as evaluating it everywhere.
    """
    r = np.asarray(r, dtype=float)
    val = np.abs(r).reshape(-1)
    band = _transition_band(val, level)
    t = np.clip((val[band] - (level - 2.0)) / 2.0, 0.0, 1.0)
    # integral of (1 - smoothstep) over the transition, closed form
    s_int = t ** 4 * (t * (t - 3.0) + 2.5)
    val[band] = (level - 2.0) + 2.0 * (t - s_int)
    return np.sign(r) * np.minimum(val.reshape(r.shape), level - 1.0)


def capped_identity_deriv(r, level: float):
    """Derivative of capped_identity: 1 on |r| <= level-2, 0 on
    |r| >= level, with the smoothstep transition evaluated only on the band
    between (and on NaN)."""
    r = np.asarray(r, dtype=float)
    u = np.abs(r).reshape(-1)
    out = np.where(u <= level - 2.0, 1.0, 0.0)
    band = _transition_band(u, level)
    out[band] = 1.0 - smoothstep(np.clip((u[band] - (level - 2.0)) / 2.0,
                                         0.0, 1.0))
    return out.reshape(r.shape)[()]  # [()] unwraps 0-d input to a scalar


def _transition_band(u, level: float):
    """Mask of |r| values where the cutoff transition is not a constant:
    level-2 < u < level, plus NaN so it propagates through the formula."""
    return ~((u <= level - 2.0) | (u >= level))


def radial_cutoff(x, level: float):
    """1 inside |x| <= level-2, 0 outside |x| >= level, smooth in between.

    Accepts (m,) scalars or (m, d) points; the norm is Euclidean.
    """
    x = np.asarray(x, dtype=float)
    r = np.abs(x) if x.ndim == 1 else np.sqrt((x * x).sum(axis=-1))
    return 1.0 - smoothstep((r - (level - 2.0)) / 2.0)


def radial_cutoff_deriv(x, level: float):
    """d/dr of the scalar cutoff profile at radius |x| (1-D input)."""
    x = np.asarray(x, dtype=float)
    r = np.abs(x)
    t = (r - (level - 2.0)) / 2.0
    inside = (t > 0.0) & (t < 1.0)
    ds = np.where(inside, 30.0 * np.clip(t, 0, 1) ** 2 * (np.clip(t, 0, 1) - 1.0) ** 2, 0.0)
    return -0.5 * ds * np.sign(x)


def bump_kernel(u):
    """Unnormalized compact bump exp(-1/(1-|u|^2)) on the open unit ball."""
    u = np.asarray(u, dtype=float)
    r2 = u * u if u.ndim == 1 else (u * u).sum(axis=-1)
    inside = r2 < 1.0
    out = np.zeros_like(r2, dtype=float)
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


@lru_cache(maxsize=32)
def bump_quad_1d(n_nodes: int = 9):
    """Nodes/weights on [-1,1] for averaging against the bump kernel,
    discretely normalized so constant functions are reproduced exactly."""
    x, w = gauss_legendre(n_nodes)
    bw = w * bump_kernel(x)
    return x, bw / bw.sum()
