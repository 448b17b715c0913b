"""Shared numerical kernels: Gaussian quadrature, an adaptive vectorized
antiderivative, linear-binned kernel smoothing, and smooth cutoff/bump
functions used by the truncation and mollification stages.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)
# antiderivative_at's error budget and bisection depth; the fewest bins of
# binned_gaussian_smooth's grid
_ANTIDERIV_TOL = 1e-9
_ANTIDERIV_MAX_DEPTH = 14
_MIN_BINS = 2048


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


# Segments per evaluation of the integrand: the (segments, nodes) block of
# points and values stays about 1 MB however many segments a pass holds.
_SEGMENT_BLOCK = 1 << 13


def _segment_integrals(fn, a, b, order: int):
    x, w = gauss_legendre(order)
    out = np.empty(len(a))
    for lo in range(0, len(a), _SEGMENT_BLOCK):
        hi = lo + _SEGMENT_BLOCK
        mid = 0.5 * (a[lo:hi] + b[lo:hi])
        half = 0.5 * (b[lo:hi] - a[lo:hi])
        pts = mid[:, None] + half[:, None] * x
        vals = fn(pts.ravel()).reshape(pts.shape)
        out[lo:hi] = half * (vals @ w)
    return out


def antiderivative_at(fn, xs):
    """A(x) = integral of fn from 0 to x, evaluated at every x in xs.

    Adaptive composite Gauss-Legendre: each segment between consecutive
    evaluation points is integrated by the 7- and the 15-point rule, whose
    difference is the error estimate, and is bisected until that estimate is
    below its share of _ANTIDERIV_TOL. The two rules are not nested (they
    share only the midpoint), so each pass costs 22 evaluations of fn per
    segment.
    Vectorized across segments; fn must accept a flat array.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    pts, where = np.unique(np.concatenate([flat, [0.0]]), return_inverse=True)
    a, b = pts[:-1], pts[1:]
    total = np.zeros(len(a))
    idx = np.arange(len(a))
    depth = 0
    span = max(pts[-1] - pts[0], np.finfo(float).tiny)
    while len(a) > 0:
        coarse = _segment_integrals(fn, a, b, 7)
        fine = _segment_integrals(fn, a, b, 15)
        err = np.abs(fine - coarse)
        share = _ANTIDERIV_TOL * (b - a) / span
        ok = (err <= share) | (depth >= _ANTIDERIV_MAX_DEPTH)
        np.add.at(total, idx[ok], fine[ok])
        if np.all(ok):
            if depth >= _ANTIDERIV_MAX_DEPTH and \
                    np.any(err > np.maximum(share, _ANTIDERIV_TOL)):
                raise RuntimeError("antiderivative quadrature did not converge")
            break
        bad = ~ok
        mid = 0.5 * (a[bad] + b[bad])
        a = np.concatenate([a[bad], mid])
        b = np.concatenate([mid, b[bad]])
        idx = np.concatenate([idx[bad], idx[bad]])
        depth += 1
    cum = np.concatenate([[0.0], np.cumsum(total)])
    cum -= cum[where[-1]]
    return cum[where[:-1]].reshape(xs.shape)


def row_sums(x):
    """x.sum(axis=1), bitwise, for a 2-D float array. Below 8 columns
    numpy's pairwise sum adds a row left to right from +0.0, so adding whole
    columns in that order gives the same bits without its per-row
    reduction overhead; wider arrays go to numpy."""
    if not 0 < x.shape[1] < 8:
        return x.sum(axis=1)
    out = x[:, 0] + 0.0
    for j in range(1, x.shape[1]):
        out += x[:, j]
    return out


def weighted_row_sums(x, weights):
    """Sum of weights[j] * x[:, j], added column by column from +0.0 with
    zero weights skipped, so no (rows, n) product is built: for 0/1
    weights below 8 columns, bitwise row_sums of the selected columns."""
    out = np.zeros(x.shape[0])
    for j, a in enumerate(weights):
        if a != 0.0:
            out += a * x[:, j]
    return out


def quantiles(values, q):
    """np.quantile(values, q) with its default linear method, bitwise, for
    finite values and q in [0, 1]: one sort, then numpy's indices and
    two-sided interpolation. (A tie of -0.0 with 0.0 may read either zero.)
    np.quantile calls np.unique, whose first call imports numpy.ma."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    virtual = (v.size - 1) * np.asarray(q, dtype=float)
    top = virtual >= v.size - 1
    below = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    a, b = v[below], v[np.where(top, -1, below + 1)]
    gamma = virtual - below
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)[()]


def weighted_sum(w, v) -> float:
    """sum_i w_i v_i in an order fixed by the length alone: the elementwise
    products, added by numpy's pairwise summation (blocks of up to 128
    terms, each in eight interleaved partial sums, halves combined
    pairwise) on one thread. np.dot splits a long sum across BLAS threads,
    so its last bits depend on the thread count."""
    return float((np.asarray(w, dtype=float) * np.asarray(v, dtype=float)).sum())


def mean_and_se(values):
    """(mean, standard error of the mean) of per-path values, the variance
    taken with n - 1 in the denominator."""
    v = np.asarray(values, dtype=float)
    m = float(v.mean())
    return m, float(np.sqrt(np.mean((v - m) ** 2) / max(v.size - 1, 1)))


def _check_bandwidth(bandwidth) -> float:
    """The kernel bandwidth as a float; ValueError unless finite and > 0."""
    bw = float(bandwidth)
    if not (np.isfinite(bw) and bw > 0.0):
        raise ValueError(f"bandwidth must be finite and positive, got {bw}")
    return bw


def _linear_bin(y, weights, lo, spacing, n_bins):
    pos = (np.asarray(y, dtype=float) - lo) / spacing
    base = np.floor(pos).astype(int)
    frac = pos - base
    base = np.clip(base, 0, n_bins - 2)
    out = np.zeros(n_bins)
    np.add.at(out, base, weights * (1.0 - frac))
    np.add.at(out, base + 1, weights * frac)
    return out


def uniform_cell(x, grid: np.ndarray):
    """(j, xc): x clipped to a uniform grid's span and each point's cell
    grid[j] <= xc < grid[j + 1] (the last node in the last cell), by one
    division moved by at most one cell. ValueError on NaN, and on a point
    that no such move brackets, as on a grid that is not uniform."""
    if np.isnan(x).any():
        raise ValueError("cannot locate NaN on a grid")
    last = grid.size - 2
    xc = np.clip(x, grid[0], grid[-1])
    # truncation floors the nonnegative quotient, and rounding can land it
    # one cell off; nodes must start a cell
    j = np.minimum(((xc - grid[0]) / ((grid[-1] - grid[0]) / (last + 1)))
                   .astype(np.intp), last)
    j -= xc < grid[j]
    j = np.minimum(j + (xc >= grid[j + 1]), last)
    if not np.all((grid[j] <= xc) & ((xc < grid[j + 1]) | (j == last))):
        raise ValueError("a point falls outside its cell: grid not uniform")
    return j, xc


def uniform_interp(x, grid: np.ndarray, tables):
    """[np.interp(x, grid, t) for t in tables], bitwise, for a uniform grid
    and finite tables: one uniform_cell search, then np.interp's formula
    slope[j] * (x - grid[j]) + t[j] per table, and the entry itself at a
    node or beyond an end."""
    x = np.asarray(x, dtype=float)
    j, xc = uniform_cell(x.ravel(), grid)
    dx = xc - grid[j]
    exact = np.flatnonzero((dx == 0.0) | (xc == grid[-1]))
    node = j[exact] + (xc[exact] == grid[-1])
    out = []
    for t in map(np.asarray, tables):
        y = (np.diff(t) / np.diff(grid))[j] * dx + t[j]
        y[exact] = t[node]
        out.append(y.reshape(x.shape))
    return out


def binned_gaussian_smooth(y, weight_columns, bandwidth: float, eval_points):
    """Gaussian-kernel sums evaluated by linear binning plus convolution.

    For each weight column w returns, at every eval point p,
    sum_j w_j * exp(-((p - y_j)/bandwidth)^2 / 2) / (bandwidth * sqrt(2 pi)).
    Accurate to O((bin spacing)^2); the grid is refined so spacing <= bw/4.
    All columns share the uniform grid, so one uniform_interp call reads them.
    """
    bandwidth = _check_bandwidth(bandwidth)
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    pad = 6.0 * bandwidth
    lo = min(y.min(), eval_points.min()) - pad
    hi = max(y.max(), eval_points.max()) + pad
    span = max(hi - lo, bandwidth)
    n_bins = int(max(_MIN_BINS, np.ceil(span / (bandwidth / 4.0)) + 1))
    n_bins = min(n_bins, 1 << 22)
    spacing = span / (n_bins - 1)
    half = int(np.ceil(pad / spacing))
    kx = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-0.5 * (kx / bandwidth) ** 2) / (bandwidth * _SQRT2PI)
    grid = lo + spacing * np.arange(n_bins)
    smooths = [np.convolve(_linear_bin(y, np.asarray(w, dtype=float), lo,
                                       spacing, n_bins), kernel, mode="same")
               for w in weight_columns]
    return uniform_interp(eval_points, grid, smooths)


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


@lru_cache(maxsize=32)
def bump_lattice_1d(cells: int):
    """Nodes/weights on [-1,1] for averaging against the bump kernel: the
    trapezoid rule at the nodes j / cells, |j| < cells (the kernel vanishes
    at +-1), discretely normalized. Every node lies on the lattice
    Z / (cells * k) for any positive integer k."""
    x = np.arange(1 - cells, cells) / cells
    w = bump_kernel(x)
    return x, w / w.sum()
