"""Martingale representation for smooth functionals of the grid increments.

A functional F(B(D_1), ..., B(D_N)) with bounded gradient satisfies
F = E[F] + sum_i Z_i B(D_i) with Z_i = E[dF/dx_i | F_{t_{i-1}}]; the
conditional expectations are Gaussian integrals over the not-yet-revealed
increments. gaussian_smooth computes them for a tuple-valued component
on a tensor Gauss-Hermite mesh over the directions its declared loading
reads: a k x N matrix A such that the component reads the increments x
only through A x. A linear statistic sum_j A[k, j] B(D_j) is declared by
its own row, and its gradient on interval i is the constant A[k, i].

A functional of the endpoint alone, F = f(B_T), has E[F | F_t] = g_t(B_t)
with g_t(y) = E[f(y + sqrt(T - t) X)], X standard normal: one function of
the position per knot. knot_tables is the one kernel that smooths an
endpoint function so: it tabulates g_t at given points per knot, for
clark_ocone_decompose and for stages 6 and 7 of approx_pipeline and its
consistency gap alike, and _read_knot_tables reads such tables, made on a
uniform grid per knot, at each path's position by linear interpolation.
The decomposition takes f and f' and reads Z and M off one table per knot,
whose grid spans the paths' positions at that knot.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .numerics import gauss_hermite, uniform_interp
from .rng import substream
from .wiener_grid import PathPool, TimeGrid, _knot_columns

_TENSOR_BLOCK_CAP = 4
# Mesh rows per gaussian_smooth chunk (512 KiB of float64 on four steps, so
# temporaries fit a 2 MiB L2). Chunks of 8k prefix rows keep each row's bits
# in (block, q) @ w on the OpenBLAS dgemv measured; that is no guarantee.
_ROW_BUDGET = 1 << 14
_TABLE_POINTS = 1025
# Eigenvalues below this share of the largest are roundoff: their
# directions carry no variance of the integrand's arguments.
_RANK_RTOL = 1e-12


def _as_loading(loading, n_args: int) -> np.ndarray:
    """Read-only float copy of a k x n_args loading matrix, k >= 1."""
    A = np.array(loading, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] != n_args \
            or not np.all(np.isfinite(A)):
        raise ValueError(f"loading must be a finite k x {n_args} matrix")
    A.setflags(write=False)
    return A


def _principal_axes(cov: np.ndarray):
    """Eigenvalues of a symmetric PSD matrix above roundoff, with their
    eigenvectors as columns."""
    lam, vec = np.linalg.eigh(cov)
    keep = lam > _RANK_RTOL * lam[-1]
    return lam[keep], vec[:, keep]


def _gauss_hermite_mesh(dim: int, order: int):
    """Tensor Gauss-Hermite rule for a standard normal in dim dimensions:
    (order**dim, dim) nodes and their weights; dim 0 is the point mass."""
    x, w = gauss_hermite(order)
    idx = np.indices((order,) * dim).reshape(dim, order ** dim).T
    return x[idx], np.prod(w[idx], axis=1)


def _check_quadrature(quad_order: int,
                      mc_fallback: Optional[Tuple[int, int]]) -> None:
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")
    if mc_fallback is not None and mc_fallback[0] < 1:
        raise ValueError(f"mc_fallback n_draws must be >= 1, got {mc_fallback[0]}")


def gaussian_smooth(grid: TimeGrid, s: float, prefix: np.ndarray,
                    component: Callable, loading: np.ndarray,
                    quad_order: int = 32,
                    mc_fallback: Optional[Tuple[int, int]] = None):
    """Tuple of E[c | F_s], one per array c that component returns, at the
    realized increments prefix (m, j), j the knot index of s.

    component maps full (rows, n_args) arguments to a tuple of per-row
    arrays, all smoothed on one mesh. loading is a k x n_args matrix A such
    that component reads x only through A x; it must be finite and n_args
    wide, checked before component runs. Several statistics stack their rows
    into one loading, so one mesh serves them all. With A_rem its columns on
    the remaining intervals, the quadrature runs over the r eigen-directions
    of C = A_rem diag(dt_rem) A_rem^T with a positive eigenvalue: a tensor
    Gauss-Hermite mesh z of quad_order**r nodes, mapped to increments as
    x_rem = diag(dt_rem) A_rem^T V_r Lambda_r^{-1/2} z, so the mesh size
    does not grow with the remaining intervals. Rank 0 (at the horizon, or a
    loading that reads only the prefix) is one node of weight one, the
    prefix padded with zeros. Tensor quadrature covers rank at most four;
    beyond that pass mc_fallback=(n_draws, seed) to average over sampled
    futures instead.

    On the quadrature route at knot 0 the mesh is integrated once and the
    result repeated for all m rows (there is no prefix to condition on);
    rows are otherwise processed in chunks of a multiple of 8 prefix rows
    (at least 8), about _ROW_BUDGET mesh rows (512 KiB of float64 on a
    four-step grid) each, so on the BLAS measured no bit depends on the
    budget; a chunk is one row where a row's mesh exceeds the budget (33 MB
    at the tensor cap, 32**4 nodes on four steps). The Monte Carlo route
    keeps independent draws per row at every knot.
    """
    _check_quadrature(quad_order, mc_fallback)
    j = grid.knot_index(s)
    a_rem = _as_loading(loading, grid.n_steps)[:, j:]
    pre = np.asarray(prefix, dtype=float)
    if pre.ndim == 1:
        pre = pre[None, :]
    if pre.shape[1] != j:
        raise ValueError(f"prefix has {pre.shape[1]} columns, knot index is {j}")
    m = pre.shape[0]
    rem = grid.n_steps - j

    def arrays(args):
        vals = component(args)
        if not isinstance(vals, tuple):
            raise TypeError("component must return a tuple of arrays")
        return [np.asarray(v, dtype=float) for v in vals]

    variances = grid.steps[j:]
    lam, vec = _principal_axes((a_rem * variances) @ a_rem.T)
    rank = lam.size
    if rank <= _TENSOR_BLOCK_CAP:
        z, w = _gauss_hermite_mesh(rank, quad_order)
        # A_rem x_rem = V_r Lambda_r^{1/2} z then has covariance C on its
        # range, which is all the integrand reads of the remaining intervals
        mesh = z @ ((variances[:, None] * a_rem.T) @ (vec / np.sqrt(lam))).T
        q = mesh.shape[0]
        # knot 0: nothing revealed, one conditional mean serves every row
        rows = pre[:1] if j == 0 else pre
        n_rows = rows.shape[0]
        outs = None
        chunk = max(8, _ROW_BUDGET // q // 8 * 8) if q <= _ROW_BUDGET else 1
        # at least one pass: an empty prefix still learns how many arrays
        # the integrand returns
        for lo in range(0, max(n_rows, 1), chunk):
            hi = min(lo + chunk, n_rows)
            block = hi - lo
            # filled through a (block, q, n_args) view: each prefix row
            # against every mesh node, with no repeated or tiled temporaries
            args = np.empty((block, q, grid.n_steps))
            args[:, :, :j] = rows[lo:hi, None, :]
            args[:, :, j:] = mesh
            vals = arrays(args.reshape(block * q, grid.n_steps))
            if outs is None:
                outs = [np.empty(n_rows) for _ in vals]
            for out, v in zip(outs, vals):
                out[lo:hi] = v.reshape(block, q) @ w
        if j == 0:
            outs = [np.repeat(out, m) for out in outs]
        return tuple(outs)

    if mc_fallback is None:
        raise ValueError(
            f"the loading has rank {rank} on the {rem} intervals after the "
            f"conditioning time; tensor quadrature stops at rank "
            f"{_TENSOR_BLOCK_CAP}. Pass mc_fallback=(n_draws, seed) to use "
            "Monte Carlo averaging over the remaining increments.")
    n_draws, seed = mc_fallback
    rng = substream(seed, 2, j)
    outs = None
    args = np.empty((m, grid.n_steps))
    args[:, :j] = pre
    for _ in range(n_draws):
        args[:, j:] = rng.standard_normal((m, rem)) * np.sqrt(variances)
        vals = arrays(args)
        if outs is None:
            outs = [np.zeros(m) for _ in vals]
        for out, v in zip(outs, vals):
            out += v
    return tuple(out / n_draws for out in outs)


def knot_tables(fn, knot_times, horizon: float, quad_order: int, points):
    """Per array f(U) that fn returns, the (knots, m) table of
    E[f(y + sqrt(horizon - t_i) X)] = E[f(B_T) | B_{t_i} = y], X standard
    normal, at the m points y of row i of points, by the Gauss-Hermite rule
    (x_k, w_k) of quad_order points: fn maps the (m, quad_order) array
    y + sqrt(horizon - t_i) x_k to a tuple of arrays of that shape. This is
    the only place that argument is built: a uniform grid per knot serves
    _read_knot_tables, and each path's own position gives the smoothing
    along the paths directly. ValueError before any evaluation on
    quad_order < 1, on a knot at or past the horizon and on points that are
    not finite or not one row per knot."""
    _check_quadrature(quad_order, None)
    times = np.asarray(knot_times, dtype=float)
    if not np.all(times < horizon):
        raise ValueError("knots must lie strictly before the horizon")
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or y.shape[0] != times.size or not np.all(np.isfinite(y)):
        raise ValueError("points must be finite, one row per knot")
    x, w = gauss_hermite(quad_order)
    rows = []
    for t, y_i in zip(times, y):
        args = y_i[:, None] + np.sqrt(horizon - float(t)) * x[None, :]
        # one memory layout, so one BLAS route, whatever layout fn returns
        rows.append([np.ascontiguousarray(f, dtype=float) @ w for f in fn(args)])
    return [np.stack(r) for r in zip(*rows)]


def _read_knot_tables(pool: PathPool, grids: np.ndarray, tables):
    """Row k of each (knots, m) table, made on row k of grids (uniform),
    read by linear interpolation at the paths' positions at knot k: one
    (paths, knots) array per table. A pool's unbuilt matrix stays unbuilt."""
    n = pool.grid.n_steps
    outs = [np.empty((pool.n_samples, n)) for _ in tables]
    for k, y in enumerate(_knot_columns(pool, n)):
        cols = uniform_interp(y, grids[k], [tab[k] for tab in tables])
        for out, col in zip(outs, cols):
            out[:, k] = col
    return outs


def _table_y_grid(positions) -> np.ndarray:
    """_TABLE_POINTS uniform points spanning the positions plus one aside."""
    return np.linspace(float(np.min(positions)) - 1.0,
                       float(np.max(positions)) + 1.0, _TABLE_POINTS)


def _path_reads(fns, pool: PathPool, quad_order: int):
    """Per endpoint function f in fns, the (paths, knots) matrix of
    E[f(B_T) | F_{t_i}]: knot i's table on a grid spanning the paths'
    positions at knot i, read at each path's position there, so column i
    depends on nothing the paths do after t_i."""
    grid = pool.grid
    grids = np.stack([_table_y_grid(y)
                      for y in _knot_columns(pool, grid.n_steps)])
    tables = knot_tables(lambda U: [f(U) for f in fns], grid.knots[:-1],
                         grid.horizon, quad_order, grids)
    return _read_knot_tables(pool, grids, tables)


def clark_ocone_integrand(fn_prime: Callable, pool: PathPool,
                          quad_order: int = 32) -> np.ndarray:
    """Z of clark_ocone_decompose alone, for callers that need no M."""
    return _path_reads((fn_prime,), pool, quad_order)[0]


def clark_ocone_decompose(fn: Callable, fn_prime: Callable, pool: PathPool,
                          quad_order: int = 32):
    """Extract (Z, M, gamma) of the endpoint functional F = fn(B_T) along
    the pool paths; fn and its derivative fn_prime act elementwise.

    Z[:, i] = E[dF/dx_i | F_{t_{i-1}}] = E[fn'(B_T) | F_{t_{i-1}}],
    M[:, i] = E[F | F_{t_{i-1}}], and gamma = Z / M is the logarithmic
    integrand; M must stay away from zero, which holds for the positive
    normalized densities this is applied to.

    Per knot, Z and M are knot_tables of fn' and fn on _TABLE_POINTS
    uniform points spanning the paths' positions at that knot plus one on
    either side, read at each path's position by linear interpolation: off
    by at most h**2 / 8 times the largest second y-derivative of the
    table, h the grid step.
    """
    Z, M = _path_reads((fn_prime, fn), pool, quad_order)
    if np.any(np.abs(M) < 1e-12):
        raise ValueError("conditional mean hits zero; logarithmic integrand undefined")
    return Z, M, Z / M


def reconstruction_error(L_values: np.ndarray, Z: np.ndarray, pool: PathPool) -> float:
    """L2 defect of L - 1 - sum_i Z_i B(D_i) along the pool.

    The represented functional is a density with mean one, so the constant
    term is literally 1; what remains measures how far the left-endpoint
    integrand is from reproducing L on the discrete grid.
    """
    vals = np.asarray(L_values, dtype=float)
    inc = pool.increments
    if vals.shape != (pool.n_samples,) or Z.shape != inc.shape:
        raise ValueError("shapes do not match the pool")
    # Z * B(D_i) by row blocks of about _ROW_BUDGET entries; rows sum alone
    resid, step = vals - 1.0, max(1, _ROW_BUDGET // inc.shape[1])
    for lo in range(0, len(vals), step):
        resid[lo:lo + step] -= np.sum(Z[lo:lo + step] * inc[lo:lo + step], 1)
    return float(np.sqrt(np.mean(resid ** 2)))
