"""Martingale representation for smooth functionals of the grid increments.

A functional F(B(D_1), ..., B(D_N)) with bounded gradient satisfies
F = E[F] + sum_i Z_i B(D_i) with Z_i = E[dF/dx_i | F_{t_{i-1}}]; the
conditional expectations are Gaussian integrals over the not-yet-revealed
increments.

An integrand that reads the increments x only through A x, for a k x n
loading matrix A, depends on the unrevealed increments only through
A_rem x_rem, a k-dimensional Gaussian with covariance
C = A_rem diag(dt_rem) A_rem^T. Its conditional mean is a tensorized
Gauss-Hermite integral over the r eigen-directions of C with a positive
eigenvalue, mapped back to increments, so the mesh has q**r nodes
whatever the number of remaining intervals. Without a loading A is the
identity, r is the number of remaining intervals and the mesh is the
axis-aligned one over them. A functional that reads only the path endpoint
has loading 1^T, one dimension at any knot; clark_ocone_decompose builds
each knot's argument y + sqrt(var) x once for Z and M of its scalar form.

At knot 0 nothing is revealed, so E[F | F_0] is the unconditional mean,
the same for every path: the quadrature evaluates its mesh once and
broadcasts that number. Elsewhere the (rows x mesh nodes) argument is built
in chunks of at most _ROW_BUDGET rows, 8 MB of float64 on a four-step grid.
Chunks that size stay close to cache; 2**22-row chunks (134 MB) measured
slower on the second-order battery and raised its peak RSS about sevenfold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .numerics import gauss_hermite, row_sums
from .rng import substream
from .wiener_grid import PathPool, TimeGrid

_PROBE_SEED = 0xFACADE
_TENSOR_BLOCK_CAP = 4
_ROW_BUDGET = 1 << 18
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


@dataclass(frozen=True)
class SmoothFunctional:
    """C^1 functional of the n_args grid increments.

    value_fn maps (m, n_args) -> (m,), grad_fn maps (m, n_args) ->
    (m, n_args). grad_fn may return a read-only broadcast array (one value
    per row, or one row for every row): callers read it and must not write
    into it. If the functional only reads the total sum of its
    arguments, scalar_fn/scalar_fn_prime give that one-variable form, which
    clark_ocone_decompose integrates at any grid size.

    loading, if given, is a k x n_args matrix A with the promise that
    value_fn and grad_fn read x only through A x. Conditional smoothing of
    anything built from such functionals then integrates over the rank of
    the stacked loadings, not over every remaining interval (see
    gaussian_smooth). Construction checks the promise: moving the probe
    points along the null space of A must leave value_fn unchanged.
    """

    n_args: int
    value_fn: Callable
    grad_fn: Callable
    scalar_fn: Optional[Callable] = None
    scalar_fn_prime: Optional[Callable] = None
    # an array does not compare or hash as a field value
    loading: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_args < 1:
            raise ValueError("functional needs at least one argument")
        if (self.scalar_fn is None) != (self.scalar_fn_prime is None):
            raise ValueError("scalar form requires both the function and its derivative")
        rng = substream(_PROBE_SEED, self.n_args)
        x = rng.standard_normal((8, self.n_args)) / np.sqrt(self.n_args)
        v = np.asarray(self.value_fn(x), dtype=float)
        g = np.asarray(self.grad_fn(x), dtype=float)
        if v.shape != (8,) or g.shape != (8, self.n_args):
            raise ValueError("functional output shapes are wrong")
        step = 1e-6
        for j in range(self.n_args):
            up, dn = x.copy(), x.copy()
            up[:, j] += step
            dn[:, j] -= step
            fd = (np.asarray(self.value_fn(up)) - np.asarray(self.value_fn(dn))) / (2 * step)
            if not np.all(np.abs(fd - g[:, j]) <= 1e-6 * (1.0 + np.abs(fd)) + 1e-8):
                raise ValueError(f"gradient component {j} disagrees with finite differences")
        if self.scalar_fn is not None:
            s = x.sum(axis=1)
            if not np.allclose(v, np.asarray(self.scalar_fn(s), dtype=float),
                               rtol=1e-12, atol=1e-12):
                raise ValueError("scalar form disagrees with the full functional")
            sp = np.asarray(self.scalar_fn_prime(s), dtype=float)
            if not np.allclose(g, sp[:, None], rtol=1e-9, atol=1e-10):
                raise ValueError("scalar derivative disagrees with the gradient")
        if self.loading is not None:
            self._check_loading(rng, x, v)

    def _check_loading(self, rng, x: np.ndarray, v: np.ndarray) -> None:
        A = _as_loading(self.loading, self.n_args)
        object.__setattr__(self, "loading", A)
        _, rows = _principal_axes(A.T @ A)
        z = rng.standard_normal(x.shape) / np.sqrt(self.n_args)
        moved = np.asarray(self.value_fn(x + (z - (z @ rows) @ rows.T)), dtype=float)
        if not np.allclose(moved, v, rtol=1e-9, atol=1e-12):
            raise ValueError("value_fn reads the increments along a direction "
                             "the loading omits")


def scalar_functional(grid_or_n, fn: Callable,
                      fn_prime: Callable) -> SmoothFunctional:
    """Functional reading only the path endpoint: F = fn(sum of increments),
    with loading 1^T. Its gradient is a read-only broadcast view of
    fn_prime at each row's sum, repeated along the row."""
    n = grid_or_n.n_steps if isinstance(grid_or_n, TimeGrid) else int(grid_or_n)

    def value(x):
        return np.asarray(fn(row_sums(np.asarray(x, dtype=float))), dtype=float)

    def grad(x):
        x = np.asarray(x, dtype=float)
        d = np.asarray(fn_prime(row_sums(x)), dtype=float)
        return np.broadcast_to(d[:, None], x.shape)

    return SmoothFunctional(n, value, grad, scalar_fn=fn, scalar_fn_prime=fn_prime,
                            loading=np.ones((1, n)))


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


def _as_arrays(vals):
    """(float arrays, whether vals was a tuple) of what an integrand returns:
    one array, or a tuple of arrays on the same argument rows."""
    if isinstance(vals, tuple):
        return [np.asarray(v, dtype=float) for v in vals], True
    return [np.asarray(vals, dtype=float)], False


def gaussian_smooth(F: SmoothFunctional, grid: TimeGrid, s: float,
                    prefix: np.ndarray, component: Optional[Callable] = None,
                    quad_order: int = 32,
                    mc_fallback: Optional[Tuple[int, int]] = None,
                    loading: Optional[np.ndarray] = None):
    """E[F | F_s] evaluated at realized increments up to knot s.

    prefix is (m, j) where j is the knot index of s; the remaining increments
    are integrated out. component, if given, replaces the integrand by
    component(x) for x the full (rows, n_args) argument (used to smooth one
    gradient entry). A component may return a tuple of per-row arrays: each
    is smoothed on the same mesh and the result is a tuple in that order.

    loading is a k x n_args matrix A such that the integrand reads x only
    through A x. None means F.loading for F.value_fn itself (component
    None) and the identity for a component. With A_rem its columns on the
    remaining intervals, the quadrature runs over the r eigen-directions of
    C = A_rem diag(dt_rem) A_rem^T with a positive eigenvalue: a tensor
    Gauss-Hermite mesh z of quad_order**r nodes, mapped to increments as
    x_rem = diag(dt_rem) A_rem^T V_r Lambda_r^{-1/2} z, so the integrand
    still receives full (rows, n_args) arguments. Rank 0 evaluates the
    integrand at the prefix padded with zeros. Tensor quadrature covers
    rank at most four; beyond that pass mc_fallback=(n_draws, seed) to
    average over sampled futures instead.

    On the quadrature route at knot 0 the mesh is integrated once and the
    result repeated for all m rows (there is no prefix to condition on);
    rows are otherwise processed _ROW_BUDGET mesh rows at a time. The Monte
    Carlo route keeps independent draws per row at every knot.
    """
    _check_quadrature(quad_order, mc_fallback)
    if F.n_args != grid.n_steps:
        raise ValueError("functional arity does not match the grid")
    j = grid.knot_index(s)
    pre = np.asarray(prefix, dtype=float)
    if pre.ndim == 1:
        pre = pre[None, :]
    if pre.shape[1] != j:
        raise ValueError(f"prefix has {pre.shape[1]} columns, knot index is {j}")
    fn = component if component is not None else F.value_fn
    if component is None and loading is None:
        loading = F.loading
    m = pre.shape[0]
    rem = grid.n_steps - j
    if rem == 0:
        vals, multi = _as_arrays(fn(pre))
        return tuple(vals) if multi else vals[0]

    variances = grid.steps[j:]
    a_rem = np.eye(rem) if loading is None else _as_loading(loading, grid.n_steps)[:, j:]
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
        chunk = max(1, _ROW_BUDGET // q)
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
            vals, multi = _as_arrays(fn(args.reshape(block * q, grid.n_steps)))
            if outs is None:
                outs = [np.empty(n_rows) for _ in vals]
            for out, v in zip(outs, vals):
                out[lo:hi] = v.reshape(block, q) @ w
        if j == 0:
            outs = [np.repeat(out, m) for out in outs]
        return tuple(outs) if multi else outs[0]

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
        vals, multi = _as_arrays(fn(args))
        if outs is None:
            outs = [np.zeros(m) for _ in vals]
        for out, v in zip(outs, vals):
            out += v
    outs = [out / n_draws for out in outs]
    return tuple(outs) if multi else outs[0]


def _knot_smoothings(pool: PathPool, quad_order: int, fn):
    """Per array f(B_T) that fn returns from a knot's Gauss-Hermite argument
    y + sqrt(var) x, the (paths, knots) table of E[f(B_T) | F_{t_i}]. The
    prefix y is summed, not read from pool.cumulative: the pairwise sum
    rounds differently from a running one."""
    _check_quadrature(quad_order, None)
    grid = pool.grid
    nodes, w = gauss_hermite(quad_order)
    cols = []
    for i in range(grid.n_steps):
        y = pool.increments[:, :i].sum(axis=1)
        var = float(grid.horizon - grid.knots[i])
        arg = y[:, None] + np.sqrt(var) * nodes[None, :]
        cols.append([np.asarray(f) @ w for f in fn(arg)])
    return [np.column_stack(c) for c in zip(*cols)]


def _check_endpoint(F: SmoothFunctional, pool: PathPool) -> None:
    if F.n_args != pool.grid.n_steps:
        raise ValueError("functional arity does not match the grid")
    if F.scalar_fn is None:
        raise ValueError("the decomposition needs a functional with scalar_fn "
                         "(one that reads only the path endpoint)")


def clark_ocone_integrand(F: SmoothFunctional, pool: PathPool,
                          quad_order: int = 32) -> np.ndarray:
    """Z of clark_ocone_decompose alone, for callers that need no M."""
    _check_endpoint(F, pool)
    return _knot_smoothings(pool, quad_order,
                            lambda u: (F.scalar_fn_prime(u),))[0]


def clark_ocone_decompose(F: SmoothFunctional, pool: PathPool,
                          quad_order: int = 32):
    """Extract (Z, M, gamma) along the pool paths.

    Z[:, i] = E[dF/dx_i | F_{t_{i-1}}], M[:, i] = E[F | F_{t_{i-1}}], and
    gamma = Z / M is the logarithmic integrand; M must stay away from zero,
    which holds for the positive normalized densities this is applied to.

    F must read only the path endpoint (carry scalar_fn), as every density
    decomposed here does; d/dx_i of fn(sum) is fn' at the sum for every i.
    """
    _check_endpoint(F, pool)
    Z, M = _knot_smoothings(pool, quad_order,
                            lambda u: (F.scalar_fn_prime(u), F.scalar_fn(u)))
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
    if vals.shape != (pool.n_samples,) or Z.shape != pool.increments.shape:
        raise ValueError("shapes do not match the pool")
    resid = vals - 1.0 - np.sum(Z * pool.increments, axis=1)
    return float(np.sqrt(np.mean(resid ** 2)))
