"""Named verification batteries shared by the command line and the tests.

Every battery compares two routes to the same quantity and emits uniform
records; a record passes when |lhs - rhs| <= tolerance. Default tolerances
are three combined standard errors plus documented deterministic terms
(finite-difference bias, discrete-bracket corrections); a run config can
override any of them by record name (see the cli module).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

import numpy as np

from .wiener_grid import TimeGrid, make_grid, sample_paths, brownian_at
from .functionals import CylindricalFn, NestedFn, make_functional, \
    lifted_derivative_fd
from .measure_ops import pushforward_law
from .density_deriv import exponential_curve, mixture_curve, \
    renormalize, grad_phi_antiderivative, chain_rule_lhs_fd, chain_rule_rhs, \
    second_order_check_1d, \
    second_order_check_multidim, multidim_derivative_repr, nested_derivative_check
from .girsanov import StepProcess, constant_process, deterministic_process, \
    doleans_exponential, shift_forward, shift_backward, girsanov_check
from .clark_ocone import clark_ocone_decompose, clark_ocone_integrand, reconstruction_error
from .density_functional import bensoussan_check
from .numerics import mean_and_se, quantiles, row_sums, weighted_row_sums

_N_SHARDS = 8
_FD_STEP = 1e-3
_CHAIN_LAMS = (0.2, 0.45, 0.7)
# The chain-rule closed form is this battery instance: (functional, curve, lam).
_CLOSED_FORM = ("mean", "exp", 0.45)
# Central-difference bias constants, pinned from step-halving measurements;
# multiplied by the square of the step actually used.
_FD_BIAS_CHAIN = 2.0
_FD_BIAS_PROFILE = 2.0
# Discrete-bracket correction for the stochastic-integral pairing: the
# quadratic variation of the corrected driver under the reweighted measure
# differs from dt by O(dt^2) per interval, so the pairing carries an O(dt)
# deterministic gap. Pinned from a grid-halving measurement.
_BRACKET_BIAS = 0.6


@dataclass(frozen=True)
class CheckRecord:
    """One two-sided comparison; passes when |lhs - rhs| <= tolerance."""

    name: str
    lhs: float
    rhs: float
    std_err: float
    tolerance: float

    def __post_init__(self):
        for field in ("lhs", "rhs", "std_err", "tolerance"):
            if not np.isfinite(getattr(self, field)):
                raise ValueError(f"{self.name}: non-finite {field}")
        if self.tolerance < 0 or self.std_err < 0:
            raise ValueError(f"{self.name}: negative tolerance or standard error")

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "std_err": self.std_err, "tolerance": self.tolerance,
                "gap": self.gap, "passed": self.passed}


def _rec(name: str, lhs: float, rhs: float, std_err: float,
         tolerance: float) -> CheckRecord:
    return CheckRecord(name, float(lhs), float(rhs), float(std_err),
                       float(tolerance))


def _shard_rows(n: int, k: int = _N_SHARDS) -> List[np.ndarray]:
    """Row indices of k disjoint, interleaved shards of an n-path pool."""
    idx = np.arange(n)
    return [idx[j::k] for j in range(k)]


def _shard_se(values: Sequence[float]) -> float:
    """Standard error of the full-pool estimator from disjoint shard means.

    The full-pool statistic is (to first order) the average of the k shard
    statistics, so its standard error is the shard spread over sqrt(k).
    """
    v = np.asarray(values, dtype=float)
    return float(np.std(v, ddof=1) / np.sqrt(len(v)))


def _curve_battery(grid: TimeGrid):
    horizon = grid.horizon

    def other(u):
        e = np.exp(0.8 * u - 0.32 * horizon)
        return e, 0.8 * e

    exp_curve = exponential_curve(grid, lam_lo=0.0, lam_hi=1.0)
    # a constant base as scalars: an all-ones array per evaluation only
    # raises the peak memory of the pool-sized transients
    mix_curve = mixture_curve(lambda u: (1.0, 0.0), other)
    return [("exp", exp_curve), ("mix", mix_curve)]


def check_chain_rule(n_paths: int = 20000, n_steps: int = 16,
                     seed: int = 7101,
                     horizon: float = 1.0) -> List[CheckRecord]:
    """Parameter derivative of f(law of B_T under L^lam) two ways.

    lhs: central difference in lam of the reweighted functional. rhs:
    h'(<phi, law>) times the mean of Phi(B_T) dL/dlam, where Phi is the
    antiderivative of grad phi. Battery of three functionals, two curve
    families, three parameter points, plus a closed-form instance where both
    routes must sit at exactly one.

    phi and Phi are law-free, so each is evaluated once per functional.
    Each (curve, lam) evaluates the raw curve once on the full pool at
    lam -/+ h and lam; the pool and every shard read their rows of it and
    of B_T, and renormalize by their own mean. The pool is dropped once
    B_T and the increments' row sums u, which the curves read, are taken.
    """
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    xi, u = brownian_at(pool, grid.horizon), row_sums(pool.increments)
    del pool
    fns = {fid: make_functional(fid) for fid in ("mean", "mean_sq", "sin_mean")}
    antis = {fid: grad_phi_antiderivative(f, xi) for fid, f in fns.items()}
    phis = {fid: f.phi(xi[:, None]) for fid, f in fns.items()}
    rows = [slice(None)] + _shard_rows(n_paths)
    curves = _curve_battery(grid)

    # routes[fid, cid, lam]: (lhs, rhs) on the full pool, then on each shard
    routes: Dict[tuple, List[tuple]] = {}
    for cid, curve in curves:
        for lam in _CHAIN_LAMS:
            raw_below = curve.raw(lam - _FD_STEP, u)
            raw_above = curve.raw(lam + _FD_STEP, u)
            raw, raw_deriv = curve.raw_pair(lam, u)
            for r in rows:
                x = xi[r]
                below = pushforward_law(renormalize(raw_below[r]), x)
                above = pushforward_law(renormalize(raw_above[r]), x)
                density, deriv = renormalize(raw[r], raw_deriv[r])
                law = pushforward_law(density, x)
                for fid, f in fns.items():
                    phi = phis[fid][r]
                    routes.setdefault((fid, cid, lam), []).append(
                        (chain_rule_lhs_fd(f, below, above, phi, _FD_STEP),
                         chain_rule_rhs(f, law, deriv, phi, antis[fid][r])))
            # freed before the next lambda's triples run, which would
            # otherwise set the battery's peak memory
            del raw_below, raw_above, raw, raw_deriv

    fd_bias = _FD_BIAS_CHAIN * _FD_STEP ** 2
    records = []
    for fid in fns:
        for cid, _ in curves:
            for lam in _CHAIN_LAMS:
                (lhs, rhs), *shards = routes[fid, cid, lam]
                se = _shard_se([l - r for l, r in shards])
                records.append(_rec(f"chain/{fid}|{cid}|lam={lam:.2f}",
                                    lhs, rhs, se, 3.0 * se + fd_bias))

    # Closed form: under exp(lam B_T - lam^2 T / 2) the mean of B_T is lam T,
    # so the lam-derivative is the horizon itself on both routes.
    (lhs, rhs), *shards = routes[_CLOSED_FORM]
    se_l = _shard_se([l for l, _ in shards])
    se_r = _shard_se([r for _, r in shards])
    records.append(_rec("chain/closed-form-fd", lhs, grid.horizon,
                        se_l, 3.0 * se_l + fd_bias))
    records.append(_rec("chain/closed-form-repr", rhs,
                        grid.horizon, se_r, 3.0 * se_r))
    return records


def _gauss_mean() -> CylindricalFn:
    """h = id, phi = exp(-x^2 / 2), for second-order and bensoussan."""
    return CylindricalFn(
        h=lambda u: u,
        h_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        phi=lambda x: np.exp(-0.5 * x[:, 0] ** 2),
        grad_phi=lambda x: -x * np.exp(-0.5 * x ** 2),
        dim=1, descriptor="gauss_mean")


def _plane_functionals() -> List[CylindricalFn]:
    return [
        CylindricalFn(h=lambda u: u,
                      h_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                      phi=lambda x: np.sin(x[:, 0]) + np.cos(x[:, 1]),
                      grad_phi=lambda x: np.column_stack([np.cos(x[:, 0]),
                                                          -np.sin(x[:, 1])]),
                      dim=2, descriptor="sin_cos"),
        CylindricalFn(h=lambda u: u ** 2, h_prime=lambda u: 2.0 * u,
                      phi=lambda x: x[:, 0] * x[:, 1],
                      grad_phi=lambda x: np.column_stack([x[:, 1], x[:, 0]]),
                      dim=2, descriptor="product"),
        CylindricalFn(h=np.tanh,
                      h_prime=lambda u: 1.0 / np.cosh(u) ** 2,
                      phi=lambda x: x[:, 0] + 0.5 * x[:, 1] ** 2,
                      grad_phi=lambda x: np.column_stack([np.ones(x.shape[0]),
                                                          x[:, 1]]),
                      dim=2, descriptor="tanh_quad"),
    ]


def check_second_order(n_paths: int = 20000, n_steps: int = 16,
                       seed: int = 7202,
                       horizon: float = 1.0) -> List[CheckRecord]:
    """Space derivative of the derivative profile against the Lions derivative.

    One-dimensional battery with a quadratic finite-difference bound and a
    step-halving slope near two; then the planar gradient version on three
    functionals, and the drift-corrected stochastic-integral representation
    against a directional finite difference of the lift.
    """
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    xi = brownian_at(pool, grid.horizon)
    curve = _curve_battery(grid)[0][1]
    records = []

    laws = [("exp0.3", pushforward_law(curve.eval(0.3, pool), xi)),
            ("base", pushforward_law(np.ones(pool.n_samples), xi))]
    # each law's probe grid spans its 5% to 95% quantiles
    probes = {lid: np.linspace(*quantiles(law.atoms_1d(), [0.05, 0.95]), 41)
              for lid, law in laws}
    fd_bias = _FD_BIAS_PROFILE * _FD_STEP ** 2
    for fid, f in (("mean_sq", make_functional("mean_sq")),
                   ("sin_mean", make_functional("sin_mean")),
                   ("gauss_mean", _gauss_mean())):
        for lid, law in laws:
            err = second_order_check_1d(f, law, probes[lid], _FD_STEP)
            records.append(_rec(f"second/1d|{fid}|{lid}",
                                err, 0.0, 0.0, fd_bias + 1e-9))

    # Step-halving ladder: the worst-case error of the centered difference
    # scales like the square of the step, so the log-log slope sits near two.
    lid, law = laws[0]
    xs = probes[lid]
    steps = np.array([0.2, 0.1, 0.05, 0.025])
    for fid, f in (("sin_mean", make_functional("sin_mean")),
                   ("gauss_mean", _gauss_mean())):
        errs = [second_order_check_1d(f, law, xs, h) for h in steps]
        slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
        records.append(_rec(f"second/slope|{fid}", slope, 2.0,
                            0.0, 0.2))

    # Planar gradient consistency on the joint law of (B_{T/2}, B_T).
    pts2 = np.column_stack([brownian_at(pool, 0.5 * grid.horizon), xi])
    law2 = pushforward_law(curve.eval(0.3, pool), pts2)
    probe2 = np.column_stack([np.linspace(-1.0, 1.0, 9),
                              np.linspace(-1.2, 1.2, 9)])
    for f in _plane_functionals():
        err = second_order_check_multidim(f, law2, probe2, _FD_STEP)
        records.append(_rec(f"second/2d|{f.descriptor}",
                            err, 0.0, 0.0, fd_bias + 1e-9))

    records.extend(_repr_records(seed, horizon))
    return records


def _exp_density(horizon: float, sig: float = 0.4):
    """(l, l') of the density l(B_T) = exp(sig B_T - sig^2 T / 2)."""
    return (lambda s: np.exp(sig * s - 0.5 * sig ** 2 * horizon),
            lambda s: sig * np.exp(sig * s - 0.5 * sig ** 2 * horizon))


def _repr_loading(grid: TimeGrid) -> np.ndarray:
    """Loading of the representation check's (xi1, xi2) = (B(T/2), B_T)."""
    n = grid.n_steps
    return np.vstack([np.arange(n) < n // 2, np.ones(n)]).astype(float)


def _repr_records(seed: int, horizon: float = 1.0) -> List[CheckRecord]:
    """Stochastic-integral representation on a coarse grid.

    The density L = l(B_T) reads the endpoint, and xi1 = B(T/2) and
    xi2 = B_T are rows of one loading, so the conditional projections are
    Gauss-Hermite integrals over the two directions they read. The grid
    stays at four steps and the pairing tolerance carries the documented
    discrete-bracket term proportional to dt.
    """
    grid = make_grid(4, horizon)
    n_paths, quad = 4000, 12
    pool = sample_paths(grid, n_paths, seed + 11)
    loading = _repr_loading(grid)

    inc = pool.increments
    endpoint = _exp_density(grid.horizon)
    l_vals = np.asarray(endpoint[0](row_sums(inc)), dtype=float)
    l_norm = l_vals / float(l_vals.mean())
    xi_pts = np.column_stack([weighted_row_sums(inc, a) for a in loading])
    _, _, gam = clark_ocone_decompose(*endpoint, pool, quad_order=32)
    dts = grid.steps
    ito_eta = (inc - gam * dts[None, :]).sum(axis=1)  # eta' = 1
    # Direction induced on the observables: constant because both read the
    # path linearly.
    eta_obs = loading @ dts

    fs = _plane_functionals()[:2]
    outs = multidim_derivative_repr(fs, endpoint, loading, pool,
                                    quad_order=quad)
    records = []
    for f, out in zip(fs, outs):
        zero, se0 = mean_and_se(l_norm * out)
        records.append(_rec(f"second/repr-drift|{f.descriptor}",
                            zero, 0.0, se0, 3.0 * se0))

        pair, se_p = mean_and_se(l_norm * out * ito_eta)
        fd = lifted_derivative_fd(f, l_vals, xi_pts,
                                  np.broadcast_to(eta_obs, xi_pts.shape),
                                  step=1e-3)
        scale = max(abs(fd), 1.0)
        tol = 3.0 * se_p + _BRACKET_BIAS * float(dts[0]) * scale
        records.append(_rec(f"second/repr-fd|{f.descriptor}",
                            pair, fd, se_p, tol))
    return records


def _girsanov_processes(grid: TimeGrid):
    knots = grid.knots[:-1]
    return [
        ("const+", constant_process(grid, 0.5)),
        ("const-", constant_process(grid, -0.8)),
        ("sin-t", deterministic_process(grid, np.sin(2.0 * np.pi * knots))),
        ("ramp", deterministic_process(grid, 0.3 * knots)),
        ("tanh-B", StepProcess(
            grid, lambda i, hist: 0.6 * np.tanh(hist.sum(axis=1)), bound=0.6)),
    ]


def _girsanov_observables():
    """(name, phi) pairs; phi(pool, b) reads the paths and their B_T, b."""
    return [
        ("endpoint", lambda pool, b: b),
        ("running-max", lambda pool, b: np.maximum(
            np.cumsum(pool.increments, axis=1), 0.0).max(axis=1)),
        ("sin-endpoint", lambda pool, b: np.sin(b)),
        ("area", lambda pool, b: np.concatenate(
            [np.zeros((pool.n_samples, 1)),
             np.cumsum(pool.increments, axis=1)[:, :-1]], axis=1)
            @ pool.grid.steps),
        ("gauss-endpoint", lambda pool, b: np.exp(-0.5 * b ** 2)),
    ]


def check_girsanov(n_paths: int = 20000, n_steps: int = 16,
                   seed: int = 7303,
                   horizon: float = 1.0) -> List[CheckRecord]:
    """Reweighting by the exponential martingale against shifted paths.

    Ten integrand/observable pairs compared with common random numbers, the
    forward/backward flow inversion down to roundoff, and the mean of the
    exponential pinned to one at every knot.

    Each integrand builds its Doleans table, shifted pool and that pool's
    B_T once, read by its two pairs, its inversion (which shifts that pool
    back) and its mean-one record, and frees them before the next one.
    """
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    phis = _girsanov_observables()
    end = brownian_at(pool, grid.horizon)
    own, cross, inverse, mean_one = [], [], [], []
    for gi, (gname, gamma) in enumerate(_girsanov_processes(grid)):
        table = doleans_exponential(pool, gamma)
        shifted = shift_forward(pool, gamma, grid.horizon)
        shifted_end = brownian_at(shifted, grid.horizon)
        # each integrand meets its own observable and the one two along
        for out, pi in ((own, gi), (cross, (gi + 2) % len(phis))):
            pname, phi = phis[pi]
            lhs, rhs, se = girsanov_check(table[:, -1], phi(pool, end),
                                          phi(shifted, shifted_end))
            out.append(_rec(f"girsanov/{gname}*{pname}",
                            lhs, rhs, se, 3.0 * se + 1e-12))

        if gname in ("sin-t", "tanh-B"):
            err = float(np.max(np.abs(shift_backward(
                shifted, gamma, grid.horizon).increments - pool.increments)))
            inverse.append(_rec(f"girsanov/inverse|{gname}",
                                err, 0.0, 0.0, 1e-10))

        if gname in ("const-", "tanh-B"):
            worst, worst_se, worst_gap = 1.0, 0.0, -1.0
            for j in range(1, table.shape[1]):
                m, se = mean_and_se(table[:, j])
                if abs(m - 1.0) - 3.0 * se > worst_gap:
                    worst, worst_se = m, se
                    worst_gap = abs(m - 1.0) - 3.0 * se
            # The roundoff floor covers knots where the integrand vanishes
            # and the exponential is exactly one on every path.
            mean_one.append(_rec(f"girsanov/mean-one|{gname}",
                                 worst, 1.0, worst_se, 3.0 * worst_se + 1e-9))
        del table, shifted, shifted_end
    return own + cross + inverse + mean_one


def _constant_integrand(grid: TimeGrid, n_paths: int, seed: int) -> CheckRecord:
    """The exponential family's integrand against its constant sigma."""
    sig = 0.4
    _, _, gam = clark_ocone_decompose(*_exp_density(grid.horizon, sig),
                                      sample_paths(grid, n_paths, seed),
                                      quad_order=32)
    return _rec("clark/constant-integrand",
                float(np.max(np.abs(gam - sig))), 0.0, 0.0, 1e-8)


def _tanh_defect(grid: TimeGrid, n_paths: int, seed: int) -> float:
    """Reconstruction defect of a tanh-shaped density: positive, mean
    exactly one by symmetry, and its conditional means stay above one half."""
    pool = sample_paths(grid, n_paths, seed)
    Z = clark_ocone_integrand(lambda s: 0.5 / np.cosh(s) ** 2, pool,
                              quad_order=32)
    vals = 1.0 + 0.5 * np.tanh(row_sums(pool.increments))
    return reconstruction_error(vals, Z, pool)


def check_clark_ocone(n_paths: int = 20000, n_steps: int = 16,
                      seed: int = 7404,
                      horizon: float = 1.0) -> List[CheckRecord]:
    """Integrand extraction on the exponential family and defect scaling.

    For exp(sigma B_T - sigma^2 T/2) the logarithmic integrand is the
    constant sigma, recovered here to quadrature accuracy. For a bounded
    nonlinear functional the reconstruction defect is measured on a doubling
    ladder of grids; each refinement should cut it by a stable factor.
    """
    # Each pool and its arrays are freed before the next pool is drawn.
    records = [_constant_integrand(make_grid(n_steps, horizon), n_paths, seed)]
    defects = [_tanh_defect(make_grid(n, horizon), n_paths, seed + n)
               for n in (4, 8, 16, 32)]
    for k, n in enumerate((4, 8, 16)):
        ratio = defects[k] / defects[k + 1]
        records.append(_rec(f"clark/defect-ratio|{n}to{2 * n}",
                            ratio, 1.5, 0.0, 0.3))
    return records


def _nested_battery(bandwidth: float):
    """The nested functionals whose inner regression has this bandwidth."""
    return [
        ("nested_gauss", NestedFn(
            g=lambda u: u,
            g_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            h=lambda u: u ** 2, h_prime=lambda u: 2.0 * u,
            psi=lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
            bandwidth=bandwidth, descriptor="nested_gauss")),
        ("tanh_outer", NestedFn(
            g=np.tanh, g_prime=lambda u: 1.0 / np.cosh(u) ** 2,
            h=lambda u: u ** 2, h_prime=lambda u: 2.0 * u,
            psi=lambda x: np.sin(np.asarray(x, dtype=float)),
            bandwidth=bandwidth, descriptor="tanh_outer")),
    ]


def check_lemma34(n_paths: int = 20000, n_steps: int = 16,
                  seed: int = 7505,
                  horizon: float = 1.0) -> List[CheckRecord]:
    """Nested conditional functional: partial-derivative formula vs bumping.

    Each functional's closed-form density derivative is paired against
    direct density perturbations, once per rung of a kernel-regression
    bandwidth ladder; the pinned tolerances tighten as the bandwidth shrinks
    because the regression bias dominates the error.
    """
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    curve = _curve_battery(grid)[0][1]
    x1 = brownian_at(pool, 0.5 * grid.horizon)
    x2 = brownian_at(pool, grid.horizon)
    law = pushforward_law(curve.eval(0.3, pool), np.column_stack([x1, x2]))
    probes = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.3]])
    ladder = (0.5, 0.35, 0.25)
    tols = {0.5: 0.035, 0.35: 0.025, 0.25: 0.02}
    records = []
    for fid, fn in _nested_battery(ladder[0]):
        for bw in ladder:
            err = nested_derivative_check(replace(fn, bandwidth=bw), law,
                                          probes)
            records.append(_rec(f"lemma34/{fid}|bw={bw:.2f}",
                                err, 0.0, 0.0, tols[bw]))
    return records


def _phi_battery():
    """1-D cylindrical functionals, each also a density functional."""
    return [
        ("sin-sin", CylindricalFn(
            h=np.sin, h_prime=np.cos, phi=lambda x: np.sin(x[:, 0]),
            grad_phi=np.cos, descriptor="sin-sin")),
        ("linear-gauss", _gauss_mean()),
    ]


def check_bensoussan(n_paths: int = 20000, n_steps: int = 16,
                     seed: int = 7606,
                     horizon: float = 1.0) -> List[CheckRecord]:
    """Measure derivative against the classical derivative of the density
    functional built from the smoothed law, on a bandwidth ladder."""
    grid = make_grid(n_steps, horizon)
    pool = sample_paths(grid, n_paths, seed)
    curve = _curve_battery(grid)[0][1]
    xi = brownian_at(pool, grid.horizon)
    law = pushforward_law(curve.eval(0.3, pool), xi)
    probes = np.linspace(-1.5, 1.5, 7)
    # Smoothing bias dominates and scales with the squared bandwidth; the
    # pinned values sit at roughly twice the measured worst case.
    ladder = (0.5, 0.35, 0.25)
    tols = {0.5: 1e-2, 0.35: 6e-3, 0.25: 3e-3}
    records = []
    for fid, phi in _phi_battery():
        for bw in ladder:
            err = bensoussan_check(phi, law, probes, bandwidth=bw)
            records.append(_rec(f"bensoussan/{fid}|bw={bw:.2f}",
                                err, 0.0, 0.0, tols[bw]))
    return records


CHECKS: Dict[str, Callable[..., List[CheckRecord]]] = {
    "chain-rule": check_chain_rule,
    "second-order": check_second_order,
    "girsanov": check_girsanov,
    "clark-ocone": check_clark_ocone,
    "lemma34": check_lemma34,
    "bensoussan": check_bensoussan,
}


def _check_inputs(name: str, n_paths: int, n_steps: int) -> None:
    """Reject sizes a battery cannot run, before it samples."""
    if name in ("second-order", "lemma34") and n_steps % 2:
        raise ValueError(f"{name} reads B at T/2, so grid.n_steps must be "
                         f"even, got {n_steps}")
    if name == "chain-rule" and n_paths < _N_SHARDS:
        raise ValueError(f"chain-rule splits the pool into {_N_SHARDS} "
                         f"shards, so n_paths must be >= {_N_SHARDS}, "
                         f"got {n_paths}")


def run_check(name: str, n_paths: int, n_steps: int, seed: int,
              horizon: float = 1.0) -> List[CheckRecord]:
    """Run one battery by name with its default tolerances."""
    if name not in CHECKS:
        raise KeyError(f"unknown check id: {name}; "
                       f"choose from {sorted(CHECKS)}")
    _check_inputs(name, n_paths, n_steps)
    return CHECKS[name](n_paths=n_paths, n_steps=n_steps, seed=seed,
                        horizon=horizon)
