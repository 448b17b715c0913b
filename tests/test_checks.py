import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wcalc import (CheckRecord, CHECKS, CylindricalFn, run_check, checks,
                   clark_ocone, density_deriv, density_functional, make_grid, measure_ops,
                   sample_paths)
from oracles import assert_bitwise, check_chain_rule_per_call, \
    check_chain_rule_per_shard, check_lemma34_pooled, \
    multidim_derivative_repr_single, second_order_check_1d_profile, \
    use_summed_route


def test_record_validation_and_properties():
    r = CheckRecord(name="x", lhs=1.0, rhs=1.2, std_err=0.05, tolerance=0.3)
    assert r.gap == pytest.approx(0.2)
    assert r.passed
    assert not CheckRecord("x", 1.0, 2.0, 0.0, 0.5).passed
    d = r.as_dict()
    assert set(d) == {"name", "lhs", "rhs", "std_err", "tolerance",
                      "gap", "passed"}
    with pytest.raises(ValueError):
        CheckRecord("bad", np.nan, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CheckRecord("bad", 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        CheckRecord("bad", 0.0, 0.0, 0.0, -0.5)


def test_registry_names():
    assert set(CHECKS) == {"chain-rule", "second-order", "girsanov",
                           "clark-ocone", "lemma34", "bensoussan"}


def test_unknown_check_id():
    with pytest.raises(KeyError, match="unknown check id"):
        run_check("nope", 1000, 8, seed=1)


def test_girsanov_battery_passes_at_small_scale():
    recs = run_check("girsanov", 2000, 8, seed=11)
    assert all(r.passed for r in recs)
    names = {r.name for r in recs}
    assert any(n.startswith("girsanov/inverse|") for n in names)
    assert any(n.startswith("girsanov/mean-one|") for n in names)
    assert sum(n.count("*") for n in names) == 10


def test_clark_ocone_battery_small_scale():
    recs = run_check("clark-ocone", 4000, 8, seed=5)
    assert all(r.passed for r in recs)
    assert any(r.name == "clark/constant-integrand" for r in recs)
    assert sum(r.name.startswith("clark/defect-ratio|") for r in recs) == 3


def test_batteries_are_seed_reproducible():
    a = run_check("girsanov", 1500, 8, seed=77)
    b = run_check("girsanov", 1500, 8, seed=77)
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]
    c = run_check("girsanov", 1500, 8, seed=78)
    assert any(x.lhs != y.lhs for x, y in zip(a, c))


def test_chain_rule_matches_the_per_call_oracle():
    """Integrating grad phi once per functional and evaluating each density
    once per pool moves no lhs and no rhs or standard error beyond
    roundoff."""
    got = run_check("chain-rule", 4000, 8, seed=3)
    want = check_chain_rule_per_call(4000, 8, seed=3)
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        assert_bitwise(g.lhs, w.lhs)
        assert abs(g.rhs - w.rhs) <= 1e-12, g.name
        assert abs(g.std_err - w.std_err) <= 1e-12, g.name


@pytest.mark.parametrize("seed", [3, 20260815])
def test_chain_rule_matches_the_per_shard_oracle_bitwise(seed):
    """Shards that read rows of the full-pool curve evaluations and of phi
    move no record from shards that evaluate both on copied paths."""
    got = run_check("chain-rule", 4000, 16, seed=seed)
    want = check_chain_rule_per_shard(4000, 16, seed=seed)
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        assert_bitwise([g.lhs, g.rhs, g.std_err, g.tolerance],
                       [w.lhs, w.rhs, w.std_err, w.tolerance])


def test_chain_rule_evaluates_each_curve_and_phi_once(monkeypatch):
    """Per (curve, lambda) the curve's triple runs once at lambda - h,
    lambda + h and lambda, not once more per shard; phi runs once per
    functional."""
    calls = []

    def counted(obj, field, label):
        fn = getattr(obj, field)

        def counting(*args):
            calls.append(label)
            return fn(*args)
        object.__setattr__(obj, field, counting)    # the curve is frozen
        return obj

    battery, make = checks._curve_battery, checks.make_functional
    monkeypatch.setattr(checks, "_curve_battery", lambda grid: [
        (cid, counted(c, "triple", "curve")) for cid, c in battery(grid)])
    monkeypatch.setattr(checks, "make_functional",
                        lambda fid: counted(make(fid), "phi", "phi"))
    run_check("chain-rule", 1000, 8, seed=3)
    assert calls.count("curve") == 2 * len(checks._CHAIN_LAMS) * 3
    assert calls.count("phi") == 3


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_lemma34_matches_the_pooled_nested_oracle(seed):
    """The nested check on the joint law of (xi1, xi2), weighted by L / sum L,
    moves no lemma34 record beyond roundoff from the route that weighted
    the regression by L and averaged over the pool."""
    got = run_check("lemma34", n_paths=20_000, n_steps=16, seed=seed)
    want = check_lemma34_pooled(20_000, 16, seed=seed)
    assert [r.name for r in got] == [name for name, _ in want]
    for r, (_, lhs) in zip(got, want):
        assert abs(r.lhs - lhs) <= 1e-12, r.name


def test_lemma34_regresses_m_at_the_atoms_once_per_record(monkeypatch):
    """Each of the six records regresses m once for its profile at the
    atoms (read again at xi2, not recomputed) and once per bumped law:
    42 kernel_regression calls, not 48."""
    calls = []
    kernel_regression = measure_ops.kernel_regression

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel_regression(*args, **kwargs)

    monkeypatch.setattr(measure_ops, "kernel_regression", counting)
    records = run_check("lemma34", n_paths=20_000, n_steps=16, seed=20260815)
    assert len(records) == 6
    assert len(calls) == 42


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_bensoussan_battery_catches_a_scaled_representer(monkeypatch, seed):
    """Power: the density-functional representer off by one percent fails
    records of the bensoussan battery at reference size (5 of 6 measured,
    all but linear-gauss at bandwidth 0.5). The patch scales the one
    routine that builds the representer (and hands phi on unscaled), which
    both the x-derivative and the centered profile comparison read."""
    representer = density_functional._representer

    def scaled(f, h):
        at = representer(f, h)

        def scaled_at(pts):
            rep, phi = at(pts)
            return 1.01 * rep, phi
        return scaled_at

    monkeypatch.setattr(density_functional, "_representer", scaled)
    records = run_check("bensoussan", n_paths=20_000, n_steps=16, seed=seed)
    assert len(records) == 6
    assert sum(not r.passed for r in records) >= 5, [
        r.name for r in records if r.passed]


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_chain_rule_battery_catches_a_scaled_outer_slope(monkeypatch, seed):
    """Power: h'(<phi, law>) off by one percent fails every battery record
    at reference size. The closed-form pair passes: its 7-df shard
    standard error is wide. Only the rhs reads CylindricalFn.slope; the
    lhs differences CylindricalFn.value."""
    slope = CylindricalFn.slope
    monkeypatch.setattr(CylindricalFn, "slope",
                        lambda f, law, phi_values=None: 1.01 * slope(
                            f, law, phi_values))
    records = run_check("chain-rule", n_paths=20_000, n_steps=16, seed=seed)
    battery = [r for r in records if "|" in r.name]
    assert len(battery) == 18
    assert not any(r.passed for r in battery), [r.name for r in battery
                                                if r.passed]


# Largest |new - old| over the 14 one-dimensional calls of the battery was
# 4.2e-13 at seeds 20260815, 3 and 4; the bound is 5e-6 of the 2e-6
# tolerance of a second/1d record.
_PROFILE_ROUTE_GAP = 1e-11


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_second_order_1d_matches_the_profile_route(monkeypatch, seed):
    """Differencing c Phi at the 2m points x +- h gives, up to quadrature
    roundoff, the error that the central difference of the centered
    profile gave, on every one-dimensional call of the battery."""
    gaps = []
    check_1d = checks.second_order_check_1d

    def both(f, law, xs, h):
        got = check_1d(f, law, xs, h)
        gaps.append(abs(got - second_order_check_1d_profile(f, law, xs, h)))
        return got

    monkeypatch.setattr(checks, "second_order_check_1d", both)
    checks.check_second_order(20_000, 16, seed)
    assert len(gaps) == 14
    assert max(gaps) <= _PROFILE_ROUTE_GAP, gaps


def test_second_order_integrates_only_the_points_it_differences(monkeypatch):
    """Each one-dimensional call integrates grad phi at its 82 points
    (41 grid points +- h), not at the 20 000 atoms of the law as well."""
    sizes = []
    antiderivative_at = density_deriv.antiderivative_at

    def counting(fn, xs, **kwargs):
        sizes.append(np.size(xs))
        return antiderivative_at(fn, xs, **kwargs)

    monkeypatch.setattr(density_deriv, "antiderivative_at", counting)
    checks.check_second_order(20_000, 16, 20260815)
    assert len(sizes) == 14
    assert max(sizes) <= 82, sizes


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_second_order_battery_catches_a_scaled_antiderivative(monkeypatch,
                                                              seed):
    """Power: Phi off by one percent fails every second/1d and second/slope
    record at reference size (gaps 1.6e-5 to 1e-2 against 2e-6, slopes off
    by 2.2 to 2.5 against 0.2)."""
    anti = density_deriv.grad_phi_antiderivative
    monkeypatch.setattr(density_deriv, "grad_phi_antiderivative",
                        lambda f, xi: 1.01 * anti(f, xi))
    records = [r for r in run_check("second-order", n_paths=20_000,
                                    n_steps=16, seed=seed)
               if r.name.startswith(("second/1d|", "second/slope|"))]
    assert len(records) == 8
    assert not any(r.passed for r in records), [r.name for r in records
                                                if r.passed]


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_representation_shares_one_mesh_bitwise(seed):
    """Both plane functionals from one call equal, bitwise, the route that
    ran the decomposition and every projection once per functional on
    numpy's row sums and written-out gradients, on the second-order
    battery's pool, loading (B(T/2), B_T) and quadrature order."""
    grid = make_grid(4)
    pool = sample_paths(grid, 4000, seed + 11)
    loading = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    assert_bitwise(checks._repr_loading(grid), loading)
    fs = checks._plane_functionals()[:2]
    endpoint = checks._exp_density(grid.horizon)
    got = density_deriv.multidim_derivative_repr(fs, endpoint, loading, pool,
                                                 quad_order=12)
    assert len(got) == len(fs)
    for f, out in zip(fs, got):
        assert_bitwise(out, multidim_derivative_repr_single(
            f, endpoint, loading, pool, quad_order=12))


def test_representation_does_not_depend_on_the_row_budget(monkeypatch):
    """gaussian_smooth's chunks hold a multiple of 8 prefix rows, so the
    battery's projections (144 mesh nodes a row at knot 1, 12 at knots 2
    and 3, 4000 rows) are bitwise the same at budgets of 2**10, 2**14 and
    2**18 mesh rows: 8, 112 and 1816 rows a chunk at knot 1."""
    grid = make_grid(4)
    pool = sample_paths(grid, 4000, 20260815 + 11)
    fs = checks._plane_functionals()[:2]
    endpoint = checks._exp_density(grid.horizon)
    outs = []
    for budget in (1 << 10, 1 << 14, 1 << 18):
        monkeypatch.setattr(clark_ocone, "_ROW_BUDGET", budget)
        outs.append(density_deriv.multidim_derivative_repr(
            fs, endpoint, checks._repr_loading(grid), pool, quad_order=12))
    for got in outs[1:]:
        for g, w in zip(got, outs[0]):
            assert_bitwise(g, w)


def _traced_peak(fn, **kwargs) -> int:
    """Traced peak of a second call, so first-call caches and imports do
    not count and the test order does not matter."""
    fn(**kwargs)
    tracemalloc.start()
    try:
        fn(**kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_representation_check_stays_cache_sized():
    """The representation records' traced peak stays below 8 MB: the mesh
    chunks are cache-sized (a warm peak of 3.4 MB at a 2**14-row budget,
    against 32.8 MB at 2**18), so a larger budget shows here."""
    peak = _traced_peak(checks._repr_records, seed=20260815)
    assert peak < 8e6, peak


def test_chain_rule_builds_no_position_matrix():
    """The chain-rule battery reads B_T and the increments' row sums once,
    then drops its pool, which never builds the (paths, steps + 1) position
    matrix: a traced peak of 3.30 MB at 10k paths and 16 steps, against
    4.50 MB when the increments stayed alive for the curve reads and 5.87 MB
    when every pool also built its matrix."""
    peak = _traced_peak(checks.check_chain_rule, n_paths=10_000, n_steps=16,
                        seed=20260815)
    assert peak < 3.9e6, peak


def test_clark_ocone_frees_each_pool_before_the_next():
    """Each rung's pool, integrand and values are freed before the next rung
    samples, and the base pool before the ladder; no rung builds its
    position matrix or a whole Z * B(D_i) product: a traced peak of 1.82 MB
    at 2000 paths and 16 steps, against 2.35 MB when the 32-step rung held
    both and 3.67 MB when the pools also stayed alive."""
    peak = _traced_peak(checks.check_clark_ocone, n_paths=2000, n_steps=16,
                        seed=20260815)
    assert peak < 2.1e6, peak


@pytest.mark.parametrize("seed", [20260815, 3, 4])
def test_second_order_records_match_the_summed_route_bitwise(monkeypatch,
                                                             seed):
    """All 15 records, hex for hex, as when the probe grids came from
    np.quantile and the representation read numpy's row sums."""
    got = run_check("second-order", n_paths=20_000, n_steps=16, seed=seed)
    use_summed_route(monkeypatch)
    want = run_check("second-order", n_paths=20_000, n_steps=16, seed=seed)
    assert len(got) == len(want) == 15
    for g, w in zip(got, want):
        assert g.name == w.name
        assert_bitwise([g.lhs, g.rhs, g.std_err, g.tolerance],
                       [w.lhs, w.rhs, w.std_err, w.tolerance])


@pytest.mark.parametrize("loading", [np.ones((2, 3)), np.ones((2, 5)),
                                     [[1.0, 1.0, 0.0, 0.0], [1.0] * 3 + [np.nan]],
                                     [[1.0, np.inf, 0.0, 0.0]], np.ones(4)])
def test_representation_refuses_a_malformed_loading_before_any_evaluation(
        monkeypatch, loading):
    """A loading of the wrong width or shape, or a non-finite one, raises
    ValueError before the density, the decomposition or any projection is
    evaluated."""
    def refuse(name):
        def fn(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        return fn

    for name in ("clark_ocone_decompose", "gaussian_smooth"):
        monkeypatch.setattr(density_deriv, name, refuse(name))
    pool = sample_paths(make_grid(4), 50, seed=2)
    with pytest.raises(ValueError, match="loading must be"):
        density_deriv.multidim_derivative_repr(
            checks._plane_functionals()[:2], (refuse("l"), refuse("l'")),
            loading, pool)


def test_representation_smooths_once_per_knot(monkeypatch):
    """At the battery's size the two functionals share each knot's
    projection (4 gaussian_smooth calls on the four-step grid, not 8) and
    one decomposition of L (plus the check's own at order 32: 2, not 3)."""
    calls = {"smooth": 0, "decompose": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(density_deriv, "gaussian_smooth",
                        counting("smooth", density_deriv.gaussian_smooth))
    for mod in (density_deriv, checks):
        monkeypatch.setattr(mod, "clark_ocone_decompose",
                            counting("decompose", mod.clark_ocone_decompose))
    records = checks._repr_records(20260815)
    assert len(records) == 4
    assert calls == {"smooth": 4, "decompose": 2}


_HEX_RECORDS = """
import sys
sys.path.insert(0, {src!r})
from wcalc import run_check
for name, n_paths in (("clark-ocone", 2000), ("second-order", 2000),
                      ("chain-rule", 20000), ("lemma34", 20000)):
    for r in run_check(name, n_paths, 16, 3):
        print(r.name, *(float(v).hex() for v in (r.lhs, r.rhs, r.std_err,
                                                  r.tolerance)))
"""


def test_records_ignore_the_blas_thread_count():
    """Fresh interpreters at OPENBLAS_NUM_THREADS=1 and 2 print every
    clark-ocone, second-order, chain-rule and lemma34 record as hex floats,
    identically. The (1025, q) @ w reads of the knot tables and the
    (rows, q) @ w reads of gaussian_smooth's mesh are matrix-vector
    products whose threads split the rows, so each row's sum runs in one
    fixed order; sums over the atoms, which np.dot would split across
    threads past about 10k terms, go through numerics.weighted_sum."""
    code = _HEX_RECORDS.format(
        src=str(Path(__file__).resolve().parents[1] / "src"))
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].splitlines()) == 4 + 15 + 20 + 6
    assert outs[0] == outs[1]
