import csv
import dataclasses
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (make_grid, sample_paths, dyadic_coarsen,
                   exponential_curve, PipelineConfig, PipelineReport,
                   pipeline_run, ConditionedDensity, TruncatedDensity,
                   MollifiedDensity, stage5_normalize, stage5_derivative,
                   StepProcess, final_errors_at, doleans_exponential,
                   pipeline_ladders, DEFAULT_THRESHOLDS)
from wcalc import approx_pipeline, clark_ocone
from wcalc.numerics import bump_lattice_1d, bump_quad_1d, row_sums

from oracles import (assert_bitwise, consistency_gap_decomposed, mollified_acc,
                     read_table_interp, truncated_parts)


def exp_curve(grid, lo=0.1, hi=0.9):
    return exponential_curve(grid, lo, hi)


# ---------------------------------------------------------------- config

def test_config_validation():
    good = dict(dyadic_level=2, truncation_level=6.0, mollify_eps=0.1,
                positivity_floor=0.1, step_count=2, quad_order=16)
    PipelineConfig(**good)
    for key, bad in [("dyadic_level", -1), ("truncation_level", 2.5),
                     ("mollify_eps", 0.0), ("mollify_eps", 1.0),
                     ("positivity_floor", 0.0), ("positivity_floor", 1.5),
                     ("step_count", 3), ("step_count", 0),
                     ("quad_order", 1), ("truncation_level", np.nan),
                     ("truncation_level", np.inf)]:
        with pytest.raises(ValueError):
            PipelineConfig(**{**good, key: bad})
    # the level may reach 1023 * eps, where the u-table has 32 * 1024 + 1
    # points, no more
    PipelineConfig(**{**good, "truncation_level": 1023 * 0.1})
    for level in (102.31, 1e6, 1e308):
        with pytest.raises(ValueError, match="truncation_level.*mollify_eps"):
            PipelineConfig(**{**good, "truncation_level": level})


# ---------------------------------------------------------------- stage 1

def test_stage1_exact_for_endpoint_curves():
    grid = make_grid(8)
    pool = sample_paths(grid, 3000, seed=21)
    curve = exp_curve(grid)
    lam = 0.5
    want = curve.eval_pair(lam, pool)
    for level in (1, 2, 3):
        cond = ConditionedDensity(curve, level, pool)
        got = cond.parts(lam, row_sums(pool.increments))[:2]
        for g, w in zip(got, want):
            assert_bitwise(g, w)


# ---------------------------------------------------------------- stage 3

def test_stage3_identity_on_the_flat_region():
    grid = make_grid(8)
    pool = sample_paths(grid, 2000, seed=44)
    curve = exp_curve(grid)
    cond = ConditionedDensity(curve, 2, pool)
    trunc = TruncatedDensity(cond, 8.0)
    lam = 0.3
    u = np.linspace(-4.0, 4.0, 41)
    cv, cd, cu = cond.parts(lam, u)
    tv, td, tu = trunc.parts(lam, u)
    assert np.max(np.abs(cv)) < 6.0  # inside the cap, so nothing moves
    assert np.array_equal(tv, cv)
    assert np.array_equal(td, cd)
    assert np.array_equal(tu, cu)
    far = np.array([-9.0, 8.0, 12.0])
    fv, fd, fu = trunc.parts(lam, far)
    assert np.all(fv == 0.0)
    assert np.all(fd == 0.0)
    assert np.all(fu == 0.0)


@pytest.mark.parametrize("level", [3.0, 4.0, 6.0, 8.0])
def test_stage3_matches_the_recomputing_oracle(level):
    """parts, with its coordinate cutoffs computed inside or handed in,
    equals the full-formula oracle bitwise, band and cap included."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=12)
    trunc = TruncatedDensity(ConditionedDensity(exp_curve(grid, -9.0, 9.0),
                                                2, pool), level)
    u = np.concatenate([np.linspace(-level - 1.0, level + 1.0, 301),
                        [level - 2.0, level, -level, 0.0, -0.0]])
    for lam in (0.3, 0.9, -1.7, level - 1.5, level - 2.0, -level, 8.5):
        want = truncated_parts(trunc, lam, u)
        for got in (trunc.parts(lam, u),
                    trunc.parts(lam, u, _cutoffs=trunc.cutoffs(u))):
            for g, w in zip(got, want):
                assert_bitwise(g, w)


@pytest.mark.parametrize("level,eps", [(3.0, 0.3), (6.0, 0.1), (8.0, 0.5)])
def test_stage4_matches_the_recomputing_oracle(level, eps):
    """triple, which computes the cutoffs once per call, equals a quadrature
    that recomputes them at every parameter node, bitwise."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=13)
    cond = ConditionedDensity(exp_curve(grid, -9.0, 9.0), 3, pool)
    moll = MollifiedDensity(TruncatedDensity(cond, level), eps)
    u = np.linspace(-level - 1.0, level + 1.0, 97)
    for lam in (0.3, 1.1, level - 1.0, -level + 0.2):
        for g, w in zip(moll.triple(lam, u), mollified_acc(moll, lam, u)):
            assert_bitwise(g, w)


def test_stage3_rejects_small_levels():
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=2)
    cond = ConditionedDensity(exp_curve(grid), 1, pool)
    with pytest.raises(ValueError):
        TruncatedDensity(cond, 2.0)


# ---------------------------------------------------------------- stage 4

def test_stage4_width_validation():
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=2)
    cond = ConditionedDensity(exp_curve(grid), 1, pool)
    trunc = TruncatedDensity(cond, 6.0)
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            MollifiedDensity(trunc, eps)


def test_stage4_derivatives_match_finite_differences():
    grid = make_grid(8)
    pool = sample_paths(grid, 1000, seed=6)
    cond = ConditionedDensity(exp_curve(grid), 2, pool)
    moll = MollifiedDensity(TruncatedDensity(cond, 6.0), 0.15)
    lam = 0.45
    u = np.array([-1.2, 0.0, 0.7, 2.1])
    h = 1e-5
    value = lambda l, x: moll.triple(l, x)[0]
    _, dlam, du = moll.triple(lam, u)
    fd_lam = (value(lam + h, u) - value(lam - h, u)) / (2 * h)
    assert np.max(np.abs(fd_lam - dlam)) < 1e-6
    fd_u = (value(lam, u + h) - value(lam, u - h)) / (2 * h)
    assert np.max(np.abs(fd_u - du)) < 1e-6


# ------------------------------------------------------- stage-4 u-table

def reference_moll(pool):
    """The stage-4 density of the reference config: truncation 6, width 0.1."""
    cond = ConditionedDensity(exp_curve(pool.grid, 0.0, 1.0), 3, pool)
    return MollifiedDensity(TruncatedDensity(cond, 6.0), 0.1)


def lattice_size(level, eps):
    """(k, n) of the u-table at truncation level and width eps: the spacing
    h = eps / 16 / k is the coarsest such one within 2 S / 4096, and the
    lattice h * arange(-n, n + 1) is the shortest that reaches +-S."""
    S = level + eps
    k = int(np.ceil(eps / 16 / (2.0 * S / 4096)))
    return k, int(np.ceil(S / (eps / 16 / k)))


# Largest |lattice_triple - triple| over a column's nodes, over its largest
# |triple|, measured at the five tables below at parameters 0.3 and 0.7:
# 1.2e-15 (the two routes add the same terms in another order)
_LATTICE_ROUNDOFF = 1e-14


@pytest.mark.parametrize("level,eps", [(6.0, 0.1), (4.0, 0.1), (8.0, 0.1),
                                       (6.0, 0.4), (6.0, 0.2)])
def test_u_table_reads_its_nodes_bitwise_and_zero_outside(level, eps):
    """At the reference config and the ladder tables, the grid is the
    lattice, a read at a node returns the table entry (lattice_triple's
    value there) bitwise, the entries equal direct triple to roundoff, and
    reads at and beyond +-S are exactly 0."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=30)
    cond = ConditionedDensity(exp_curve(grid, 0.0, 1.0), 3, pool)
    moll = MollifiedDensity(TruncatedDensity(cond, level), eps)
    k, n = lattice_size(level, eps)
    for lam in (0.3, 0.7):
        table = approx_pipeline._UTable(moll, lam)
        S = table.half_width
        assert S == level + eps and table.h == eps / 16 / k
        assert_bitwise(table.grid, table.h * np.arange(-n, n + 1))
        assert table.grid[-1] >= S > table.grid[-2]
        entries = moll.lattice_triple(lam, k, n)
        inside = np.abs(table.grid) < S
        for got, entry, want in zip(table.read(table.grid), entries,
                                    moll.triple(lam, table.grid)):
            assert_bitwise(got[inside], entry[inside])
            assert np.all(got[~inside] == 0.0)
            assert np.max(np.abs(entry - want)) \
                <= _LATTICE_ROUNDOFF * np.max(np.abs(want))
        far = np.array([-np.inf, -S - 1.0, -S, S, np.nextafter(S, 9.0), 9.0])
        for got in table.read(far):
            assert_bitwise(got, np.zeros(far.size))
    if (level, eps) == (6.0, 0.1):
        assert table.grid.size == 5857


def test_u_table_build_evaluates_the_truncated_density_once_per_node(
        monkeypatch):
    """One u-table build at the reference config makes 17 truncated-density
    calls, one per parameter node, each on the 2n + 1 lattice points
    widened by 15 coordinate steps of k points on each side, and no direct
    moll.triple call."""
    grid = make_grid(8)
    moll = reference_moll(sample_paths(grid, 500, seed=30))
    sizes, direct = [], []
    parts, triple = TruncatedDensity.parts, MollifiedDensity.triple

    def counting_parts(self, lam, coords, *args, **kwargs):
        sizes.append(np.size(coords))
        return parts(self, lam, coords, *args, **kwargs)

    def counting_triple(self, lam, coords):
        direct.append(np.size(coords))
        return triple(self, lam, coords)

    monkeypatch.setattr(TruncatedDensity, "parts", counting_parts)
    monkeypatch.setattr(MollifiedDensity, "triple", counting_triple)
    approx_pipeline._UTable(moll, 0.3)
    k, n = lattice_size(6.0, 0.1)
    assert sizes == [2 * n + 1 + 30 * k] * 17 and direct == []


def test_lattice_rule_is_no_less_accurate_than_the_rule_it_replaced():
    """Against a fine tensor trapezoid-bump reference (nodes j / 96 on both
    axes), the mollifier's rules (17-node Gauss-Legendre bump in the
    parameter, trapezoid bump at j / 16 in B_T) err at most 1.5 times as
    much in value, parameter and B_T derivative as the 17 x 17
    Gauss-Legendre bump rule, at 41 points across the reference support.
    Measured ratios: 1.04 / 1.00 / 1.00 at 0.3 and 0.86 / 0.91 / 0.29 at
    0.7; 15-node trapezoid bump rules on both axes read 5.7 to 109."""
    grid = make_grid(8)
    moll = reference_moll(sample_paths(grid, 500, seed=31))
    u = np.linspace(-6.1, 6.1, 41)
    fine = bump_lattice_1d(96)
    gl = bump_quad_1d(17)
    for lam in (0.3, 0.7):
        ref = mollified_acc(moll, lam, u, (fine, fine))
        errs = [[np.max(np.abs(g - r)) for g, r in
                 zip(mollified_acc(moll, lam, u, rules), ref)]
                for rules in ((gl, bump_lattice_1d(16)), (gl, gl))]
        for new, old in zip(*errs):
            assert new <= 1.5 * old


# Largest |read - direct| measured over the points of the test below
# (value, lam-derivative, u-derivative): 1.5e-11, 1.0e-8 and 2.4e-7 (at
# 0.3, 5.1e-12, 1.6e-10 and 2.2e-7 on the random points). The bounds are
# four times the measurement.
_U_TABLE_BOUNDS = (6e-11, 4.2e-8, 9.5e-7)


@pytest.mark.parametrize("lam", [0.3, 0.7])
def test_u_table_reads_match_direct_evaluation(lam):
    """Within the stated bounds of direct moll.triple at seeded random
    points and at one block knot's Gauss-Hermite points y + sqrt(var) x."""
    grid = make_grid(8)
    pool = sample_paths(grid, 1000, seed=31)
    moll = reference_moll(pool)
    table = approx_pipeline._UTable(moll, lam)
    S = table.half_width
    random_pts = np.random.default_rng(32).uniform(-S, S, 4000)
    x, _ = approx_pipeline.gauss_hermite(32)
    t = grid.knots[4]
    knot_pts = (clark_ocone._table_y_grid(pool.cumulative[:, :-1])[:, None]
                + np.sqrt(grid.horizon - t) * x[None, :]).ravel()
    for pts in (random_pts, knot_pts):
        for got, want, bound in zip(table.read(pts), moll.triple(lam, pts),
                                    _U_TABLE_BOUNDS):
            assert np.max(np.abs(got - want)) <= bound


def test_u_table_reads_match_direct_evaluation_at_the_widest_spacing():
    """At the reference level 6 and the smallest width the config accepts,
    6/1023, the lattice takes its widest spacing relative to the width,
    eps/16, and its most points, 32 * 1024 + 1, and reads stay within the
    bounds above (measured 7.9e-14, 6.4e-12 and 2.1e-9)."""
    grid = make_grid(8)
    pool = sample_paths(grid, 1000, seed=31)
    eps = 6.0 / 1023
    PipelineConfig(dyadic_level=3, truncation_level=6.0, mollify_eps=eps,
                   positivity_floor=0.1, step_count=8, quad_order=8)
    cond = ConditionedDensity(exp_curve(grid, 0.0, 1.0), 3, pool)
    moll = MollifiedDensity(TruncatedDensity(cond, 6.0), eps)
    table = approx_pipeline._UTable(moll, 0.7)
    assert table.h == eps / 16 and table.grid.size == 32 * 1024 + 1
    pts = np.random.default_rng(32).uniform(-table.half_width,
                                            table.half_width, 4000)
    for got, want, bound in zip(table.read(pts), moll.triple(0.7, pts),
                                _U_TABLE_BOUNDS):
        assert np.max(np.abs(got - want)) <= bound


def test_knot_tables_read_as_np_interp_bitwise():
    """The reader of stages 6 and 7 and of the clark-ocone battery gives the
    per-knot np.interp loop's result bit for bit, at every path's left-knot
    position, on one grid shared by every knot and on a grid per knot."""
    pool = sample_paths(make_grid(8), 5000, seed=33)
    left = pool.cumulative[:, :-1]
    y_grid = clark_ocone._table_y_grid(left)
    rng = np.random.default_rng(34)
    tables = [rng.standard_normal((8, y_grid.size)) for _ in range(2)]
    for grids in (np.broadcast_to(y_grid, (8, y_grid.size)),
                  np.stack([clark_ocone._table_y_grid(y) for y in left.T])):
        got = clark_ocone._read_knot_tables(pool, grids, tables)
        for read, tab in zip(got, tables):
            assert read.flags.c_contiguous
            assert_bitwise(read, read_table_interp(tab, grids, left))


def test_consistency_gap_detects_a_skewed_u_table(monkeypatch):
    """_consistency_gap decomposes the stage-5 functional through moll, not
    the table, so a table whose u-derivative is 0.1% off shows up: a gap
    above 1e-5 (2.9e-4 measured, or a refusal) against 5.2e-8 on the
    honest table."""
    grid = make_grid(8)
    pool = sample_paths(grid, 2000, seed=33)
    curve = exp_curve(grid, 0.0, 1.0)
    cfg = PipelineConfig(dyadic_level=2, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1, step_count=4,
                         quad_order=16)
    assert pipeline_run(curve, 0.3, 0.5, cfg, pool).gamma_consistency_gap \
        < 1e-6
    read = approx_pipeline._UTable.read

    def skewed(self, x):
        v, dl, du = read(self, x)
        return v, dl, du * (1.0 + 1e-3)

    monkeypatch.setattr(approx_pipeline._UTable, "read", skewed)
    try:
        gap = pipeline_run(curve, 0.3, 0.5, cfg, pool).gamma_consistency_gap
    except ValueError as exc:
        assert "integrand table disagrees" in str(exc)
    else:
        assert gap > 1e-5


@pytest.mark.parametrize("dyadic_level,step_count,quad_order,n_paths",
                         [(2, 4, 16, 2000), (3, 2, 32, 1000)])
def test_consistency_gap_reads_one_triple_per_block_knot(
        monkeypatch, dyadic_level, step_count, quad_order, n_paths):
    """The check's Z, M and gap equal the decomposition of the stage-5
    density as an endpoint functional bitwise, from exactly one
    moll.triple call per block knot."""
    grid = make_grid(8)
    pool = sample_paths(grid, n_paths, seed=35)
    cfg = PipelineConfig(dyadic_level=dyadic_level, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1,
                         step_count=step_count, quad_order=quad_order)
    gap_check = approx_pipeline._consistency_gap
    tables = approx_pipeline.knot_tables
    triple = MollifiedDensity.triple
    calls = {"gap": [], "triple": 0, "tables": []}
    inside = []

    def counted_gap(*args):
        calls["gap"].append(args)
        inside.append(True)
        try:
            return gap_check(*args)
        finally:
            inside.pop()

    def kept_tables(*args):
        out = tables(*args)
        if inside:
            calls["tables"].append(out)
        return out

    def counted_triple(self, lam, coords):
        calls["triple"] += bool(inside)
        return triple(self, lam, coords)

    monkeypatch.setattr(approx_pipeline, "_consistency_gap", counted_gap)
    monkeypatch.setattr(approx_pipeline, "knot_tables", kept_tables)
    monkeypatch.setattr(MollifiedDensity, "triple", counted_triple)
    rep = pipeline_run(exp_curve(grid, 0.0, 1.0), 0.3, 0.5, cfg, pool)
    assert len(calls["gap"]) == 1
    assert calls["triple"] == 1 << dyadic_level
    monkeypatch.undo()
    gap, (Z, M, _) = consistency_gap_decomposed(*calls["gap"][0])
    [(got_Z, got_M)] = calls["tables"]
    assert_bitwise(got_Z.T, Z)
    assert_bitwise(got_M.T, M)
    assert_bitwise(rep.gamma_consistency_gap, gap)


# ---------------------------------------------------------------- stage 5

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=2, max_size=40),
       st.floats(1e-3, 1.0))
def test_stage5_output_is_a_floored_density(vals, eps):
    v = np.asarray(vals)
    out = stage5_normalize(v, eps)
    assert np.all(out > 0.0)
    assert abs(out.mean() - 1.0) < 1e-12
    assert out.min() >= eps / (eps + v.mean()) - 1e-12


def test_stage5_rejects_negative_input():
    with pytest.raises(ValueError):
        stage5_normalize(np.array([1.0, -0.1, 2.0]), 0.1)
    with pytest.raises(ValueError):
        stage5_normalize(np.ones(4), 0.0)


def test_stage5_constant_is_a_fixed_point():
    out = stage5_normalize(np.ones(7), 0.3)
    assert np.allclose(out, 1.0, atol=1e-12)


def test_stage5_derivative_is_the_directional_slope():
    rng = np.random.default_rng(9)
    v = rng.uniform(0.2, 3.0, 150)
    dv = rng.normal(size=150)
    h = 1e-6
    fd = (stage5_normalize(v + h * dv, 0.1)
          - stage5_normalize(v - h * dv, 0.1)) / (2 * h)
    assert np.allclose(stage5_derivative(v, dv, 0.1), fd, atol=1e-6)


# --------------------------------------------------------------- stage 7

@pytest.mark.parametrize("k", [8, 4, 2])
@pytest.mark.parametrize("kind", ["per-knot", "time-constant"])
def test_horizon_exponential_is_the_girsanov_exponential(kind, k):
    """Stage 7's exponential of every (8/k)-th table column equals, bitwise,
    doleans_exponential's horizon column for the step integrand on the
    k-step grid that returns those columns. A time-constant integrand loses
    nothing to the coarser grid, and the exponential stays positive."""
    grid = make_grid(8)
    pool = sample_paths(grid, 3000, seed=14)
    rng = np.random.default_rng(8)
    if kind == "per-knot":
        g = rng.uniform(-0.8, 0.8, (3000, 8))
    else:
        g = np.repeat(rng.uniform(-0.8, 0.8, 3000)[:, None], 8, axis=1)
    s = 8 // k
    coarse = dyadic_coarsen(pool, k.bit_length() - 1)
    gamma = StepProcess(coarse.grid, lambda i, h: g[:, ::s][:, i], 0.8)
    got = approx_pipeline._horizon_exponential(coarse, g[:, ::s])
    assert_bitwise(got, doleans_exponential(coarse, gamma)[:, -1])
    assert np.all(got > 0.0)
    if kind == "time-constant":
        fine = approx_pipeline._horizon_exponential(pool, g)
        assert np.allclose(got, fine, rtol=1e-12)


# ---------------------------------------------------------- full pipeline

def test_pipeline_run_validation():
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=1)
    curve = exp_curve(grid)
    cfg = PipelineConfig(dyadic_level=2, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1, step_count=2,
                         quad_order=8)
    with pytest.raises(ValueError):
        pipeline_run(curve, 0.3, 0.3, cfg, pool)
    with pytest.raises(ValueError):
        pipeline_run(curve, 0.3, 0.95, cfg, pool)


def test_pipeline_run_end_to_end(tmp_path):
    grid = make_grid(8)
    pool = sample_paths(grid, 4000, seed=101)
    curve = exp_curve(grid)
    cfg = PipelineConfig(dyadic_level=2, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1, step_count=4,
                         quad_order=16)
    rep = pipeline_run(curve, 0.3, 0.5, cfg, pool)
    assert isinstance(rep, PipelineReport)
    assert tuple(s.stage for s in rep.stages) == (1, 3, 4, 5, 6, 7)
    st7 = rep.stage(7)
    assert rep.final_value_error == st7.l2_error_value
    assert rep.final_deriv_error == st7.l2_error_deriv
    assert rep.final_segment_error == st7.along_segment_error
    st1 = rep.stage(1)
    assert st1.l2_error_value == st1.l2_error_deriv == 0.0
    assert st1.along_segment_error == 0.0
    assert rep.final_value_error < 0.1
    assert rep.gamma_consistency_gap < 5e-3
    assert rep.knot_times.shape == (4,)
    assert rep.gamma_table.shape == (4, rep.gamma_y.size)
    with pytest.raises(KeyError):
        rep.stage(2)

    out = str(tmp_path / "run")
    rep.save(out)
    with open(os.path.join(out, "pipeline_report.json")) as fh:
        data = json.load(fh)
    assert data["schema"] == "pipeline-report-v1"
    assert data["final_value_error"] == rep.final_value_error
    assert len(data["stages"]) == 6
    with open(os.path.join(out, "gamma_table.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("y,")
    assert len(lines) == 1 + rep.gamma_y.size


def test_final_errors_smoke():
    grid = make_grid(8)
    pool = sample_paths(grid, 3000, seed=55)
    cfg = PipelineConfig(dyadic_level=2, truncation_level=6.0,
                         mollify_eps=0.15, positivity_floor=0.1, step_count=4,
                         quad_order=12)
    ev, ed, se_v, se_d = final_errors_at(exp_curve(grid), 0.4, cfg, pool)
    for x in (ev, ed, se_v, se_d):
        assert np.isfinite(x) and x >= 0.0
    assert ev < 0.1


@pytest.mark.parametrize("level,k", [(2, 4), (1, 2)])
def test_final_errors_match_the_pipeline_when_stage7_is_stage6(level, k):
    """With step_count == 2**dyadic_level both routes build the same table on
    the same y-grid, so the ladder core reproduces the final errors."""
    grid = make_grid(8)
    pool = sample_paths(grid, 3000, seed=101)
    curve = exp_curve(grid, 0.0, 1.0)
    cfg = PipelineConfig(dyadic_level=level, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1, step_count=k,
                         quad_order=8)
    rep = pipeline_run(curve, 0.3, 0.5, cfg, pool)
    assert rep.stage(6) == dataclasses.replace(rep.stage(7), stage=6)
    assert final_errors_at(curve, 0.3, cfg, pool)[:2] == \
        (rep.final_value_error, rep.final_deriv_error)


@pytest.mark.parametrize("level,k,calls", [(2, 4, 5), (2, 2, 10)])
def test_stage7_reuses_the_stage6_exponential(monkeypatch, level, k, calls):
    """Each of the five passes (four segment nodes and the primary) makes
    one _horizon_exponential call when step_count == 2**dyadic_level, where
    stage 7's pool is stage 6's, and two otherwise."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=101)
    cfg = PipelineConfig(dyadic_level=level, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1, step_count=k,
                         quad_order=4)
    seen = []
    horizon_exponential = approx_pipeline._horizon_exponential

    def counted(*args):
        seen.append(1)
        return horizon_exponential(*args)

    monkeypatch.setattr(approx_pipeline, "_horizon_exponential", counted)
    pipeline_run(exp_curve(grid, 0.0, 1.0), 0.3, 0.5, cfg, pool)
    assert len(seen) == calls


def counting_ladders(monkeypatch, *args):
    """pipeline_ladders(*args) and the configs it ran final_errors_at on."""
    seen = []

    def counted(curve, lam, config, pool, table=None):
        seen.append(config)
        return final_errors_at(curve, lam, config, pool, table)

    with monkeypatch.context() as patch:
        patch.setattr(approx_pipeline, "final_errors_at", counted)
        return pipeline_ladders(*args), seen


def test_ladders_compute_each_distinct_rung_once(monkeypatch):
    """Twelve rungs, seven distinct computations: final_errors_at reads no
    dyadic_level, so the three dyadic rungs equal step_count 2, and the base
    config sits on three ladders. pipeline_run's report supplies the base
    rung, leaving six calls. Shared and seeded rows, and the step_count 4
    row that reads the report's u-table, equal a fresh final_errors_at call
    at their own config, bitwise."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=23)
    curve = exp_curve(grid, 0.0, 1.0)
    base = PipelineConfig(dyadic_level=3, truncation_level=6.0,
                          mollify_eps=0.1, positivity_floor=0.1, step_count=8,
                          quad_order=3)
    rep = pipeline_run(curve, 0.3, 0.5, base, pool)
    ladders, seen = counting_ladders(monkeypatch, curve, 0.3, base, pool, rep)
    assert len(seen) == 6 and len(set(seen)) == 6
    assert base not in seen
    assert sum(len(rows) for rows in ladders.values()) == 12
    fields = ("value_error", "deriv_error", "value_se", "deriv_se")
    configs = {(knob, value): cfg
               for knob, value, cfg in approx_pipeline._ladder_configs(base)}
    for knob, value in (("dyadic_level", 1), ("dyadic_level", 2),
                        ("truncation_level", 6.0), ("step_count", 2),
                        ("step_count", 4)):
        row = next(r for r in ladders[knob] if r["value"] == value)
        want = final_errors_at(curve, 0.3, configs[knob, value], pool)
        assert tuple(row[f] for f in fields) == want, (knob, value)
    for knob in ("mollify_eps", "step_count"):
        assert ladders[knob][-1] | {"knob": "truncation_level", "value": 6.0} \
            == ladders["truncation_level"][1]


def test_pipeline_and_ladders_build_each_distinct_u_table_once(monkeypatch):
    """pipeline_run tabulates its primary and four segment parameters; the
    ladders add one table per other (truncation_level, mollify_eps): 9
    builds, not 11, because the step_count 2 and 4 rungs read
    pipeline_run's primary table."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=23)
    curve = exp_curve(grid, 0.0, 1.0)
    base = PipelineConfig(dyadic_level=3, truncation_level=6.0,
                          mollify_eps=0.1, positivity_floor=0.1, step_count=8,
                          quad_order=3)
    built = []
    u_table = approx_pipeline._UTable

    def counting(moll, lam):
        built.append((moll.trunc.level, moll.eps, lam))
        return u_table(moll, lam)

    monkeypatch.setattr(approx_pipeline, "_UTable", counting)
    rep = pipeline_run(curve, 0.3, 0.5, base, pool)
    assert len(built) == 5
    pipeline_ladders(curve, 0.3, base, pool, rep)
    assert len(built) == 9 and len(set(built)) == 9


def test_ladders_seed_only_a_matching_report(monkeypatch):
    """A report at another lam or config is refused; one whose stage 7 is
    not the ladder core (step_count below 2**dyadic_level) is not used."""
    grid = make_grid(8)
    pool = sample_paths(grid, 300, seed=24)
    curve = exp_curve(grid, 0.0, 1.0)
    base = PipelineConfig(dyadic_level=3, truncation_level=6.0,
                          mollify_eps=0.1, positivity_floor=0.1, step_count=4,
                          quad_order=3)
    rep = pipeline_run(curve, 0.3, 0.5, base, pool)
    with pytest.raises(ValueError, match="another lam or config"):
        pipeline_ladders(curve, 0.4, base, pool, rep)
    with pytest.raises(ValueError, match="another lam or config"):
        pipeline_ladders(curve, 0.3, dataclasses.replace(base, step_count=8),
                         pool, rep)
    ladders, seen = counting_ladders(monkeypatch, curve, 0.3, base, pool, rep)
    assert len(seen) == 7 and base in seen


def test_run_units_keeps_input_order_and_reraises(monkeypatch):
    """With more workers than CPUs and a short switch interval, every unit
    runs exactly once and results keep the input order; a unit's exception
    reaches the caller after every worker has joined, and of two failures
    the first in input order does, whichever failed first in time."""
    monkeypatch.setattr(approx_pipeline, "_cpu_count", lambda: 8)
    monkeypatch.setattr(approx_pipeline, "_MAX_THREADS", 8)
    ran = []

    def unit(x):
        ran.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = approx_pipeline._run_units(unit, list(range(300)))

        def failing(x):
            if x == 5:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError):
            approx_pipeline._run_units(failing, list(range(50)))
        later_failed = threading.Event()

        def failing_late(x):
            if x == 0:  # fails after unit 1 has
                later_failed.wait(5)
                time.sleep(0.1)
                raise KeyError(x)
            if x == 1:
                later_failed.set()
                raise ValueError(x)
            return x

        with pytest.raises(KeyError):
            approx_pipeline._run_units(failing_late, list(range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [x * x for x in range(300)]
    assert sorted(ran) == list(range(300))
    assert threading.active_count() == 1


def test_committed_calibration_run_matches_the_code():
    run = Path(__file__).resolve().parents[1] / "calib" / "run"
    with open(run / "pipeline.csv") as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    with open(run / "pipeline_report.json") as fh:
        report = json.load(fh)
    for name, key, field in (
            ("pipeline/value-error", "value", "final_value_error"),
            ("pipeline/deriv-error", "deriv", "final_deriv_error"),
            ("pipeline/segment-error", "segment", "final_segment_error"),
            ("pipeline/gamma-consistency", "gamma_gap",
             "gamma_consistency_gap")):
        assert float(rows[name]["tolerance"]) == DEFAULT_THRESHOLDS[key], name
        assert float(rows[name]["lhs"]) == report[field], name
