import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (make_grid, sample_paths, dyadic_coarsen, DensityCurve,
                   scalar_exponential_curve, PipelineConfig, PipelineReport,
                   pipeline_run, ConditionedDensity, TruncatedDensity,
                   MollifiedDensity, stage5_normalize, stage5_derivative,
                   stage7_stepify, final_errors_at, doleans_exponential,
                   pipeline_ladders, DEFAULT_THRESHOLDS)
from wcalc import approx_pipeline


def exp_curve(grid, lo=0.1, hi=0.9):
    return scalar_exponential_curve(lambda l: l, lambda l: 1.0, grid, lo, hi)


def midpoint_curve(grid, lam_lo=0.2, lam_hi=0.6, t=None):
    """Curve reading B at one interior time: exp(lam B_t - lam^2 t / 2).

    No scalar form is declared, so the one-coordinate pipeline rejects it.
    """
    if t is None:
        t = grid.knots[grid.n_steps // 3]
    j = grid.knot_index(t)

    def value(lam, inc):
        b = np.asarray(inc, dtype=float)[:, :j].sum(axis=1)
        return np.exp(lam * b - 0.5 * lam * lam * t)

    def deriv(lam, inc):
        b = np.asarray(inc, dtype=float)[:, :j].sum(axis=1)
        return value(lam, inc) * (b - lam * t)

    return DensityCurve(lam_lo, lam_hi, grid, value, deriv)


# ---------------------------------------------------------------- config

def test_config_validation():
    good = dict(dyadic_level=2, truncation_level=6.0, mollify_eps=0.1,
                positivity_floor=0.1, step_count=2, quad_order=16)
    PipelineConfig(**good)
    for key, bad in [("dyadic_level", -1), ("truncation_level", 2.5),
                     ("mollify_eps", 0.0), ("mollify_eps", 1.0),
                     ("positivity_floor", 0.0), ("positivity_floor", 1.5),
                     ("step_count", 3), ("step_count", 0),
                     ("quad_order", 1)]:
        with pytest.raises(ValueError):
            PipelineConfig(**{**good, key: bad})


# ---------------------------------------------------------------- stage 1

def test_stage1_exact_for_endpoint_curves():
    grid = make_grid(8)
    pool = sample_paths(grid, 3000, seed=21)
    curve = exp_curve(grid)
    w = pool.weights / pool.weights.sum()
    lam = 0.5
    for level in (1, 2, 3):
        cond = ConditionedDensity(curve, level, pool)
        assert cond.n_coords == 1
        vals, dvals = cond.pair(lam, cond.coords_of(pool.increments))
        err_v = np.sqrt(np.dot(w, (vals - curve.eval(lam, pool)) ** 2))
        err_d = np.sqrt(np.dot(w, (dvals - curve.deriv(lam, pool)) ** 2))
        assert err_v <= 1e-13
        assert err_d <= 1e-13


def test_stage1_rejects_curves_without_scalar_triple():
    grid = make_grid(16)
    pool = sample_paths(grid, 500, seed=2)
    with pytest.raises(ValueError, match="scalar_triple"):
        ConditionedDensity(midpoint_curve(grid), 3, pool)


# ---------------------------------------------------------------- stage 3

def test_stage3_identity_on_the_flat_region():
    grid = make_grid(8)
    pool = sample_paths(grid, 2000, seed=44)
    curve = exp_curve(grid)
    cond = ConditionedDensity(curve, 2, pool)
    trunc = TruncatedDensity(cond, 8.0)
    lam = 0.3
    u = np.linspace(-4.0, 4.0, 41)
    cv, cd, cu = cond.parts(lam, u, True)
    tv, td, tu = trunc.parts(lam, u, True)
    assert np.max(np.abs(cv)) < 6.0  # inside the cap, so nothing moves
    assert np.array_equal(tv, cv)
    assert np.array_equal(td, cd)
    assert np.array_equal(tu, cu)
    far = np.array([-9.0, 8.0, 12.0])
    fv, fd, _ = trunc.parts(lam, far, False)
    assert np.all(fv == 0.0)
    assert np.all(fd == 0.0)


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
    fd_lam = (moll.value(lam + h, u) - moll.value(lam - h, u)) / (2 * h)
    assert np.max(np.abs(fd_lam - moll.pair(lam, u)[1])) < 1e-6
    fd_u = (moll.value(lam, u + h) - moll.value(lam, u - h)) / (2 * h)
    assert np.max(np.abs(fd_u - moll.du(lam, u))) < 1e-6


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


def test_stage5_weighted_mean_is_one():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.0, 5.0, 200)
    w = rng.uniform(0.1, 2.0, 200)
    out = stage5_normalize(v, 0.1, weights=w)
    assert abs(np.dot(w / w.sum(), out) - 1.0) < 1e-12


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
    w = rng.uniform(0.5, 1.5, 150)
    h = 1e-6
    fd = (stage5_normalize(v + h * dv, 0.1, w)
          - stage5_normalize(v - h * dv, 0.1, w)) / (2 * h)
    assert np.allclose(stage5_derivative(v, dv, 0.1, w), fd, atol=1e-6)


# --------------------------------------------------------------- stage 7

def test_stage7_requires_a_divisor():
    grid = make_grid(8)
    table = np.zeros((5, 8))
    for k in (3, 0, 7):
        with pytest.raises(ValueError):
            stage7_stepify(grid, table, k)
    with pytest.raises(ValueError):
        stage7_stepify(grid, np.zeros((5, 6)), 2)


def test_stage7_keeps_left_endpoint_columns():
    grid = make_grid(8)
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 8))
    sp = stage7_stepify(grid, table, 4)
    assert sp.grid.n_steps == 4
    assert np.allclose(sp.grid.knots, grid.knots[::2])
    sub_inc = np.zeros((6, 4))
    assert np.array_equal(sp.values(sub_inc), table[:, ::2])
    assert sp.bound == np.abs(table).max()


def test_stage7_constant_integrand_loses_nothing():
    """Freezing a time-constant integrand to fewer steps leaves the
    exponential unchanged, and the exponential stays strictly positive."""
    grid = make_grid(8)
    pool = sample_paths(grid, 3000, seed=14)
    rng = np.random.default_rng(8)
    per_path = rng.uniform(-0.8, 0.8, 3000)
    table = np.repeat(per_path[:, None], 8, axis=1)
    from wcalc import table_process
    full = doleans_exponential(pool, table_process(grid, table), 1.0)
    coarse_pool = dyadic_coarsen(pool, 1)
    sp = stage7_stepify(grid, table, 2)
    coarse = doleans_exponential(coarse_pool, sp, 1.0)
    assert np.all(coarse > 0.0)
    assert np.allclose(coarse, full, rtol=1e-12)


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
    with pytest.raises(ValueError, match="scalar"):
        pipeline_run(midpoint_curve(grid, 0.2, 0.6), 0.3, 0.5, cfg, pool)


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
    assert rep.stage(1).l2_error_value <= 1e-13
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


def test_ladders_compute_each_distinct_rung_once(monkeypatch):
    """Twelve rungs, nine distinct configs: the base config sits on three
    ladders and step_count 2 equals the dyadic rung 3. Reused rows equal a
    fresh final_errors_at call at their config."""
    grid = make_grid(8)
    pool = sample_paths(grid, 500, seed=23)
    curve = exp_curve(grid, 0.0, 1.0)
    base = PipelineConfig(dyadic_level=3, truncation_level=6.0,
                          mollify_eps=0.1, positivity_floor=0.1, step_count=8,
                          quad_order=3)
    seen = []

    def counted(curve, lam, config, pool):
        seen.append(config)
        return final_errors_at(curve, lam, config, pool)

    monkeypatch.setattr(approx_pipeline, "final_errors_at", counted)
    ladders = pipeline_ladders(curve, 0.3, base, pool)
    monkeypatch.undo()
    assert len(seen) == 9 and len(set(seen)) == 9
    assert sum(len(rows) for rows in ladders.values()) == 12
    fields = ("value_error", "deriv_error", "value_se", "deriv_se")
    for knob, value in (("truncation_level", 6.0), ("mollify_eps", 0.1),
                        ("step_count", 8), ("step_count", 2)):
        row = next(r for r in ladders[knob] if r["value"] == value)
        want = final_errors_at(curve, 0.3,
                               dataclasses.replace(base, **{knob: value}), pool)
        assert tuple(row[f] for f in fields) == want, (knob, value)


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
