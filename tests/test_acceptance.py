"""End-to-end acceptance gate, one test per numbered criterion.

Every test prints exactly one verdict line (visible with pytest -s or -rA)
and then asserts. All tolerances and runtime budgets are pinned below as
module constants; the per-record tolerances inside the batteries are fixed
in the package itself and are recorded in every emitted record.
"""

import time

import numpy as np
import pytest

from wcalc import (make_grid, sample_paths, weighted_expectation,
                   EmpiricalLaw, wasserstein1,
                   recenter_to_base, recenter_to_density,
                   scalar_exponential_curve,
                   PipelineConfig, pipeline_run, pipeline_ladders,
                   DEFAULT_THRESHOLDS, run_check)
from oracles import w1_lp

_SEED = 20260815
_GRID_STEPS = 16

_CHAIN_PATHS = 100_000
_CHAIN_BATTERY_SECONDS = 30.0      # whole battery; a fortiori per instance
_SECOND_ORDER_SECONDS = 20.0       # whole battery (criteria 2 and 3)
_SLOPE_RANGE = (1.8, 2.2)
_ROUNDOFF = 1e-12
_MEAN_ONE_FLOOR = 1e-9             # knots where the integrand vanishes
_INVERSION_TOL = 1e-10
_SIGMA_RECOVERY_TOL = 1e-8
_DEFECT_RATIO_RANGE = (1.2, 1.8)
_PIPELINE_THRESHOLDS = {"value": 0.05, "deriv": 0.16,
                        "segment": 0.28, "gamma_gap": 5e-3}
_PIPELINE_SECONDS = 300.0
_PIPELINE_PATHS = 100_000
_RECENTER_INSTANCES = 100
_RECENTER_MEAN_TOL = 1e-9          # relative to 1 + max |profile|
_RECENTER_EXACT_TOL = 1e-12        # round trips: exact to machine
_W1_INSTANCES = 200
_W1_TOL = 1e-12                    # two exact algorithms, roundoff only


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _gate(records):
    failed = [r.name for r in records if not r.passed]
    return failed


# ------------------------------------------------------------ criterion 1

def test_criterion_1_chain_rule():
    t0 = time.perf_counter()
    records = run_check("chain-rule", n_paths=_CHAIN_PATHS,
                        n_steps=_GRID_STEPS, seed=_SEED)
    wall = time.perf_counter() - t0
    battery = [r for r in records if "|" in r.name]
    closed = {r.name: r for r in records if "closed-form" in r.name}
    failed = _gate(records)
    ok = (len(battery) == 18 and len(closed) == 2 and not failed
          and wall < _CHAIN_BATTERY_SECONDS)
    _verdict(1, ok, f"18-instance battery + closed form at {_CHAIN_PATHS} "
                    f"paths, {len(failed)} failures, wall {wall:.1f}s")
    assert len(battery) == 18
    assert not failed, failed
    for name in ("chain/closed-form-fd", "chain/closed-form-repr"):
        assert closed[name].rhs == 1.0          # exact target, horizon one
    assert wall < _CHAIN_BATTERY_SECONDS


# ------------------------------------------------------- criteria 2 and 3

@pytest.fixture(scope="module")
def second_order_run():
    """(records, wall seconds) of one second-order battery run."""
    t0 = time.perf_counter()
    records = run_check("second-order", n_paths=20_000,
                        n_steps=_GRID_STEPS, seed=_SEED)
    return records, time.perf_counter() - t0


def test_criterion_2_second_order_1d(second_order_run):
    second_order_records, _ = second_order_run
    one_d = [r for r in second_order_records if r.name.startswith("second/1d|")]
    slopes = [r for r in second_order_records
              if r.name.startswith("second/slope|")]
    failed = _gate(one_d + slopes)
    slope_ok = all(_SLOPE_RANGE[0] <= r.lhs <= _SLOPE_RANGE[1] for r in slopes)
    ok = len(one_d) == 6 and len(slopes) == 2 and not failed and slope_ok
    _verdict(2, ok, f"{len(one_d)} pointwise records, step-halving slopes "
                    f"{[round(r.lhs, 2) for r in slopes]} in {_SLOPE_RANGE}")
    assert len(one_d) == 6 and len(slopes) == 2
    assert not failed, failed
    assert slope_ok


def test_criterion_3_second_order_2d(second_order_run):
    second_order_records, wall = second_order_run
    plane = [r for r in second_order_records if r.name.startswith("second/2d|")]
    drift = [r for r in second_order_records
             if r.name.startswith("second/repr-drift|")]
    pairing = [r for r in second_order_records
               if r.name.startswith("second/repr-fd|")]
    failed = _gate(plane + drift + pairing)
    ok = (len(plane) == 3 and len(drift) == 2 and len(pairing) == 2
          and not failed and wall < _SECOND_ORDER_SECONDS)
    _verdict(3, ok, f"{len(plane)} plane-gradient records, "
                    f"{len(drift) + len(pairing)} integral-representation "
                    f"records, {len(failed)} failures, battery wall {wall:.1f}s")
    assert len(plane) == 3
    assert len(drift) == 2 and len(pairing) == 2
    assert not failed, failed
    assert wall < _SECOND_ORDER_SECONDS


# ------------------------------------------------------------ criterion 4

def test_criterion_4_girsanov():
    records = run_check("girsanov", n_paths=20_000,
                        n_steps=_GRID_STEPS, seed=_SEED)
    two_route = [r for r in records if "*" in r.name]
    inverse = [r for r in records if r.name.startswith("girsanov/inverse|")]
    mean_one = [r for r in records if r.name.startswith("girsanov/mean-one|")]
    failed = _gate(records)
    ok = (len(two_route) == 10 and not failed
          and all(r.gap <= 3.0 * r.std_err + _ROUNDOFF for r in two_route)
          and all(r.gap <= _INVERSION_TOL for r in inverse)
          and all(r.gap <= 3.0 * r.std_err + _MEAN_ONE_FLOOR for r in mean_one))
    _verdict(4, ok, f"{len(two_route)} reweight-vs-shift pairs, "
                    f"{len(inverse)} flow inversions, {len(mean_one)} "
                    f"martingale-mean records, {len(failed)} failures")
    assert len(two_route) == 10
    assert not failed, failed
    for r in two_route:
        assert r.gap <= 3.0 * r.std_err + _ROUNDOFF, r.name
    for r in inverse:
        assert r.gap <= _INVERSION_TOL, r.name
    for r in mean_one:
        assert r.gap <= 3.0 * r.std_err + _MEAN_ONE_FLOOR, r.name


# ------------------------------------------------------------ criterion 5

def test_criterion_5_clark_ocone():
    records = run_check("clark-ocone", n_paths=20_000,
                        n_steps=_GRID_STEPS, seed=_SEED)
    const = next(r for r in records if r.name == "clark/constant-integrand")
    ratios = [r for r in records if r.name.startswith("clark/defect-ratio|")]
    failed = _gate(records)
    ratio_ok = all(_DEFECT_RATIO_RANGE[0] <= r.lhs <= _DEFECT_RATIO_RANGE[1]
                   for r in ratios)
    ok = (not failed and const.gap <= _SIGMA_RECOVERY_TOL
          and len(ratios) == 3 and ratio_ok)
    _verdict(5, ok, f"integrand recovered to {const.gap:.1e}, defect ratios "
                    f"{[round(r.lhs, 2) for r in ratios]} in "
                    f"{_DEFECT_RATIO_RANGE}")
    assert not failed, failed
    assert const.gap <= _SIGMA_RECOVERY_TOL
    assert len(ratios) == 3    # grid doublings 4->8->16->32
    assert ratio_ok


# ------------------------------------------------------------ criterion 6

def test_criterion_6_pipeline():
    assert DEFAULT_THRESHOLDS == _PIPELINE_THRESHOLDS  # frozen contract
    grid = make_grid(_GRID_STEPS)
    pool = sample_paths(grid, _PIPELINE_PATHS, _SEED)
    curve = scalar_exponential_curve(lambda l: l, lambda l: 1.0, grid,
                                     lam_lo=0.0, lam_hi=1.0)
    cfg = PipelineConfig(dyadic_level=3, truncation_level=6.0,
                         mollify_eps=0.1, positivity_floor=0.1, step_count=8,
                         quad_order=32)
    t0 = time.perf_counter()
    rep = pipeline_run(curve, 0.3, 0.5, cfg, pool)
    ladders = pipeline_ladders(curve, 0.3, cfg, pool, rep)
    wall = time.perf_counter() - t0

    errors = {"value": rep.final_value_error,
              "deriv": rep.final_deriv_error,
              "segment": rep.final_segment_error,
              "gamma_gap": rep.gamma_consistency_gap}
    budget_ok = all(errors[k] <= _PIPELINE_THRESHOLDS[k] for k in errors)

    ladder_violations = []
    for knob, rows in ladders.items():
        for field, se_field in (("value_error", "value_se"),
                                ("deriv_error", "deriv_se")):
            for a, b in zip(rows, rows[1:]):
                if b[field] > a[field] + a[se_field] + b[se_field]:
                    ladder_violations.append((knob, field, a["value"],
                                              b["value"]))
    ok = budget_ok and not ladder_violations and wall < _PIPELINE_SECONDS
    _verdict(6, ok, f"value {errors['value']:.4f}<=0.05, deriv "
                    f"{errors['deriv']:.4f}<=0.16, segment "
                    f"{errors['segment']:.4f}<=0.28, 4 ladders "
                    f"non-increasing, wall {wall:.0f}s")
    for k in errors:
        assert errors[k] <= _PIPELINE_THRESHOLDS[k], (k, errors[k])
    assert not ladder_violations, ladder_violations
    assert wall < _PIPELINE_SECONDS


# ------------------------------------------------------------ criterion 7

def test_criterion_7_recentering():
    rng = np.random.default_rng(_SEED)
    worst_mean = 0.0
    worst_trip = 0.0
    for _ in range(_RECENTER_INSTANCES):
        n = int(rng.integers(10, 200))
        steps = int(rng.integers(1, 6))
        pool = sample_paths(make_grid(steps), n, seed=int(rng.integers(1 << 30)))
        vals = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        dens = np.exp(rng.uniform(-0.5, 0.5) * pool.increments.sum(axis=1))
        dens /= weighted_expectation(pool, np.ones(n), dens)
        scale = 1.0 + np.abs(vals).max()

        c = recenter_to_base(vals, pool)
        w = pool.weights / pool.weights.sum()
        worst_mean = max(worst_mean, abs(np.dot(w, c)) / scale)
        worst_trip = max(worst_trip,
                         np.abs(recenter_to_base(c, pool) - c).max(),
                         np.abs(recenter_to_base(vals + 3.7, pool) - c).max()
                         / scale)

        d = recenter_to_density(vals, dens, pool)
        wd = pool.weights * dens
        wd = wd / wd.sum()
        worst_mean = max(worst_mean, abs(np.dot(wd, d)) / scale)
        worst_trip = max(worst_trip,
                         np.abs(recenter_to_density(d, dens, pool) - d).max())

    ok = worst_mean < _RECENTER_MEAN_TOL and worst_trip < _RECENTER_EXACT_TOL
    _verdict(7, ok, f"{_RECENTER_INSTANCES} random profiles x 2 recenterings:"
                    f" worst mean {worst_mean:.1e}, worst round-trip "
                    f"{worst_trip:.1e}")
    assert worst_mean < _RECENTER_MEAN_TOL
    assert worst_trip < _RECENTER_EXACT_TOL


# ------------------------------------------------------------ criterion 8

def test_criterion_8_functional_links():
    records = (run_check("lemma34", n_paths=20_000, n_steps=_GRID_STEPS,
                         seed=_SEED)
               + run_check("bensoussan", n_paths=20_000, n_steps=_GRID_STEPS,
                           seed=_SEED))
    failed = _gate(records)

    # the tolerance itself must tighten as the kernel bandwidth shrinks
    ladders = {}
    for r in records:
        head, _, bw = r.name.partition("|bw=")
        if bw:
            ladders.setdefault(head, []).append((float(bw), r.tolerance))
    monotone = True
    for rungs in ladders.values():
        tols = [t for _, t in sorted(rungs, reverse=True)]   # bw wide -> narrow
        monotone &= (len(tols) == 3
                     and all(x > y for x, y in zip(tols, tols[1:])))
    ok = not failed and len(ladders) == 4 and monotone
    _verdict(8, ok, f"{len(records)} nested-functional and density-link "
                    f"records over {len(ladders)} bandwidth ladders, "
                    f"{len(failed)} failures, tolerances decreasing")
    assert not failed, failed
    assert len(ladders) == 4
    assert monotone


# ------------------------------------------------------------ criterion 9

def test_criterion_9_wasserstein_matches_lp():
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(_W1_INSTANCES):
        na, nb = rng.integers(1, 6), rng.integers(1, 6)
        xa = rng.normal(size=na) * rng.uniform(0.5, 3.0)
        xb = rng.normal(size=nb) * rng.uniform(0.5, 3.0)
        wa = rng.uniform(0.2, 1.0, na)
        wa /= wa.sum()
        wb = rng.uniform(0.2, 1.0, nb)
        wb /= wb.sum()
        a = EmpiricalLaw(xa, wa)
        b = EmpiricalLaw(xb, wb)
        worst = max(worst, abs(wasserstein1(a, b) - w1_lp(xa, wa, xb, wb)))
    ok = worst < _W1_TOL
    _verdict(9, ok, f"{_W1_INSTANCES} random instances vs transport LP, "
                    f"worst gap {worst:.1e}")
    assert worst < _W1_TOL
