"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The fast tests check the span arithmetic and the record judge. The
test_traced_run cases run every workload once untraced and once traced (a
few minutes; skip them with -k "not traced_run"), so that a wrapper which
missed a binding shows up as a layer with no calls.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from metrics import END_TO_END, LAYERS, PER_LAYER, judge  # noqa: E402
from tracer import aggregate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def _spans(rows):
    """rows: (label, start, end, parent); every label is its own key."""
    labels, start, end, parent = (list(c) for c in zip(*rows))
    return {"labels": labels, "start": start, "end": end, "parent": parent,
            "keys": {lab: lab.split("#")[0] for lab in labels}}


def test_self_time_on_synthetic_tree():
    # a[0,10] -> b[1,4] -> c[2,3]; a -> b[5,9] ; d[10,12] top level
    spans = _spans([("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0),
                    ("c", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0),
                    ("d", 10.0, 12.0, -1)])
    agg, top = aggregate(spans)
    assert agg["a"] == [10.0, 3.0, 1]
    assert agg["b"] == [7.0, 6.0, 2]
    assert agg["c"] == [1.0, 1.0, 1]
    assert agg["d"] == [2.0, 2.0, 1]
    assert top == 12.0


def test_nested_spans_of_one_key_count_once():
    # a method calling another method of its class: both roll up to "K"
    spans = _spans([("K#outer", 0.0, 6.0, -1), ("K#inner", 1.0, 5.0, 0),
                    ("x", 2.0, 3.0, 1), ("K#again", 7.0, 8.0, -1)])
    agg, top = aggregate(spans)
    assert agg["K"] == [7.0, 6.0, 2]   # inclusive 6 + 1; self 2 + 3 + 1
    assert agg["x"] == [1.0, 1.0, 1]
    assert top == 7.0


def _rec(name, lhs, rhs, tol, passed=True):
    return {"name": name, "lhs": lhs, "rhs": rhs, "std_err": 0.0,
            "tolerance": tol, "gap": abs(lhs - rhs), "passed": passed}


def test_missing_record_raises_fail_ratio():
    ref = [_rec("a", 1.0, 1.1, 0.2), _rec("b", 0.0, 0.0, 0.0), _rec("c", 2.0, 2.0, 1.0)]
    names = [r["name"] for r in ref]
    full = judge(ref, names, ref)
    assert full["failed"] == [] and full["record_drift"] == 0.0
    short = judge(ref[:2], names, ref)
    assert short["failed"] == ["c"]
    assert len(short["failed"]) / short["expected"] == pytest.approx(1 / 3)


def test_drift_and_margin():
    ref = [_rec("a", 1.0, 1.1, 0.2), _rec("b", 0.0, 0.0, 0.0)]
    names = ["a", "b"]
    moved = [_rec("a", 1.02, 1.1, 0.2), _rec("b", 1e-300, 0.0, 0.0, passed=False)]
    out = judge(moved, names, ref)
    assert out["record_drift"] == 1.0          # bitwise miss on "b"
    assert out["failed"] == ["b"]
    assert out["worst_margin"] == pytest.approx(0.08 / 0.2)
    assert judge(moved[:1], names, None)["record_drift"] is None


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER


@pytest.fixture(scope="module")
def traced_runs():
    import run
    return {w: run.run(w, DEFAULT_SEED, 0.0, True) for w in WORKLOADS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run(traced_runs, workload):
    out = traced_runs[workload]
    # traced records equal untraced records bitwise, and all pass
    assert out["identical_records"] and out["correct"]
    assert out["record_drift"] == 0.0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    for key, _, workloads in LAYERS:
        if workload in workloads:
            assert out["all_layers"].get(key, {}).get("calls", 0) >= 1, key
    calls = metrics["approx_pipeline.integrand_tables.calls"]
    assert calls == (18 if workload == "pipeline-ref" else 0)
    if workload == "pipeline-ref":
        assert metrics["approx_pipeline.final_errors_at.unique_ratio"] == 0.75
        assert metrics["approx_pipeline.MollifiedDensity.unique_ratio"] < 1.0
