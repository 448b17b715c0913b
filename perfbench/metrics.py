"""Metric definitions and the arithmetic that produces them.

END_TO_END and PER_LAYER are the lists BENCHMARK.json declares; LAYERS maps
each traced layer to the workloads whose wall time it should move.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (metric key, stats, workloads whose wall_s it should move)
LAYERS: List[Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = [
    ("approx_pipeline.pipeline_run", ("s",), ("pipeline-ref",)),
    ("approx_pipeline.pipeline_ladders", ("s",), ("pipeline-ref",)),
    ("approx_pipeline.final_errors_at", ("s", "calls", "unique_ratio"), ("pipeline-ref",)),
    ("approx_pipeline.integrand_tables", ("s", "self_s", "calls"), ("pipeline-ref",)),
    ("approx_pipeline.MollifiedDensity", ("s", "points", "unique_ratio"), ("pipeline-ref",)),
    ("approx_pipeline.TruncatedDensity", ("points",), ("pipeline-ref",)),
    ("approx_pipeline.ConditionedDensity", ("s",), ("pipeline-ref",)),
    ("clark_ocone.gaussian_smooth", ("s", "self_s", "calls", "nodes"), ("second-order",)),
    ("clark_ocone.clark_ocone_decompose", ("s", "calls"), ("second-order",)),
    ("density_deriv.chain_rule_rhs", ("s", "calls"), ("batteries",)),
    ("density_deriv.chain_rule_lhs_fd", ("s",), ("batteries",)),
    ("density_deriv.second_order_check_1d", ("s",), ("second-order",)),
    ("density_deriv.multidim_derivative_repr", ("s",), ("second-order",)),
    ("density_deriv.nested_derivative_check", ("s",), ("batteries",)),
    ("numerics.antiderivative_at", ("s", "calls", "points"), ("batteries", "second-order")),
    ("numerics.binned_gaussian_smooth", ("s", "calls"), ("batteries",)),
    ("girsanov.doleans_exponential", ("s", "calls"), ("pipeline-ref", "batteries")),
    ("girsanov.shift_forward", ("s",), ("batteries",)),
    ("girsanov.girsanov_check", ("s",), ("batteries",)),
    ("measure_ops.pushforward_law", ("s", "calls"), ("batteries",)),
    ("measure_ops.kernel_regression", ("s", "calls"), ("batteries",)),
    ("functionals.lions_derivative", ("s", "calls"), ("batteries",)),
    ("functionals.eval_nested", ("s",), ("batteries",)),
    ("wiener_grid.sample_paths", ("s", "calls"), ("batteries",)),
    ("density_functional.bensoussan_check", ("s",), ("batteries",)),
    ("density_functional.kde_density", ("s",), ("batteries",)),
    ("checks.chain-rule", ("s",), ("batteries",)),
    ("checks.second-order", ("s",), ("second-order",)),
    ("checks.girsanov", ("s",), ("batteries",)),
    ("checks.clark-ocone", ("s",), ("batteries",)),
    ("checks.lemma34", ("s",), ("batteries",)),
    ("checks.bensoussan", ("s",), ("batteries",)),
    ("artifacts.write", ("s", "bytes"), ("pipeline-ref",)),
    ("cli.load_config", ("s",), ("pipeline-ref", "second-order", "batteries")),
]

_UNITS = {"s": "s", "self_s": "s", "calls": "count", "points": "count",
          "nodes": "count", "bytes": "bytes", "unique_ratio": "ratio"}

# Whole-run metrics of the traced run: tracing cost and reach, and the
# verdict quality figures, which vary with the seed or are 0 by design and
# so cannot carry an end-to-end bound.
_RUN_METRICS = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("fail_ratio", "ratio", "lower"),
    ("worst_margin", "ratio", "lower"),
    ("record_drift", "ratio", "lower"),
]

PER_LAYER = [(f"{key}.{stat}", _UNITS[stat],
              "higher" if stat == "unique_ratio" else "lower")
             for key, stats, _ in LAYERS for stat in stats] + _RUN_METRICS


def layer_values(spans: dict, aggregated: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer figures of one traced execution."""
    counts, distinct = spans["counts"], spans["distinct"]
    out = {}
    for key, stats, _ in LAYERS:
        s, self_s, calls = aggregated.get(key, (0.0, 0.0, 0))
        for stat in stats:
            name = f"{key}.{stat}"
            if stat == "s":
                out[name] = s
            elif stat == "self_s":
                out[name] = self_s
            elif stat == "calls":
                out[name] = calls
            elif stat == "unique_ratio":
                noted = counts.get(key + ".noted", 0)
                out[name] = distinct.get(key, 0) / noted if noted else 0.0
            else:
                out[name] = counts.get(name, 0)
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# --- records -------------------------------------------------------------------

def record_key(rec: dict) -> tuple:
    return (rec["name"], rec["lhs"], rec["rhs"], rec["std_err"],
            rec["tolerance"], rec["passed"])


def judge(records: List[dict], expected: Sequence[str],
          reference: Optional[List[dict]]) -> dict:
    """Failures, worst margin and drift of one execution's records.

    A record fails when it did not pass or is expected but missing. Drift is
    (|lhs - lhs_ref| + |rhs - rhs_ref|) / tolerance, with zero-tolerance
    records compared bitwise (any difference counts as 1).
    """
    by_name = {r["name"]: r for r in records}
    missing = [n for n in expected if n not in by_name]
    failed = missing + [r["name"] for r in records if not r["passed"]]
    margins = [r["gap"] / r["tolerance"] for r in records if r["tolerance"] > 0]
    drift = None
    if reference is not None:
        drift = 0.0
        for ref in reference:
            rec = by_name.get(ref["name"])
            if rec is None:
                continue
            tol = ref["tolerance"]
            if tol > 0:
                d = (abs(rec["lhs"] - ref["lhs"]) + abs(rec["rhs"] - ref["rhs"])) / tol
            else:
                d = float((rec["lhs"], rec["rhs"]) != (ref["lhs"], ref["rhs"]))
            drift = max(drift, d)
    return {"expected": len(expected), "failed": failed,
            "worst_margin": max(margins, default=0.0), "record_drift": drift}
