"""Command-line harness: verify batteries, pipeline runs, report aggregation.

Every command reads a JSON configuration validated against the versioned
schema shipped with the package, writes its outputs atomically into the
output directory, and exits zero exactly when every emitted record passes.
Environment overrides are limited to WCALC_SEED and WCALC_OUT; everything
else lives in the config file so a run is reproducible from that one file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from importlib import resources
from typing import Dict, List, Optional

from . import __version__
from .artifacts import atomic_write_csv, atomic_write_json, atomic_write_text
from .checks import CheckRecord, CHECKS, run_check, _check_inputs
from .wiener_grid import make_grid, sample_paths
from .density_deriv import exponential_curve
from .approx_pipeline import PipelineConfig, pipeline_run, pipeline_ladders, \
    _ladder_configs, DEFAULT_THRESHOLDS

_RECORD_COLUMNS = ["name", "lhs", "rhs", "std_err", "tolerance", "gap", "passed"]

_VERIFY_DEFAULTS = {"seed": 20260815, "n_paths": 20000,
                    "n_steps": 16, "horizon": 1.0}
_PIPELINE_DEFAULTS = {**_VERIFY_DEFAULTS, "n_paths": 100000,
                      "lam": 0.3, "lam_prime": 0.5,
                      "dyadic_level": 3, "truncation_level": 6.0,
                      "mollify_eps": 0.1, "positivity_floor": 0.1,
                      "step_count": 8, "quad_order": 32}


class ConfigError(ValueError):
    """Configuration rejected before any computation ran."""


def _load_schema() -> dict:
    with resources.files("wcalc.schemas").joinpath("run_config_v1.json").open() as fh:
        return json.load(fh)


def _validate(obj, schema: dict, path: str = "config") -> None:
    """Minimal validator for the schema subset the config format uses."""
    if "const" in schema:
        if obj != schema["const"]:
            raise ConfigError(f"{path}: expected {schema['const']!r}, got {obj!r}")
        return
    if "enum" in schema:
        if obj not in schema["enum"]:
            raise ConfigError(f"{path}: {obj!r} not one of {schema['enum']}")
        return
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected an object")
        for key in schema.get("required", []):
            if key not in obj:
                raise ConfigError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, val in obj.items():
            if key in props:
                _validate(val, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                _validate(val, extra, f"{path}.{key}")
            elif extra is False:
                raise ConfigError(f"{path}: unknown key {key!r}")
        return
    if kind == "integer":
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise ConfigError(f"{path}: expected an integer")
    elif kind == "number":
        # json reads Infinity and NaN; the comparison takes any int exactly
        if (not isinstance(obj, (int, float)) or isinstance(obj, bool)
                or not -math.inf < obj < math.inf):
            raise ConfigError(f"{path}: expected a finite number")
    elif kind == "string":
        if not isinstance(obj, str):
            raise ConfigError(f"{path}: expected a string")
    elif kind == "boolean":
        if not isinstance(obj, bool):
            raise ConfigError(f"{path}: expected a boolean")
    for bound, ok in (("minimum", lambda v, b: v >= b),
                      ("exclusiveMinimum", lambda v, b: v > b),
                      ("maximum", lambda v, b: v <= b)):
        if bound in schema and not ok(obj, schema[bound]):
            raise ConfigError(f"{path}: violates {bound}={schema[bound]}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _validate(cfg, _load_schema())
    return cfg


def _resolve(cfg: dict, flag_seed: Optional[int], flag_out: Optional[str],
             defaults: dict) -> dict:
    """Flag beats environment beats config beats default; env overrides are
    limited to the seed and the output directory by design. The resolved
    seed must lie in [0, 2**64), the range the substreams key on."""
    out = dict(defaults)
    out.update({k: cfg[k] for k in ("seed", "n_paths", "lam", "lam_prime")
                if k in cfg})
    grid = cfg.get("grid", {})
    out.update({k: grid[k] for k in ("n_steps", "horizon") if k in grid})
    out["out_dir"] = cfg.get("out_dir", "wcalc-out")
    seed_from = "config seed"

    env_seed = os.environ.get("WCALC_SEED")
    if env_seed is not None:
        try:
            out["seed"], seed_from = int(env_seed), "WCALC_SEED"
        except ValueError as exc:
            raise ConfigError(f"WCALC_SEED must be an integer: {env_seed!r}") from exc
    env_out = os.environ.get("WCALC_OUT")
    if env_out:
        out["out_dir"] = env_out
    if flag_seed is not None:
        out["seed"], seed_from = flag_seed, "--seed"
    if flag_out is not None:
        out["out_dir"] = flag_out
    if not 0 <= out["seed"] < 1 << 64:
        raise ConfigError(f"{seed_from} {out['seed']} is outside [0, 2**64)")
    return out


def _require_command(cfg: dict, command: str, check: Optional[str]) -> None:
    if "command" in cfg and cfg["command"] != command:
        raise ConfigError(f"config is for command {cfg['command']!r}, "
                          f"invoked as {command!r}")
    if check is not None and "check" in cfg and cfg["check"] != check:
        raise ConfigError(f"config is for check {cfg['check']!r}, "
                          f"invoked with {check!r}")


def _report_dict(command: str, check: Optional[str], cfg: dict, resolved: dict,
                 records: List[CheckRecord], wall: float) -> dict:
    return {
        "schema": "wcalc-report-v1",
        "version": __version__,
        "command": command,
        "check": check,
        "config": cfg,
        "resolved": {k: resolved[k] for k in sorted(resolved)},
        "records": [r.as_dict() for r in records],
        "passed": all(r.passed for r in records),
        "wall_time_s": round(wall, 3),
    }


def _write_records_csv(path: str, records: List[CheckRecord]) -> None:
    atomic_write_csv(path, _RECORD_COLUMNS,
                     [[r.name, r.lhs, r.rhs, r.std_err, r.tolerance, r.gap,
                       r.passed] for r in records])


def _emit(report: dict, out_dir: str, records: List[CheckRecord],
          csv_name: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_json(os.path.join(out_dir, "report.json"), report)
    _write_records_csv(os.path.join(out_dir, csv_name), records)


def _print_records(records: List[CheckRecord]) -> None:
    width = max((len(r.name) for r in records), default=4)
    for r in records:
        mark = "pass" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  |lhs-rhs|={r.gap:.3e}  "
              f"tol={r.tolerance:.3e}")


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    _require_command(cfg, "verify", args.check)
    r = _resolve(cfg, args.seed, args.out, _VERIFY_DEFAULTS)
    # inputs the battery cannot run fail here, before any sampling
    try:
        _check_inputs(args.check, r["n_paths"], r["n_steps"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t0 = time.perf_counter()
    records = run_check(args.check, n_paths=r["n_paths"], n_steps=r["n_steps"],
                        seed=r["seed"], horizon=r["horizon"])
    wall = time.perf_counter() - t0
    records = _apply_tolerances(records, cfg.get("tolerances"))
    report = _report_dict("verify", args.check, cfg, r, records, wall)
    _emit(report, r["out_dir"], records, f"{args.check}.csv")
    _print_records(records)
    print(f"{'all records pass' if report['passed'] else 'FAILURES present'} "
          f"({len(records)} records, {wall:.1f}s) -> {r['out_dir']}")
    return 0 if report["passed"] else 1


def _apply_tolerances(records: List[CheckRecord],
                      overrides: Optional[Dict[str, float]]) -> List[CheckRecord]:
    """Replace the tolerance of every record the config names. An override
    must name an emitted record; a typo would otherwise leave the default
    tolerance silently in force."""
    overrides = overrides or {}
    unknown = sorted(set(overrides) - {rec.name for rec in records})
    if unknown:
        raise ConfigError(f"tolerances name no emitted record: {unknown}")
    return [dataclasses.replace(rec, tolerance=float(overrides[rec.name]))
            if rec.name in overrides else rec for rec in records]


def _pipeline_records(rep) -> List[CheckRecord]:
    return [
        CheckRecord("pipeline/value-error", rep.final_value_error, 0.0, 0.0,
                    DEFAULT_THRESHOLDS["value"]),
        CheckRecord("pipeline/deriv-error", rep.final_deriv_error, 0.0, 0.0,
                    DEFAULT_THRESHOLDS["deriv"]),
        CheckRecord("pipeline/segment-error", rep.final_segment_error, 0.0, 0.0,
                    DEFAULT_THRESHOLDS["segment"]),
        CheckRecord("pipeline/gamma-consistency", rep.gamma_consistency_gap,
                    0.0, 0.0, DEFAULT_THRESHOLDS["gamma_gap"]),
    ]


def _ladder_records(ladders: dict) -> List[CheckRecord]:
    """Monotonicity of each refinement ladder with one-standard-error slack."""
    records = []
    for knob, rows in ladders.items():
        for field in ("value_error", "deriv_error"):
            se_field = "value_se" if field == "value_error" else "deriv_se"
            worst = 0.0
            for a, b in zip(rows, rows[1:]):
                slack = a[se_field] + b[se_field]
                worst = max(worst, b[field] - a[field] - slack)
            name = f"pipeline/ladder|{knob}|{field.split('_')[0]}"
            records.append(CheckRecord(name, worst, 0.0, 0.0, 0.0))
    return records


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    _require_command(cfg, "pipeline", None)
    r = _resolve(cfg, args.seed, args.out, _PIPELINE_DEFAULTS)
    # pipeline.inner_mc is accepted for older configs and ignored
    pl = dict(cfg.get("pipeline", {}))
    curve_cfg = cfg.get("curve", {"kind": "scalar-exponential"})
    grid = make_grid(r["n_steps"], r["horizon"])
    # settings pipeline_run would reject fail here, before any sampling
    try:
        pconf = PipelineConfig(**{f.name: pl.get(f.name, r[f.name])
                                  for f in dataclasses.fields(PipelineConfig)})
        curve = exponential_curve(grid, lam_lo=curve_cfg.get("lam_lo", 0.0),
                                  lam_hi=curve_cfg.get("lam_hi", 1.0))
        # every ladder rung is checked here too, not after pipeline_run
        configs = [("", pconf)]
        if cfg.get("ladders", False):
            configs += [(f" (ladder rung {knob}={value})", c)
                        for knob, value, c in _ladder_configs(pconf)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("lam", "lam_prime"):
        if not curve.contains(r[key]):
            raise ConfigError(f"{key}={r[key]} outside the curve range "
                              f"[{curve.lam_lo}, {curve.lam_hi}]")
    if r["lam"] == r["lam_prime"]:
        raise ConfigError("lam and lam_prime must differ")
    for rung, c in configs:
        if r["n_steps"] % (1 << c.dyadic_level) != 0:
            raise ConfigError(f"grid.n_steps={r['n_steps']} is not divisible by "
                              f"2**dyadic_level={1 << c.dyadic_level}{rung}")
    # the report's resolved block holds the knobs this run uses
    r.update(dataclasses.asdict(pconf))
    pool = sample_paths(grid, r["n_paths"], r["seed"])

    t0 = time.perf_counter()
    rep = pipeline_run(curve, r["lam"], r["lam_prime"], pconf, pool)
    records = _pipeline_records(rep)
    ladders = None
    if cfg.get("ladders", False):
        ladders = pipeline_ladders(curve, r["lam"], pconf, pool, rep)
        records.extend(_ladder_records(ladders))
    wall = time.perf_counter() - t0
    records = _apply_tolerances(records, cfg.get("tolerances"))

    out_dir = r["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    rep.save(out_dir)
    if ladders is not None:
        for knob, rows in ladders.items():
            cols = list(rows[0].keys())
            atomic_write_csv(os.path.join(out_dir, f"ladder_{knob}.csv"),
                             cols, [[row[c] for c in cols] for row in rows])
    report = _report_dict("pipeline", None, cfg, r, records, wall)
    _emit(report, out_dir, records, "pipeline.csv")
    _print_records(records)
    for s in rep.stages:
        print(f"stage {s.stage}: value={s.l2_error_value:.3e} "
              f"deriv={s.l2_error_deriv:.3e}")
    print(f"{'all records pass' if report['passed'] else 'FAILURES present'} "
          f"({wall:.1f}s) -> {out_dir}")
    return 0 if report["passed"] else 1


def cmd_report(args) -> int:
    if not os.path.isdir(args.dir):
        raise ConfigError(f"report directory {args.dir} not found")
    rows = []
    versions = set()
    for root, _, files in sorted(os.walk(args.dir)):
        for fname in sorted(files):
            if fname != "report.json":
                continue
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, args.dir)
            try:
                with open(path) as fh:
                    rep = json.load(fh)
            except (OSError, ValueError) as exc:
                # a truncated report from a failed run counts as a failure
                rows.append({"path": rel, "command": None, "check": None,
                             "n_records": 0, "n_failed": 0, "passed": False,
                             "version": "?", "error": f"unreadable: {exc}"})
                continue
            if not isinstance(rep, dict) or rep.get("schema") != "wcalc-report-v1":
                continue
            versions.add(rep.get("version", "?"))
            rows.append({
                "path": rel,
                "command": rep.get("command"),
                "check": rep.get("check"),
                "n_records": len(rep.get("records", [])),
                "n_failed": sum(1 for r in rep.get("records", [])
                                if not r.get("passed", False)),
                "passed": bool(rep.get("passed", False)),
                "version": rep.get("version", "?"),
            })

    summary = {
        "schema": "wcalc-summary-v1",
        "version": __version__,
        "n_reports": len(rows),
        "reports": rows,
        "all_passed": all(r["passed"] for r in rows),
        "version_conflict": len(versions) > 1,
    }
    lines = ["# Run summary", ""]
    if not rows:
        lines.append("No reports found.")
    else:
        lines.append("| report | command | check | records | failed | passed |")
        lines.append("|---|---|---|---|---|---|")
        for r in rows:
            lines.append(f"| {r['path']} | {r['command'] or '-'} "
                         f"| {r['check'] or '-'} | {r['n_records']} "
                         f"| {r['n_failed']} | {'yes' if r['passed'] else 'NO'} |")
        for r in rows:
            if "error" in r:
                lines.append("")
                lines.append(f"ERROR: {r['path']} is {r['error']}")
        if summary["version_conflict"]:
            lines.append("")
            lines.append(f"WARNING: mixed versions {sorted(versions)}")
    lines.append("")

    atomic_write_json(os.path.join(args.dir, "summary.json"), summary)
    atomic_write_text(os.path.join(args.dir, "summary.md"), "\n".join(lines))
    print("\n".join(lines))
    return 0 if summary["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcalc",
        description="Derivative checks for measure functionals on "
                    "discretized Wiener space.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification battery")
    p_verify.add_argument("check", choices=sorted(CHECKS))
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_pipe = sub.add_parser("pipeline", help="run the density approximation "
                                             "pipeline end to end")
    p_pipe.add_argument("--config", required=True)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--out", default=None)
    p_pipe.set_defaults(fn=cmd_pipeline)

    p_rep = sub.add_parser("report", help="aggregate reports in a directory")
    p_rep.add_argument("dir")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
