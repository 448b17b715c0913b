"""The wcalc benchmark: one workload per call, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/wcalc. The benchmark writes
the workload's wcalc-run-v1 configs under .perfbench/NAME/, times set-up in
fresh interpreters, then runs the workload in fresh child processes through
wcalc.cli.main until S seconds have passed. Every record is checked against
the committed reference records for the workload seed.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced executions and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import END_TO_END, LAYERS, PER_LAYER, judge, layer_values, median, record_key  # noqa: E402
from tracer import aggregate  # noqa: E402
from workloads import (DEFAULT_SEED, REFERENCE_DIR, WORKLOADS,  # noqa: E402
                       Invocation, invocations, reference_seeds, resolve_seed,
                       working_set)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
RUN_LIMIT_S = 170.0
# A record moved by more than this share of its tolerance is a wrong output.
DRIFT_LIMIT = 0.5

_SETUP_CODE = ("import sys, wcalc.cli\n"
               "for path in sys.argv[1:]:\n"
               "    wcalc.cli.load_config(path)\n"
               "print(wcalc.__file__)\n")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("WCALC_SEED", "WCALC_OUT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            asked = int(env.get(var, nproc()))
        except ValueError:
            asked = nproc()
        env[var] = str(max(1, min(asked, nproc())))
    return env


def machine() -> dict:
    info = {"nproc": nproc(), "python": platform.python_version()}
    with open("/proc/cpuinfo") as fh:
        models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    info["cpu"] = models[0] if models else platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        read = lambda name: (idx / name).read_text().strip()  # noqa: E731
        if read("type") != "Instruction":
            caches[f"L{read('level')}"] = {"size": read("size"),
                                           "shared_cpus": read("shared_cpu_list")}
    info["caches"] = caches
    for pkg in ("numpy", "scipy"):
        info[pkg] = metadata.version(pkg)
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def measure_setup(paths: List[str], env: Dict[str, str]) -> List[float]:
    """Fresh interpreters that import wcalc and validate the configs; the
    first compiles bytecode and is not counted."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, *paths],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"config validation failed:\n{proc.stderr}")
        loaded = Path(proc.stdout.strip()).resolve()
        if ROOT / "src" not in loaded.parents:
            raise BenchError(f"wcalc imported from {loaded}, not from this checkout")
        if i:
            times.append(dt)
    return times


def execute(invs: List[Invocation], work: Path, env: Dict[str, str],
            trace: bool, timeout: float) -> dict:
    """One workload execution in a fresh child; returns its result and records."""
    for inv in invs:
        shutil.rmtree(ROOT / inv.out_dir, ignore_errors=True)
    tag = "traced" if trace else "plain"
    spec = {"invocations": [list(inv.argv) for inv in invs], "trace": trace,
            "log": str(work / f"{tag}.log"), "result": str(work / f"{tag}.json")}
    Path(spec["result"]).unlink(missing_ok=True)
    spec_path = work / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(timeout, 1.0))
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired:
        ok = False
    result = json.loads(Path(spec["result"]).read_text()) if ok else None
    records = []
    for inv in invs:
        report = ROOT / inv.out_dir / "report.json"
        if report.is_file():
            records.extend(json.loads(report.read_text())["records"])
    return {"trace": trace, "result": result, "records": records}


def load_reference(workload: str, seed: int) -> Optional[List[dict]]:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def expected_names(workload: str, reference: Optional[List[dict]]) -> List[str]:
    """Record names do not depend on the seed, so any reference lists them."""
    if reference is None:
        path = REFERENCE_DIR / f"{workload}.json"
        refs = json.loads(path.read_text()) if path.is_file() else {}
        reference = refs.get(str(DEFAULT_SEED), [])
    return [r["name"] for r in reference]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    if not (ROOT / "src" / "wcalc" / "__init__.py").is_file():
        raise BenchError(f"no wcalc source tree at {ROOT / 'src' / 'wcalc'}")
    pool = reference_seeds()
    wseed = resolve_seed(seed, pool)
    rel = f".perfbench/{workload}"
    work = ROOT / rel
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    invs = invocations(workload, wseed, rel)
    for inv in invs:
        (ROOT / inv.config_path).write_text(json.dumps(inv.config, indent=2) + "\n")
    env = child_env()
    setup = measure_setup([inv.config_path for inv in invs], env)

    reference = load_reference(workload, wseed)
    expected = expected_names(workload, reference)
    execs: List[dict] = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        t_round = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            left = RUN_LIMIT_S - (time.monotonic() - began)
            execs.append(execute(invs, work, env, traced, left))
        now = time.monotonic()
        longest = max(longest, now - t_round)
        # start another round only if it fits in --seconds and the run limit
        if (now - t0 + longest > seconds
                or now - began + 1.5 * longest > RUN_LIMIT_S):
            break

    verdicts = [judge(ex["records"], expected, reference) for ex in execs]
    first = [record_key(r) for r in execs[0]["records"]]
    same = all([record_key(r) for r in ex["records"]] == first for ex in execs)
    crashed = sum(ex["result"] is None for ex in execs)
    attempted = sum(v["expected"] for v in verdicts)
    failed = sum(len(v["failed"]) if ex["result"] is not None else v["expected"]
                 for v, ex in zip(verdicts, execs))
    drift = (max(v["record_drift"] for v in verdicts)
             if reference is not None else None)
    correct = (failed == 0 and crashed == 0 and same and bool(expected)
               and (drift is None or drift <= DRIFT_LIMIT))

    plain = [ex["result"] for ex in execs if not ex["trace"] and ex["result"]]
    traced = [ex for ex in execs if ex["trace"] and ex["result"]]
    if not plain or (trace and not traced):
        raise BenchError(f"no execution of {workload} completed; "
                         f"see the logs in {work}")
    out = {"workload": workload, "seed": seed, "workload_seed": wseed,
           "reference": reference is not None, "executions": len(execs),
           "correct": correct, "attempted": attempted, "failed": failed,
           "identical_records": same, "crashed": crashed,
           "failed_records": sorted({n for v in verdicts for n in v["failed"]}),
           "fail_ratio": failed / attempted if attempted else 1.0,
           "worst_margin": verdicts[0]["worst_margin"], "record_drift": drift,
           "setup_runs_s": setup, "wall_runs_s": [r["wall_s"] for r in plain],
           "cpu_runs_s": [r["cpu_s"] for r in plain],
           "blas_threads": plain[0]["blas_threads"]}
    values = {"wall_s": median([r["wall_s"] for r in plain]),
              "setup_s": median(setup),
              "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
    if not trace:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    else:
        per_exec = []
        for ex in traced:
            spans = ex["result"]["spans"]
            layers, top = aggregate(spans)
            vals = layer_values(spans, layers)
            vals["trace.coverage"] = top / ex["result"]["wall_s"]
            per_exec.append(vals)
        values.update({k: median([v[k] for v in per_exec]) for k in per_exec[0]})
        values["trace.overhead_ratio"] = (
            median([ex["result"]["wall_s"] for ex in traced]) / values["wall_s"] - 1.0)
        values.update(fail_ratio=out["fail_ratio"], worst_margin=out["worst_margin"],
                      record_drift=drift)
        # without a reference record_drift is unknown, not 0, so it is left out
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER if values[name] is not None}
        out["unreached"] = [key for key, _, _ in LAYERS
                            if layers.get(key, (0.0, 0.0, 0))[2] == 0]
        out["all_layers"] = {k: {"s": v[0], "self_s": v[1], "calls": v[2]}
                             for k, v in sorted(layers.items())}
    out["metrics"] = metrics
    return out


def report(out: dict, info: dict) -> None:
    w = out["workload"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"workload {w}: " + next(x["why"] for x in spec["workloads"] if x["name"] == w))
    print(f"  seed {out['seed']} -> workload seed {out['workload_seed']}; "
          + ("reference records found" if out["reference"] else
             "no reference records for this seed, so record_drift is not computed"))
    caches = ", ".join(f"{k} {v['size']} (cpus {v['shared_cpus']})"
                       for k, v in info["caches"].items())
    print(f"machine: nproc {info['nproc']}, {info['cpu']}, {caches}; "
          f"BLAS {info['blas']}, {out['blas_threads']} threads; Python "
          f"{info['python']}, numpy {info['numpy']}, scipy {info['scipy']}")
    l2 = next((v["size"] for k, v in info["caches"].items() if k == "L2"), None)
    l3 = next((v["size"] for k, v in info["caches"].items() if k == "L3"), None)
    print("working set (computed from the configs, not measured):")
    for label, size in working_set(w).items():
        b = size["bytes"]
        where = ""
        if l2 and l3:
            kb = lambda s: int(s.rstrip("K")) * 1024  # noqa: E731
            where = (" inside L2" if b <= kb(l2) else
                     " inside L3" if b <= kb(l3) else " above L3")
        print(f"  {label}: {b / 1e6:.2f} MB{where}")
    print(f"executions {out['executions']}; records attempted {out['attempted']}, "
          f"failed {out['failed']}; identical across executions: "
          f"{out['identical_records']}")
    print(f"fail_ratio {out['fail_ratio']:.4g}; worst_margin "
          f"{out['worst_margin']:.4g}; record_drift "
          + (f"{out['record_drift']:.4g}" if out["record_drift"] is not None
             else "not computed (no reference)"))
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    overhead = out["metrics"].get("trace.overhead_ratio")
    if overhead is not None:
        print(f"tracing overhead {100 * overhead['value']:.2f}% of untraced wall_s "
              "(ROADMAP aim 4 budget for in-program spans: 1%)")
    if out.get("unreached"):
        print("layers not reached on this workload (reported as 0): "
              + ", ".join(out["unreached"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = machine()
    out["machine"] = info
    out["working_set"] = working_set(args.workload)
    (ROOT / ".perfbench" / args.workload / "result.json").write_text(
        json.dumps(out, indent=2) + "\n")
    report(out, info)
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
