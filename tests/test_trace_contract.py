"""The attributes perfbench/tracer.py reads from wcalc stay in place.

The benchmark's traced runs wrap wcalc's public functions and count work
from their arguments: MollifiedDensity and TruncatedDensity method calls
(through `coords`, `moll.eps`, `moll.trunc.level`, `moll.trunc.cond.level`
and `moll.n_coords`) and gaussian_smooth calls (through `prefix`, `grid`,
`component`, `mc_fallback` and `quad_order`). A rename in wcalc would
break those runs, or silently zero a counter, without failing any other
test. Here a fresh interpreter installs the tracer, runs a tiny
pipeline with ladders, a small clark-ocone battery and a small second-order
battery, and every counter must come out positive. The second-order run
must reach gaussian_smooth's component route with a loading, bound by name
as the tracer binds every argument.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = textwrap.dedent("""
    import contextlib, json, os, sys
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {perfbench!r})
    import wcalc.cli
    import tracer as tracer_module
    from tracer import Tracer, install
    count_smooth = tracer_module.COUNTERS["clark_ocone.gaussian_smooth"]
    loaded = []

    def spy(tr, a):
        loaded.append(a["component"] is not None and a["loading"] is not None)
        count_smooth(tr, a)

    tracer_module.COUNTERS["clark_ocone.gaussian_smooth"] = spy
    tracer = Tracer()
    install(tracer)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        codes = [wcalc.cli.main(list(argv)) for argv in {invocations!r}]
    with open({result!r}, "w") as fh:
        json.dump({{"codes": codes, "counts": dict(tracer.counts),
                   "loaded_component_calls": sum(loaded)}}, fh)
""")


def _config(path: Path, **fields) -> str:
    path.write_text(json.dumps({"schema": "wcalc-run-v1", **fields}))
    return str(path)


def test_traced_runs_count_the_layers_the_benchmark_reads(tmp_path):
    pipeline = _config(tmp_path / "pipeline.json", command="pipeline",
                       seed=3, n_paths=1000, grid={"n_steps": 8},
                       lam=0.3, lam_prime=0.5, ladders=True,
                       curve={"kind": "scalar-exponential",
                              "lam_lo": 0.0, "lam_hi": 1.0},
                       pipeline={"dyadic_level": 3, "step_count": 8,
                                 "quad_order": 3},
                       out_dir=str(tmp_path / "pipeline"))
    clark = _config(tmp_path / "clark.json", command="verify",
                    check="clark-ocone", seed=3, n_paths=2000,
                    grid={"n_steps": 8}, out_dir=str(tmp_path / "clark"))
    second = _config(tmp_path / "second.json", command="verify",
                     check="second-order", seed=3, n_paths=500,
                     grid={"n_steps": 4}, out_dir=str(tmp_path / "second"))
    result = tmp_path / "result.json"
    script = _SCRIPT.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"),
        invocations=[("pipeline", "--config", pipeline),
                     ("verify", "clark-ocone", "--config", clark),
                     ("verify", "second-order", "--config", second)],
        result=str(result))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr

    out = json.loads(result.read_text())
    # every command ran to the end: exit 0 or 1 (a record may fail at this
    # size), never 2 (config refused) or a traceback
    assert all(code in (0, 1) for code in out["codes"]), out["codes"]
    for name in ("pipeline", "clark", "second"):
        assert (tmp_path / name / "report.json").exists(), name
    # one call per knot of the four-step representation grid, shared by
    # both functionals
    assert out["loaded_component_calls"] >= 4
    counts = out["counts"]
    for key in ("approx_pipeline.MollifiedDensity.points",
                "approx_pipeline.TruncatedDensity.points",
                "clark_ocone.gaussian_smooth.nodes"):
        assert counts.get(key, 0) > 0, key

