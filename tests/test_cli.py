import csv
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wcalc import DEFAULT_THRESHOLDS, __version__, approx_pipeline, cli
from wcalc.artifacts import atomic_write_csv
from wcalc.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("WCALC_SEED", raising=False)
    monkeypatch.delenv("WCALC_OUT", raising=False)


def write_config(path, **extra):
    cfg = {"schema": "wcalc-run-v1"}
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


def verify_config(tmp_path, **extra):
    base = dict(command="verify", check="girsanov", seed=11, n_paths=1500,
                grid={"n_steps": 8}, out_dir=str(tmp_path / "out"))
    base.update(extra)
    return write_config(tmp_path / "cfg.json", **base)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_verify_pass_writes_report_and_csv(tmp_path, capsys):
    cfg = verify_config(tmp_path)
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    rep = read_report(tmp_path / "out")
    assert rep["schema"] == "wcalc-report-v1"
    assert rep["version"] == __version__
    assert rep["command"] == "verify" and rep["check"] == "girsanov"
    assert rep["passed"] is True
    assert rep["resolved"]["seed"] == 11
    assert rep["resolved"]["n_paths"] == 1500
    assert all(r["passed"] for r in rep["records"])

    csv_lines = (tmp_path / "out" / "girsanov.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "name,lhs,rhs,std_err,tolerance,gap,passed"
    assert len(csv_lines) == 1 + len(rep["records"])

    out = capsys.readouterr().out
    assert "all records pass" in out
    assert out.count("pass  ") == len(rep["records"])


def test_verify_forced_failure_exits_one(tmp_path):
    cfg = verify_config(tmp_path,
                        tolerances={"girsanov/inverse|sin-t": 1e-30})
    assert main(["verify", "girsanov", "--config", cfg]) == 1
    rep = read_report(tmp_path / "out")
    assert rep["passed"] is False
    failed = [r["name"] for r in rep["records"] if not r["passed"]]
    assert failed == ["girsanov/inverse|sin-t"]


def test_verify_rejects_bad_config(tmp_path, capsys):
    cfg = verify_config(tmp_path, n_paths="many")
    assert main(["verify", "girsanov", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err

    cfg2 = verify_config(tmp_path, banana=1)
    assert main(["verify", "girsanov", "--config", cfg2]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["verify", "girsanov", "--config", missing]) == 2


def test_verify_rejects_command_and_check_mismatch(tmp_path):
    cfg = verify_config(tmp_path, check="chain-rule")
    assert main(["verify", "girsanov", "--config", cfg]) == 2
    cfg2 = verify_config(tmp_path, command="pipeline")
    assert main(["verify", "girsanov", "--config", cfg2]) == 2


def test_unknown_check_is_a_usage_error(tmp_path):
    cfg = verify_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["verify", "nope", "--config", cfg])


def test_seed_precedence_flag_env_config(tmp_path, monkeypatch):
    cfg = verify_config(tmp_path)
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    assert read_report(tmp_path / "out")["resolved"]["seed"] == 11

    monkeypatch.setenv("WCALC_SEED", "22")
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    assert read_report(tmp_path / "out")["resolved"]["seed"] == 22

    assert main(["verify", "girsanov", "--config", cfg, "--seed", "33"]) == 0
    assert read_report(tmp_path / "out")["resolved"]["seed"] == 33

    monkeypatch.setenv("WCALC_SEED", "not-a-number")
    assert main(["verify", "girsanov", "--config", cfg]) == 2


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_seed_outside_the_substream_range_is_refused(tmp_path, monkeypatch,
                                                     capsys, source):
    """A seed below 0 or at 2**64 or above exits 2 before any sampling,
    naming where it came from: the substreams mask seeds to 64 bits, so
    2**64 + 5 would silently rerun seed 5."""
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "run_check", refuse)
    argv = ["verify", "girsanov", "--config"]
    if source == "config":
        argv.append(verify_config(tmp_path, seed=(1 << 64) + 5))
        named = "config.seed"
    else:
        argv.append(verify_config(tmp_path))
        if source == "flag":
            argv += ["--seed", "-3"]
            named = "--seed -3"
        else:
            monkeypatch.setenv("WCALC_SEED", "-5")
            named = "WCALC_SEED -5"
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg = verify_config(tmp_path)
    monkeypatch.setenv("WCALC_OUT", str(tmp_path / "envout"))
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "report.json").exists()

    flag_dir = tmp_path / "flagout"
    assert main(["verify", "girsanov", "--config", cfg,
                 "--out", str(flag_dir)]) == 0
    assert (flag_dir / "report.json").exists()


def test_reruns_are_byte_identical_up_to_wall_time(tmp_path):
    cfg = verify_config(tmp_path)
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    first = (tmp_path / "out" / "report.json").read_text()
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    second = (tmp_path / "out" / "report.json").read_text()
    strip = lambda s: re.sub(r'"wall_time_s": [0-9.]+', "", s)
    assert strip(first) == strip(second)
    assert first != ""  # sanity: something was written


def test_pipeline_command_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "p.json", command="pipeline", seed=3,
                       n_paths=2000, grid={"n_steps": 8}, lam=0.3,
                       lam_prime=0.5,
                       pipeline={"dyadic_level": 2, "step_count": 4,
                                 "quad_order": 12, "inner_mc": 4},
                       out_dir=str(out))
    assert main(["pipeline", "--config", cfg]) == 0
    for name in ("report.json", "pipeline.csv", "pipeline_report.json",
                 "gamma_table.csv"):
        assert (out / name).exists(), name
    rep = read_report(out)
    names = [r["name"] for r in rep["records"]]
    assert names == ["pipeline/value-error", "pipeline/deriv-error",
                     "pipeline/segment-error", "pipeline/gamma-consistency"]
    assert rep["passed"] is True
    stdout = capsys.readouterr().out
    for sid in (1, 3, 4, 5, 6, 7):
        assert f"stage {sid}:" in stdout

    tight = write_config(tmp_path / "p2.json", command="pipeline", seed=3,
                         n_paths=2000, grid={"n_steps": 8}, lam=0.3,
                         lam_prime=0.5,
                         pipeline={"dyadic_level": 2, "step_count": 4,
                                   "quad_order": 12, "inner_mc": 4},
                         tolerances={"pipeline/value-error": 1e-12},
                         out_dir=str(tmp_path / "run2"))
    assert main(["pipeline", "--config", tight]) == 1


@pytest.mark.parametrize("change", [
    {"pipeline": {"step_count": 3}},
    {"lam": 0.4, "lam_prime": 0.4},
    {"lam_prime": 1.5},
    {"curve": {"kind": "scalar-exponential", "lam_lo": 0.5, "lam_hi": 0.2}},
    {"curve": {"kind": "scalar-exponential", "sigma_scale": 2.0}},
    {"grid": {"n_steps": 12}, "pipeline": {"dyadic_level": 3}},
    # json.dumps writes float("inf") as Infinity, which the loader reads
    {"pipeline": {"dyadic_level": 2, "step_count": 4,
                  "truncation_level": float("inf")}},
    {"pipeline": {"dyadic_level": 2, "step_count": 4,
                  "truncation_level": 1e308}},
    {"pipeline": {"dyadic_level": 2, "step_count": 4,
                  "truncation_level": 1e6}},
])
def test_pipeline_rejects_bad_config_before_running(tmp_path, capsys,
                                                    monkeypatch, change):
    def never(*args, **kwargs):
        raise AssertionError("the pipeline sampled paths")

    monkeypatch.setattr(cli, "sample_paths", never)
    out = tmp_path / "run"
    base = dict(command="pipeline", seed=3, n_paths=2000,
                grid={"n_steps": 8}, lam=0.3, lam_prime=0.5,
                pipeline={"dyadic_level": 2, "step_count": 4},
                out_dir=str(out))
    base.update(change)
    cfg = write_config(tmp_path / "p.json", **base)
    assert main(["pipeline", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


_INF = float("inf")


@pytest.mark.parametrize("command,change,field", [
    ("verify", {"tolerances": {"girsanov/inverse|sin-t": _INF}},
     "config.tolerances.girsanov/inverse|sin-t"),
    ("verify", {"grid": {"n_steps": 8, "horizon": _INF}}, "config.grid.horizon"),
    ("pipeline", {"grid": {"n_steps": 8, "horizon": _INF}},
     "config.grid.horizon"),
    ("pipeline", {"curve": {"kind": "scalar-exponential", "lam_lo": -_INF,
                            "lam_hi": _INF}}, "config.curve.lam_lo"),
    ("pipeline", {"curve": {"kind": "scalar-exponential", "lam_lo": 0.0,
                            "lam_hi": _INF}}, "config.curve.lam_hi"),
    ("pipeline", {"lam": float("nan")}, "config.lam"),
])
def test_non_finite_numbers_are_refused_before_sampling(tmp_path, capsys,
                                                        monkeypatch, command,
                                                        change, field):
    """json reads Infinity and NaN; each numeric field refuses them with a
    ConfigError naming the field, before any path is sampled."""
    def never(*args, **kwargs):
        raise AssertionError("the run sampled paths")

    monkeypatch.setattr(cli, "sample_paths", never)
    monkeypatch.setattr(cli, "run_check", never)
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", "girsanov", "--config",
                verify_config(tmp_path, **change)]
    else:
        base = dict(command="pipeline", seed=3, n_paths=2000,
                    grid={"n_steps": 8}, lam=0.3, lam_prime=0.5,
                    pipeline={"dyadic_level": 2, "step_count": 4},
                    out_dir=str(out))
        base.update(change)
        argv = ["pipeline", "--config",
                write_config(tmp_path / "p.json", **base)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: expected a finite number" in err
    assert not out.exists()


def test_pipeline_names_the_invalid_ladder_rung(tmp_path, capsys):
    """dyadic_level 2 is a valid base config, but the step-count ladder's
    rung 8 does not divide 2**2 blocks; the run stops before sampling."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "p.json", command="pipeline", seed=3,
                       n_paths=2000, grid={"n_steps": 8}, lam=0.3,
                       lam_prime=0.5, ladders=True,
                       pipeline={"dyadic_level": 2, "step_count": 4},
                       out_dir=str(out))
    assert main(["pipeline", "--config", cfg]) == 2
    assert "ladder rung step_count=8" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_outputs_do_not_depend_on_the_worker_count(
        tmp_path, monkeypatch):
    """A pipeline run with ladders writes the same bytes with one worker
    thread and with two, and leaves no thread behind."""
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(approx_pipeline, "_cpu_count", lambda: workers)
        out = tmp_path / f"w{workers}"
        cfg = write_config(tmp_path / f"w{workers}.json", command="pipeline",
                           seed=3, n_paths=500, grid={"n_steps": 8},
                           lam=0.3, lam_prime=0.5, ladders=True,
                           pipeline={"dyadic_level": 3, "step_count": 8,
                                     "quad_order": 3},
                           out_dir=str(out))
        assert main(["pipeline", "--config", cfg]) in (0, 1)
        assert threading.active_count() == 1
        files = sorted(f.name for f in out.iterdir() if f.name != "report.json")
        assert "pipeline_report.json" in files and len(files) == 7
        outputs.append({name: (out / name).read_bytes() for name in files})
    assert outputs[0] == outputs[1]


def test_report_aggregates_a_tree(tmp_path, capsys):
    cfg = verify_config(tmp_path, out_dir=str(tmp_path / "tree" / "a"))
    assert main(["verify", "girsanov", "--config", cfg]) == 0

    fake = {"schema": "wcalc-report-v1", "version": __version__,
            "command": "verify", "check": "chain-rule",
            "records": [{"name": "x", "passed": False}], "passed": False}
    b = tmp_path / "tree" / "b"
    b.mkdir(parents=True)
    (b / "report.json").write_text(json.dumps(fake))
    (b / "not_a_report.json").write_text("{}")

    assert main(["report", str(tmp_path / "tree")]) == 1
    with open(tmp_path / "tree" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["schema"] == "wcalc-summary-v1"
    assert summary["n_reports"] == 2
    assert summary["all_passed"] is False
    assert summary["version_conflict"] is False
    rows = {r["path"]: r for r in summary["reports"]}
    assert rows["a/report.json"]["passed"] is True
    assert rows["b/report.json"]["n_failed"] == 1
    md = (tmp_path / "tree" / "summary.md").read_text()
    assert "| a/report.json |" in md and "NO" in md


def test_report_flags_version_conflicts(tmp_path):
    for sub, version, ok in (("a", __version__, True), ("b", "0.0.1", True)):
        d = tmp_path / sub
        d.mkdir()
        (d / "report.json").write_text(json.dumps(
            {"schema": "wcalc-report-v1", "version": version,
             "command": "verify", "check": "girsanov", "records": [],
             "passed": ok}))
    assert main(["report", str(tmp_path)]) == 0
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["version_conflict"] is True
    assert "WARNING: mixed versions" in (tmp_path / "summary.md").read_text()


def test_report_on_an_empty_directory(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    assert "No reports found." in capsys.readouterr().out
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["n_reports"] == 0


def test_report_on_a_missing_directory_exits_2_and_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    assert main(["report", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


def test_report_counts_an_unreadable_report_as_failed(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "report.json").write_text(
        '{"schema": "wcalc-report-v1", "passed": fal')
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "report.json").write_text(
        json.dumps({"schema": "other-v1", "passed": False}))
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "report.json").write_text("[]")
    assert main(["report", str(tmp_path)]) == 1
    assert "No reports found." not in capsys.readouterr().out
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["n_reports"] == 1
    assert summary["all_passed"] is False
    row, = summary["reports"]
    assert row["path"] == "a/report.json" and row["passed"] is False
    md = (tmp_path / "summary.md").read_text()
    assert "| a/report.json |" in md and "NO" in md
    assert "ERROR: a/report.json is unreadable" in md


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("check,change", [
    ("second-order", {"grid": {"n_steps": 7}}),
    ("lemma34", {"grid": {"n_steps": 7}}),
    ("chain-rule", {"n_paths": 7}),
    ("chain-rule", {"functionals": ["mean"]}),
])
def test_verify_rejects_inputs_the_battery_cannot_run(tmp_path, capsys,
                                                      monkeypatch, check,
                                                      change):
    """second-order and lemma34 read B at T/2, chain-rule splits the pool
    into 8 shards, and no battery takes a functional subset; each is
    refused before the battery samples anything."""
    def never(*args, **kwargs):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(cli, "run_check", never)
    cfg = verify_config(tmp_path, check=check, **change)
    assert main(["verify", check, "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,typo", [
    ("verify", "girsanov/nonexistent"),
    ("pipeline", "pipeline/value-eror"),
])
def test_tolerance_override_must_name_an_emitted_record(tmp_path, capsys,
                                                        command, typo):
    out = tmp_path / "out"
    if command == "verify":
        cfg = verify_config(tmp_path, tolerances={typo: 1.0})
        argv = ["verify", "girsanov", "--config", cfg]
    else:
        cfg = write_config(tmp_path / "p.json", command="pipeline", seed=3,
                           n_paths=2000, grid={"n_steps": 8}, lam=0.3,
                           lam_prime=0.5,
                           pipeline={"dyadic_level": 2, "step_count": 4,
                                     "quad_order": 4},
                           tolerances={"pipeline/value-error": 1.0,
                                       typo: 1.0},
                           out_dir=str(out))
        argv = ["pipeline", "--config", cfg]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and typo in err
    assert not out.exists()


def test_tolerance_override_is_applied_by_name(tmp_path):
    """The overridden verify record carries exactly the override; every
    other record keeps the battery's default tolerance."""
    cfg = verify_config(tmp_path, out_dir=str(tmp_path / "base"))
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    base = read_report(tmp_path / "base")["records"]
    target = base[0]["name"]
    cfg = verify_config(tmp_path, tolerances={target: 1e-30})
    assert main(["verify", "girsanov", "--config", cfg]) == 1
    forced = read_report(tmp_path / "out")["records"]
    assert [r["name"] for r in forced] == [r["name"] for r in base]
    for b, f in zip(base, forced):
        want = 1e-30 if b["name"] == target else b["tolerance"]
        assert f["tolerance"] == want, b["name"]
        assert f["lhs"] == b["lhs"] and f["rhs"] == b["rhs"]
    assert [r["name"] for r in forced if not r["passed"]] == [target]


def test_ladder_tolerance_override_is_applied_by_name(tmp_path):
    """A ladder record takes its override; the other ladder records keep
    tolerance 0 and the pipeline records keep DEFAULT_THRESHOLDS."""
    target = "pipeline/ladder|mollify_eps|value"
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "p.json", command="pipeline", seed=3,
                       n_paths=1000, grid={"n_steps": 8}, lam=0.3,
                       lam_prime=0.5, ladders=True,
                       pipeline={"dyadic_level": 3, "step_count": 8,
                                 "quad_order": 3},
                       tolerances={target: 0.25}, out_dir=str(out))
    assert main(["pipeline", "--config", cfg]) in (0, 1)
    tols = {r["name"]: r["tolerance"] for r in read_report(out)["records"]}
    defaults = {"pipeline/value-error": DEFAULT_THRESHOLDS["value"],
                "pipeline/deriv-error": DEFAULT_THRESHOLDS["deriv"],
                "pipeline/segment-error": DEFAULT_THRESHOLDS["segment"],
                "pipeline/gamma-consistency": DEFAULT_THRESHOLDS["gamma_gap"]}
    ladder = [n for n in tols if n.startswith("pipeline/ladder|")]
    assert len(ladder) == 8 and target in ladder
    defaults.update({n: 0.0 for n in ladder})
    defaults[target] = 0.25
    assert tols == defaults


@pytest.mark.parametrize("n_paths", [2, 6])
def test_bensoussan_runs_on_small_pools(tmp_path, n_paths):
    """With a handful of atoms the density window still reaches the
    battery's probes, so the run completes and writes its report."""
    cfg = verify_config(tmp_path, check="bensoussan", seed=5,
                        n_paths=n_paths, grid={"n_steps": 4})
    assert main(["verify", "bensoussan", "--config", cfg]) in (0, 1)
    assert len(read_report(tmp_path / "out")["records"]) == 6


def test_pipeline_inner_mc_is_accepted_and_ignored(tmp_path):
    """wcalc-run-v1 configs may still carry pipeline.inner_mc; the pipeline
    has no use for it, so the records match the same config without it."""
    records = []
    for name, extra in (("with", {"inner_mc": 16}), ("without", {})):
        out = tmp_path / name
        cfg = write_config(tmp_path / f"{name}.json", command="pipeline",
                           seed=3, n_paths=2000, grid={"n_steps": 8},
                           lam=0.3, lam_prime=0.5,
                           pipeline={"dyadic_level": 2, "step_count": 4,
                                     "quad_order": 4, **extra},
                           out_dir=str(out))
        assert main(["pipeline", "--config", cfg]) == 0
        records.append(read_report(out)["records"])
    assert records[0] == records[1]


def test_pipeline_report_resolves_the_knobs_the_run_used(tmp_path):
    """report.json's resolved block holds the pipeline knobs the run used:
    the config's where it sets them, the defaults elsewhere, exactly as
    pipeline_report.json records them; the ignored inner_mc is not one."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "p.json", command="pipeline", seed=3,
                       n_paths=1000, grid={"n_steps": 8}, lam=0.3,
                       lam_prime=0.5,
                       pipeline={"dyadic_level": 2, "step_count": 4,
                                 "quad_order": 3, "truncation_level": 4.0,
                                 "inner_mc": 4},
                       out_dir=str(out))
    assert main(["pipeline", "--config", cfg]) in (0, 1)
    resolved = read_report(out)["resolved"]
    with open(out / "pipeline_report.json") as fh:
        used = json.load(fh)["config"]
    assert used["quad_order"] == 3 and used["truncation_level"] == 4.0
    assert {k: resolved[k] for k in used} == used
    assert "inner_mc" not in resolved


def test_pipeline_csv_cells_parse_as_floats(tmp_path):
    """Every cell of the pipeline's CSV artifacts, label columns aside,
    parses with float(): numpy 2 writes repr(np.float64) as np.float64(...)."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "p.json", command="pipeline", seed=3,
                       n_paths=500, grid={"n_steps": 8}, lam=0.3,
                       lam_prime=0.5, ladders=True,
                       pipeline={"dyadic_level": 3, "step_count": 8,
                                 "quad_order": 3},
                       out_dir=str(out))
    assert main(["pipeline", "--config", cfg]) in (0, 1)
    names = ["gamma_table.csv", "pipeline.csv"] + [
        f"ladder_{knob}.csv" for knob in ("dyadic_level", "truncation_level",
                                          "mollify_eps", "step_count")]
    for name in names:
        with open(out / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        for row in rows:
            for column, cell in row.items():
                if column not in ("name", "knob", "passed"):
                    float(cell)


def test_float_array_rows_write_the_bytes_of_their_cells(tmp_path):
    """A float64 array writes the bytes of the same rows as lists of numpy
    floats, -0.0, subnormals, inf and nan included."""
    rows = np.array([[0.1, -0.0, 5e-324, np.inf],
                     [-np.inf, np.nan, 1e300, -2.5e-310]])
    atomic_write_csv(str(tmp_path / "a.csv"), ["a", "b", "c", "d"], rows)
    atomic_write_csv(str(tmp_path / "l.csv"), ["a", "b", "c", "d"],
                     [list(r) for r in rows])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "l.csv").read_bytes()
    assert (tmp_path / "a.csv").read_text().splitlines()[1] == \
        "0.1,-0.0,5e-324,inf"


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency: the runtime never imports it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import wcalc.cli; "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_concurrent_futures_out():
    """The pipeline runs its units on plain threads, so importing the CLI
    loads no executor module (which would add to every run's set-up)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import wcalc.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_second_order_run_leaves_numpy_ma_out():
    """Importing wcalc loads no numpy submodule that numpy itself does not,
    and a second-order run never imports numpy.ma (about 15 ms)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy\n"
            "before = set(sys.modules)\n"
            "import wcalc.cli\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.split('.')[0] == 'numpy'))\n"
            "wcalc.run_check('second-order', 2000, 16, 3)\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]
