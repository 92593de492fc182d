"""End-to-end command runs, manifests, and reproducibility."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chslab import cli, solver
from chslab.cli import _cell, _csv, _git_blob_sha1, execute, main, sweep_execute
from chslab.config import parse_config


def manifest_lines(out_dir, drop_wall=True):
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    if drop_wall:
        lines = [l for l in lines if not l.startswith("wall_time_s")]
    return lines


def artifact_bytes(out_dir):
    """Everything except the wall-time line, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        data = (out_dir / name).read_bytes()
        if name == "manifest.txt":
            data = b"\n".join(l for l in data.splitlines()
                              if not l.startswith(b"wall_time_s"))
        out[name] = data
    return out


def test_blob_hash_matches_git_convention():
    assert _git_blob_sha1(b"hello") == "b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0"


def test_solve_run_writes_expected_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--out", str(out), "--N", "128", "--t_end", "0.2"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == ["ledger.csv", "manifest.txt", "state_final.chs2"]
    lines = manifest_lines(out, drop_wall=False)
    assert lines[0] == "chslab manifest"
    assert lines[1] == "command = solve"
    assert "N = 128" in lines
    assert "status = completed" in lines
    assert lines[-1].startswith("wall_time_s = ")
    assert sum(1 for l in lines if l.startswith("artifact ")) == 2


def test_manifest_hashes_match_artifact_contents(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--out", str(out), "--N", "128", "--t_end", "0.2"]) == 0
    for line in manifest_lines(out):
        if line.startswith("artifact "):
            _, name, _, digest = line.split()
            assert _git_blob_sha1((out / name).read_bytes()) == digest


def test_optional_ratio_tables_are_listed_and_hashed(tmp_path):
    out = tmp_path / "run"
    assert main(["ineq", "--probe", "algebra", "--ensemble", "8", "--ratios_csv", "true",
                 "--out", str(out)]) == 0
    hashed = {line.split()[1]: line.split()[3] for line in manifest_lines(out)
              if line.startswith("artifact ")}
    assert sorted(hashed) == sorted(p.name for p in out.iterdir() if p.name != "manifest.txt")
    data = (out / "probe_algebra_ratios.csv").read_bytes()
    assert hashed["probe_algebra_ratios.csv"] == _git_blob_sha1(data)
    rows = data.decode().splitlines()
    assert rows[0] == "index,ratio" and len(rows) == 1 + 8


def test_config_file_and_override_precedence(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("N = 128\nt_end = 0.2\namplitude = 0.5\n")
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(cfile), "--out", str(out),
               "--amplitude", "0.25"])
    assert rc == 0
    lines = manifest_lines(out)
    assert "amplitude = 0.25" in lines  # override wins
    assert "N = 128" in lines           # file wins over default


def test_bad_config_exits_two_and_names_every_problem(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path / "x"),
               "--N", "abc", "--b", "1", "--bogus", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'N'" in err
    assert "b = 1" in err
    assert "bogus" in err


@pytest.mark.parametrize("argv, key", [
    (["holder", "--base_kind", "bogus"], "base_kind"),
    (["holder", "--direction_kind", "bogus"], "direction_kind"),
    (["solve", "--kind", "random", "--seed", "-1"], "seed"),
    (["ineq", "--seed", "-1"], "seed"),
    (["solve", "--width", "-1"], "width"),
    (["ineq", "--amplitude", "0"], "amplitude"),
    (["ineq", "--probe", "product-negative"], "product-negative"),
    (["kernel", "--r", "0.5", "--k", "2"], "kernel"),
    (["ineq", "--r", "0.3"], "product-low"),
    (["ineq", "--s", "1.2"], "calderon"),
    (["ineq", "--sigma", "3"], "calderon"),
    (["ineq", "--L", "1.5"], "mollifier"),
    (["ineq", "--N", "8"], "sweep"),
    (["ineq", "--N", "8", "--probe", "product-negative", "--r", "0"], "sweep"),
    (["t0probe", "--amplitude", "0", "--normalize", "true"], "normalize"),
    (["t0probe", "--kind", "zero", "--normalize", "true"], "normalize"),
    (["holder", "--h", "0.005"], "delta_max"),
    (["holder", "--h", "0.01"], "delta_max"),
])
def test_bad_values_are_config_errors_not_failed_runs(tmp_path, capsys, argv, key):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [l for l in err.splitlines() if l.startswith("config error")]
    assert len(lines) == 1 and key in lines[0]
    assert not out.exists()  # nothing ran


def test_sweep_grid_rule_binds_only_when_the_sweep_runs(tmp_path):
    out = tmp_path / "x"
    rc = main(["ineq", "--N", "8", "--probe", "calderon", "--ensemble", "4", "--out", str(out)])
    assert rc in (0, 1)
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("argv, key", [
    (["solve", "--t_end", "inf"], "t_end"),
    (["solve", "--amplitude", "inf"], "amplitude"),
    (["solve", "--L", "inf"], "L"),
    (["kernel", "--eta_max", "inf"], "eta_max"),
    (["solve", "--kappa", "nan"], "kappa"),
    (["holder", "--h", "inf"], "h"),
    (["holder", "--cases", "4:inf"], "cases"),
])
def test_non_finite_values_are_config_errors(tmp_path, capsys, argv, key):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [l for l in err.splitlines() if l.startswith("config error")]
    assert len(lines) == 1 and f"key {key!r}" in lines[0]
    assert not out.exists()


def test_holder_ball_key_h_is_not_an_abbreviation_of_help(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["holder", "--h", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l.startswith("config error")]
    assert len(lines) == 1 and lines[0].startswith("config error: h ")
    assert not out.exists()


def test_holder_ball_key_h_reaches_the_config(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "execute", lambda cfg: seen.append(cfg) or 0)
    assert main(["holder", "--h", "3", "--out", str(tmp_path / "x")]) == 0
    assert [cfg.h for cfg in seen] == [3.0]


def test_malformed_override_tokens_exit_two(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path / "x"), "stray"]) == 2
    assert main(["solve", "--out", str(tmp_path / "x"), "--N"]) == 2


def test_missing_config_file_exits_two(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_equals_form_overrides_work(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--out", str(out), "--N=128", "--t_end=0.1",
               "--alpha=-0.25"])
    assert rc == 0
    assert "alpha = -0.25" in manifest_lines(out)


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["solve", "--out", str(out), "--N", "128", "--t_end", "0.2"])
        assert rc == 0
    assert artifact_bytes(a) == artifact_bytes(b)


def test_kernel_divergence_yields_failure_code(tmp_path):
    out = tmp_path / "k"
    rc = main(["kernel", "--out", str(out), "--j", "0.4"])
    assert rc == 1
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["divergent"] is True


def test_kernel_plateau_yields_success(tmp_path):
    for eta_max in (100.0, 1000.0):
        out = tmp_path / f"k{eta_max:g}"
        rc = main(["kernel", "--out", str(out), "--eta_points", "12",
                   "--eta_max", repr(eta_max)])
        assert rc == 0
        report = json.loads((out / "kernel_report.json").read_text())
        assert report["plateau"] is True
        header, *rows = (out / "kernel_scan.csv").read_text().splitlines()
        assert header == "eta,integral,ratio"
        etas = [float(row.split(",")[0]) for row in rows]
        assert etas == [0.0, *np.geomspace(0.1, eta_max, 11)]


def test_t0probe_zero_data_passes_trivially(tmp_path):
    out = tmp_path / "t"
    rc = main(["t0probe", "--out", str(out), "--N", "128", "--kind", "zero"])
    assert rc == 0
    report = json.loads((out / "t0_report.json").read_text())
    assert report["passed"] is True
    assert report["T0"] is None  # unbounded window serialized as null
    assert "T0 = inf" in manifest_lines(out)


def test_t0probe_normalized_window_value(tmp_path):
    out = tmp_path / "t"
    rc = main(["t0probe", "--out", str(out), "--N", "128",
               "--normalize", "true"])
    assert rc == 0
    assert any(l.startswith("T0 = 0.34657") for l in manifest_lines(out))


def test_t0probe_reports_unresolved_window_as_failure(tmp_path):
    # a narrow bump at N = 256 exhausts the resolution before the fitted
    # window closes; that is a verdict, not a crash
    out = tmp_path / "t"
    rc = main(["t0probe", "--out", str(out), "--kind", "sech2",
               "--amplitude", "0.8"])
    assert rc == 1
    rep = json.loads((out / "t0_report.json").read_text())
    assert rep["passed"] is False
    assert rep["status"] == "resolution-exhausted"
    assert rep["first_violation"] is None
    assert rep["T0_fitted"] is None
    assert any(l == "status = resolution-exhausted" for l in manifest_lines(out))


def test_t0probe_aborted_probe_run_is_a_failed_verdict(tmp_path):
    # at N = 64 the probe run itself exhausts the resolution at its first
    # watchdog check, so there is no ledger to fit c_s on
    out = tmp_path / "t"
    rc = main(["t0probe", "--out", str(out), "--kind", "sech2",
               "--amplitude", "0.5", "--N", "64"])
    assert rc == 1
    rep = json.loads((out / "t0_report.json").read_text())
    assert rep["passed"] is False
    assert rep["status"] == "resolution-exhausted"
    assert rep["fitted_cs"] is None and rep["T0_fitted"] is None
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert len(ledger) == 1 + rep["ledger_rows"]
    assert "size_bound = fail" in manifest_lines(out)


def test_t0probe_aborted_refit_run_is_a_failed_verdict(tmp_path):
    # at N = 128 the probe run completes but the run over the fitted
    # window aborts after a few steps, too few to fit c_s on again
    out = tmp_path / "t"
    rc = main(["t0probe", "--out", str(out), "--kind", "sech2",
               "--amplitude", "0.5", "--N", "128"])
    assert rc == 1
    rep = json.loads((out / "t0_report.json").read_text())
    assert rep["passed"] is False
    assert rep["status"] == "resolution-exhausted"
    assert rep["ledger_rows"] < 10
    # the floored fit of the probe run set the failed window
    assert rep["fitted_cs"] == 0.05 and rep["T0_fitted"] is None
    assert "size_bound = fail" in manifest_lines(out)


def test_csv_cells_have_exact_bytes():
    # numpy 2 reprs a scalar as np.float64(...); a cell never does
    cells = ["s4-r2", 7, -3, 0.1, np.float64(0.1), 1e-300, float("nan"),
             np.float64(np.inf), -np.inf, -0.0, np.float64(-0.0)]
    assert [_cell(v) for v in cells] == [
        "s4-r2", "7", "-3", "0.1", "0.1", "1e-300", "nan", "inf", "-inf", "-0.0", "-0.0"]
    assert _csv("a,b", [(0, np.float64(1.5)), ("x", -0.0)]) == b"a,b\n0,1.5\nx,-0.0\n"


def test_unusable_out_exits_two_with_one_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    argv = ["--N", "128", "--t_end", "0.1"]
    assert main(["solve", "--out", str(taken), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chslab: ") and err.count("\n") == 1
    # a manifest path that cannot be written fails the same way
    blocked = tmp_path / "blocked"
    (blocked / "manifest.txt").mkdir(parents=True)
    assert main(["solve", "--out", str(blocked), *argv]) == 2
    assert capsys.readouterr().err.startswith("chslab: ")


def test_sweep_execute_returns_two_for_an_unusable_out(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    over = {"N": "128", "t_end": "0.1"}
    cfgs = [parse_config("", "solve", str(out), over) for out in (tmp_path / "ok", taken)]
    assert sweep_execute(cfgs, parallelism=1) == 2
    assert (tmp_path / "ok" / "manifest.txt").exists()
    assert capsys.readouterr().err.startswith("chslab: ")


def test_holder_single_case_via_cli(tmp_path):
    ladders = [
        (["--T", "0.3"], np.geomspace(1e-2, 1e-5, 7)),
        (["--N", "64", "--T", "0.1", "--delta_max", "1e-3", "--delta_min", "1e-6",
          "--delta_count", "5"], np.geomspace(1e-3, 1e-6, 5)),
    ]
    for i, (extra, deltas) in enumerate(ladders):
        out = tmp_path / f"h{i}"
        rc = main(["holder", "--out", str(out), "--cases", "4:2", *extra])
        assert rc == 0
        text = (out / "holder_reports.csv").read_text()
        assert "s4-r2" in text and ",pass" in text
        assert (out / "curves_s4-r2.csv").exists()
        [report] = json.loads((out / "holder_reports.json").read_text())
        assert report["deltas"] == list(deltas)


def test_ineq_probe_all_writes_what_the_single_probes_write(tmp_path):
    def run(tag, *argv):
        out = tmp_path / tag
        # a verdict may fail at this size (the mollifier's ladder spread): exit 1
        assert main(["ineq", "--N", "64", "--mollifier_N", "128", "--ensemble", "8",
                     "--out", str(out), *argv]) in (0, 1)
        summary = json.loads((out / "probe_summary.json").read_text())
        probes = {p.name: p.read_bytes() for p in out.glob("probe_*.json")
                  if p.name != "probe_summary.json"}
        return probes, summary["sweeps"]

    all_probes, all_sweeps = run("all", "--probe", "all")
    singles, sweeps = {}, {}
    names = ["algebra", "kato-ponce", "product-low", "calderon", "interpolation",
             "mollifier"]
    runs = [(name, ["--probe", name]) for name in names] + [
        (f"neg{r}{j}{k}", ["--probe", "product-negative", "--r", r, "--j", j, "--k", k])
        for r, j, k in (("0", "1", "1"), ("1", "2", "3"))]
    for tag, argv in runs:
        probes, sweep = run(tag, *argv)
        assert not probes.keys() & singles.keys()
        singles.update(probes)
        sweeps.update(sweep)
    assert len(singles) == 8
    assert all_probes == singles
    assert all_sweeps == sweeps


def test_sweep_execute_parallel_matches_serial(tmp_path, pools):
    def build(tag):
        return [
            parse_config("", "solve", str(tmp_path / f"{tag}{i}"),
                         {"N": "128", "t_end": "0.1", "seed": str(i)})
            for i in range(2)
        ]

    assert sweep_execute(build("serial"), parallelism=1) == 0
    assert pools == []
    assert sweep_execute(build("par"), parallelism=2) == 0
    assert pools == [2]
    for i in range(2):
        assert (artifact_bytes(tmp_path / f"serial{i}")
                == artifact_bytes(tmp_path / f"par{i}"))


def test_execute_turns_runtime_failures_into_exit_two(tmp_path, capsys, monkeypatch):
    # a library call that fails mid-run; zero data with normalize = true,
    # the example used before, is now a config error
    def broken_bound(state, s, params):
        raise ValueError("no window for these data")

    monkeypatch.setattr(solver, "t0_lower_bound", broken_bound)
    cfg = parse_config("", "t0probe", str(tmp_path / "x"), {"N": "64"})
    assert execute(cfg) == 2
    assert "no window for these data" in capsys.readouterr().err


def test_a_run_that_raises_after_its_solve_writes_nothing(tmp_path, capsys, monkeypatch):
    # the report is built after both solves; nothing reaches the disk before it
    def broken(x):
        raise RuntimeError("report failed")

    monkeypatch.setattr(cli, "_finite", broken)
    out = tmp_path / "t"
    assert main(["t0probe", "--N", "64", "--out", str(out)]) == 2
    assert "report failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_seam_error_exits_two_with_one_line_and_writes_nothing(tmp_path, capsys):
    # data at fault: a seam the data reaches, and norms that underflow to 0
    # (|c|^2 underflows below amplitudes of about 1e-154) or overflow
    cases = [
        (["solve", "--seam", "error", "--kind", "random", "--N", "64"],
         "chslab: initial data reaches "),
        (["t0probe", "--normalize", "true", "--amplitude", "1e-200"],
         "chslab: cannot normalize initial data: its norm y underflows to 0"),
        (["t0probe", "--normalize", "true", "--amplitude", "1e-320"],
         "chslab: cannot normalize initial data: its norm y underflows to 0"),
        # values or norms that overflow (|c|^2 overflows above about 1e154)
        (["holder", "--base_amplitude", "1e307"],
         "chslab: non-finite values in state fields"),
        (["holder", "--base_amplitude", "1e307", "--parallelism", "2"],
         "chslab: non-finite values in state fields"),
        (["holder", "--cases", "200:199.5"], "chslab: non-finite values in state fields"),
        (["holder", "--h", "1e300", "--base_amplitude", "1e305", "--delta_max", "1e290",
          "--delta_min", "1e280"], "chslab: cannot fit family in the requested ball"),
        (["solve", "--amplitude", "1e308"], "chslab: non-finite values in state fields"),
        (["t0probe", "--amplitude", "1e200"], "chslab: initial data too large: "),
        (["t0probe", "--amplitude", "1e308"], "chslab: initial data too large: "),
        (["t0probe", "--normalize", "true", "--amplitude", "1e200"],
         "chslab: initial data too large: "),
        (["t0probe", "--normalize", "true", "--amplitude", "1e308"],
         "chslab: initial data too large: "),
        # 2 c_s overflows, so the window log1p(1/y0) / (2 c_s) is 0
        (["t0probe", "--c_s", "1e308"], "chslab: empty existence window: T0 = 0.0"),
    ]
    for i, (argv, head) in enumerate(cases):
        out = tmp_path / str(i)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(out)]) == 2, argv
        # numpy's overflow warnings would print before the one line
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
        err = capsys.readouterr().err
        assert err.startswith(head) and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


def test_data_fault_prints_one_stderr_line_from_a_real_process(tmp_path):
    out = tmp_path / "h"
    done = subprocess.run(
        [sys.executable, "-m", "chslab.cli", "holder", "--base_amplitude", "1e307",
         "--out", str(out)], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
    assert done.returncode == 2
    assert done.stderr == "chslab: non-finite values in state fields\n"
    assert list(out.iterdir()) == []


def test_json_artifacts_hold_no_nan_or_infinity_tokens(tmp_path):
    # the no-verdict report's slope, residual, intercept and distances are NaN
    out = tmp_path / "h"
    assert main(["holder", "--cases", "100:99.5", "--out", str(out)]) == 1

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    [report] = json.loads((out / "holder_reports.json").read_text(), parse_constant=reject)
    assert report["verdict"] == "no-verdict: member aborted"
    assert report["slope"] is None and report["intercept"] is None
    assert report["distances"] == [None] * len(report["deltas"])


def test_step_error_is_a_failed_run_not_a_blowup(tmp_path, capsys, monkeypatch):
    def broken_step(grid, stack, params, dt, work=None):
        raise ValueError("grid mismatch")

    monkeypatch.setattr(solver, "step_rk4", broken_step)
    cfg = parse_config("", "solve", str(tmp_path / "x"), {"N": "128", "t_end": "0.2"})
    assert execute(cfg) == 2
    assert "grid mismatch" in capsys.readouterr().err
