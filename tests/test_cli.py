"""End-to-end command runs, manifests, and reproducibility."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chslab import cli, config, inequalities, solver
from chslab.cli import _cell, _csv, _git_blob_sha1, execute, main, sweep_execute
from chslab.config import _ANY, _KEYS, DEFAULTS, ConfigError, _check, parse_config
from chslab.inequalities import NEGATIVE_TRIPLES, PROBES


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
    (["ineq", "--amplitude", "1"], "amplitude"),  # the probe ratios do not read it
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
    (["ineq", "--probe", "kato"], "probe"),
    (["ineq", "--N", "12"], "N"),
    (["solve", "--amplitude", "-1"], "amplitude"),
    # the ensemble rules of inequalities.ensemble_problems
    (["ineq", "--ensemble", "-1"], "ensemble"),
    (["ineq", "--ensemble", "0"], "ensemble"),
    (["ineq", "--gamma", "-1"], "gamma"),
    (["ineq", "--gamma", "0"], "gamma"),
    (["ineq", "--gamma", "0.5"], "gamma"),
    # kernel scans whose ratio leaves double range (inequalities.check_kernel_range)
    (["kernel", "--r", "0", "--j", "100", "--k", "100"], "double range"),
    (["kernel", "--r", "1", "--j", "2", "--k", "3", "--eta_max", "1e81"], "double range"),
    (["kernel", "--eta_max", "1e155"], "double range"),
    (["t0probe", "--s", "2"], "s must exceed 2"),
    (["holder", "--cases", ""], "empty case list"),
])
def test_bad_values_are_config_errors_not_failed_runs(tmp_path, capsys, argv, key):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [l for l in err.splitlines() if l.startswith("config error")]
    assert len(lines) == 1 and key in lines[0]
    assert not out.exists()  # nothing ran


def _own_check_failures():
    """(command, key, text) for each text of a small pool that parses as a value of
    the key and fails the key's own check, over every key of every command."""
    cases = []
    for command, defaults in DEFAULTS.items():
        for key in defaults:
            for text in ("-1", "0", "1", "12", "bogus"):
                try:
                    value = _KEYS[key][0](text)
                except ValueError:
                    continue
                if _check(key, value):
                    cases.append((command, key, text))
    return cases


OWN_CHECK_FAILURES = _own_check_failures()


def test_the_pool_fails_every_key_that_has_a_check():
    checked = {key for key, (_, check) in _KEYS.items() if check is not _ANY}
    assert {key for _, key, _ in OWN_CHECK_FAILURES} == checked


@pytest.mark.parametrize("command, key, text", OWN_CHECK_FAILURES)
def test_a_value_that_fails_its_own_check_is_one_config_error(tmp_path, capsys,
                                                             command, key, text):
    # the key keeps its default for the cross-key rules, so no second line
    # judges the rejected value again
    out = tmp_path / "x"
    assert main([command, f"--{key}", text, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"config error: {_check(key, _KEYS[key][0](text))}"]
    assert err.startswith(f"config error: {key} ")
    assert not out.exists()


@pytest.mark.parametrize("argv, errors", [
    (["--ensemble", "0", "--r", "-1"],
     ["ensemble size must be positive, got 0",
      "algebra probe invalid: need r > 0, got r=-1",
      "kato-ponce probe invalid: need r >= 0, got r=-1",
      "product-low probe invalid: need r > 1/2, got r=-1"]),
    (["--ensemble", "0", "--gamma", "0.5"],
     ["ensemble size must be positive, got 0",
      "decay exponent gamma must exceed 1/2, got 0.5"]),
    (["--gamma", "0.5", "--probe", "calderon", "--s", "1"],
     ["decay exponent gamma must exceed 1/2, got 0.5",
      "calderon probe invalid: need s > 3/2 and 0 <= sigma+1 <= s, got s=1, sigma=1"]),
])
def test_broken_ensemble_knobs_do_not_hide_the_index_problems(tmp_path, capsys, argv, errors):
    out = tmp_path / "x"
    assert main(["ineq", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {e}" for e in errors]
    assert not out.exists()


@pytest.mark.parametrize("probe", ["all", *PROBES])
def test_ineq_runs_what_config_validated(tmp_path, monkeypatch, probe):
    validated, ran = [], []

    def checked(cfg):
        runs, problems = inequalities.probe_runs(cfg)
        validated.extend(runs)
        return runs, problems

    def recording(name, fn):
        def probe_fn(pcfg):
            ran.append((name, pcfg))
            return fn(pcfg)
        return probe_fn

    monkeypatch.setattr(config, "probe_runs", checked)
    # cli calls each probe through the module's binding, as the bench tracer expects
    for name, fn in PROBES.items():
        monkeypatch.setattr(inequalities, fn.__name__, recording(name, fn))
    triple = ["--r", "1", "--j", "2", "--k", "3"] if probe == "product-negative" else []
    out = tmp_path / "q"
    # a verdict may fail at this ensemble size: exit 1
    argv = ["ineq", "--probe", probe, "--ensemble", "4", *triple, "--out", str(out)]
    assert main(argv) in (0, 1)
    assert ran == validated

    # spelled out from the ineq defaults: N = 256, mollifier_N = 1024, L = 2 pi and
    # (r, j, k) = (2, 1, 1)
    def run(name, r=2.0, j=1.0, k=1.0):
        return name, 1024 if name == "mollifier" else 256, 2.0 * np.pi, (r, j, k)

    if probe == "all":
        want = [run(name) for name in PROBES if name != "product-negative"]
        want += [run("product-negative", *rjk) for rjk in NEGATIVE_TRIPLES]
    else:
        want = [run(probe, *((1.0, 2.0, 3.0) if triple else ()))]
    assert [(name, p.grid.n, p.grid.length, (p.r, p.j, p.k)) for name, p in ran] == want
    assert all(p.ensemble == 4 for _, p in ran)


@pytest.mark.parametrize("change, problem", [
    ({"constant": float("nan")}, "probe_algebra: constant is not finite"),
    ({"violations": 3}, "probe_algebra: 3 pointwise violations"),
])
def test_a_probe_problem_fails_the_ineq_verdict(tmp_path, monkeypatch, change, problem):
    real = inequalities.probe_algebra
    monkeypatch.setattr(inequalities, "probe_algebra",
                        lambda pcfg: dataclasses.replace(real(pcfg), **change))
    out = tmp_path / "q"
    assert main(["ineq", "--probe", "algebra", "--ensemble", "4", "--out", str(out)]) == 1
    summary = json.loads((out / "probe_summary.json").read_text())
    assert summary["verdict"] == "fail" and summary["problems"] == [problem]
    assert "verdict = fail" in manifest_lines(out)


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
    assert main(["solve", "--out", str(tmp_path / "x"), "--=3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "chslab: expected --key, got 'stray'", "chslab: missing value for --N",
        "chslab: empty key in '--=3'"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_synopsis_anywhere_in_argv(tmp_path, capsys, flag):
    for argv in ([flag], ["solve", flag], ["holder", "--h", "3", flag, "--out", str(tmp_path)]):
        assert main(argv) == 0
        assert capsys.readouterr() == (cli.__doc__, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    ([], cli.__doc__),
    (["bogus", "--out", "x"], "config error: unknown command 'bogus'; choose from "
                              "('solve', 'holder', 'ineq', 't0probe', 'kernel')\n"),
    # the command is judged before the missing --out
    (["bogus"], "config error: unknown command 'bogus'; choose from "
                "('solve', 'holder', 'ineq', 't0probe', 'kernel')\n"),
    (["solve"], "chslab: missing --out DIR\n"),
    (["solve", "--N", "64"], "chslab: missing --out DIR\n"),
    # the command comes first
    (["--out", "x", "solve"], "chslab: expected --key, got 'x'\n"),
    (["--out=x", "solve"], "chslab: expected --key, got 'solve'\n"),
    (["--out=x"], "config error: unknown command '--out=x'; choose from "
                  "('solve', 'holder', 'ineq', 't0probe', 'kernel')\n"),
])
def test_usage_errors_exit_two_and_run_nothing(tmp_path, monkeypatch, capsys, argv, err):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


def test_out_and_config_take_the_equals_form(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("N = 64\nt_end = 0.05\n")
    out = tmp_path / "run"
    assert main(["solve", f"--config={cfile}", f"--out={out}"]) == 0
    assert "N = 64" in manifest_lines(out)


def test_unparsable_config_text_is_a_config_error(tmp_path, capsys):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("N = 64\nt_end 0.05\n")  # a line with no "="
    out = tmp_path / "x"
    assert main(["solve", "--config", str(cfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: line 2: expected key = value, got 't_end 0.05'"]
    assert not out.exists()


def test_every_bad_config_line_and_key_is_reported_at_once(tmp_path, capsys):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("# a run\nN = 64\nt_end 0.05\nbogus = 1\n\nkind: random\n")
    out = tmp_path / "x"
    assert main(["solve", "--config", str(cfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: line 3: expected key = value, got 't_end 0.05'",
        "config error: line 6: expected key = value, got 'kind: random'",
        "config error: unknown key 'bogus'"]
    assert list(tmp_path.iterdir()) == [cfile]


def test_keys_under_a_default_section_are_read(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("[DEFAULT]\nN = 64\nt_end = 0.05\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfile), "--out", str(out)]) == 0
    lines = manifest_lines(out)
    assert "N = 64" in lines and "t_end = 0.05" in lines


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
    # I(eta) itself is finite there; the ratio is what grows without bound
    assert "unbounded in eta" in report["reason"]


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
        # two decades up to roundoff: 0.011 / 0.00011 is 99.99999999999999
        (["--N", "64", "--T", "0.1", "--delta_max", "0.011", "--delta_min", "0.00011"],
         np.geomspace(0.011, 0.00011, 7)),
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


def test_numbers_in_names_read_back_as_the_values():
    assert [cli._num(x) for x in (4.0, 3.75, 3.5, 2.0, 1.0, 0.0, 1e-7, 0.1)] == [
        "4", "3.75", "3.5", "2", "1", "0", "1e-07", "0.1"]
    assert [cli._num(x) for x in (1.0000001, 1234567.0)] == ["1.0000001", "1234567.0"]


def test_holder_case_values_keep_their_digits(tmp_path):
    # :g alone keeps six digits: 4:1.0000001 echoed, labelled and named its
    # curve as 4:1, as if the case were repeated
    runs = {"4:1.0000001 4:1": (["s4-r1.0000001", "s4-r1"],
                                ["curves_s4-r1.0000001.csv", "curves_s4-r1.csv"]),
            "4:1 4:1": (["s4-r1", "s4-r1"], ["curves_s4-r1.csv", "curves_s4-r1_1.csv"])}
    for i, (cases, (labels, curves)) in enumerate(runs.items()):
        out = tmp_path / str(i)
        assert main(["holder", "--N", "64", "--T", "0.1", "--cases", cases,
                     "--out", str(out)]) == 0
        assert f"cases = {cases}" in manifest_lines(out)
        rows = (out / "holder_reports.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == labels
        assert sorted(p.name for p in out.glob("curves_*")) == curves


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

    # --probe takes "all" and exactly the names of the probe table
    with pytest.raises(ConfigError) as err:
        parse_config("probe = bogus\n", "ineq", "x")
    assert err.value.errors == [f"probe must be one of {('all', *PROBES)}, got 'bogus'"]

    all_probes, all_sweeps = run("all", "--probe", "all")
    singles, sweeps = {}, {}
    names = [name for name in PROBES if name != "product-negative"]
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


def _cli_process(*argv):
    """The chslab console command run as a fresh process of this tree."""
    return subprocess.run(
        [sys.executable, "-m", "chslab.cli", *map(str, argv)], capture_output=True,
        text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))


def test_data_fault_prints_one_stderr_line_from_a_real_process(tmp_path):
    out = tmp_path / "h"
    done = _cli_process("holder", "--base_amplitude", "1e307", "--out", out)
    assert done.returncode == 2
    assert done.stderr == "chslab: non-finite values in state fields\n"
    assert list(out.iterdir()) == []


def test_seam_warning_prints_one_stderr_line_from_a_real_process(tmp_path):
    # not Python's two lines: the checkout path of solver.py, then its source line
    done = _cli_process("solve", "--N", "64", "--kind", "random", "--out", tmp_path / "s")
    assert done.returncode == 1
    assert done.stderr == (
        "chslab: warning: initial data reaches 2.209e+00 within 10% of the domain edge "
        "(tolerance 1.0e-10); periodic wrap-around will pollute the run\n")
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "ledger.csv", "manifest.txt", "state_final.chs2"]


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
