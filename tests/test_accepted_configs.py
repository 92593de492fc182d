"""Every config that `parse_config` accepts runs to a verdict or to one data fault.

Hypothesis draws override values for the keys each command takes in
`config.DEFAULTS`, on small grids, ensembles, scans and Holder families,
and keeps the values at the edges of the rules: out-of-range indices, j
around 1/2, non-integer k, short domains down to L = 1e-3, energy
constants down to c_s = 1e-9, long horizons and broken ensemble knobs.
Kernel scans reach k = 120 and a log-uniform eta_max up to 1e300, past
where their ratios leave double range.  Each example runs under a step
budget lowered to `_BUDGET`, so a run that would take longer stops before
its first step.

An accepted config must exit 0 or 1 and write a manifest, or, when the
data is at fault (`solver.DataError`, the step budget among them), exit 2
with one `chslab:` line besides any `chslab: warning:` lines and write
nothing.  It never prints a traceback, and an accepted kernel scan must
report a finite sup_ratio from normal doubles.  A rejected config must
exit 2 and write nothing.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from unittest import mock

from hypothesis import event, example, given, settings, strategies as st

from chslab import solver
from chslab.cli import main
from chslab.config import DEFAULTS, ConfigError, parse_config
from chslab.fields import INITIAL_KINDS
from chslab.holder import BASE_KINDS, DIRECTION_KINDS
from chslab.inequalities import PROBES

# the commands that step the solver, whose data can be at fault
_SOLVED = ("solve", "holder", "t0probe")
# steps a run may take here: enough for the small grids' horizons, and a run
# that needs more stops before its first step, as the real budget stops it
_BUDGET = 1000


def _reals(*edges, lo, hi):
    """Config text of a real: one of the edge values or any float in [lo, hi]."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi)).map(repr)


def _ints(lo, hi, *likely):
    return st.one_of(st.sampled_from(likely), st.integers(lo, hi)).map(str)


_GRIDS = st.sampled_from(("8", "12", "16", "32", "64"))  # one is not a power of two
# Holder cases: the default ones, or any s:r near the rules' edges
_CASE = st.one_of(st.sampled_from(("4:1", "4:2", "4:3.5", "3.75:1")),
                  st.tuples(_reals(3.5, 3.75, 4.0, lo=3.0, hi=6.0),
                            _reals(0.0, 1.0, 2.0, lo=-0.5, hi=6.0)).map(":".join))
_SMALL = {
    "solve": {"N": _GRIDS},
    "holder": {"N": _GRIDS, "cases": st.lists(_CASE, min_size=1, max_size=2).map(" ".join),
               "delta_count": _ints(3, 6, 4, 5)},
    "ineq": {"N": _GRIDS, "mollifier_N": _GRIDS, "ensemble": _ints(-1, 4, 1, 2)},
    "t0probe": {"N": _GRIDS},
    "kernel": {"eta_points": _ints(5, 60, 10, 11, 12)},
}
_ANYWHERE = {
    "L": _reals(1e-3, 2.0, 2.0000001, 2.0 * math.pi, lo=1e-4, hi=20.0),
    "seed": _ints(-1, 5, 0),
    "parallelism": _ints(0, 2, 1),
    "probe": st.sampled_from(("all", *PROBES)),
    "gamma": _reals(0.5, 0.5000001, 0.6, lo=-1.0, hi=3.0),
    "ratios_csv": st.sampled_from(("true", "false")),
    "r": _reals(0.0, 0.5, 1.0, 2.0, lo=-2.0, hi=5.0),
    "s": _reals(1.5, 2.0, 2.5, lo=-1.0, hi=6.0),
    "sigma": _reals(-1.0, 0.0, 1.0, lo=-3.0, hi=6.0),
    "j": _reals(0.49, 0.5, 0.5000001, 0.51, 1.0, 2.0, 40.0, 100.0, lo=-1.0, hi=125.0),
    "k": st.one_of(_reals(0.5, 1.5, lo=-1.0, hi=120.0), _ints(1, 120, 1, 2, 3, 40, 100)),
    "s1": _reals(0.0, 1.0, 3.0, lo=-2.0, hi=5.0),
    "s2": _reals(0.0, 3.0, lo=-2.0, hi=5.0),
    "eta_max": st.one_of(st.sampled_from((10.0, 10.5, 1e4, 1e75, 1e76, 1e155)),
                         st.floats(0.0, 300.0).map(lambda e: 10.0 ** e)).map(repr),
    # the system and its initial data
    "b": _reals(1.0, 2.0, lo=-3.0, hi=5.0),
    "kappa": _reals(0.0, 1.0, lo=-3.0, hi=3.0),
    "alpha": _reals(-1.0, 0.0, 1.0, lo=-3.0, hi=3.0),
    "kind": st.sampled_from(INITIAL_KINDS),
    "amplitude": _reals(-1.0, 0.0, 1e-320, 1e-200, 1e200, lo=0.0, hi=5.0),
    "width": _reals(0.0, 100.0, lo=0.0, hi=20.0),
    "rho_amplitude": _reals(0.0, 0.3, lo=-3.0, hi=3.0),
    "c_s": _reals(1e-9, 1.0, lo=1e-9, hi=10.0),
    "normalize": st.sampled_from(("true", "false")),
    "cfl": _reals(0.3, 1e-3, lo=1e-3, hi=2.0),
    "t_end": _reals(0.05, 1.0, 1e6, lo=1e-3, hi=2.0),
    "seam": st.sampled_from(solver.SEAM_POLICIES),
    # the Holder family, its ladder and horizon
    "h": _reals(0.0, 0.05, 2.0, lo=0.0, hi=5.0),
    "base_kind": st.sampled_from(BASE_KINDS),
    "direction_kind": st.sampled_from(DIRECTION_KINDS),
    "delta_max": _reals(1e-2, 2.0, lo=0.0, hi=3.0),
    "delta_min": _reals(1e-5, 1e-4, lo=0.0, hi=1e-2),
    "T": _reals(0.05, 0.5, 1e5, lo=1e-3, hi=2.0),
    "base_amplitude": _reals(0.0, 0.5, 5.0, 1e307, lo=-1.0, hi=10.0),
    "rho_trivial": st.sampled_from(("true", "false")),
}


def _overrides(command):
    """Every small-size key of the command, and any subset of its other keys."""
    small = _SMALL[command]
    return st.fixed_dictionaries(
        small, optional={key: _ANYWHERE[key] for key in DEFAULTS[command] if key not in small})


def _cases(commands):
    return st.sampled_from(commands).flatmap(
        lambda command: st.tuples(st.just(command), _overrides(command)))


def test_the_strategies_cover_every_key_of_every_command():
    assert set(_SMALL) == set(DEFAULTS)
    for command in _SMALL:
        assert set(DEFAULTS[command]) <= set(_SMALL[command]) | set(_ANYWHERE)


def _runs_to_a_verdict(command, overrides):
    """Run one drawn config under the lowered step budget and judge how it ended."""
    try:
        parse_config("", command, "x", overrides)
        accepted = True
    except ConfigError:
        accepted = False
    event(f"{command} {'accepted' if accepted else 'rejected'}")
    argv = [command, *(token for key, text in overrides.items() for token in (f"--{key}", text))]
    with (tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(),
          mock.patch.object(solver, "_MAX_STEPS", _BUDGET)):
        warnings.simplefilter("ignore", solver.SeamWarning)  # drawn data may reach the seam
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        assert "Traceback" not in err.getvalue(), argv
        if not accepted:
            assert code == 2, argv
            assert not os.path.exists(out), argv
        elif code == 2 and command in _SOLVED:  # the data is at fault
            event(f"{command} data fault")
            lines = [l for l in err.getvalue().splitlines()
                     if not l.startswith("chslab: warning:")]
            assert len(lines) == 1 and lines[0].startswith("chslab: "), argv
            assert os.listdir(out) == [], argv
        else:
            assert code in (0, 1), argv
            assert os.path.isfile(os.path.join(out, "manifest.txt")), argv
            if command == "kernel":
                with open(os.path.join(out, "kernel_report.json")) as fh:
                    report = json.load(fh)
                if not report.get("divergent"):
                    assert report["sup_ratio"] is not None, argv
                    assert math.isfinite(report["sup_ratio"]), argv
                    # integrals and ratios keep full precision: normal doubles
                    with open(os.path.join(out, "kernel_scan.csv")) as fh:
                        rows = [line.split(",")[1:] for line in fh.read().splitlines()[1:]]
                    assert min(float(v) for row in rows for v in row) >= sys.float_info.min, argv


@settings(max_examples=300)
@given(_cases(("ineq", "kernel")))
@example(("ineq", {"N": "16", "mollifier_N": "16", "ensemble": "0", "r": "-1.0"}))
@example(("ineq", {"N": "8", "mollifier_N": "8", "ensemble": "1", "probe": "calderon"}))
@example(("kernel", {"eta_points": "10", "j": "0.5", "k": "1.5"}))
@example(("kernel", {"eta_points": "10", "j": "0.5000001", "k": "1.0", "r": "0.5"}))
@example(("kernel", {"eta_points": "10", "r": "0.0", "j": "100.0", "k": "100.0"}))
@example(("kernel", {"eta_points": "10", "r": "0.0", "j": "40.0", "k": "40.0"}))
@example(("kernel", {"eta_points": "10", "r": "1.0", "j": "2.0", "k": "3.0", "eta_max": "1e76"}))
@example(("kernel", {"eta_points": "10", "eta_max": "1e155"}))
@example(("kernel", {"eta_points": "10", "r": "2.0", "j": "3.0", "k": "2.0", "eta_max": "1e300"}))
def test_an_accepted_config_runs_to_a_verdict_and_a_rejected_one_writes_nothing(case):
    _runs_to_a_verdict(*case)


@settings(max_examples=200)
@given(_cases(_SOLVED))
# runs of 9e7 and 1.3e5 steps, stopped by the budget before their first step
@example(("t0probe", {"N": "32", "c_s": "1e-9", "width": "100", "alpha": "-1"}))
@example(("t0probe", {"N": "16", "L": "1e-3", "kind": "random"}))
def test_an_accepted_run_ends_in_a_verdict_or_one_data_fault(case):
    _runs_to_a_verdict(*case)
