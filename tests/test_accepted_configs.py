"""Every `ineq` or `kernel` config that `parse_config` accepts runs to a verdict.

Hypothesis draws override values for the keys those commands take in
`config.DEFAULTS`, on small grids, ensembles and scans, and keeps the values
at the edges of the rules: out-of-range indices, j around 1/2, non-integer
k, short domains and broken ensemble knobs.  Kernel scans reach k = 120
and a log-uniform eta_max up to 1e300, past where their ratios leave
double range.  An accepted config must exit 0 or 1 and write a manifest,
without a traceback, and an accepted kernel scan must report a finite
sup_ratio from normal doubles; a rejected config must exit 2 and write
nothing.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

from hypothesis import event, example, given, settings, strategies as st

from chslab.cli import main
from chslab.config import DEFAULTS, ConfigError, parse_config
from chslab.inequalities import PROBES


def _reals(*edges, lo, hi):
    """Config text of a real: one of the edge values or any float in [lo, hi]."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi)).map(repr)


def _ints(lo, hi, *likely):
    return st.one_of(st.sampled_from(likely), st.integers(lo, hi)).map(str)


_GRIDS = st.sampled_from(("8", "12", "16", "32", "64"))  # one is not a power of two
_SMALL = {
    "ineq": {"N": _GRIDS, "mollifier_N": _GRIDS, "ensemble": _ints(-1, 4, 1, 2)},
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
}


def _overrides(command):
    """Every small-size key of the command, and any subset of its other keys."""
    small = _SMALL[command]
    return st.fixed_dictionaries(
        small, optional={key: _ANYWHERE[key] for key in DEFAULTS[command] if key not in small})


def test_the_strategies_cover_every_key_of_both_commands():
    for command in _SMALL:
        assert set(DEFAULTS[command]) <= set(_SMALL[command]) | set(_ANYWHERE)


@settings(max_examples=300)
@given(st.sampled_from(tuple(_SMALL)).flatmap(
    lambda command: st.tuples(st.just(command), _overrides(command))))
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
    command, overrides = case
    try:
        parse_config("", command, "x", overrides)
        accepted = True
    except ConfigError:
        accepted = False
    event(f"{command} {'accepted' if accepted else 'rejected'}")
    argv = [command, *(token for key, text in overrides.items() for token in (f"--{key}", text))]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        assert "Traceback" not in err.getvalue(), argv
        if accepted:
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
        else:
            assert code == 2, argv
            assert not os.path.exists(out), argv
