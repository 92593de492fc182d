"""Every `ineq` or `kernel` config that `parse_config` accepts runs to a verdict.

Hypothesis draws override values for the keys those commands take in
`config.DEFAULTS`, on small grids, ensembles and scans, and keeps the values
at the edges of the rules: out-of-range indices, j around 1/2, non-integer
k, short domains and broken ensemble knobs.  An accepted config must exit 0
or 1 and write a manifest, without a traceback; a rejected one must exit 2
and write nothing.
"""

import contextlib
import io
import math
import os
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
    "amplitude": _reals(0.0, 1e-9, 1.0, lo=-1.0, hi=5.0),
    "ratios_csv": st.sampled_from(("true", "false")),
    "r": _reals(0.0, 0.5, 1.0, 2.0, lo=-2.0, hi=5.0),
    "s": _reals(1.5, 2.0, 2.5, lo=-1.0, hi=6.0),
    "sigma": _reals(-1.0, 0.0, 1.0, lo=-3.0, hi=6.0),
    "j": _reals(0.49, 0.5, 0.5000001, 0.51, 1.0, 2.0, lo=-1.0, hi=5.0),
    "k": _reals(0.5, 1.0, 1.5, 2.0, 3.0, lo=-1.0, hi=5.0),
    "s1": _reals(0.0, 1.0, 3.0, lo=-2.0, hi=5.0),
    "s2": _reals(0.0, 3.0, lo=-2.0, hi=5.0),
    "eta_max": _reals(10.0, 10.5, 1e4, lo=1.0, hi=1e5),
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
        else:
            assert code == 2, argv
            assert not os.path.exists(out), argv
