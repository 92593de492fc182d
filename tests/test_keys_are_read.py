"""Every key a command accepts changes what its run writes, or is listed as unread.

One table row per (command, key) of `config.DEFAULTS`: a second value for
the key and the overrides under which the run reads it (empty when it
always does).  On top of the command's small config, the run with the
second value must write other artifact bytes (manifest.txt aside, which
echoes every key).  The keys no run reads are listed apart, and changing
one must change no artifact byte.  A (command, key) with neither entry
fails, so a key added to DEFAULTS needs its row.
"""

import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from chslab.cli import execute
from chslab.config import DEFAULTS, parse_config

# command -> a config that runs in a few milliseconds
SMALL = {
    "solve": {"N": "64", "t_end": "0.05"},
    "holder": {"N": "64", "T": "0.05", "cases": "4:2"},
    "ineq": {"N": "32", "mollifier_N": "64", "ensemble": "4"},
    "t0probe": {"N": "64"},
    "kernel": {"j": "2", "eta_max": "100", "eta_points": "10"},
}

RANDOM_DATA = {"kind": "random"}  # the only initial kind that draws from seed
NEGATIVE_ALONE = {"probe": "product-negative", "r": "1", "j": "2", "k": "3"}

# (command, key) -> (second value, the overrides under which the run reads it)
READ = {
    **{(command, key): value for command in ("solve", "t0probe") for key, value in {
        "N": ("128", {}), "L": ("48", {}), "seed": ("1", RANDOM_DATA),
        "b": ("3", {}), "kappa": ("2", {}), "alpha": ("0.5", {}),
        "kind": ("sech2", {}), "amplitude": ("0.5", {}), "width": ("3", {}),
        "rho_amplitude": ("0.1", {}), "s": ("5", {}),
        # short enough to cut the step at the small configs' t_end and window
        "cfl": ("0.01", {})}.items()},
    ("solve", "t_end"): ("0.1", {}),
    # only data that reaches the domain edge meets the seam rule
    ("solve", "seam"): ("error", RANDOM_DATA),
    ("t0probe", "c_s"): ("2", {}),
    ("t0probe", "normalize"): ("true", {}),
    ("holder", "N"): ("128", {}),
    ("holder", "L"): ("48", {}),
    # the high-mode direction and the gaussian base draw nothing
    ("holder", "seed"): ("1", {"direction_kind": "random-decay"}),
    ("holder", "b"): ("3", {}),
    ("holder", "kappa"): ("2", {}),
    ("holder", "alpha"): ("0.5", {}),
    ("holder", "cases"): ("4:1", {}),
    # h only bounds a base that must shrink to fit the ball
    ("holder", "h"): ("3", {"base_amplitude": "5"}),
    ("holder", "base_kind"): ("sech2-bump", {}),
    ("holder", "direction_kind"): ("random-decay", {}),
    ("holder", "delta_max"): ("0.02", {}),
    ("holder", "delta_min"): ("1e-6", {}),
    ("holder", "delta_count"): ("5", {}),
    ("holder", "T"): ("0.1", {}),
    ("holder", "base_amplitude"): ("0.25", {}),
    ("holder", "rho_trivial"): ("true", {}),
    ("holder", "cfl"): ("0.1", {}),
    ("ineq", "N"): ("64", {}),
    ("ineq", "L"): ("5", {}),
    ("ineq", "seed"): ("1", {}),
    ("ineq", "probe"): ("algebra", {}),
    ("ineq", "ensemble"): ("5", {}),
    ("ineq", "gamma"): ("0.8", {}),
    ("ineq", "mollifier_N"): ("128", {}),
    ("ineq", "ratios_csv"): ("true", {}),
    ("ineq", "r"): ("2.5", {}),
    ("ineq", "s"): ("3", {}),
    ("ineq", "sigma"): ("0.5", {}),
    # under --probe all, product-negative runs on NEGATIVE_TRIPLES instead
    ("ineq", "j"): ("2.5", NEGATIVE_ALONE),
    ("ineq", "k"): ("2", NEGATIVE_ALONE),
    ("ineq", "s1"): ("0.5", {}),
    ("ineq", "s2"): ("2.5", {}),
    ("kernel", "r"): ("0.5", {}),
    ("kernel", "j"): ("3", {}),
    ("kernel", "k"): ("2", {}),
    ("kernel", "eta_max"): ("1000", {}),
    ("kernel", "eta_points"): ("12", {}),
}

# accepted and echoed in the manifest, read by no run: no runner reads
# parallelism, and kernel draws no random number
UNREAD = {
    **{(command, "parallelism"): "2" for command in DEFAULTS},
    ("kernel", "seed"): "1",
}

PAIRS = [(command, key) for command, defaults in DEFAULTS.items() for key in defaults]


def _artifacts(cfg):
    """Exit code and name -> bytes of every file the run writes but its manifest."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a SeamWarning on data at the edge
        code = execute(cfg)
    return code, {path.name: path.read_bytes() for path in sorted(Path(cfg.out).iterdir())
                  if path.name != "manifest.txt"}


def test_the_table_names_only_accepted_keys():
    assert set(READ) | set(UNREAD) <= set(PAIRS)
    assert not set(READ) & set(UNREAD)


@pytest.mark.parametrize("command, key", PAIRS)
def test_changing_a_key_changes_the_artifacts_unless_it_is_unread(tmp_path, command, key):
    if (command, key) in UNREAD:
        value, condition = UNREAD[command, key], {}
    elif (command, key) in READ:
        value, condition = READ[command, key]
    else:
        pytest.fail(f"no table entry for {command} --{key}")
    overrides = {**SMALL[command], **condition}
    base = parse_config("", command, str(tmp_path / "base"), overrides)
    changed = parse_config("", command, str(tmp_path / "changed"), {**overrides, key: value})
    assert replace(changed, out=base.out) != base  # the second value is another value
    code, before = _artifacts(base)
    assert code in (0, 1) and before
    _, after = _artifacts(changed)
    if (command, key) in UNREAD:
        assert after == before
    else:
        assert after != before
