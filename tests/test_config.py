"""Configuration parsing: defaults, overrides, and aggregated errors."""

import math
import pickle

import pytest

from chslab.cli import _fmt
from chslab.config import (
    _KEYS,
    COMMANDS,
    DEFAULTS,
    ConfigError,
    _check,
    command_keys,
    effective_items,
    parse_config,
)


def test_defaults_without_any_input():
    cfg = parse_config("", "solve", "/tmp/out")
    assert cfg.n == 256
    assert cfg.length == 64.0
    assert cfg.b == 2.0
    assert cfg.c_s is None  # only t0probe reads the energy-estimate constant
    assert cfg.kind == "gaussian"
    assert cfg.t_end == 1.0
    assert cfg.out == "/tmp/out"


@pytest.mark.parametrize("text", [" ", "\n\n", " \t\n  \r\n"])
def test_blank_text_is_no_config(text):
    assert parse_config(text, "holder", "/tmp/out") == parse_config("", "holder", "/tmp/out")


def test_file_keys_are_applied():
    text = "N = 128\nb = 2.5\nt_end = 0.75\n"
    cfg = parse_config(text, "solve", "/tmp/out")
    assert cfg.n == 128
    assert cfg.b == 2.5
    assert cfg.t_end == 0.75


def test_sections_share_one_flat_namespace():
    text = "[grid]\nN = 128\n[physics]\nb = 2.5\n"
    cfg = parse_config(text, "solve", "/tmp/out")
    assert cfg.n == 128
    assert cfg.b == 2.5


def test_overrides_beat_the_file():
    cfg = parse_config("N = 128\n", "solve", "/tmp/out", {"N": "64"})
    assert cfg.n == 64


def test_later_duplicate_wins():
    text = "[a]\nN = 128\n[b]\nN = 64\n"
    cfg = parse_config(text, "solve", "/tmp/out")
    assert cfg.n == 64


def test_all_problems_reported_at_once():
    try:
        parse_config("", "solve", "/tmp/out",
                     {"N": "abc", "b": "1", "bogus": "3"})
    except ConfigError as exc:
        text = "\n".join(exc.errors)
        assert "'N'" in text
        assert "b = 1" in text
        assert "bogus" in text
        assert len(exc.errors) == 3
    else:
        pytest.fail("expected a ConfigError")


def test_excluded_slope_is_rejected():
    with pytest.raises(ConfigError):
        parse_config("b = 1\n", "solve", "/tmp/out")
    # a nearby slope is fine
    assert parse_config("b = 1.0001\n", "solve", "/tmp/out").b == 1.0001


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ConfigError):
        parse_config("N = 100\n", "solve", "/tmp/out")


def test_unknown_command_is_rejected():
    with pytest.raises(ConfigError):
        parse_config("", "probe", "/tmp/out")


def test_keys_are_scoped_per_command():
    # only t0probe reads the energy-estimate constant c_s
    for text, command in [("t_end = 1.0\n", "kernel"), ("c_s = 7\n", "solve"),
                          ("c_s = 7\n", "holder")]:
        with pytest.raises(ConfigError) as err:
            parse_config(text, command, "/tmp/out")
        assert "does not apply" in str(err.value)
    assert parse_config("c_s = 7\n", "t0probe", "/tmp/out").c_s == 7.0


def test_holder_cases_parse_and_validate():
    cfg = parse_config("cases = 4:1 4:3.5\n", "holder", "/tmp/out")
    assert cfg.cases == ((4.0, 1.0), (4.0, 3.5))
    with pytest.raises(ConfigError):
        parse_config("cases = 3.4:1\n", "holder", "/tmp/out")  # s <= 7/2
    with pytest.raises(ConfigError):
        parse_config("cases = nonsense\n", "holder", "/tmp/out")


def test_holder_ladder_constraints():
    with pytest.raises(ConfigError):
        parse_config("delta_max = 1e-5\ndelta_min = 1e-2\n", "holder", "/tmp/out")
    with pytest.raises(ConfigError):
        parse_config("delta_max = 1e-2\ndelta_min = 5e-3\n", "holder", "/tmp/out")


def test_probe_decay_exponent_floor():
    with pytest.raises(ConfigError):
        parse_config("gamma = 0.5\n", "ineq", "/tmp/out")


def test_boolean_values_parse_loosely():
    assert parse_config("normalize = yes\n", "t0probe", "/tmp/out").normalize
    assert not parse_config("normalize = off\n", "t0probe", "/tmp/out").normalize
    with pytest.raises(ConfigError):
        parse_config("normalize = maybe\n", "t0probe", "/tmp/out")


def test_ineq_defaults_use_the_unit_circle():
    cfg = parse_config("", "ineq", "/tmp/out")
    assert cfg.length == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert cfg.mollifier_n == 1024
    assert cfg.probe == "all"


def test_command_key_lists_are_disjoint_where_expected():
    assert "t_end" in command_keys("solve")
    assert "t_end" not in command_keys("kernel")
    assert "eta_max" in command_keys("kernel")
    assert "cases" in command_keys("holder")


# manifest "key = value" lines of every command at its defaults
DEFAULT_MANIFEST_LINES = {
    "solve": [
        "L = 64.0", "N = 256", "alpha = 0.0", "amplitude = 1.0", "b = 2.0",
        "cfl = 0.3", "kappa = 1.0", "kind = gaussian", "parallelism = 1",
        "rho_amplitude = 0.3", "s = 4.0", "seam = warn", "seed = 0",
        "t_end = 1.0", "width = 0.0",
    ],
    "holder": [
        "L = 64.0", "N = 256", "T = 0.5", "alpha = 0.0", "b = 2.0",
        "base_amplitude = 0.5", "base_kind = gaussian-bump",
        "cases = 4:1 4:2 4:3.5 3.75:1", "cfl = 0.3", "delta_count = 7",
        "delta_max = 0.01", "delta_min = 1e-05", "direction_kind = high-mode",
        "h = 2.0", "kappa = 1.0", "parallelism = 1", "rho_trivial = false",
        "seed = 0",
    ],
    "ineq": [
        "L = 6.283185307179586", "N = 256", "amplitude = 1.0", "ensemble = 200",
        "gamma = 0.6", "j = 1.0", "k = 1.0", "mollifier_N = 1024",
        "parallelism = 1", "probe = all", "r = 2.0", "ratios_csv = false",
        "s = 2.5", "s1 = 0.0", "s2 = 3.0", "seed = 0", "sigma = 1.0",
    ],
    "t0probe": [
        "L = 64.0", "N = 256", "alpha = 0.0", "amplitude = 1.0", "b = 2.0",
        "c_s = 1.0", "cfl = 0.3", "kappa = 1.0", "kind = gaussian",
        "normalize = false", "parallelism = 1", "rho_amplitude = 0.3",
        "s = 4.0", "seed = 0", "width = 0.0",
    ],
    "kernel": [
        "eta_max = 10000.0", "eta_points = 52", "j = 1.0", "k = 1.0",
        "parallelism = 1", "r = 0.0", "seed = 0",
    ],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_default_manifest_items_are_pinned(command):
    items = list(effective_items(parse_config("", command, "x")))
    assert [f"{k} = {_fmt(v)}" for k, v in items] == DEFAULT_MANIFEST_LINES[command]


def test_every_default_passes_its_own_key_check():
    # parse_config checks parsed values only, so defaults must be valid
    for command, defaults in DEFAULTS.items():
        for key, value in defaults.items():
            assert _check(key, value) is None, (command, key)


def test_every_key_belongs_to_some_command():
    used = {key for defaults in DEFAULTS.values() for key in defaults}
    assert used == set(_KEYS)
    assert len(_KEYS) == 40


def test_every_real_key_rejects_non_finite_values():
    for command, defaults in DEFAULTS.items():
        for key, value in defaults.items():
            if type(value) is not float:
                continue
            for bad in ("inf", "-inf", "nan"):
                with pytest.raises(ConfigError) as info:
                    parse_config(f"{key} = {bad}\n", command, "x")
                assert info.value.errors == [
                    f"key {key!r}: expected a finite real, got {bad!r}"], (command, key)


def test_attribute_names_of_renamed_keys():
    cfg = parse_config("N = 64\nL = 3.0\nT = 0.25\n", "holder", "x")
    assert (cfg.n, cfg.length, cfg.horizon) == (64, 3.0, 0.25)
    assert parse_config("mollifier_N = 512\n", "ineq", "x").mollifier_n == 512


def test_run_config_pickles_for_worker_processes():
    cfg = parse_config("", "holder", "x")
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_ineq_needs_positive_amplitude_but_solve_takes_zero():
    with pytest.raises(ConfigError) as err:
        parse_config("amplitude = 0\n", "ineq", "x")
    assert "amplitude" in str(err.value)
    assert parse_config("amplitude = 0\n", "solve", "x").amplitude == 0.0
    assert parse_config("amplitude = 0\n", "t0probe", "x").amplitude == 0.0


def test_product_negative_probe_checks_its_hypotheses():
    # the ineq defaults have r = 2 > k = 1
    with pytest.raises(ConfigError) as err:
        parse_config("probe = product-negative\n", "ineq", "x")
    assert "r <= k" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("probe = product-negative\nk = inf\n", "ineq", "x")
    cfg = parse_config("probe = product-negative\nr = 1\nj = 2\nk = 3\n", "ineq", "x")
    assert (cfg.r, cfg.j, cfg.k) == (1.0, 2.0, 3.0)
    # the triple only matters to that probe
    assert parse_config("k = 0.5\n", "ineq", "x").k == 0.5


def test_ineq_index_rules_apply_to_the_selected_probes_only():
    with pytest.raises(ConfigError) as err:
        parse_config("s = 1.2\n", "ineq", "x")
    assert err.value.errors == ["calderon probe invalid: need s > 3/2 and 0 <= sigma+1 <= s, "
                                "got s=1.2, sigma=1"]
    assert parse_config("probe = algebra\ns = 1.2\n", "ineq", "x").s == 1.2
    assert parse_config("probe = calderon\nL = 1.5\n", "ineq", "x").length == 1.5
    with pytest.raises(ConfigError, match="mollifier probe invalid"):
        parse_config("probe = mollifier\nL = 1.5\n", "ineq", "x")
