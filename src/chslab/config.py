"""Run configuration: flat key = value files plus CLI overrides.

The format is line-oriented INI: optional [section] headers group keys
for humans, but all keys live in one flat namespace (later duplicates
win, command-line overrides win over the file).  Every key a command
does not understand is an error, and validation reports the complete
list of problems instead of stopping at the first.

Each key is one row of _KEYS: the RunConfig attribute it sets, its
parser, and the check its value must pass.  DEFAULTS says which keys a
command takes; rules that tie several keys together live in _cross_checks.
"""

from __future__ import annotations

import math
from dataclasses import field, make_dataclass

from .fields import INITIAL_KINDS
from .holder import BASE_KINDS, DIRECTION_KINDS, holder_exponent
from .inequalities import (DEFAULT_EPS_LADDER, check_indices, check_negative_hypotheses,
                           check_sweep_grid)
from .mollifier import check_scale

__all__ = ["RunConfig", "ConfigError", "parse_config", "COMMANDS", "command_keys"]

COMMANDS = ("solve", "holder", "ineq", "t0probe", "kernel")

_IMPLICIT_SECTION = "chslab-toplevel"


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

    def report(self) -> str:
        return "\n".join(f"config error: {e}" for e in self.errors)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _real(text: str) -> float:
    """A finite float: inf or nan would only fail later, inside the run."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite real, got {text.strip()!r}")
    return value


def _parse_cases(text: str) -> tuple:
    out = []
    for token in text.split():
        try:
            s_str, r_str = token.split(":")
            out.append((_real(s_str), _real(r_str)))
        except ValueError:
            raise ValueError(f"expected s:r pairs, got token {token!r}") from None
    if not out:
        raise ValueError("empty case list")
    return tuple(out)


# a check is (predicate, message); the message may use {key} and {value!r}
_ANY = (lambda v: True, "")
_POSITIVE = (lambda v: v > 0, "{key} must be positive, got {value!r}")
_NONNEGATIVE = (lambda v: v >= 0, "{key} must be nonnegative, got {value!r}")
_POWER_OF_TWO = (lambda v: v >= 8 and (v & (v - 1)) == 0,
                 "{key} must be a power of two >= 8, got {value!r}")


def _one_of(choices: tuple):
    return (lambda v: v in choices, f"{{key}} must be one of {choices}, got {{value!r}}")


_PROBES = ("all", "algebra", "kato-ponce", "mollifier", "calderon",
           "product-low", "product-negative", "interpolation")

# key -> (RunConfig attribute, parser, check)
_KEYS = {
    # grid
    "N": ("n", int, _POWER_OF_TWO),
    "L": ("length", _real, _POSITIVE),
    # system parameters
    "b": ("b", _real, (lambda v: v != 1.0, "b = 1 is excluded (the system requires b != 1)")),
    "kappa": ("kappa", _real, _ANY),
    "alpha": ("alpha", _real, _ANY),
    "c_s": ("c_s", _real, _POSITIVE),
    # initial data (width 0 means the kind's default width)
    "kind": ("kind", str, _one_of(INITIAL_KINDS)),
    "amplitude": ("amplitude", _real, _NONNEGATIVE),
    "width": ("width", _real, _NONNEGATIVE),
    "rho_amplitude": ("rho_amplitude", _real, _ANY),
    "normalize": ("normalize", _parse_bool, _ANY),
    # indices and horizons
    "s": ("s", _real, _ANY),
    "r": ("r", _real, _ANY),
    "sigma": ("sigma", _real, _ANY),
    "j": ("j", _real, _ANY),
    "k": ("k", _real, _ANY),
    "s1": ("s1", _real, _ANY),
    "s2": ("s2", _real, _ANY),
    "t_end": ("t_end", _real, _POSITIVE),
    "T": ("horizon", _real, _POSITIVE),
    "cfl": ("cfl", _real, _POSITIVE),
    "seam": ("seam", str, _one_of(("warn", "error", "ignore"))),
    # holder experiment
    "cases": ("cases", _parse_cases, _ANY),
    "h": ("h", _real, _POSITIVE),
    "base_kind": ("base_kind", str, _one_of(BASE_KINDS)),
    "direction_kind": ("direction_kind", str, _one_of(DIRECTION_KINDS)),
    "delta_max": ("delta_max", _real, _ANY),
    "delta_min": ("delta_min", _real, _ANY),
    "delta_count": ("delta_count", int, (lambda v: v >= 4, "{key} must be at least 4")),
    "base_amplitude": ("base_amplitude", _real, _ANY),
    "rho_trivial": ("rho_trivial", _parse_bool, _ANY),
    # inequality probes
    "probe": ("probe", str, _one_of(_PROBES)),
    "ensemble": ("ensemble", int, _POSITIVE),
    "gamma": ("gamma", _real, (lambda v: v > 0.5, "{key} must exceed 1/2, got {value!r}")),
    "mollifier_N": ("mollifier_n", int, _POWER_OF_TWO),
    "ratios_csv": ("ratios_csv", _parse_bool, _ANY),
    # kernel scan
    "eta_max": ("eta_max", _real, (lambda v: v > 10, "{key} must exceed 10")),
    "eta_points": ("eta_points", int, (lambda v: v >= 10, "{key} must be at least 10")),
    # orchestration
    "seed": ("seed", int, _NONNEGATIVE),
    "parallelism": ("parallelism", int, _POSITIVE),
}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str), ("out", str)]
    + [(attr, object, field(default=None)) for attr, _, _ in _KEYS.values()],
    frozen=True)
RunConfig.__module__ = __name__  # so worker processes can unpickle it
RunConfig.__doc__ = "Effective settings for one command invocation (unused fields None)."

_COMMON = {
    "N": 256, "L": 64.0, "seed": 0, "parallelism": 1,
}
_PHYSICS = {
    "b": 2.0, "kappa": 1.0, "alpha": 0.0,
}
_DATA = {
    "kind": "gaussian", "amplitude": 1.0, "width": 0.0, "rho_amplitude": 0.3,
}

DEFAULTS = {
    "solve": {**_COMMON, **_PHYSICS, **_DATA,
              "s": 4.0, "t_end": 1.0, "cfl": 0.3, "seam": "warn"},
    "holder": {**_COMMON, **_PHYSICS,
               "cases": ((4.0, 1.0), (4.0, 2.0), (4.0, 3.5), (3.75, 1.0)),
               "h": 2.0, "base_kind": "gaussian-bump",
               "direction_kind": "high-mode", "delta_max": 1e-2,
               "delta_min": 1e-5, "delta_count": 7, "T": 0.5,
               "base_amplitude": 0.5, "rho_trivial": False, "cfl": 0.3},
    "ineq": {**_COMMON, "L": 2.0 * math.pi, "probe": "all", "ensemble": 200,
             "gamma": 0.6, "amplitude": 1.0, "mollifier_N": 1024,
             "ratios_csv": False, "r": 2.0, "s": 2.5, "sigma": 1.0,
             "j": 1.0, "k": 1.0, "s1": 0.0, "s2": 3.0},
    "t0probe": {**_COMMON, **_PHYSICS, **_DATA,
                "c_s": 1.0, "s": 4.0, "normalize": False, "cfl": 0.3},
    "kernel": {"r": 0.0, "j": 1.0, "k": 1.0, "eta_max": 1e4, "eta_points": 52,
               "parallelism": 1, "seed": 0},
}


def command_keys(command: str) -> tuple:
    return tuple(DEFAULTS[command])


def _check(key: str, value) -> str | None:
    """The key's own check on one value: None if it passes, else the message."""
    ok, message = _KEYS[key][2]
    return None if ok(value) else message.format(key=key, value=value)


def _cross_checks(cfg) -> list:
    """Rules that tie several keys together or hold for one command only."""
    errors = []
    if cfg.command == "holder":
        if not 0 < cfg.delta_min < cfg.delta_max:
            errors.append("need 0 < delta_min < delta_max")
        if cfg.delta_min > 0 < cfg.delta_max and not cfg.delta_max / cfg.delta_min >= 100:
            errors.append("delta ladder must span at least two decades")
        if cfg.h > 0 and not cfg.delta_max < cfg.h:
            errors.append(f"need delta_max < h = {cfg.h:g}, got delta_max = {cfg.delta_max:g}")
        for s, r in cfg.cases:
            try:
                holder_exponent(s, r, rho_trivial=cfg.rho_trivial)
            except ValueError as exc:
                errors.append(f"case {s:g}:{r:g} invalid: {exc}")
    if cfg.command == "ineq":
        if not cfg.amplitude > 0:
            errors.append(f"amplitude must be positive for ineq, got {cfg.amplitude}")
        # "all" runs the product-negative probe on fixed, valid (r, j, k) triples
        selected = ([p for p in _PROBES if p not in ("all", "product-negative")]
                    if cfg.probe == "all" else [cfg.probe])
        for name in selected:
            try:
                if name == "mollifier":
                    for eps in DEFAULT_EPS_LADDER:
                        check_scale(eps, cfg.length)
                elif name == "product-negative":
                    check_negative_hypotheses(cfg.r, cfg.j, cfg.k)
                else:
                    check_indices(name, cfg)
            except ValueError as exc:
                errors.append(f"{name} probe invalid: {exc}")
        if cfg.probe in ("all", "product-negative"):
            try:
                check_sweep_grid(cfg.n)
            except ValueError as exc:
                errors.append(f"product-negative sweep invalid: {exc}")
    if cfg.command == "kernel" and cfg.j > 0.5:  # j <= 1/2 is reported as divergent
        try:
            check_negative_hypotheses(cfg.r, cfg.j, cfg.k)
        except ValueError as exc:
            errors.append(f"kernel scan invalid: {exc}")
    if cfg.command == "t0probe" and not cfg.s > 2.0:
        errors.append("s must exceed 2 so the ledger norms make sense")
    # rho is scaled by amplitude too, so these are exactly the zero data
    if cfg.command == "t0probe" and cfg.normalize and (cfg.kind == "zero" or cfg.amplitude == 0):
        errors.append("normalize needs nonzero initial data, not kind = zero or amplitude = 0")
    return errors


def parse_config(text: str, command: str, out: str,
                 overrides: dict | None = None) -> RunConfig:
    """Merge defaults, file text, and override pairs into a RunConfig.

    Raises ConfigError carrying every problem found: unknown keys, bad
    values, and constraint violations are all collected in one pass.
    Each parsed value meets its own key's check; defaults are trusted.
    """
    if command not in COMMANDS:
        raise ConfigError([f"unknown command {command!r}; choose from {COMMANDS}"])
    errors: list = []
    allowed = set(command_keys(command))

    raw: dict = {}
    if text.strip():  # blank text has nothing to parse, so the INI parser stays unloaded
        import configparser
        body = text if text.lstrip().startswith("[") else f"[{_IMPLICIT_SECTION}]\n{text}"
        parser = configparser.ConfigParser(interpolation=None, strict=False)
        parser.optionxform = str  # keys are case-sensitive (N, L, T)
        try:
            parser.read_string(body)
        except configparser.Error as exc:
            raise ConfigError([f"cannot parse config text: {exc}"]) from None
        for section in parser.sections():
            raw.update(parser.items(section))

    if overrides:
        raw.update({str(k): str(v) for k, v in overrides.items()})

    parsed = {}
    for key, text_val in raw.items():
        if key not in _KEYS:
            errors.append(f"unknown key {key!r}")
        elif key not in allowed:
            errors.append(f"key {key!r} does not apply to command {command!r}")
        else:
            try:
                parsed[key] = _KEYS[key][1](text_val)
            except (ValueError, TypeError) as exc:
                errors.append(f"key {key!r}: {exc}")
    errors += [msg for key, val in parsed.items() if (msg := _check(key, val))]

    # cross-key rules run even when some keys failed (those keep their
    # defaults here) so one run reports every problem at once
    values = {**DEFAULTS[command], **parsed}
    cfg = RunConfig(command=command, out=out,
                    **{_KEYS[key][0]: val for key, val in values.items()})
    errors += _cross_checks(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def effective_items(cfg: RunConfig):
    """(config key, value) pairs for every key the command accepts."""
    for key in sorted(command_keys(cfg.command)):
        yield key, getattr(cfg, _KEYS[key][0])
