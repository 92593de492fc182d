"""Run configuration: flat key = value text plus CLI overrides.

The text is read line by line: blank, `#` and `;` comment and [section] lines are
skipped, and every other line is split at its first `=`.  All keys share one flat
namespace (later duplicates win, command-line overrides win over the file).  A line
that does not split, a key the command does not take and a bad value are each an
error, and validation reports the complete list of problems, not the first.

Each key is one row of _KEYS, its parser and its own check, and the RunConfig field
it sets.  DEFAULTS says which keys a command takes.  _cross_checks reports the rest,
asking the modules that own them: `holder.ladder_problems`, `inequalities.probe_runs`
(whose runs are the ones `ineq` executes) and the kernel rules beside `kernel_diverges`.
"""

from __future__ import annotations

import math
from dataclasses import field, make_dataclass

from .fields import INITIAL_KINDS
from .holder import BASE_KINDS, DIRECTION_KINDS, holder_exponent, ladder_problems
from .inequalities import (PROBES, check_kernel_range, check_negative_hypotheses,
                           kernel_diverges, probe_runs)

__all__ = ["RunConfig", "ConfigError", "parse_config", "COMMANDS"]


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


# key (the RunConfig field it sets) -> (parser, check)
_KEYS = {
    # grid
    "N": (int, _POWER_OF_TWO),
    "L": (_real, _POSITIVE),
    # system parameters
    "b": (_real, (lambda v: v != 1.0, "b = 1 is excluded (the system requires b != 1)")),
    "kappa": (_real, _ANY),
    "alpha": (_real, _ANY),
    "c_s": (_real, _POSITIVE),
    # initial data (width 0 means the kind's default width)
    "kind": (str, _one_of(INITIAL_KINDS)),
    "amplitude": (_real, _NONNEGATIVE),
    "width": (_real, _NONNEGATIVE),
    "rho_amplitude": (_real, _ANY),
    "normalize": (_parse_bool, _ANY),
    # indices and horizons
    "s": (_real, _ANY),
    "r": (_real, _ANY),
    "sigma": (_real, _ANY),
    "j": (_real, _ANY),
    "k": (_real, _ANY),
    "s1": (_real, _ANY),
    "s2": (_real, _ANY),
    "t_end": (_real, _POSITIVE),
    "T": (_real, _POSITIVE),
    "cfl": (_real, _POSITIVE),
    "seam": (str, _one_of(("warn", "error", "ignore"))),
    # holder experiment
    "cases": (_parse_cases, _ANY),
    "h": (_real, _POSITIVE),
    "base_kind": (str, _one_of(BASE_KINDS)),
    "direction_kind": (str, _one_of(DIRECTION_KINDS)),
    "delta_max": (_real, _ANY),
    "delta_min": (_real, _ANY),
    "delta_count": (int, _ANY),
    "base_amplitude": (_real, _ANY),
    "rho_trivial": (_parse_bool, _ANY),
    # inequality probes
    "probe": (str, _one_of(("all", *PROBES))),
    "ensemble": (int, _ANY),
    "gamma": (_real, _ANY),
    "mollifier_N": (int, _POWER_OF_TWO),
    "ratios_csv": (_parse_bool, _ANY),
    # kernel scan
    "eta_max": (_real, (lambda v: v > 10, "{key} must exceed 10")),
    "eta_points": (int, (lambda v: v >= 10, "{key} must be at least 10")),
    # orchestration
    "seed": (int, _NONNEGATIVE),
    "parallelism": (int, _POSITIVE),
}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str), ("out", str)]
    + [(key, object, field(default=None)) for key in _KEYS],
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
             "gamma": 0.6, "mollifier_N": 1024, "ratios_csv": False, "r": 2.0,
             "s": 2.5, "sigma": 1.0, "j": 1.0, "k": 1.0, "s1": 0.0, "s2": 3.0},
    "t0probe": {**_COMMON, **_PHYSICS, **_DATA,
                "c_s": 1.0, "s": 4.0, "normalize": False, "cfl": 0.3},
    "kernel": {"r": 0.0, "j": 1.0, "k": 1.0, "eta_max": 1e4, "eta_points": 52,
               "parallelism": 1, "seed": 0},
}
COMMANDS = tuple(DEFAULTS)


def _check(key: str, value) -> str | None:
    """The key's own check on one value: None if it passes, else the message."""
    ok, message = _KEYS[key][1]
    return None if ok(value) else message.format(key=key, value=value)


def _cross_checks(cfg) -> list:
    """Rules that tie several keys together or hold for one command only."""
    errors = []
    if cfg.command == "holder":
        errors += ladder_problems(cfg.h, cfg.delta_max, cfg.delta_min, cfg.delta_count)
        for s, r in cfg.cases:
            try:
                holder_exponent(s, r, rho_trivial=cfg.rho_trivial)
            except ValueError as exc:
                errors.append(f"case {s:g}:{r:g} invalid: {exc}")
    if cfg.command == "ineq":
        errors += probe_runs(cfg)[1]
    if cfg.command == "kernel" and not kernel_diverges(cfg.j):  # the run reports those
        try:
            check_negative_hypotheses(cfg.r, cfg.j, cfg.k)
            check_kernel_range(cfg.r, cfg.k, cfg.eta_max)
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

    Raises ConfigError carrying every problem found: malformed lines, unknown
    keys, bad values, and constraint violations are all collected in one
    pass.  Each parsed value meets its own key's check; defaults are trusted.
    """
    if command not in COMMANDS:
        raise ConfigError([f"unknown command {command!r}; choose from {COMMANDS}"])
    errors: list = []

    raw: dict = {}
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line[0] in "#;" or (line[0] == "[" and line[-1] == "]"):
            continue
        key, eq, value = line.partition("=")
        if eq and key.strip():
            raw[key.strip()] = value.strip()
        else:
            errors.append(f"line {number}: expected key = value, got {line!r}")

    if overrides:
        raw.update({str(k): str(v) for k, v in overrides.items()})

    parsed = {}
    for key, text_val in raw.items():
        if key not in _KEYS:
            errors.append(f"unknown key {key!r}")
        elif key not in DEFAULTS[command]:
            errors.append(f"key {key!r} does not apply to command {command!r}")
        else:
            try:
                parsed[key] = _KEYS[key][0](text_val)
            except (ValueError, TypeError) as exc:
                errors.append(f"key {key!r}: {exc}")
    failed = {key: msg for key, val in parsed.items() if (msg := _check(key, val))}
    errors += failed.values()

    # cross-key rules run even when keys failed to parse or failed their own
    # check (those keep their defaults here), so one run reports every problem
    values = {**DEFAULTS[command], **{k: v for k, v in parsed.items() if k not in failed}}
    cfg = RunConfig(command=command, out=out, **values)
    errors += _cross_checks(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def effective_items(cfg: RunConfig):
    """(config key, value) pairs for every key the command accepts."""
    for key in sorted(DEFAULTS[cfg.command]):
        yield key, getattr(cfg, key)
