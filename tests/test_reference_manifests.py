"""Manifests of seven reference lines, pinned byte for byte.

Each manifest echoes the effective configuration and hashes every
artifact, so a pinned manifest (less its `wall_time_s` line) pins the
run's bytes too.  The lines are the five commands at their defaults and
two heavier runs.  The floating-point bytes depend on the Python and
numpy builds and on the machine, so the comparison runs only where all
three match the ones recorded; elsewhere the test skips and names the
mismatch.

Run this module as a script to rewrite the reference file:

    PYTHONPATH=src python tests/test_reference_manifests.py
"""

import json
import pathlib
import platform
import tempfile

import numpy as np
import pytest

from chslab.cli import main

REFERENCE = pathlib.Path(__file__).with_name("reference_manifests.json")

LINES = (
    ("solve",),
    ("holder",),
    ("ineq",),
    ("t0probe",),
    ("kernel",),
    ("solve", "--N", "4096", "--t_end", "0.5"),
    ("holder", "--T", "1.5", "--direction_kind", "random-decay"),
)


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _run(argv, out: pathlib.Path) -> dict:
    """The exit code and the manifest lines, less wall_time_s, of one run."""
    code = main([*argv, "--out", str(out)])
    lines = (out / "manifest.txt").read_text().splitlines()
    return {"exit": code, "manifest": [l for l in lines if not l.startswith("wall_time_s")]}


def _reference() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {" ".join(argv): _run(argv, pathlib.Path(tmp) / str(i))
                for i, argv in enumerate(LINES)}
    return {"environment": _environment(), "runs": runs}


def test_reference_lines_reproduce_their_manifests():
    pinned = json.loads(REFERENCE.read_text())
    here = _environment()
    if mismatch := {k: (v, here[k]) for k, v in pinned["environment"].items() if here[k] != v}:
        pytest.skip("reference recorded elsewhere (recorded, here): "
                    + ", ".join(f"{k} {a} vs {b}" for k, (a, b) in mismatch.items()))
    assert list(pinned["runs"]) == [" ".join(argv) for argv in LINES]
    assert _reference()["runs"] == pinned["runs"]


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(_reference(), indent=1) + "\n")
