"""Output checks behind ``error_rate``.

An invocation fails when any of these holds:

- its exit code is not 0;
- ``manifest.txt`` is missing, or an artifact it names does not hash to
  the recorded git blob SHA-1;
- its verdict is not ``pass`` (``holder``, ``ineq``), its status is not
  ``completed`` (``solve``), or the kernel scan found no plateau;
- a headline result lies outside roundoff tolerance of the reference in
  ``reference.json`` for the same command line and seed;
- its manifest differs from the first invocation of the same command in
  the same run in any byte other than the ``wall_time_s`` line.

The tolerances allow roundoff-level changes, such as a reordered
floating-point sum, and nothing larger.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# headline key -> (relative, absolute) tolerance
TOLERANCES = {
    "final_y": (1e-9, 0.0),
    "slopes": (0.0, 1e-5),
    # a Holder distance is a difference of two trajectories; roundoff in
    # either one is about nsteps * eps * ||state|| in absolute terms
    "distances": (1e-5, 1e-12),
    "constants": (1e-8, 0.0),
    "sup_ratio": (1e-9, 0.0),
}


def blob_sha1(data: bytes) -> str:
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def read_manifest(out_dir: str):
    """(body bytes without the wall-time line, key/value dict, artifacts)."""
    with open(os.path.join(out_dir, "manifest.txt"), "rb") as fh:
        lines = fh.read().decode().splitlines()
    body, values, artifacts = [], {}, {}
    for line in lines:
        if line.startswith("wall_time_s = "):
            continue
        body.append(line)
        if line.startswith("artifact "):
            _, name, _, digest = line.split(" ")
            artifacts[name] = digest
        elif " = " in line:
            key, _, val = line.partition(" = ")
            values[key] = val
    return "\n".join(body).encode(), values, artifacts


def headline(command: str, out_dir: str, values: dict) -> dict:
    """The results a reference pins down, read from one run's output."""
    if command == "solve":
        return {"final_y": float(values["final_y"])}
    if command == "kernel":
        return {"sup_ratio": float(values["sup_ratio"])}
    if command == "holder":
        with open(os.path.join(out_dir, "holder_reports.json")) as fh:
            reports = json.load(fh)
        return {"slopes": [r["slope"] for r in reports],
                "distances": [r["distances"] for r in reports]}
    if command == "ineq":
        with open(os.path.join(out_dir, "probe_summary.json")) as fh:
            return {"constants": json.load(fh)["constants"]}
    raise ValueError(f"no headline for command {command!r}")


def _verdict_problem(command: str, values: dict):
    if command == "solve" and values.get("status") != "completed":
        return f"status {values.get('status')!r}, expected 'completed'"
    if command in ("holder", "ineq") and values.get("verdict") != "pass":
        return f"verdict {values.get('verdict')!r}, expected 'pass'"
    if command == "kernel" and values.get("plateau") != "true":
        return "kernel scan found no plateau"
    return None


def _differences(got, want, tol, path):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            yield f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
            return
        for key in want:
            yield from _differences(got[key], want[key], tol, f"{path}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield f"{path}: length differs from reference"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _differences(g, w, tol, f"{path}[{i}]")
    elif want is None or got is None:
        if got is not want:
            yield f"{path}: {got!r} against reference {want!r}"
    else:
        rtol, atol = tol
        if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol):
            yield f"{path}: {got!r} against reference {want!r}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_for(reference: dict, key: str, seed: int):
    """Reference headline for one command line and seed, or None."""
    return reference.get(key, {}).get(str(seed))


def check_invocation(command: str, key: str, seed: int, exit_code: int,
                     out_dir: str, reference: dict, first_body):
    """Problems found in one invocation's output, plus its manifest body."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        body, values, artifacts = read_manifest(out_dir)
    except OSError as exc:
        return [f"cannot read manifest: {exc}"], None
    problems = []
    for name, digest in artifacts.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if blob_sha1(fh.read()) != digest:
                problems.append(f"artifact {name} does not match its hash")
    verdict = _verdict_problem(command, values)
    if verdict:
        problems.append(verdict)
    want = reference_for(reference, key, seed)
    if want is not None:
        got = headline(command, out_dir, values)
        for name, value in want.items():
            problems.extend(_differences(got.get(name), value, TOLERANCES[name], name))
    if first_body is not None and body != first_body:
        problems.append("manifest differs from the first invocation of this run")
    return problems, body
