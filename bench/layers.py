"""Per-layer metrics from the spans of traced invocations.

`process_counters` reduces one process's spans to raw sums; a sample
(one workload invocation, which for ``probes`` is two processes) adds up
the raw sums of its processes, and `layer_metrics` derives the reported
metrics from them.  Ratios read 0 when their base count is 0, as when a
workload never reaches the layer.
"""

from __future__ import annotations

import json

import numpy as np

FFT_SPANS = ("numpy.fft.fft", "numpy.fft.ifft", "numpy.fft.rfft", "numpy.fft.irfft")
PROBES = ("probe_algebra", "probe_kato_ponce", "probe_mollifier_commutator",
          "probe_calderon", "probe_product_low", "probe_product_negative",
          "probe_interpolation")
SETUP_PACKAGES = ("numpy", "scipy", "chslab")

# metrics taken per process rather than summed over a sample
PER_PROCESS = tuple(f"setup.{pkg}.s" for pkg in SETUP_PACKAGES)


def process_counters(spans_path: str) -> dict:
    """Raw per-span-name sums for one traced process."""
    with np.load(spans_path) as z:
        names = json.loads(str(z["names"]))
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        qty = z["quantity"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    out = {}
    for nid, label in enumerate(names):
        sel = name == nid
        out[f"{label}#calls"] = int(sel.sum())
        out[f"{label}#s"] = float(dur[sel].sum())
        out[f"{label}#self"] = float(own[sel].sum())
        out[f"{label}#qty"] = float(qty[sel].sum())

    ids = {label: nid for nid, label in enumerate(names)}
    # FFTs made inside an rhs evaluation; a parent always precedes its children
    in_rhs = np.zeros(len(name), dtype=bool)
    rhs_id = ids["solver.rhs"]
    for i, (nid, par) in enumerate(zip(name.tolist(), parent.tolist())):
        in_rhs[i] = nid == rhs_id or (par >= 0 and in_rhs[par])
    fft_ids = [ids[f] for f in FFT_SPANS]
    out["fft_in_rhs"] = int((in_rhs & np.isin(name, fft_ids)).sum())
    # a table build that evaluates the bump transform missed the cache
    bump_parents = np.unique(parent[name == ids["mollifier.bump_transform_raw"]])
    bump_parents = bump_parents[bump_parents >= 0]
    out["mollifier_misses"] = int(
        (name[bump_parents] == ids["mollifier.build_mollifier"]).sum())
    top = parent < 0
    out["top_level_s"] = float(dur[top].sum())
    return out


def importtime_setup(stderr_text: str) -> dict:
    """Self import time per package from ``-X importtime`` output."""
    totals = dict.fromkeys(SETUP_PACKAGES, 0.0)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return {f"setup.{pkg}.s": v for pkg, v in totals.items()}


def layer_metrics(raw: dict, run_s: float, artifact_bytes: int) -> dict:
    """Reported per-layer metrics of one sample (setup and overhead aside)."""
    def get(label, stat):
        return raw.get(f"{label}#{stat}", 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fft_calls = sum(get(f, "calls") for f in FFT_SPANS)
    rhs_calls = get("solver.rhs", "calls")
    builds = get("mollifier.build_mollifier", "calls")
    misses = raw.get("mollifier_misses", 0)
    m = {
        "solver.rhs.calls": rhs_calls,
        "solver.rhs.s": get("solver.rhs", "s"),
        "solver.rhs.us_per_call": ratio(get("solver.rhs", "s"), rhs_calls, 1e6),
        "solver.step_rk4.calls": get("solver.step_rk4", "calls"),
        "solver.step_rk4.self_s": get("solver.step_rk4", "self"),
        "solver.solve.calls": get("solver.solve", "calls"),
        "solver.solve.self_s": get("solver.solve", "self"),
        "solver.trajectory_bytes": int(get("solver.solve", "qty")),
        "spectral.fft.calls": fft_calls,
        "spectral.fft.per_rhs": ratio(raw.get("fft_in_rhs", 0), rhs_calls),
        "spectral.fft.points": int(sum(get(f, "qty") for f in FFT_SPANS)),
        "spectral.fft.s": sum(get(f, "s") for f in FFT_SPANS),
        "spectral.product.calls": get("spectral.product", "calls"),
        "spectral.product.self_s": get("spectral.product", "self"),
        "spectral.dealias_truncate.calls": get("spectral.dealias_truncate", "calls"),
        "spectral.dealias_truncate.s": get("spectral.dealias_truncate", "s"),
        "spectral.dx.s": get("spectral.dx", "s"),
        "spectral.sobolev_norm.calls": get("spectral.sobolev_norm", "calls"),
        "spectral.sobolev_norm.s": get("spectral.sobolev_norm", "s"),
        "spectral.product_exact.s": get("spectral.product_exact", "s"),
        "spectral.commutator_bessel.s": get("spectral.commutator_bessel", "s"),
        "spectral.commutator_bessel_dx.s": get("spectral.commutator_bessel_dx", "s"),
        "spectral.pad_to.s": get("spectral.pad_to", "s"),
        "mollifier.build_mollifier.calls": builds,
        "mollifier.build_mollifier.s": get("mollifier.build_mollifier", "s"),
        "mollifier.build_mollifier.misses": misses,
        "mollifier.build_mollifier.hit_ratio": ratio(builds - misses, builds),
        "mollifier.bump_transform_raw.calls": get("mollifier.bump_transform_raw", "calls"),
        "mollifier.commutator_mollifier.self_s": get("mollifier.commutator_mollifier", "self"),
        "inequalities.product_negative_sweep.s": get("inequalities.product_negative_sweep", "s"),
        "inequalities.kernel_bound_scan.s": get("inequalities.kernel_bound_scan", "s"),
        "inequalities.kernel_integral.calls": get("inequalities.kernel_integral", "calls"),
        "fields.random_field.calls": get("fields.random_field", "calls"),
        "fields.random_field.s": get("fields.random_field", "s"),
        "holder.run_holder.calls": get("holder.run_holder", "calls"),
        "holder.run_holder.self_s": get("holder.run_holder", "self"),
        "holder.make_family.s": get("holder.make_family", "s"),
        "config.parse_config.s": get("config.parse_config", "s"),
        "cli.execute.self_s": get("cli.execute", "self"),
        "cli.artifact_bytes": artifact_bytes,
        "trace.coverage": ratio(raw.get("top_level_s", 0) - get("cli.execute", "self"),
                                run_s),
    }
    for probe in PROBES:
        label = f"inequalities.{probe}"
        m[f"{label}.s"] = get(label, "s")
        # quantity is the ensemble size of each call
        m[f"{label}.sample_us"] = ratio(get(label, "s"), get(label, "qty"), 1e6)
    return m
