"""chslab: spectral laboratory for a two-component higher-order Camassa-Holm system.

usage: chslab <command> [--config FILE] [--key value | --key=value ...] --out DIR
       chslab -h | --help

The command comes first: solve, holder, ineq, t0probe or kernel.  FILE
is flat key = value text, and each --key value or --key=value pair
overrides one of its keys; names are never abbreviated (--h is the
Holder key h).  DIR, created if missing, gets the run's artifacts and a
manifest.txt that echoes the effective configuration and hashes each
artifact, so identical configs can be diffed byte for byte; a run that
raises leaves no artifact.

Exit codes: 0 the run's verdict passed, 1 it ran and the verdict failed,
2 the run could not proceed (a usage or config error, data at fault, an
unusable DIR).
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
import traceback
import warnings

import numpy as np

from . import fields, holder, solver
from . import inequalities as ineq
from .config import ConfigError, RunConfig, effective_items, parse_config
from .spectral import Grid

__all__ = ["main", "execute", "sweep_execute"]


def _git_blob_sha1(data: bytes) -> str:
    import hashlib  # imported here so that `main` can keep it off OpenSSL
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def _num(x: float) -> str:
    """x in the short :g form when that reads back as x, else its full repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(f"{_num(s)}:{_num(r)}" for s, r in value)
    if value is None:
        return ""
    return str(value)


def _write_manifest(cfg: RunConfig, results: dict, artifacts: dict, wall: float):
    lines = ["chslab manifest", f"command = {cfg.command}"]
    for key, val in effective_items(cfg):
        lines.append(f"{key} = {_fmt(val)}")
    for key, val in results.items():
        lines.append(f"{key} = {_fmt(val)}")
    for name in sorted(artifacts):
        lines.append(f"artifact {name} sha1 {_git_blob_sha1(artifacts[name])}")
    # wall time goes last so everything above it is reproducible
    lines.append(f"wall_time_s = {wall:.3f}")
    with open(os.path.join(cfg.out, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- text artifacts: every CSV and JSON file a run writes is made here

def _finite(obj):
    """JSON has no NaN or infinity tokens: every non-finite float becomes null."""
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json(obj) -> bytes:
    return (json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode()


def _cell(value) -> str:
    """A CSV cell: str and int as they are, any other number as a float repr."""
    return str(value) if isinstance(value, (str, int)) else repr(float(value))


def _csv(header: str, rows) -> bytes:
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _ledger(traj: solver.Trajectory) -> bytes:
    return _csv("t,norm_u_Hs,norm_rho_Hs-2,y",
                zip(traj.times, traj.norm_u, traj.norm_rho, traj.y))


def _holder_artifacts(reports) -> dict:
    """The report table as CSV and JSON plus one curve per report."""
    rows = [{"case": f"s{_num(rep.case.s)}-r{_num(rep.case.r)}",
             "s": rep.case.s, "r": rep.case.r, "beta_theory": rep.case.beta, "slope": rep.slope,
             "residual": rep.residual, "verdict": rep.verdict} for rep in reports]
    artifacts = {
        "holder_reports.csv": _csv("case,s,r,beta_theory,slope,residual,verdict",
                                   [row.values() for row in rows]),
        "holder_reports.json": _json([
            dict(row, deltas=[float(v) for v in rep.deltas],
                 distances=[float(v) for v in rep.distances], intercept=rep.intercept,
                 statuses=list(rep.statuses), horizon=rep.horizon, dt=rep.dt,
                 regime=rep.case.regime) for rep, row in zip(reports, rows)])}
    for i, (rep, row) in enumerate(zip(reports, rows)):
        name = f"curves_{row['case']}.csv"
        if name in artifacts:  # repeated case in the list
            name = f"curves_{row['case']}_{i}.csv"
        artifacts[name] = _csv("delta,distance", zip(rep.deltas, rep.distances))
    return artifacts


def _probe_json(rep: ineq.ProbeReport) -> dict:
    return {"lemma": rep.lemma, "params": rep.params, "constant": rep.constant,
            "worst_seed": rep.worst_seed, "worst_index": rep.worst_index,
            "violations": rep.violations, "ensemble": rep.ensemble,
            "grid": {"n": rep.grid_n, "length": rep.grid_length}, "extra": rep.extra}


def _initial_state(cfg: RunConfig, grid: Grid) -> solver.State:
    u, rho = fields.initial_pair(grid, cfg.kind, cfg.amplitude, cfg.rho_amplitude,
                                 cfg.seed, cfg.width or None)
    return solver.State(u, rho, 0.0)


def _params(cfg: RunConfig) -> solver.SystemParams:
    return solver.SystemParams(b=cfg.b, kappa=cfg.kappa, alpha=cfg.alpha)


def _run_solve(cfg: RunConfig):
    grid = Grid(cfg.N, cfg.L)
    state = _initial_state(cfg, grid)
    traj = solver.solve(state, _params(cfg), cfg.s, cfg.t_end, cfl=cfg.cfl,
                        dense=False, seam_policy=cfg.seam)
    results = {
        "status": traj.status,
        "ledger_rows": len(traj.times),
        "final_t": float(traj.times[-1]),
        "final_y": float(traj.y[-1]),
        "time_error_bound": traj.time_error_bound,
    }
    ok = traj.status == solver.COMPLETED
    return ok, results, {"ledger.csv": _ledger(traj),
                         "state_final.chs2": solver.snapshot_bytes(traj.final)}


def _run_holder(cfg: RunConfig):
    grid = Grid(cfg.N, cfg.L)
    reports = holder.sweep(
        cfg.cases, grid, _params(cfg), cfg.T, cfl=cfg.cfl,
        h=cfg.h, base_kind=cfg.base_kind, direction_kind=cfg.direction_kind,
        delta_max=cfg.delta_max, delta_min=cfg.delta_min, delta_count=cfg.delta_count,
        seed=cfg.seed, base_amplitude=cfg.base_amplitude, rho_trivial=cfg.rho_trivial)
    ok = all(r.verdict == "pass" for r in reports)
    return ok, {"verdict": "pass" if ok else "fail"}, _holder_artifacts(reports)


def _run_ineq(cfg: RunConfig):
    reports, sweeps = [], {}
    for name, pcfg in ineq.probe_runs(cfg)[0]:  # the runs config checked
        stem = "probe_" + name.replace("-", "_")
        if name == "product-negative":
            stem += f"_r{_num(pcfg.r)}_j{_num(pcfg.j)}_k{_num(pcfg.k)}"
            modes, ratios, slope = ineq.product_negative_sweep(
                pcfg.grid, pcfg.r, pcfg.j, pcfg.k, gamma=pcfg.gamma, seed=pcfg.seed)
            sweeps[stem] = dict(modes=modes.tolist(), ratios=ratios.tolist(), slope=float(slope))
        # through the module's own binding, which the bench tracer wraps
        reports.append((stem, getattr(ineq, ineq.PROBES[name].__name__)(pcfg)))

    artifacts, problems, constants = {}, [], {}
    for stem, rep in reports:
        artifacts[stem + ".json"] = _json(_probe_json(rep))
        if cfg.ratios_csv:
            artifacts[stem + "_ratios.csv"] = _csv("index,ratio", enumerate(rep.ratios))
        constants[stem] = rep.constant
        if not math.isfinite(rep.constant):
            problems.append(f"{stem}: constant is not finite")
        if rep.violations:
            problems.append(f"{stem}: {rep.violations} pointwise violations")
        if rep.lemma == "mollifier-commutator":
            spread = rep.extra["ladder_spread"]
            if not spread <= 2.0:
                problems.append(f"{stem}: epsilon ladder spread {spread:.3g} > 2")
    for stem, info in sweeps.items():
        if not info["slope"] <= 0.05:
            problems.append(f"{stem}: frequency sweep slope {info['slope']:.3g} > 0.05")

    ok = not problems
    summary = {"verdict": "pass" if ok else "fail", "constants": constants,
               "problems": problems, "sweeps": sweeps,
               "ensemble": cfg.ensemble, "seed": cfg.seed}
    artifacts["probe_summary.json"] = _json(summary)
    return ok, {"verdict": summary["verdict"], "probes": len(reports)}, artifacts


def _run_t0probe(cfg: RunConfig):
    grid = Grid(cfg.N, cfg.L)
    params = solver.SystemParams(b=cfg.b, kappa=cfg.kappa, alpha=cfg.alpha, c_s=cfg.c_s)
    state = _initial_state(cfg, grid)
    y_raw = float(solver.y_norms(np.array([state.u.half, state.rho.half]), grid, cfg.s))
    if not math.isfinite(y_raw):
        raise solver.DataError(f"initial data too large: its norm y overflows (y = {y_raw})")
    if cfg.normalize:
        if y_raw == 0.0:
            raise solver.DataError("cannot normalize initial data: its norm y underflows to 0")
        state = solver.State((1.0 / y_raw) * state.u, (1.0 / y_raw) * state.rho, 0.0)

    t0_config = solver.t0_lower_bound(state, cfg.s, params)
    if not t0_config > 0.0:
        raise solver.DataError(f"empty existence window: T0 = {t0_config} at c_s = {params.c_s}")

    def run(window):
        # CFL-limited, but never fewer than 24 steps so the rate fit has
        # enough interior ledger points to work with
        dt = min(solver.cfl_dt(grid, state.u.half, cfg.cfl), window / 24.0)
        return solver.solve(state, params, cfg.s, window, dt_policy=dt, dense=False)

    if math.isinf(t0_config):
        # zero data: no finite window, just confirm the solution stays zero
        traj = solver.solve(state, params, cfg.s, 1.0, cfl=cfg.cfl, dense=False)
        check = solver.size_bound_check(traj, params.c_s)
        fitted = 0.0
    else:
        traj = run(t0_config)
        fitted = None
        if traj.status == solver.COMPLETED:
            fitted = max(solver.fit_min_cs(traj), solver.MIN_FITTED_CS)
            traj = run(solver.existence_time(float(traj.y[0]), fitted))
            if traj.status == solver.COMPLETED:
                # refitting on the longer ledger can only raise the constant,
                # so the window of the refitted T0 stays inside what just ran
                fitted = max(solver.fit_min_cs(traj), fitted)
        # an aborted run is judged at the constant that set its window
        check = solver.size_bound_check(traj, params.c_s if fitted is None else fitted)

    report = {
        "y0": float(traj.y[0]),
        "c_s": params.c_s,
        "T0": t0_config,
        "fitted_cs": fitted,
        "T0_fitted": check.t0,
        "bound": check.bound,
        "max_ratio": check.max_ratio,
        "passed": check.passed,
        "first_violation": check.first_violation,
        "status": traj.status,
        "ledger_rows": len(traj.times),
    }
    results = {
        "T0": t0_config,
        "fitted_cs": fitted,
        "size_bound": "pass" if check.passed else "fail",
        "status": traj.status,
    }
    return check.passed, results, {"ledger.csv": _ledger(traj),
                                   "t0_report.json": _json(report)}


def _run_kernel(cfg: RunConfig):
    r, j, k = cfg.r, cfg.j, cfg.k
    if ineq.kernel_diverges(j):
        report = {"r": r, "j": j, "k": k, "divergent": True,
                  "reason": "ratio I(eta)/(1+eta^2)^(r-k) is unbounded in eta for j <= 1/2"}
        return False, {"divergent": True}, {"kernel_report.json": _json(report)}
    scan = ineq.kernel_bound_scan(r, j, k, cfg.eta_max, cfg.eta_points)
    report = {
        "r": r, "j": j, "k": k,
        "sup_ratio": scan.sup, "argmax_eta": scan.argmax,
        "last_decade_growth": scan.last_decade_growth,
        "plateau": scan.plateau, "points": len(scan.etas),
    }
    results = {"sup_ratio": scan.sup, "plateau": scan.plateau}
    return scan.plateau, results, {
        "kernel_scan.csv": _csv("eta,integral,ratio",
                                zip(scan.etas, scan.integrals, scan.ratios)),
        "kernel_report.json": _json(report)}


# each runner returns (ok, results, file name -> bytes) and writes nothing itself
_RUNNERS = {
    "solve": _run_solve,
    "holder": _run_holder,
    "ineq": _run_ineq,
    "t0probe": _run_t0probe,
    "kernel": _run_kernel,
}


def execute(cfg: RunConfig) -> int:
    """Run one command, write its artifacts and manifest, return exit code."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
        start = time.perf_counter()
        try:
            # a datum that overflows is classified by the run's status or a
            # DataError; numpy's warnings about it would only add stderr lines
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ok, results, artifacts = _RUNNERS[cfg.command](cfg)
        except solver.DataError as exc:
            print(f"chslab: {exc}", file=sys.stderr)
            return 2
        except Exception:
            traceback.print_exc()
            return 2
        for name, data in artifacts.items():
            with open(os.path.join(cfg.out, name), "wb") as fh:
                fh.write(data)
        _write_manifest(cfg, results, artifacts, time.perf_counter() - start)
    except OSError as exc:  # the output directory or its manifest is unusable
        print(f"chslab: cannot write to {cfg.out}: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def sweep_execute(configs, parallelism: int = 1) -> int:
    """Run several configs, serially or across processes.

    Each worker rebuilds its run from the RunConfig alone, so artifacts
    are byte-identical whatever the parallelism.  Returns the worst exit
    code.
    """
    if parallelism > 1 and len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool is built
        with ProcessPoolExecutor(max_workers=min(parallelism, len(configs))) as pool:
            futures = [pool.submit(execute, cfg) for cfg in configs]
            codes = [f.result() for f in futures]
    else:
        codes = [execute(cfg) for cfg in configs]
    return max(codes, default=0)


def _parse_overrides(tokens) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ValueError(f"expected --key, got {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, _, val = key.partition("=")
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise ValueError(f"missing value for --{key}")
            val = tokens[i + 1]
            i += 2
        if not key:
            raise ValueError(f"empty key in {tok!r}")
        out[key] = val
    return out


# The import heap (numpy, the standard library, this package) lives until
# the process exits.  Moving it into the permanent generation spares every
# collection, the one at interpreter shutdown above all, from walking and
# tearing down its cycles; objects made after this point are collected as
# usual.
gc.freeze()


def main(argv=None) -> int:
    # with CPython's own SHA-1 at hand, hashlib and hmac take their fallback for
    # builds without OpenSSL: the same digests, without 3.5 MB of libcrypto RSS
    try:
        import _sha1  # only its presence matters
        sys.modules.setdefault("_hashlib", None)
    except ImportError:
        pass
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    if not argv:
        sys.stderr.write(__doc__)
        return 2
    try:
        overrides = _parse_overrides(argv[1:])
        path, out = overrides.pop("config", None), overrides.pop("out", None)
        text = ""
        if path is not None:
            try:
                with open(path) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read config: {exc}") from exc
        # the command is judged first, so `chslab bogus` names it and not --out
        cfg = parse_config(text, argv[0], out, overrides)
        if out is None:
            raise ValueError("missing --out DIR")
    except ConfigError as exc:
        print(exc.report(), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"chslab: {exc}", file=sys.stderr)
        return 2
    default = warnings.formatwarning  # a SeamWarning is one stderr line, as a fault is
    warnings.formatwarning = lambda message, category, *where: (
        f"chslab: warning: {message}\n" if issubclass(category, solver.SeamWarning)
        else default(message, category, *where))
    try:
        return execute(cfg)
    finally:
        warnings.formatwarning = default


if __name__ == "__main__":
    sys.exit(main())
