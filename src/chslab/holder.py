"""Continuity modulus of the data-to-solution map.

The exponent law beta(s, r) is piecewise: Lipschitz for low r with
s + r >= 5, an interpolation exponent (2s-5)/(s-r) below that corner,
and s - r once r climbs within one of s.  The experiment side perturbs
a base datum along a fixed direction with a log-spaced amplitude ladder,
steps the base and every member as one stack with one shared dt while
taking each member's running-max distance to the base, and fits a
least-squares line to log distance against log amplitude in closed form
(`spectral.line_fit`, no LAPACK call); a sweep steps each family once
per s.  The exponent law is an upper bound on distances, so a fitted slope
above beta is consistent; verdicts only check slope >= beta - 0.1.
A run reaches a verdict (pass, fail, no-verdict, degenerate) or raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import cosine_mode, initial_pair, random_field
from .solver import COMPLETED, DataError, SystemParams, cfl_dt, solve_stack, y_norms
from .spectral import Grid, line_fit, sobolev_norms

__all__ = [
    "HolderCase", "holder_exponent", "PerturbationFamily", "make_family",
    "HolderReport", "run_holder", "sweep",
]

# base kind -> fields.initial_pair kind
_BASE_DATA = {"gaussian-bump": "gaussian", "sech2-bump": "sech2",
              "random-decay": "random"}
BASE_KINDS = tuple(_BASE_DATA)
DIRECTION_KINDS = ("high-mode", "random-decay")

@dataclass(frozen=True)
class HolderCase:
    s: float
    r: float
    beta: float
    regime: str


def holder_exponent(s: float, r: float, rho_trivial: bool = False) -> HolderCase:
    """Piecewise exponent of the continuity modulus.

    Candidates from every clause whose conditions hold are collected;
    overlapping clauses agree on the shared boundary (checked, never
    silently preferred), and (s, r) matching no clause is an error.
    """
    lower = 0.0 if rho_trivial else 1.0
    if not s > 3.5:
        raise ValueError(f"need s > 7/2, got s={s}")
    if not lower <= r < s:
        raise ValueError(
            f"need {lower:g} <= r < s for this data class, got r={r}, s={s}")

    candidates = []
    if r <= s - 1.0 and s + r >= 5.0:
        candidates.append(("lipschitz", 1.0))
    s_cap = 5.0 if rho_trivial else 4.0
    if s < s_cap and r <= 5.0 - s:
        candidates.append(("interpolation-low", (2.0 * s - 5.0) / (s - r)))
    if s - 1.0 < r < s:
        candidates.append(("interpolation-high", s - r))

    if not candidates:
        raise ValueError(f"(s, r) = ({s}, {r}) falls outside every exponent clause")
    betas = [b for _, b in candidates]
    if max(betas) - min(betas) > 1e-9:
        raise ValueError(
            f"inconsistent exponent clauses at (s, r) = ({s}, {r}): {candidates}")
    regime, beta = candidates[0]
    return HolderCase(s=s, r=r, beta=beta, regime=regime)


@dataclass(frozen=True)
class PerturbationFamily:
    """Base datum plus a unit direction and an amplitude ladder, as (u, rho) rows.

    `base` and `direction` are (2, N/2+1) arrays holding the half spectra
    of u and rho.  The direction has unit norm in H^s x H^{s-2}, so the
    member base + delta * direction sits at initial distance exactly
    delta from the base.
    """

    grid: Grid
    base: np.ndarray
    direction: np.ndarray
    deltas: np.ndarray
    s: float

    @property
    def rho_trivial(self) -> bool:
        rho = np.array([self.base[1], self.direction[1]])
        return bool((sobolev_norms(rho, self.grid, 0.0) == 0.0).all())

    def members(self) -> np.ndarray:
        """The (1 + len(deltas), 2, N/2+1) stack: the base, then base + delta * direction."""
        return np.concatenate(
            [self.base[None], self.base + self.deltas[:, None, None] * self.direction])


def _base_rows(grid, kind, amplitude, seed, rho_trivial):
    if kind not in _BASE_DATA:
        raise ValueError(f"unknown base kind {kind!r}; pick one of {BASE_KINDS}")
    u0, rho0 = initial_pair(grid, _BASE_DATA[kind], amplitude, 0.5, seed)
    return np.array([u0.half, np.zeros_like(u0.half) if rho_trivial else rho0.half])


def _direction_rows(grid, kind, s, seed, rho_trivial):
    rows = np.zeros((2, grid.n // 2 + 1), dtype=complex)
    if kind == "high-mode":
        # half the dealias cutoff: high enough to probe roughness, safely
        # inside the retained band
        rows[0] = cosine_mode(grid, grid.n // 6).half
    elif kind == "random-decay":
        rows[0] = random_field(grid, s + 1.0, seed=seed + 2).half
        if not rho_trivial:
            rows[1] = random_field(grid, s - 1.0, seed=seed + 3).half
    else:
        raise ValueError(
            f"unknown direction kind {kind!r}; pick one of {DIRECTION_KINDS}")
    scale = float(y_norms(rows, grid, s))
    if scale == 0.0:
        raise ValueError("perturbation direction is identically zero")
    return (1.0 / scale) * rows


def make_family(grid: Grid, s: float, h: float = 2.0, base_kind: str = "gaussian-bump",
                direction_kind: str = "high-mode", delta_max: float = 1e-2,
                delta_min: float = 1e-5, delta_count: int = 7, seed: int = 0,
                base_amplitude: float = 0.5, rho_trivial: bool = False) -> PerturbationFamily:
    """Build the family's rows; a base too large for the ball B(0, h) is shrunk to fit.

    The ladder is `np.geomspace(delta_max, delta_min, delta_count)`: at
    least 4 points, 0 < delta_min, two decades or more, delta_max < h.
    A family that still leaves the ball (its norms overflow) raises DataError.
    `sweep` forwards its family keywords here, so these defaults are its too.
    """
    if delta_count < 4:
        raise ValueError("amplitude ladder needs at least 4 points")
    if not 0.0 < delta_min:
        raise ValueError(f"need 0 < delta_min, got delta_min = {delta_min}")
    if not delta_max / delta_min >= 100.0 * (1.0 - 1e-9):
        raise ValueError("amplitude ladder must span at least two decades")
    if not delta_max < h:
        raise ValueError(
            f"largest perturbation {delta_max} cannot fit in a ball of radius {h}")
    deltas = np.geomspace(delta_max, delta_min, delta_count)

    base = _base_rows(grid, base_kind, base_amplitude, seed, rho_trivial)
    direction = _direction_rows(grid, direction_kind, s, seed, rho_trivial)

    y_base = float(y_norms(base, grid, s))
    if y_base + delta_max > h:
        base = (0.98 * (h - delta_max) / y_base) * base

    fam = PerturbationFamily(grid, base, direction, deltas, s)
    if (y_norms(fam.members()[1:], grid, s) > h * (1.0 + 1e-12)).any():
        raise DataError("cannot fit family in the requested ball")
    return fam


@dataclass(frozen=True)
class HolderReport:
    case: HolderCase
    deltas: np.ndarray
    distances: np.ndarray
    slope: float
    intercept: float
    residual: float
    verdict: str
    statuses: tuple
    horizon: float
    dt: float


def run_holder(family: PerturbationFamily, params: SystemParams,
               r: float, T: float, cfl: float = 0.3) -> HolderReport:
    """Solve the family, measure distances, regress, and judge the slope at (family.s, r)."""
    return _run_cases(family, params, [r], T, cfl)[0]


def _run_cases(family: PerturbationFamily, params: SystemParams,
               rs, T: float, cfl: float) -> list:
    """One report per r; holder_exponent raises on a bad (s, r) before any step.

    `family.members()` is the stack `solve_stack` steps, with one fixed
    dt: the CFL step of the worst initial sup|u| in the family.  Each
    member's H^r x H^{r-2} distance to the base row is a running max
    over the ledger times, so no trajectory is stored.
    """
    cases = [holder_exponent(family.s, r, rho_trivial=family.rho_trivial) for r in rs]
    grid, members = family.grid, family.members()
    # sup|u0 + delta d| is convex in delta, so its largest value over the
    # ladder is at delta = 0 or at the largest delta: rows 0 and 1
    dt = cfl_dt(grid, members[:2, 0], cfl)
    distances = np.zeros((len(cases), len(members) - 1))

    def track(stack, rows):
        if len(rows) < len(members):
            return  # a member aborted: no case reports distances
        diff = stack[1:] - stack[:1]
        for best, case in zip(distances, cases):
            np.fmax(best, y_norms(diff, grid, case.r), out=best)

    trajs = solve_stack(grid, members, params, family.s, T, dt_policy=dt, store_stride=0,
                        seam_policy="ignore", observe=track)
    statuses = tuple(traj.status for traj in trajs)
    # keep regression points clear of accumulated roundoff
    nsteps = len(trajs[0].times) - 1
    floor = 1e3 * 2.22e-16 * max(1.0, float(trajs[0].y.max())) * max(nsteps, 1)
    return [_fit(case, family.deltas, dist, floor, statuses, T, dt)
            for case, dist in zip(cases, distances)]


def _fit(case, deltas, distances, floor, statuses, T, dt) -> HolderReport:
    """Judge one case: the closed-form line through (log10 delta, log10 distance).

    Only distances above the noise floor enter; fewer than 3 of them is
    degenerate, and an aborted member leaves no verdict.
    """
    nan = float("nan")
    if any(st != COMPLETED for st in statuses):
        return HolderReport(case, deltas.copy(), np.full(len(deltas), nan),
                            nan, nan, nan, "no-verdict: member aborted",
                            statuses, T, dt)
    live = distances > floor
    if live.sum() < 3:
        return HolderReport(case, deltas.copy(), distances,
                            nan, nan, nan, "degenerate: distances at noise floor",
                            statuses, T, dt)

    logd = np.log10(deltas[live])
    logdist = np.log10(distances[live])
    slope, intercept = line_fit(logd, logdist)
    resid = float(np.sqrt(np.mean((slope * logd + intercept - logdist) ** 2)))
    ok = slope >= case.beta - 0.1 and resid <= 0.05
    return HolderReport(case, deltas.copy(), distances, slope, intercept, resid,
                        "pass" if ok else "fail", statuses, T, dt)


def _sweep_group(payload) -> list:
    """Reports of one s-group: its family is built and stepped once for all of its r."""
    grid, s, rs, params, T, cfl, family = payload
    return _run_cases(make_family(grid, s, **family), params, rs, T, cfl)


def sweep(cases, grid: Grid, params: SystemParams, T: float, cfl: float = 0.3,
          workers: int = 1, **family):
    """One report per (s, r) case, in input order; `family` goes to `make_family`.

    Cases that share s share a family, built and stepped once for all of
    their r.  Every exception propagates, from a worker process too; data
    at fault (non-finite rows, a family outside the ball) raise DataError.
    Workers > 1 fans the s-groups out to processes; each rebuilds its
    family from the same seed, so results match the serial run.
    """
    groups = {}
    for i, (s, _) in enumerate(cases):
        groups.setdefault(float(s), []).append(i)
    payloads = [(grid, s, [float(cases[i][1]) for i in idx], params, T, cfl, family)
                for s, idx in groups.items()]
    if workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool is built
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_sweep_group, payloads))
    else:
        results = [_sweep_group(p) for p in payloads]
    by_case = dict(zip(itertools.chain(*groups.values()), itertools.chain(*results)))
    return [by_case[i] for i in range(len(cases))]
