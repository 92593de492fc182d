"""Continuity modulus of the data-to-solution map.

The exponent law beta(s, r) is piecewise: Lipschitz for low r with
s + r >= 5, an interpolation exponent (2s-5)/(s-r) below that corner,
and s - r once r climbs within one of s.  The experiment side perturbs
a base datum along a fixed direction with a log-spaced amplitude ladder,
one family per s, steps the families of a sweep that share a dt as one
stack while taking each member's running-max distance to its base, and
fits a least-squares line to log distance against log amplitude in
closed form (`spectral.line_fit`, no LAPACK call).  The exponent law is
an upper bound on distances, so a fitted slope above beta is
consistent; verdicts only check slope >= beta - 0.1.
A run reaches a verdict (pass, fail, no-verdict, degenerate) or raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import cosine_mode, initial_pair, random_field
from .solver import COMPLETED, DataError, SystemParams, cfl_dt, solve_stack, y_norms
from .spectral import Grid, line_fit, sobolev_norms

__all__ = [
    "HolderCase", "holder_exponent", "PerturbationFamily", "ladder_problems", "make_family",
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
    """Exponent of the continuity modulus: the first of three clauses that holds.

    r > s - 1: interpolation-high, beta = s - r; s + r >= 5: Lipschitz,
    beta = 1; else interpolation-low, beta = (2s - 5)/(s - r).  No valid (s, r)
    falls through: interpolation-low needs s < 4 (s < 5 when rho is trivial),
    which r >= 1 (r >= 0) and s + r < 5 imply, and for s > 7/2 the two
    interpolation clauses are disjoint.  On the seam r = 5 - s both lower
    clauses give beta = 1.
    """
    lower = 0.0 if rho_trivial else 1.0
    if not s > 3.5:
        raise ValueError(f"need s > 7/2, got s={s}")
    if not lower <= r < s:
        raise ValueError(
            f"need {lower:g} <= r < s for this data class, got r={r}, s={s}")
    if r > s - 1.0:
        return HolderCase(s=s, r=r, beta=s - r, regime="interpolation-high")
    if s + r >= 5.0:
        return HolderCase(s=s, r=r, beta=1.0, regime="lipschitz")
    return HolderCase(s=s, r=r, beta=(2.0 * s - 5.0) / (s - r), regime="interpolation-low")


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


def ladder_problems(h: float, delta_max: float, delta_min: float, delta_count: int) -> list:
    """Each rule that the ladder `np.geomspace(delta_max, delta_min, delta_count)` breaks:
    at least 4 points, 0 < delta_min < delta_max, two decades (with a 1e-9
    relative slack, so that 0.011 down to 0.00011 passes) and delta_max < h."""
    ordered = 0.0 < delta_min < delta_max
    rules = [(delta_count >= 4, f"need delta_count >= 4, got delta_count = {delta_count}"),
             (ordered, f"need 0 < delta_min < delta_max, got {delta_min:g} and {delta_max:g}"),
             (not ordered or delta_max / delta_min >= 100.0 * (1.0 - 1e-9),
              "delta ladder must span at least two decades"),
             (delta_max < h, f"need delta_max < h = {h:g}, got delta_max = {delta_max:g}")]
    return [message for holds, message in rules if not holds]


def make_family(grid: Grid, s: float, h: float = 2.0, base_kind: str = "gaussian-bump",
                direction_kind: str = "high-mode", delta_max: float = 1e-2,
                delta_min: float = 1e-5, delta_count: int = 7, seed: int = 0,
                base_amplitude: float = 0.5, rho_trivial: bool = False) -> PerturbationFamily:
    """Build the family's rows; a base too large for the ball B(0, h) is shrunk to fit.

    The ladder is `np.geomspace(delta_max, delta_min, delta_count)`; ValueError
    names every rule of `ladder_problems` it breaks.  A family that still
    leaves the ball (its norms overflow) raises DataError.
    `sweep` forwards its family keywords here, so these defaults are its too.
    """
    if problems := ladder_problems(h, delta_max, delta_min, delta_count):
        raise ValueError("; ".join(problems))
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
    case = holder_exponent(family.s, r, rho_trivial=family.rho_trivial)
    return _run_stack([(family, [(0, case)])], params, T, _dt(family, cfl))[0]


def _dt(family: PerturbationFamily, cfl: float) -> float:
    """The family's fixed dt, the CFL step of its worst initial sup|u|: sup|u0 + delta d|
    is convex in delta, so rows 0 and 1 (delta = 0 and the largest delta) hold it."""
    return cfl_dt(family.grid, family.members()[:2, 0], cfl)


def _run_stack(jobs, params: SystemParams, T: float, dt: float) -> dict:
    """Case number -> report, for (family, [(number, case), ...]) jobs that share dt.

    All of the families' members step as one `solve_stack` stack, each
    row under its family's s.  Each member's H^r x H^{r-2} distance to
    its family's base row is a running max over the ledger times, so no
    trajectory is stored; it is taken only while all of the family's
    rows run, so a member that aborts stops its own family's distances.
    """
    grid = jobs[0][0].grid
    members = [family.members() for family, _ in jobs]
    bounds = np.cumsum([0] + [len(m) for m in members])
    distances = [np.zeros((len(cases), len(m) - 1)) for (_, cases), m in zip(jobs, members)]

    def track(stack, rows):
        for (_, cases), best, lo, hi in zip(jobs, distances, bounds, bounds[1:]):
            at, end = np.searchsorted(rows, (lo, hi))
            if end - at == hi - lo:  # no member of this family has aborted
                diff = stack[at + 1:end] - stack[at:at + 1]
                for row, (_, case) in zip(best, cases):
                    np.fmax(row, y_norms(diff, grid, case.r), out=row)

    s = np.repeat([family.s for family, _ in jobs], np.diff(bounds)).tolist()
    trajs = solve_stack(grid, np.concatenate(members), params, s, T, dt_policy=dt,
                        dense=False, seam_policy="ignore", observe=track)
    return {i: _fit(case, family.deltas, dist, trajs[lo:hi], T, dt)
            for (family, cases), best, lo, hi in zip(jobs, distances, bounds, bounds[1:])
            for (i, case), dist in zip(cases, best)}


def _fit(case, deltas, distances, trajs, T, dt) -> HolderReport:
    """Judge one case: the closed-form line through (log10 delta, log10 distance).

    `trajs` is the family's, base row first.  Only distances above the noise
    floor enter, and fewer than 3 is degenerate; an aborted member leaves no verdict.
    """
    nan = float("nan")
    statuses = tuple(traj.status for traj in trajs)
    if any(st != COMPLETED for st in statuses):
        return HolderReport(case, deltas.copy(), np.full(len(deltas), nan),
                            nan, nan, nan, "no-verdict: member aborted",
                            statuses, T, dt)
    # keep regression points clear of accumulated roundoff
    nsteps = len(trajs[0].times) - 1
    floor = 1e3 * 2.22e-16 * max(1.0, float(trajs[0].y.max())) * max(nsteps, 1)
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


def sweep(cases, grid: Grid, params: SystemParams, T: float, cfl: float = 0.3, **family):
    """One report per (s, r) case, in input order; `family` goes to `make_family`.

    Cases that share s share a family, built once for all of their r; a
    bad (s, r) raises before any step.  Families that share a dt step as
    one stack, and a case's numbers do not depend on the other cases of
    its sweep.  Every exception propagates; data at fault (non-finite
    rows, a family outside the ball) raise DataError.
    """
    groups = {}
    for i, (s, r) in enumerate(cases):
        groups.setdefault(float(s), []).append((i, float(r)))
    stacks = {}
    for s, rs in groups.items():
        fam = make_family(grid, s, **family)
        stacks.setdefault(_dt(fam, cfl), []).append(
            (fam, [(i, holder_exponent(s, r, rho_trivial=fam.rho_trivial)) for i, r in rs]))
    by_case = {i: rep for dt, jobs in stacks.items()
               for i, rep in _run_stack(jobs, params, T, dt).items()}
    return [by_case[i] for i in range(len(cases))]
