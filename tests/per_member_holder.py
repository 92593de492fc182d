"""Per-member Holder oracle: the experiment before families were stacked.

`member_states` checks each row of `family.members()` bit for bit
against the Field arithmetic that built the members one State at a
time, and `oracle_direction` rebuilds a unit direction from its Field
constructors.  `oracle_run_holder` solves the base and every member
with its own dense `solve` under the shared dt, then takes each
member's distance to the base as a max over the stored states.
`oracle_sweep` runs it once per (s, r) case, rebuilding the family
every time.  The stacked, s-grouped `holder.sweep` must reproduce both
bit for bit.  The regression line comes from the same
`spectral.line_fit` that `holder` calls (its own oracle is np.polyfit,
in tests/test_spectral.py), so the comparison stays exact.
"""

import math

import numpy as np

from chslab.holder import HolderReport, holder_exponent, make_family
from chslab.fields import cosine_mode, random_field
from chslab.solver import COMPLETED, State, solve
from chslab.spectral import Field, line_fit, sobolev_norm, sup_norm


def member_states(family) -> list:
    """One State per row of family.members(), each row checked bit for bit
    against base + delta * direction taken one Field at a time."""
    grid = family.grid
    u0, rho0 = Field(grid, family.base[0]), Field(grid, family.base[1])
    dir_u, dir_rho = Field(grid, family.direction[0]), Field(grid, family.direction[1])
    want = [(u0, rho0)] + [(u0 + float(d) * dir_u, rho0 + float(d) * dir_rho)
                           for d in family.deltas]
    rows = family.members()
    assert rows.shape == (len(want), 2, grid.n // 2 + 1)
    for row, (u, rho) in zip(rows, want):
        assert row[0].tobytes() == u.half.tobytes()
        assert row[1].tobytes() == rho.half.tobytes()
    return [State(Field(grid, row[0]), Field(grid, row[1])) for row in rows]


def oracle_direction(grid, kind, s, seed, rho_trivial):
    """The unit direction rows: the kind's Field halves scaled by 1/y."""
    if kind == "high-mode":
        u, rho = cosine_mode(grid, grid.n // 6), Field.zero(grid)
    else:
        u = random_field(grid, s + 1.0, seed=seed + 2)
        rho = Field.zero(grid) if rho_trivial else random_field(grid, s - 1.0,
                                                                seed=seed + 3)
    y = sobolev_norm(u, s) + sobolev_norm(rho, s - 2.0)
    return np.array([(1.0 / y) * u.half, (1.0 / y) * rho.half])


def oracle_distance(traj_a, traj_b, r: float) -> float:
    best = 0.0
    for a, b in zip(traj_a.states, traj_b.states):
        best = max(best, sobolev_norm(a.u - b.u, r)
                   + sobolev_norm(a.rho - b.rho, r - 2.0))
    return best


def oracle_run_holder(family, params, r, T, cfl=0.3,
                      seam_policy="ignore") -> HolderReport:
    s = family.s
    case = holder_exponent(s, r, rho_trivial=family.rho_trivial)

    members = member_states(family)
    worst_sup = max(sup_norm(members[0].u), sup_norm(members[1].u))
    dt = cfl * family.grid.dx / max(1.0, worst_sup)

    base_traj = solve(members[0], params, s, T, dt_policy=dt,
                      seam_policy=seam_policy)
    trajs = [solve(m, params, s, T, dt_policy=dt, seam_policy=seam_policy)
             for m in members[1:]]
    statuses = tuple([base_traj.status] + [t.status for t in trajs])

    nan = float("nan")
    if any(st != COMPLETED for st in statuses):
        return HolderReport(case, family.deltas.copy(), np.full(len(trajs), nan),
                            nan, nan, nan, "no-verdict: member aborted",
                            statuses, T, dt)

    distances = np.array([oracle_distance(t, base_traj, r) for t in trajs])

    nsteps = len(base_traj.times) - 1
    floor = 1e3 * 2.22e-16 * max(1.0, float(base_traj.y.max())) * max(nsteps, 1)
    live = distances > floor
    if live.sum() < 3:
        return HolderReport(case, family.deltas.copy(), distances,
                            nan, nan, nan, "degenerate: distances at noise floor",
                            statuses, T, dt)

    logd = np.log10(family.deltas[live])
    logdist = np.log10(distances[live])
    slope, intercept = line_fit(logd, logdist)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], logd) - logdist) ** 2)))
    ok = slope >= case.beta - 0.1 and resid <= 0.05
    return HolderReport(case, family.deltas.copy(), distances, slope, intercept, resid,
                        "pass" if ok else "fail", statuses, T, dt)


def oracle_sweep(cases, grid, params, T, cfl=0.3, **family_args):
    """One family build and one oracle run per case; any error propagates."""
    return [oracle_run_holder(make_family(grid, float(s), **family_args), params,
                              float(r), T, cfl) for s, r in cases]


def _same_float(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_report(got: HolderReport, want: HolderReport):
    """Every field equal, NaN matching NaN, arrays bit for bit."""
    for name in ("s", "r", "rho_trivial", "regime"):
        assert getattr(got.case, name) == getattr(want.case, name), name
    assert _same_float(got.case.beta, want.case.beta)
    assert got.verdict == want.verdict
    assert got.statuses == want.statuses
    assert np.array_equal(got.deltas, want.deltas)
    assert np.array_equal(got.distances, want.distances, equal_nan=True)
    for name in ("slope", "intercept", "residual", "horizon", "dt"):
        assert _same_float(getattr(got, name), getattr(want, name)), name
