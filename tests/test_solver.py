"""Time integration oracles and the existence-window bookkeeping.

The physics checks pin down structure the right-hand side must have
(exact invariances, a linearized phase speed, clean convergence order)
rather than chasing any particular trajectory.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from chslab import cli, solver
from chslab.fields import cosine_mode, gaussian_bump, initial_pair, random_field
from chslab.solver import (
    BLOWUP,
    COMPLETED,
    RESOLUTION_EXHAUSTED,
    NonFiniteStateError,
    SeamWarning,
    State,
    SystemParams,
    Trajectory,
    diff_solve,
    fit_min_cs,
    load_snapshot,
    rhs,
    size_bound_check,
    snapshot_bytes,
    solve,
    step_rk4,
    t0_lower_bound,
)
from chslab.spectral import Field, Grid, dealias_truncate, sobolev_norm, sup_norm


def default_params(**kw):
    base = dict(b=2.0, kappa=1.0, alpha=0.0, c_s=1.0)
    base.update(kw)
    return SystemParams(**base)


def bump_state(grid, amp=0.5, rho_amp=0.2):
    u = gaussian_bump(grid, amplitude=amp)
    rho = gaussian_bump(grid, amplitude=rho_amp, width=grid.length / 20.0)
    return State(u, rho, 0.0)


# -------------------------------------------------------------- parameters

def test_params_reject_excluded_slope():
    with pytest.raises(ValueError):
        SystemParams(b=1.0)


def test_params_reject_bad_constants():
    with pytest.raises(ValueError):
        SystemParams(c_s=0.0)
    with pytest.raises(ValueError):
        SystemParams(c_s=-2.0)
    with pytest.raises(ValueError):
        SystemParams(b=float("nan"))


def test_state_requires_shared_grid():
    a = Grid(64, 2.0 * np.pi)
    b = Grid(128, 2.0 * np.pi)
    with pytest.raises(ValueError):
        State(Field.zero(a), Field.zero(b), 0.0)


# ------------------------------------------------------------ equilibria

def test_zero_data_stays_zero(line):
    z = State(Field.zero(line), Field.zero(line), 0.0)
    traj = solve(z, default_params(), 4.0, 0.5)
    assert traj.status == COMPLETED
    assert np.all(traj.y == 0.0)
    assert sup_norm(traj.final.u) == 0.0


def test_coupling_drops_out_when_second_component_is_zero(line):
    u0 = gaussian_bump(line, amplitude=0.4)
    z = Field.zero(line)
    a = solve(State(u0, z, 0.0), default_params(kappa=1.0), 4.0, 0.2)
    b = solve(State(u0, z, 0.0), default_params(kappa=7.5), 4.0, 0.2)
    assert np.array_equal(a.final.u.coefficients, b.final.u.coefficients)


def test_zero_second_component_is_preserved_exactly(line):
    u0 = gaussian_bump(line, amplitude=0.4)
    traj = solve(State(u0, Field.zero(line), 0.0), default_params(b=2.7), 4.0, 0.3)
    assert all(sup_norm(st.rho) == 0.0 for st in traj.states)


def test_mean_of_u_is_conserved(line):
    st = bump_state(line)
    traj = solve(st, default_params(b=2.4, kappa=0.8), 4.0, 0.4)
    m0 = traj.initial.u.coefficients[0].real
    m1 = traj.final.u.coefficients[0].real
    assert m1 == pytest.approx(m0, abs=1e-13)


def test_mean_of_rho_is_conserved_for_transport_slope(line):
    # at b = 2 the second equation is a pure divergence d/dx(u rho)
    st = bump_state(line)
    traj = solve(st, default_params(b=2.0), 4.0, 0.4)
    m0 = traj.initial.rho.coefficients[0].real
    m1 = traj.final.rho.coefficients[0].real
    assert m1 == pytest.approx(m0, abs=1e-13)


def test_energy_drift_at_b_two_is_the_rk4_error_alone(line):
    # at b = 2 the local form conserves H = ||(1 - d^2) u||^2 + kappa ||rho||^2
    # for every alpha, and so does its 2/3 Galerkin truncation; the s = 2
    # ledger holds both norms.  A drift shrinking like dt^4 is the RK4
    # error; a wrong bracket coefficient drifts by the same amount at
    # every dt.  Written from the local form, not from the bracket.
    p = default_params(alpha=0.3)
    u, rho = initial_pair(line, "gaussian", 1.0, 0.3, 0)
    drifts = []
    for dt in (0.02, 0.01, 0.005):
        traj = solve(State(u, rho, 0.0), p, 2.0, 2.0, dt_policy=dt, dense=False)
        energy = traj.norm_u ** 2 + p.kappa * traj.norm_rho ** 2
        drifts.append(np.abs(energy - energy[0]).max() / energy[0])
    orders = np.log2(np.array(drifts[:-1]) / drifts[1:])
    assert np.all(np.abs(orders - 4.0) <= 0.5), (drifts, orders)


def test_solution_values_stay_real(line):
    traj = solve(bump_state(line), default_params(), 4.0, 0.3)
    c = traj.final.u.coefficients
    assert np.abs(c[1:] - np.conj(c[-1:0:-1])).max() < 1e-13


# ------------------------------------------------- linearized phase speed

def test_linearized_wave_speed_matches_dispersion_relation():
    # tiny amplitude: u ~ delta cos(x - omega t) with omega = -alpha/4
    # for the first mode on the unit circle (xi = 1)
    grid = Grid(64, 2.0 * np.pi)
    delta = 1e-6
    alpha = 1.0
    st = State(cosine_mode(grid, 1, delta), Field.zero(grid), 0.0)
    t_end = 1.0
    traj = solve(st, default_params(alpha=alpha), 4.0, t_end,
                 dt_policy=5e-3, seam_policy="ignore")
    c1_start = traj.initial.u.coefficients[1]
    c1_end = traj.final.u.coefficients[1]
    phase = np.angle(c1_end / c1_start)
    omega = -alpha / 4.0
    assert phase == pytest.approx(-omega * t_end, rel=1e-4)
    # amplitude of the mode must not drift at this size
    assert abs(c1_end) == pytest.approx(abs(c1_start), rel=1e-6)


# ------------------------------------------------------ convergence order

def test_stepper_is_fourth_order():
    grid = Grid(64, 2.0 * np.pi)
    u0 = Field.from_values(grid, 0.3 * np.cos(grid.x) + 0.1 * np.sin(2.0 * grid.x))
    rho0 = Field.from_values(grid, 0.2 * np.cos(grid.x))
    st = State(dealias_truncate(u0), dealias_truncate(rho0), 0.0)
    params = default_params(kappa=0.5, alpha=0.3)

    def end_state(dt):
        traj = solve(st, params, 4.0, 0.5, dt_policy=dt, seam_policy="ignore")
        return traj.final.u

    coarse, mid, fine = end_state(0.02), end_state(0.01), end_state(0.005)
    e1 = sobolev_norm(coarse - mid, 0.0)
    e2 = sobolev_norm(mid - fine, 0.0)
    order = math.log2(e1 / e2)
    assert 3.7 <= order <= 4.3


def test_single_step_matches_solver_composition():
    grid = Grid(64, 2.0 * np.pi)
    st = State(dealias_truncate(cosine_mode(grid, 1, 0.3)), Field.zero(grid), 0.0)
    params = default_params()
    stepped, bad = step_rk4(grid, np.array([[st.u.half, st.rho.half]]), params, 0.01)
    traj = solve(st, params, 4.0, 0.01, dt_policy=0.01, seam_policy="ignore")
    assert not bad.any()
    assert sup_norm(Field(grid, stepped[0, 0]) - traj.final.u) < 1e-15
    assert st.t + 0.01 == traj.final.t


# --------------------------------------------------------- time stepping

def test_horizon_is_hit_exactly(line):
    traj = solve(bump_state(line), default_params(), 4.0, 0.7301)
    assert traj.times[-1] == 0.7301
    assert traj.is_dense()


def test_store_stride_thins_states_but_not_ledger(line):
    dense = solve(bump_state(line), default_params(), 4.0, 0.4)
    # a run that is not dense keeps only the initial and the final state
    thin = solve(bump_state(line), default_params(), 4.0, 0.4, dense=False)
    assert np.array_equal(thin.times, dense.times)
    assert np.array_equal(thin.y, dense.y)
    assert len(thin.states) < len(dense.states)
    assert not thin.is_dense()
    # the last state is always kept
    assert thin.final.t == 0.4
    assert np.array_equal(thin.final.u.coefficients, dense.final.u.coefficients)
    assert np.array_equal(thin.final.rho.coefficients,
                          dense.final.rho.coefficients)
    assert len(thin.states) == 2


def test_solve_rejects_bad_horizon(line):
    st = bump_state(line)
    with pytest.raises(ValueError):
        solve(st, default_params(), 4.0, 0.0)
    with pytest.raises(ValueError):
        solve(st, default_params(), 4.0, 0.3, dt_policy="adaptive")
    with pytest.raises(ValueError):
        solve(st, default_params(), 4.0, 0.3, dt_policy=-0.1)
    with pytest.raises(ValueError):
        solve(st, default_params(), 4.0, 0.3, seam_policy="panic")


# ------------------------------------------------------------ seam rules

def edge_bump(grid):
    """gaussian_bump's shape centred at the origin, so it wraps around the seam."""
    return Field.from_values(grid, 0.5 * np.exp(-((grid.x / (grid.length / 16.0)) ** 2)))


def test_seam_violation_warns_by_default(line):
    u0 = edge_bump(line)
    st = State(u0, Field.zero(line), 0.0)
    with pytest.warns(SeamWarning):
        solve(st, default_params(), 4.0, 0.01)


def test_seam_violation_can_be_fatal(line):
    u0 = edge_bump(line)
    st = State(u0, Field.zero(line), 0.0)
    with pytest.raises(ValueError):
        solve(st, default_params(), 4.0, 0.01, seam_policy="error")


def test_seam_violation_can_be_ignored(recwarn, line):
    u0 = edge_bump(line)
    st = State(u0, Field.zero(line), 0.0)
    solve(st, default_params(), 4.0, 0.01, seam_policy="ignore")
    assert not any(isinstance(w.message, SeamWarning) for w in recwarn.list)


# -------------------------------------------------------- abort statuses

def test_blowup_threshold_aborts_the_run(line, monkeypatch):
    monkeypatch.setattr(solver, "_BLOWUP_THRESHOLD", 1.0)
    traj = solve(bump_state(line, amp=0.8), default_params(), 4.0, 2.0)
    assert traj.status == BLOWUP
    assert traj.times[-1] < 2.0


def test_spectral_tail_exhaustion_aborts_the_run(monkeypatch):
    monkeypatch.setattr(solver, "_TAIL_LIMIT", 1e-8)
    grid = Grid(64, 2.0 * np.pi)
    u0 = random_field(grid, 2.0, seed=3, amplitude=0.5)
    traj = solve(State(u0, Field.zero(grid), 0.0), default_params(), 2.5, 1.0,
                 seam_policy="ignore")
    assert traj.status == RESOLUTION_EXHAUSTED
    assert traj.times[-1] < 1.0


def test_non_finite_state_mid_run_is_a_blowup(line, monkeypatch):
    # an unstable fixed step overflows inside an RK stage; no norm or
    # resolution limit stops the run before that
    monkeypatch.setattr(solver, "_BLOWUP_THRESHOLD", math.inf)
    monkeypatch.setattr(solver, "_TAIL_LIMIT", 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solve(bump_state(line, amp=1e5), default_params(), 4.0, 1.0, dt_policy=0.05)
    assert traj.status == BLOWUP
    # the non-finite stage state never reached the ledger
    assert np.isfinite(traj.y).all()
    assert traj.times[-1] < 1.0


def test_non_finite_state_raises_its_own_error(line):
    st = bump_state(line)
    bad = State(Field(line, np.full(line.n // 2 + 1, np.nan, dtype=complex)), st.rho, 0.0)
    with pytest.raises(NonFiniteStateError):
        rhs(bad, default_params())


def test_other_step_errors_are_not_a_blowup(line, monkeypatch):
    def broken_step(grid, stack, params, dt, work=None):
        raise ValueError("grid mismatch")

    monkeypatch.setattr(solver, "step_rk4", broken_step)
    with pytest.raises(ValueError, match="grid mismatch"):
        solve(bump_state(line), default_params(), 4.0, 0.2)


def test_completed_run_reports_completed(line):
    traj = solve(bump_state(line), default_params(), 4.0, 0.2)
    assert traj.status == COMPLETED


# ------------------------------------------------------ existence window

def test_window_formula_for_unit_datum(line):
    u0 = gaussian_bump(line, amplitude=1.0)
    u0 = (1.0 / sobolev_norm(u0, 4.0)) * u0
    st = State(u0, Field.zero(line), 0.0)
    t0 = t0_lower_bound(st, 4.0, default_params(c_s=1.0))
    assert t0 == pytest.approx(0.5 * math.log(2.0), rel=1e-14)


def test_window_scales_inversely_with_rate_constant(line):
    st = bump_state(line)
    t_one = t0_lower_bound(st, 4.0, default_params(c_s=1.0))
    t_half = t0_lower_bound(st, 4.0, default_params(c_s=0.5))
    assert t_half == pytest.approx(2.0 * t_one, rel=1e-14)


def test_window_shrinks_for_larger_data(line):
    small = State(gaussian_bump(line, 0.2), Field.zero(line), 0.0)
    large = State(gaussian_bump(line, 2.0), Field.zero(line), 0.0)
    p = default_params()
    assert t0_lower_bound(large, 4.0, p) < t0_lower_bound(small, 4.0, p)


def test_window_is_unbounded_for_zero_data(line):
    z = State(Field.zero(line), Field.zero(line), 0.0)
    assert math.isinf(t0_lower_bound(z, 4.0, default_params()))


def _ledger(times, y, s=4.0, status=COMPLETED):
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    return Trajectory(states=(), times=times, norm_u=y, norm_rho=np.zeros_like(y),
                      y=y, status=status, s=s)


def test_size_bound_passes_below_the_envelope():
    y0 = 1.0
    t0 = 0.5 * math.log(2.0)
    t = np.linspace(0.0, t0, 50)
    rep = size_bound_check(_ledger(t, y0 * np.exp(t)), 1.0)
    assert rep.passed
    # bound is 2 sqrt(y0^2 + y0) whatever the rate constant
    assert rep.bound == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert rep.first_violation is None


def test_size_bound_flags_the_first_excursion():
    y0 = 1.0
    t0 = 0.5 * math.log(2.0)
    t = np.linspace(0.0, t0, 50)
    y = y0 * np.exp(t)
    y[30:] = 5.0  # jump above 2 sqrt 2 inside the window
    rep = size_bound_check(_ledger(t, y), 1.0)
    assert not rep.passed
    assert rep.first_violation == pytest.approx(t[30], rel=1e-12)
    assert rep.max_ratio > 1.0


def test_size_bound_needs_full_window_coverage():
    t = np.linspace(0.0, 0.1, 20)  # window for y0 = 1 is ln(2)/2 = 0.346
    with pytest.raises(ValueError):
        size_bound_check(_ledger(t, np.ones_like(t)), 1.0)


def test_size_bound_fails_an_aborted_ledger():
    # an abort certifies nothing, even with every ledger point under the
    # bound; the ratio covers the whole ledger, past any window
    t = np.linspace(0.0, 0.01, 3)  # far short of the window ln(2)/2
    traj = _ledger(t, [1.0, 1.5, 2.0], status=RESOLUTION_EXHAUSTED)
    rep = size_bound_check(traj, 1.0)
    assert not rep.passed
    assert math.isnan(rep.t0)
    assert rep.first_violation is None
    assert rep.bound == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert rep.max_ratio == 2.0 / rep.bound


def test_size_bound_zero_datum_degenerates():
    t = np.linspace(0.0, 1.0, 20)
    ok = size_bound_check(_ledger(t, np.zeros_like(t)), 1.0)
    assert ok.passed and math.isinf(ok.t0)
    # zero data that drifts off zero
    drift = 1e-3 * np.ones_like(t)
    drift[0] = 0.0
    bad = size_bound_check(_ledger(t, drift), 1.0)
    assert not bad.passed
    assert bad.first_violation == t[1]


def test_rate_fit_recovers_synthetic_constant():
    # y' = c (y^2 + y) solves to y = A e^{ct} / (1 - A e^{ct}), A = y0/(1+y0)
    c, y0 = 0.7, 0.4
    t = np.linspace(0.0, 1.0, 2001)
    a = y0 / (1.0 + y0)
    y = a * np.exp(c * t) / (1.0 - a * np.exp(c * t))
    got = fit_min_cs(_ledger(t, y))
    assert got == pytest.approx(c, rel=1e-5)


def test_rate_fit_requires_enough_points():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        fit_min_cs(_ledger(t, np.ones(5)))


def test_rate_fit_of_flat_ledger_is_zero():
    t = np.linspace(0.0, 1.0, 50)
    assert fit_min_cs(_ledger(t, np.zeros(50))) == 0.0
    # decaying ledger also fits with zero (rate is floored)
    assert fit_min_cs(_ledger(t, np.exp(-t))) == 0.0


# ------------------------------------------------------ difference system

def test_difference_rhs_matches_direct_subtraction(line):
    p = default_params(b=2.3, kappa=0.7, alpha=0.1)
    u = dealias_truncate(gaussian_bump(line, 0.5))
    v = dealias_truncate(gaussian_bump(line, 0.3, width=line.length / 12.0))
    rho = dealias_truncate(gaussian_bump(line, 0.2, width=line.length / 20.0))
    theta = dealias_truncate(gaussian_bump(line, 0.1, width=line.length / 24.0))
    # the stacked kernel diff_solve steps: B(w, U) + B(V, w) at w = U - V
    ops = solver._operators(line, p)
    us, vs = ops.values(np.array([[u.half, rho.half], [v.half, theta.half]]),
                        solver._Workspace(line.n, 2))
    stack = np.array([[(u - v).half, (rho - theta).half]])
    (dw, deta), = ops.diff_rhs(stack, us, vs, solver._Workspace(line.n, 1),
                               np.empty_like(stack))
    dw, deta = Field(line, dw), Field(line, deta)
    ru, rrho = rhs(State(u, rho, 0.0), p)
    rv, rtheta = rhs(State(v, theta, 0.0), p)
    scale = max(1.0, sup_norm(dw))
    assert sup_norm(dw - (ru - rv)) < 1e-12 * scale
    assert sup_norm(deta - (rrho - rtheta)) < 1e-12 * scale


def test_difference_solver_tracks_direct_subtraction(line):
    p = default_params()
    a = solve(bump_state(line, amp=0.5), p, 4.0, 0.25, dt_policy=0.0125)
    b = solve(bump_state(line, amp=0.45), p, 4.0, 0.25, dt_policy=0.0125)
    d = diff_solve(a, b, p, r=3.0)
    w_scale = max(
        sobolev_norm(sa.u - sb.u, 3.0) for sa, sb in zip(a.states, b.states))
    assert d.defect <= 1e-6 * w_scale


def test_difference_of_identical_runs_is_exactly_zero(line):
    p = default_params()
    a = solve(bump_state(line), p, 4.0, 0.2)
    d = diff_solve(a, a, p)
    assert d.defect == 0.0


def test_difference_defect_shrinks_at_second_order(line):
    p = default_params()

    def defect(dt):
        a = solve(bump_state(line, amp=0.5), p, 4.0, 0.2, dt_policy=dt)
        b = solve(bump_state(line, amp=0.4), p, 4.0, 0.2, dt_policy=dt)
        return diff_solve(a, b, p).defect

    ratio = defect(0.02) / defect(0.01)
    assert 3.0 <= ratio <= 5.0


def test_difference_solver_requires_dense_trajectories(line):
    p = default_params()
    a = solve(bump_state(line), p, 4.0, 0.2, dense=False)
    b = solve(bump_state(line, amp=0.45), p, 4.0, 0.2, dense=False)
    with pytest.raises(ValueError):
        diff_solve(a, b, p)


# ------------------------------------------------------------- artifacts

def test_snapshot_round_trip(tmp_path, line):
    st = bump_state(line, amp=0.37)
    path = tmp_path / "state.chs2"
    path.write_bytes(snapshot_bytes(st))
    back = load_snapshot(path)
    assert back.t == st.t
    assert np.allclose(back.u.values, st.u.values, atol=1e-15)
    assert np.allclose(back.rho.values, st.rho.values, atol=1e-15)


def test_snapshot_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.chs2"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_snapshot_rejects_truncation(tmp_path, line):
    st = bump_state(line)
    path = tmp_path / "state.chs2"
    path.write_bytes(snapshot_bytes(st))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_snapshot_checks_the_body_size_before_reading(tmp_path):
    # a 44-byte file whose header claims N = 2^22, a 64 MiB body
    path = tmp_path / "huge.chs2"
    path.write_bytes(struct.pack("<4sIIdd", b"CHS2", 1, 2**22, 64.0, 0.0) + bytes(16))
    assert path.stat().st_size == 44
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_snapshot_rejects_trailing_bytes(tmp_path, line):
    st = bump_state(line)
    path = tmp_path / "state.chs2"
    path.write_bytes(snapshot_bytes(st))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_snapshot(path)


def test_snapshot_rejects_a_non_finite_length(tmp_path, line):
    st = bump_state(line)
    path = tmp_path / "state.chs2"
    path.write_bytes(snapshot_bytes(st))
    data = bytearray(path.read_bytes())
    data[12:20] = struct.pack("<d", math.inf)  # L follows magic, version, N
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="finite"):
        load_snapshot(path)


def test_snapshot_rejects_a_non_finite_body(tmp_path):
    # no valid writer emits one: the CLI saves the final state of a run,
    # and a non-finite stage never reaches it
    st = bump_state(Grid(8, 2.0 * np.pi))
    path = tmp_path / "state.chs2"
    path.write_bytes(snapshot_bytes(st))
    data = bytearray(path.read_bytes())
    head = struct.calcsize("<4sIIdd")
    for index, bad in ((3, math.nan), (8 + 5, math.inf)):  # a u value, then a rho value
        planted = data.copy()
        planted[head + 8 * index:head + 8 * index + 8] = struct.pack("<d", bad)
        path.write_bytes(bytes(planted))
        with pytest.raises(NonFiniteStateError, match="snapshot body"):
            load_snapshot(path)


def test_ledger_csv_round_trips_exactly(line):
    traj = solve(bump_state(line), default_params(), 4.0, 0.3)
    lines = cli._ledger(traj).decode().splitlines()
    assert lines[0] == "t,norm_u_Hs,norm_rho_Hs-2,y"
    assert len(lines) == 1 + len(traj.times)
    t_back = np.array([float(row.split(",")[0]) for row in lines[1:]])
    y_back = np.array([float(row.split(",")[3]) for row in lines[1:]])
    assert np.array_equal(t_back, traj.times)
    assert np.array_equal(y_back, traj.y)
