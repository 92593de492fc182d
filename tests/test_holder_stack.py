"""Stacked stepping: row independence, per-row watchdog, grouped sweeps.

A stack of P states steps as one (P, 2, N/2+1) array, and `holder.sweep`
steps each s-group's family once with streamed distances.  The oracles
are one-row runs (`solve`, `step_rk4` on a one-row stack) and the per-member
Holder experiment in `per_member_holder`.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chslab import holder, solver
from chslab.cli import _holder_artifacts, execute
from chslab.config import parse_config
from chslab.fields import cosine_mode, gaussian_bump, random_field
from chslab.holder import (
    PerturbationFamily,
    make_family,
    run_holder,
    sweep,
)
from chslab.solver import (
    BLOWUP,
    COMPLETED,
    RESOLUTION_EXHAUSTED,
    NonFiniteStateError,
    SeamError,
    SeamWarning,
    State,
    SystemParams,
    solve,
    solve_stack,
    step_rk4,
)
from chslab.spectral import Field, Grid, dealias_truncate, sobolev_norm
from per_member_holder import (
    assert_same_report,
    member_states,
    oracle_direction,
    oracle_run_holder,
    oracle_sweep,
)


def params(**kw):
    return SystemParams(**{"b": 2.0, "kappa": 1.0, "alpha": 0.0, "c_s": 1.0, **kw})


def bump(grid, amp, rho_amp=0.2):
    return State(gaussian_bump(grid, amplitude=amp),
                 gaussian_bump(grid, amplitude=rho_amp, width=grid.length / 20.0), 0.0)


def rows_of(states):
    """The (P, 2, N/2+1) stack of the states' (u, rho) half spectra."""
    return np.array([[st.u.half, st.rho.half] for st in states])


def assert_same_trajectory(got, want):
    assert got.status == want.status
    for name in ("times", "norm_u", "norm_rho", "y"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert a.t == b.t
        assert np.array_equal(a.u.half, b.u.half)
        assert np.array_equal(a.rho.half, b.rho.half)


# ------------------------------------------------------- row independence

@given(log_n=st.integers(3, 10), rows=st.integers(1, 6),
       seed=st.integers(0, 2**31), dt=st.floats(1e-3, 0.2),
       alpha=st.floats(-2.0, 2.0))
def test_stacked_step_equals_one_row_steps(log_n, rows, seed, dt, alpha):
    grid = Grid(2**log_n, 20.0)
    p = params(b=2.5, kappa=0.7, alpha=alpha)
    states = [State(dealias_truncate(random_field(grid, 4.0, amplitude=0.3, seed=seed + i)),
                    dealias_truncate(random_field(grid, 2.0, amplitude=0.1,
                                                  seed=seed + 100 + i)), 0.0)
              for i in range(rows)]
    stack = rows_of(states)
    new, bad = step_rk4(grid, stack, p, dt)
    assert new.shape == stack.shape
    assert not bad.any()
    for i, row in enumerate(new):
        one, one_bad = step_rk4(grid, stack[i:i + 1], p, dt)
        assert not one_bad.any()
        assert np.array_equal(row[0], one[0, 0])
        assert np.array_equal(row[1], one[0, 1])


@pytest.mark.parametrize("n", [64, 256])
def test_stacked_solve_equals_one_row_solves(n):
    grid = Grid(n, 64.0)
    states = [bump(grid, a) for a in (0.5, 0.3, 0.7)]
    # sup|u| < 1 on every row, so the CFL step is the same for all of them
    for kw in ({"dt_policy": 0.02}, {"dt_policy": 0.013, "store_stride": 3}, {}):
        for got, state in zip(solve_stack(grid, rows_of(states), params(), 4.0, 0.37, **kw),
                              states):
            assert_same_trajectory(got, solve(state, params(), 4.0, 0.37, **kw))


def test_stacked_cfl_step_follows_the_largest_row(line):
    big, small = bump(line, 1.6), bump(line, 0.5)
    got = solve_stack(line, rows_of([small, big]), params(), 4.0, 0.5)
    assert np.array_equal(got[0].times, got[1].times)
    assert np.array_equal(got[1].times, solve(big, params(), 4.0, 0.5).times)
    assert len(got[0].times) > len(solve(small, params(), 4.0, 0.5).times)


def test_stack_of_the_wrong_shape_is_rejected(line):
    stack = rows_of([bump(line, 0.5), bump(line, 0.3)])
    # a last axis that is not N/2+1, no rho row, no row axis
    for bad in (stack[..., :-1], np.pad(stack, ((0, 0), (0, 0), (0, 2))), stack[:, :1],
                stack[0]):
        with pytest.raises(ValueError, match="stack shape"):
            solve_stack(line, bad, params(), 4.0, 0.1)


@pytest.mark.parametrize("t", [-0.05, np.nan, 0.1, 0.2])
def test_start_time_outside_zero_to_t_end_is_rejected(line, t):
    # State refuses a negative or NaN time; the stack's own start time is checked too
    with pytest.raises(ValueError, match="need 0 <= t < t_end"):
        solve_stack(line, rows_of([bump(line, 0.5)]), params(), 4.0, 0.1, t)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", [0, 1])
def test_non_finite_row_is_rejected_before_any_step(line, monkeypatch, value, field):
    def no_step(*args):
        raise AssertionError("a non-finite stack was stepped")

    monkeypatch.setattr(solver, "step_rk4", no_step)
    stack = rows_of([bump(line, 0.5), bump(line, 0.3)])
    stack[1, field, 5] = value
    with pytest.raises(NonFiniteStateError):
        solve_stack(line, stack, params(), 4.0, 0.1)
    with pytest.raises(NonFiniteStateError):
        solve(State(Field(line, stack[1, 0]), Field(line, stack[1, 1])), params(), 4.0, 0.1)


def test_stacked_seam_check_judges_every_row(line):
    # the clean row comes first, so a check of row 0 alone would pass
    rough = random_field(line, 2.0, seed=3, amplitude=0.5)
    stack = rows_of([bump(line, 0.5), State(rough, Field.zero(line))])
    edge = (line.x < 0.1 * line.length) | (line.x > 0.9 * line.length)
    worst = re.escape(f"reaches {np.abs(rough.values[edge]).max():.3e} within")

    def run(rows, **kw):
        return solve_stack(line, rows, params(), 4.0, 0.1, dt_policy=0.05, **kw)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(stack[:1])
        run(stack, seam_policy="ignore")
    with pytest.warns(SeamWarning, match=worst) as caught:
        run(stack)
    assert sum(issubclass(w.category, SeamWarning) for w in caught) == 1
    with pytest.raises(SeamError, match=worst):
        run(stack, seam_policy="error")


# ------------------------------------------------------ per-row watchdog

def test_non_finite_row_leaves_the_stack_alone(line):
    # the 1e5 bump overflows inside an RK stage; its neighbours do not notice
    states = [bump(line, 0.5), bump(line, 1e5), bump(line, 0.45)]
    kw = dict(dt_policy=0.05, blowup_threshold=math.inf, tail_limit=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = solve_stack(line, rows_of(states), params(), 4.0, 1.0, **kw)
        want = [solve(s, params(), 4.0, 1.0, **kw) for s in states]
    assert [t.status for t in got] == [COMPLETED, BLOWUP, COMPLETED]
    for g, w in zip(got, want):
        assert_same_trajectory(g, w)
    assert np.isfinite(got[1].y).all()


def test_watchdog_statuses_are_per_row():
    grid = Grid(64, 2.0 * np.pi)

    def bump_state(amp, rho_amp):
        return State(gaussian_bump(grid, amplitude=amp, width=0.8),
                     gaussian_bump(grid, amplitude=rho_amp, width=0.5), 0.0)

    smooth = State(cosine_mode(grid, 1, 0.3), Field.zero(grid), 0.0)
    rough = State(random_field(grid, 2.0, seed=3, amplitude=0.5), Field.zero(grid), 0.0)
    kw = dict(dt_policy=0.01, seam_policy="ignore", tail_limit=1e-3)
    # y grows along this run before it runs out of resolution, so a
    # threshold between its first and largest ledger values stops it
    # mid-run as a blow-up
    growing = bump_state(2.0, 0.5)
    solo = solve(growing, params(), 2.5, 1.0, **kw)
    threshold = 0.5 * (solo.y[0] + solo.y.max())
    states = [smooth, rough, bump_state(0.9, 0.3), growing, bump_state(50.0, 0.0), smooth]
    kw["blowup_threshold"] = threshold
    got = solve_stack(grid, rows_of(states), params(), 2.5, 1.0, **kw)
    assert [t.status for t in got] == [COMPLETED, RESOLUTION_EXHAUSTED, RESOLUTION_EXHAUSTED,
                                       BLOWUP, BLOWUP, COMPLETED]
    # at t = 0, mid-run, mid-run, at t = 0
    assert [len(t.times) for t in got[1:5]] == [1, 74, len(got[3].times), 1]
    assert 1 < len(got[3].times) < len(solo.times)
    for g, state in zip(got, states):
        assert_same_trajectory(g, solve(state, params(), 2.5, 1.0, **kw))


def test_planted_family_statuses_match_their_own_solves():
    # a hand-built ladder past make_family's ball: its largest member is
    # over the blow-up threshold at t = 0, the next ones run out of
    # resolution, the small ones complete.  The shared dt follows the
    # largest member, hence the short horizon.
    grid = Grid(64, 64.0)
    fam = make_family(grid, 4.0, 2.0)
    planted = PerturbationFamily(grid=fam.grid, base=fam.base, direction=fam.direction,
                                 deltas=np.geomspace(2e6, 2e-3, 10), s=4.0)
    with np.errstate(all="ignore"):
        got = run_holder(planted, params(), 2.0, T=2e-4)
        want = oracle_run_holder(planted, params(), 2.0, T=2e-4)
    assert_same_report(got, want)
    assert got.statuses[:4] == (COMPLETED, BLOWUP, RESOLUTION_EXHAUSTED,
                                RESOLUTION_EXHAUSTED)
    assert set(got.statuses[4:]) == {COMPLETED}
    assert got.verdict == "no-verdict: member aborted"


# ------------------------------------- family rows against Field arithmetic

@pytest.mark.parametrize("base_kind", holder.BASE_KINDS)
@pytest.mark.parametrize("direction_kind", holder.DIRECTION_KINDS)
@pytest.mark.parametrize("rho_trivial", [False, True])
def test_family_rows_are_the_field_arithmetic(base_kind, direction_kind, rho_trivial):
    grid = Grid(128, 64.0)
    kw = dict(base_kind=base_kind, direction_kind=direction_kind, seed=7,
              base_amplitude=5.0, rho_trivial=rho_trivial)
    raw, shrunk = make_family(grid, 4.0, 1e3, **kw), make_family(grid, 4.0, 0.05, **kw)
    # the small ball shrinks the base by the factor it once applied to each Field
    y = sobolev_norm(Field(grid, raw.base[0]), 4.0) + sobolev_norm(Field(grid, raw.base[1]), 2.0)
    assert y > 0.05
    factor = 0.98 * (0.05 - 1e-2) / y
    for i in (0, 1):
        assert shrunk.base[i].tobytes() == (factor * Field(grid, raw.base[i])).half.tobytes()
    want = oracle_direction(grid, direction_kind, 4.0, 7, rho_trivial)
    for fam in (raw, shrunk):
        assert fam.rho_trivial == rho_trivial
        assert fam.direction.tobytes() == want.tobytes()
        member_states(fam)


# ------------------------------------------- grouped sweep against oracle

SWEEP_SETUPS = [
    # N, direction, rho_trivial, T, deltas (delta_max, delta_min, delta_count;
    # None for make_family's default ladder), cases
    (64, "high-mode", False, 0.2, None,
     [(4.0, 1.0), (4.0, 3.5), (3.75, 1.0), (4.0, 2.0)]),
    (256, "random-decay", True, 0.3, None,
     [(4.0, 0.5), (4.5, 0.3), (4.0, 2.0), (3.75, 1.0)]),
    (256, "high-mode", False, 0.2, (1e-12, 1e-15, 5),
     [(4.0, 2.0), (4.0, 3.5)]),
    (1024, "random-decay", False, 0.1, None,
     [(4.0, 1.0), (3.75, 1.0), (4.0, 1.5), (4.0, 3.5)]),
    (1024, "high-mode", False, 0.1, None, [(4.0, 2.0), (4.0, 2.0)]),
]


@pytest.mark.parametrize("n,direction,rho_trivial,T,deltas,cases", SWEEP_SETUPS)
def test_grouped_sweep_equals_per_member_oracle(n, direction, rho_trivial, T,
                                                deltas, cases):
    grid = Grid(n, 64.0)
    ladder = dict(zip(("delta_max", "delta_min", "delta_count"), deltas or ()))
    family_args = dict(h=2.0, base_kind="gaussian-bump", direction_kind=direction,
                       seed=3, base_amplitude=0.5, rho_trivial=rho_trivial, **ladder)
    got = sweep(cases, grid, params(), T=T, **family_args)
    want = oracle_sweep(cases, grid, params(), T=T, **family_args)
    assert len(got) == len(want) == len(cases)
    for g, w in zip(got, want):
        assert_same_report(g, w)


def test_degenerate_ladder_matches_the_oracle(line):
    fam = make_family(line, 4.0, 2.0, delta_max=1e-12, delta_min=1e-15, delta_count=5)
    got = run_holder(fam, params(), 2.0, T=0.2)
    assert got.verdict.startswith("degenerate")
    assert_same_report(got, oracle_run_holder(fam, params(), 2.0, T=0.2))


def test_bad_case_raises_before_any_step(line, monkeypatch):
    def never(*args, **kw):
        raise AssertionError("a bad case must raise before its family steps")

    monkeypatch.setattr(holder, "solve_stack", never)
    # r = 0.5 is below the r >= 1 floor when rho is not trivial
    with pytest.raises(ValueError, match=r"got r=0\.5, s=4\.0"):
        sweep([(4.0, 0.5), (4.0, 2.0), (3.75, 1.0)], line, params(), T=0.3)


def test_family_error_propagates_out_of_the_sweep(line, monkeypatch):
    real = holder.solve_stack

    def fails_at_375(grid, members, p, s, *args, **kw):
        if s == 3.75:
            raise ValueError("planted family failure")
        return real(grid, members, p, s, *args, **kw)

    monkeypatch.setattr(holder, "solve_stack", fails_at_375)
    with pytest.raises(ValueError, match="planted family failure"):
        sweep([(3.75, 1.0), (4.0, 2.0), (3.75, 1.25)], line, params(), T=0.3)


def test_programming_errors_propagate_out_of_the_sweep(line, monkeypatch, tmp_path,
                                                        capsys):
    def broken(*args, **kw):
        raise RuntimeError("not a rejected case")

    monkeypatch.setattr(holder, "solve_stack", broken)
    with pytest.raises(RuntimeError, match="not a rejected case"):
        sweep([(4.0, 2.0), (3.4, 1.0)], line, params(), T=0.3)
    # the command reports it as a failed run (exit 2), not a failed verdict
    cfg = parse_config("", "holder", str(tmp_path / "h"), {"N": "64", "T": "0.1"})
    assert execute(cfg) == 2
    assert "not a rejected case" in capsys.readouterr().err


def test_parallel_sweep_writes_the_serial_bytes(pools):
    grid = Grid(128, 64.0)
    cases = [(4.0, 2.0), (3.75, 1.0), (4.0, 3.5), (4.0, 2.0), (4.5, 2.0)]
    outputs = {}
    for workers in (1, 2):
        reports = sweep(cases, grid, params(), T=0.3,
                        direction_kind="random-decay", seed=5, workers=workers)
        outputs[workers] = _holder_artifacts(reports)
    assert pools == [2]  # three s-groups on two workers; the serial run built none
    assert len(outputs[1]) == 2 + len(cases)
    assert outputs[1] == outputs[2]


# ---------------------------------------------------------- bounded memory

def test_holder_memory_does_not_grow_with_the_horizon():
    grid = Grid(1024, 64.0)
    fam = make_family(grid, 4.0, 2.0)
    run_holder(fam, params(), 2.0, T=0.05)  # warm the operator caches
    peaks = []
    for T in (0.15, 0.6):
        tracemalloc.start()
        try:
            run_holder(fam, params(), 2.0, T=T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # storing every member's trajectory would roughly double the peak here
    assert peaks[1] <= 1.1 * peaks[0]
