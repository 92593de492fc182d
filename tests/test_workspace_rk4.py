"""RK4 stages in a per-run workspace against the allocating oracle.

Every stage of `solver._rk4` writes into a `solver._Workspace` that one
run allocates and owns.  `allocating_rk4` keeps the path that allocated
each stage afresh; both perform the same floating-point operations in the
same order, so steps, runs with aborting rows and difference steps agree
bit for bit.  Two runs at once on one (grid, params) must not share
buffers, and a warm one-row step must not allocate its stages.
"""

import sys
import threading
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from allocating_rk4 import AllocatingOperators, allocating_rk4, allocating_step
from chslab import solver
from chslab.fields import gaussian_bump, random_halves
from chslab.solver import (
    BLOWUP,
    COMPLETED,
    RESOLUTION_EXHAUSTED,
    State,
    SystemParams,
    _operators,
    _rk4,
    _Workspace,
    solve,
    solve_stack,
    step_rk4,
)
from chslab.spectral import Grid, half_dealias_mask


def random_stack(grid, rows, seed, amp_u=0.3, amp_rho=0.1):
    """(rows, 2, N/2+1) stack of random 2/3-truncated (u, rho) pairs."""
    seeds = range(seed, seed + 2 * rows)
    u = random_halves(grid, 4.0, seeds[:rows], amplitude=amp_u)
    rho = random_halves(grid, 2.0, seeds[rows:], amplitude=amp_rho)
    return np.where(half_dealias_mask(grid), np.stack([u, rho], axis=1), 0.0)


PARAMS = dict(
    b=st.floats(-5.0, 5.0).filter(lambda b: abs(b - 1.0) > 1e-3),
    kappa=st.floats(-3.0, 3.0),
    alpha=st.floats(-3.0, 3.0),
)


@given(log_n=st.integers(3, 12), rows=st.integers(1, 6), spare=st.integers(0, 2),
       seed=st.integers(0, 2**31), dt=st.floats(1e-3, 0.2), **PARAMS)
def test_workspace_step_is_the_allocating_step(log_n, rows, spare, seed, dt, b, kappa, alpha):
    # a workspace larger than the stack is used through its leading slices
    grid = Grid(2**log_n, 20.0)
    params = SystemParams(b=b, kappa=kappa, alpha=alpha)
    stack = random_stack(grid, rows, seed)
    before = stack.copy()
    work = _Workspace(grid.n, rows + spare)
    new, bad = step_rk4(grid, stack, params, dt, work)
    want, want_bad = allocating_step(grid, stack, params, dt)
    assert np.array_equal(new, want)
    assert np.array_equal(bad, want_bad)
    assert np.array_equal(stack, before)
    # the workspace keeps nothing between steps that changes the next one
    again, _ = step_rk4(grid, stack, params, dt, work)
    assert np.array_equal(again, want)


@given(log_n=st.integers(3, 12), seed=st.integers(0, 2**31), dt=st.floats(1e-3, 0.2),
       **PARAMS)
def test_workspace_difference_step_is_the_allocating_step(log_n, seed, dt, b, kappa, alpha):
    grid = Grid(2**log_n, 20.0)
    params = SystemParams(b=b, kappa=kappa, alpha=alpha)
    pairs = random_stack(grid, 7, seed)  # U and V at the step's start, midpoint and end
    w = pairs[6:] - 0.9 * pairs[5:6]
    oracle = AllocatingOperators(grid, params)
    drivers = oracle.values(pairs[:6].reshape(3, 2, 2, -1))
    want, want_bad = allocating_rk4(lambda x, c: oracle.diff_rhs(x, *drivers[int(2 * c)]),
                                    w, dt)
    ops, work = _operators(grid, params), _Workspace(grid.n, 1)
    got, bad = _rk4(lambda x, c, out: ops.diff_rhs(x, *drivers[int(2 * c)], work, out),
                    w, dt, work)
    assert np.array_equal(got, want)
    assert np.array_equal(bad, want_bad)


def _assert_same_runs(got, want):
    # an aborting row's last ledger entry may be NaN on both paths
    for a, b in zip(got, want, strict=True):
        assert a.status == b.status
        for name in ("times", "norm_u", "norm_rho", "y"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
        for sa, sb in zip(a.states, b.states, strict=True):
            assert sa.t == sb.t
            assert np.array_equal(sa.u.half, sb.u.half, equal_nan=True)
            assert np.array_equal(sa.rho.half, sb.rho.half, equal_nan=True)


# gaussian pairs on the unit circle: with tail_limit 1e-3 at b = 2.5 the
# first overflows in its first step's stages, the third and fifth outgrow
# the grid after 27 and 6 steps, the other two complete 50 steps
ABORTING = (1e100, 0.5, 2.0, 0.3, 10.0)


def _aborting_run(params):
    grid = Grid(64, 2.0 * np.pi)
    rho = gaussian_bump(grid, amplitude=0.3, width=0.5).half
    stack = np.array([[gaussian_bump(grid, amplitude=a, width=0.8).half, rho] for a in ABORTING])
    with (np.errstate(all="ignore"), patch.object(solver, "_TAIL_LIMIT", 1e-3),
          patch.object(solver, "_BLOWUP_THRESHOLD", np.inf)):
        return solve_stack(grid, stack, params, 2.5, 0.5, dt_policy=0.01, seam_policy="ignore")


@settings(max_examples=10)
@given(**PARAMS)
def test_run_with_rows_aborting_mid_run_is_the_allocating_run(b, kappa, alpha):
    # rows leave the stack mid-run and the others step on in the leading
    # slices of the run's workspace
    params = SystemParams(b=b, kappa=kappa, alpha=alpha)
    got = _aborting_run(params)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "step_rk4", allocating_step)
        want = _aborting_run(params)
    _assert_same_runs(got, want)


def test_the_aborting_rows_leave_the_stack_at_different_steps():
    got = _aborting_run(SystemParams(b=2.5, kappa=0.7, alpha=0.3))
    assert [t.status for t in got] == [BLOWUP, COMPLETED, RESOLUTION_EXHAUSTED, COMPLETED,
                                       RESOLUTION_EXHAUSTED]
    assert [len(t.times) for t in got] == [1, 51, 28, 51, 7]


def test_two_threads_solving_at_once_give_the_serial_bytes():
    # both runs share one cached operator table; each must own its buffers
    grid, params = Grid(1024, 64.0), SystemParams(b=2.3, kappa=0.7, alpha=0.2)
    states = [State(gaussian_bump(grid, amplitude=a),
                    gaussian_bump(grid, amplitude=0.2, width=grid.length / 20.0), 0.0)
              for a in (0.5, 0.9, 0.7, 0.3)]
    kw = dict(dt_policy=0.01, dense=False)
    serial = [solve(s, params, 4.0, 0.6, **kw) for s in states]
    results = [None] * len(states)
    barrier = threading.Barrier(len(states))

    def run(i):
        barrier.wait()
        results[i] = solve(states[i], params, 4.0, 0.6, **kw)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(states))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    _assert_same_runs(results, serial)


def test_warm_one_row_step_allocates_no_stage_buffers():
    # the stages, transforms and bilinear rows live in the workspace; what
    # is left is the new (1, 2, N/2+1) stack (66 KB), which holds the slope
    # sum, numpy's transient buffer for the broadcast products of the value
    # spectra (about 100 KB) and small masks: 163 KB.  An allocating step
    # peaks near 0.9 MB here
    grid = Grid(4096, 64.0)
    stack = random_stack(grid, 1, 3)
    params = SystemParams(b=2.3, kappa=0.7, alpha=0.2)
    work = _Workspace(grid.n, 1)
    step_rk4(grid, stack, params, 1e-3, work)
    tracemalloc.start()
    try:
        step_rk4(grid, stack, params, 1e-3, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
