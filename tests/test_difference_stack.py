"""The stacked difference solver against the Field-by-Field oracle.

`diff_solve` steps w = U - V as a one-row stack of half spectra through
the primal RK4 stages; `per_field_difference` keeps the loop it replaced.
Both must give the same defect bit for bit, and a non-finite stage,
state or exact difference must raise instead of vanishing in the max.
"""

import dataclasses

import numpy as np
import pytest

from chslab.fields import gaussian_bump
from chslab.solver import NonFiniteStateError, State, SystemParams, diff_solve, solve
from chslab.spectral import Field, Grid
from per_field_difference import oracle_diff_solve


def bump_state(grid, amp):
    u = gaussian_bump(grid, amplitude=amp)
    rho = gaussian_bump(grid, amplitude=0.2, width=grid.length / 20.0)
    return State(u, rho, 0.0)


def pair(params, amps=(0.5, 0.45), t_end=0.25, dt=0.0125):
    grid = Grid(256, 64.0)
    return tuple(solve(bump_state(grid, amp), params, 4.0, t_end, dt_policy=dt)
                 for amp in amps)


CASES = {
    # criterion 06's inputs, at its r and at the default r = s - 1
    "criterion-06-r3": (SystemParams(), {}, 3.0),
    "criterion-06-default-r": (SystemParams(), {}, None),
    "dt-0.01": (SystemParams(), dict(amps=(0.5, 0.4), t_end=0.2, dt=0.01), None),
    "dt-0.02": (SystemParams(), dict(amps=(0.5, 0.4), t_end=0.2, dt=0.02), None),
    "b2.3-kappa0.7-alpha0.1": (SystemParams(b=2.3, kappa=0.7, alpha=0.1), {}, 3.0),
}


@pytest.mark.parametrize("name", CASES)
def test_defect_matches_the_field_oracle_bit_for_bit(name):
    params, kw, r = CASES[name]
    a, b = pair(params, **kw)
    got = diff_solve(a, b, params, r=r).defect
    assert got > 0.0
    assert got == oracle_diff_solve(a, b, params, r=r)


def test_identical_runs_give_exactly_zero_on_both_paths():
    p = SystemParams(b=2.3, kappa=0.7, alpha=0.1)
    a, _ = pair(p)
    assert diff_solve(a, a, p).defect == 0.0
    assert oracle_diff_solve(a, a, p) == 0.0


def _plant_nan(traj, step):
    st = traj.states[step]
    half = st.u.half.copy()
    half[5] = np.nan
    states = list(traj.states)
    states[step] = State(Field(st.grid, half), st.rho, st.t)
    return dataclasses.replace(traj, states=tuple(states))


@pytest.mark.parametrize("step", [10, -1])
def test_a_non_finite_driver_raises(step):
    # mid-run, and in the last stored state, where no later step would see it
    p = SystemParams()
    a, b = pair(p)
    with pytest.raises(NonFiniteStateError):
        diff_solve(a, _plant_nan(b, step), p, r=3.0)


def test_an_overflowing_exact_difference_raises():
    # +-1e308 in a mode the 2/3 rule drops leaves every stage finite, but
    # the exact difference u - v of the last state overflows
    p = SystemParams()
    a, b = pair(p)
    mode = a.grid.n // 2 - 1
    planted = []
    for traj, value in ((a, 1e308), (b, -1e308)):
        st = traj.final
        half = st.u.half.copy()
        half[mode] = value
        states = traj.states[:-1] + (State(Field(st.grid, half), st.rho, st.t),)
        planted.append(dataclasses.replace(traj, states=states))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError):
        diff_solve(*planted, p, r=3.0)
