"""Each run's `time_error_bound` bounds its time error, and rows never mix in it.

The bound sums RK4's FSAL error estimates (h/6)(k4 - k5) over the steps,
in the run's own y norm.  The true time error of a run is the y-norm
distance of its final state from that of a run on the same grid with at
least 16 times the steps, whose own error is some 16^4 times smaller.
The bound over-estimated the true error by 1.7 to 52 times on the `solve`
cases and by 1.3 to 4 on the peakons below.
"""

from unittest.mock import patch

import numpy as np
import pytest

from chslab import solver
from chslab.fields import gaussian_bump, initial_pair
from chslab.solver import (BLOWUP, COMPLETED, RESOLUTION_EXHAUSTED, SystemParams,
                           solve_stack, y_norms)
from chslab.spectral import Grid

from peakon import peakon_stack

# the reference runs at a 16th of the smaller step, so it has at least 16x the steps of both
CFLS = (0.3, 0.9)


def time_errors(grid, stack, params, s, t_end, **step):
    """[(bound, true time error)] of the run at each of CFLS times `step`'s scale."""
    def run(scale):
        return solve_stack(grid, stack, params, s, t_end, dense=False, seam_policy="ignore",
                           **{key: scale * value for key, value in step.items()})[0]

    reference = run(CFLS[0] / 16.0).final
    out = []
    for cfl in CFLS:
        traj = run(cfl)
        assert traj.status == COMPLETED
        final = traj.final
        gap = np.array([final.u.half - reference.u.half, final.rho.half - reference.rho.half])
        out.append((traj.time_error_bound, float(y_norms(gap, grid, s))))
    return out


@pytest.mark.parametrize("kind, n, t_end", [
    ("gaussian", 256, 1.0),  # the `solve` defaults
    ("sech2", 256, 1.0),
    ("random", 256, 0.3),
    ("gaussian", 1024, 0.5),
])
def test_the_bound_holds_on_the_solve_runs(kind, n, t_end):
    grid = Grid(n, 64.0)
    u, rho = initial_pair(grid, kind, 1.0, 0.3, 0)
    for bound, error in time_errors(grid, np.array([[u.half, rho.half]]), SystemParams(),
                                    4.0, t_end, cfl=1.0):
        assert 0.0 < error <= bound


@pytest.mark.parametrize("b", [2.0, 3.0, 0.5])
def test_the_bound_holds_on_the_peakon(b):
    grid = Grid(256, 32.0)
    for bound, error in time_errors(grid, peakon_stack(grid, 4.0, 16.0), SystemParams(b=b),
                                    1.0, 1.0, dt_policy=grid.dx):
        assert 0.0 < error <= bound


# gaussian pairs on the unit circle under a 1e-3 tail limit: the first row
# overflows in its first step, the third and fifth outgrow the grid after 27
# and 6 steps, and the others complete 50
AMPLITUDES = (1e100, 0.5, 2.0, 0.3, 10.0)
PARAMS = SystemParams(b=2.5, kappa=0.7, alpha=0.3)


def aborting_run(amplitudes, t_end=0.5, s=(2.5, 3.0, 2.5, 3.5, 2.5)):
    grid = Grid(64, 2.0 * np.pi)
    rho = gaussian_bump(grid, amplitude=0.3, width=0.5).half
    stack = np.array([[gaussian_bump(grid, amplitude=a, width=0.8).half, rho]
                      for a in amplitudes])
    with (np.errstate(all="ignore"), patch.object(solver, "_TAIL_LIMIT", 1e-3),
          patch.object(solver, "_BLOWUP_THRESHOLD", np.inf)):
        return solve_stack(grid, stack, PARAMS, s[:len(stack)], t_end, dt_policy=0.01,
                           seam_policy="ignore")


def test_a_stacked_row_has_the_bound_it_has_alone():
    # the aborting rows leave the stack ahead of the running ones, whose k4
    # must move down with them
    stacked = aborting_run(AMPLITUDES)
    assert [t.status for t in stacked] == [BLOWUP, COMPLETED, RESOLUTION_EXHAUSTED, COMPLETED,
                                           RESOLUTION_EXHAUSTED]
    for i, traj in enumerate(stacked):
        alone, = aborting_run(AMPLITUDES[i:i + 1], s=(traj.s,))
        assert traj.time_error_bound == alone.time_error_bound


def test_an_aborted_row_bounds_every_step_but_its_last():
    # the step into the state the watchdog stopped never gets its k5
    blown, _, exhausted, _, _ = aborting_run(AMPLITUDES)
    assert blown.time_error_bound == 0.0
    assert len(exhausted.times) == 28 and np.isfinite(exhausted.time_error_bound)
    # the same row run to the start of its last step completes, with every step counted
    again, = aborting_run([2.0], t_end=exhausted.times[-2], s=(exhausted.s,))
    assert again.status == COMPLETED and len(again.times) == 27
    assert again.time_error_bound == pytest.approx(exhausted.time_error_bound, rel=1e-9)
