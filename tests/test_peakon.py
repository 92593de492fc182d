"""The solver converges to an exact peakon: a closed-form check of its b-bracket and RK4.

A single peakon (p = 4 at L/2 on L = 32, kappa = 1, rho = 0, alpha = 0)
moves rigidly at c = p g_per(0) (see `peakon`).  The solver runs it to
T = 1 at a fixed dt of 0.3 dx and of 0.9 dx, in the norm index s = 1:
the peakon is not in H^4, so at s = 4 the watchdog ends the run
`resolution-exhausted` at t = 0.  The datum reaches the periodic seam,
so the seam check is off.

The L^2 error over the retained band |k| <= N/3 must fall at least 4x
per doubling of N.  The solver gave factors of 8.3 to 11.1 at 0.3 dx and
5.4 to 6.2 at 0.9 dx; a one-part-in-a-few-hundred change to a b-bracket
coefficient or to the RK4 weight dt/6 gives factors near 1.
"""

import numpy as np
import pytest

from chslab.solver import COMPLETED, SystemParams, solve_stack
from chslab.spectral import Grid

from peakon import band_l2, peakon_speed, peakon_stack

L, P, T = 32.0, 4.0, 1.0


def peakon_error(b: float, n: int, dt_per_dx: float) -> float:
    """Band-limited L^2 error at T of the solver's run of the peakon, at dt = dt_per_dx * dx."""
    grid = Grid(n, L)
    traj, = solve_stack(grid, peakon_stack(grid, P, L / 2.0), SystemParams(b=b, kappa=1.0),
                        1.0, T, dt_policy=dt_per_dx * grid.dx, dense=False,
                        seam_policy="ignore")
    assert traj.status == COMPLETED
    exact = peakon_stack(grid, P, L / 2.0 + peakon_speed(P, L) * T)[0]
    return band_l2(grid, traj.final.u.half - exact[0])


@pytest.mark.parametrize("dt_per_dx", [0.3, 0.9])
@pytest.mark.parametrize("b", [2.0, 3.0, 0.5])
def test_the_peakon_error_falls_fourfold_per_doubling_of_n(b, dt_per_dx):
    errors = np.array([peakon_error(b, n, dt_per_dx) for n in (256, 512, 1024)])
    assert (errors[:-1] / errors[1:] >= 4.0).all(), errors
