"""Field-by-Field difference oracle: `diff_solve` before it was stacked.

`oracle_diff_rhs` evaluates B(w, U) + B(V, w) plus the alpha term from
one three-row value stack (w, U, V).  `oracle_diff_solve` runs its own
RK4 loop on Field objects, with the drivers at the half step taken as
midpoints of the stored states, and returns the defect: the max over
the stored times of ||w - (u - v)||_{H^r} + ||eta - (rho - theta)||_{H^{r-2}}.
The stacked `solver.diff_solve` must reproduce that defect bit for bit.
"""

import numpy as np

from allocating_rk4 import AllocatingOperators
from chslab.spectral import Field, sobolev_norm


def oracle_diff_rhs(w, eta, u, v, rho, theta, params):
    ops = AllocatingOperators(w.grid, params)
    pairs = np.array([[w.half, eta.half], [u.half, rho.half], [v.half, theta.half]])
    dw, us, vs = ops.values(pairs)
    dwt, deta = ops.tendencies(ops.bilinear(dw, us) + ops.bilinear(vs, dw), pairs[0])
    return Field(w.grid, dwt), Field(w.grid, deta)


def _midpoint(a, b):
    return 0.5 * (a.u + b.u), 0.5 * (a.rho + b.rho)


def oracle_diff_solve(traj_u, traj_v, params, r=None) -> float:
    if r is None:
        r = traj_u.s - 1.0
    su, sv = traj_u.states, traj_v.states
    w, eta = su[0].u - sv[0].u, su[0].rho - sv[0].rho
    defect = 0.0
    for i in range(len(su) - 1):
        dt = su[i + 1].t - su[i].t
        mu, mrho = _midpoint(su[i], su[i + 1])
        mv, mtheta = _midpoint(sv[i], sv[i + 1])

        k1w, k1e = oracle_diff_rhs(w, eta, su[i].u, sv[i].u, su[i].rho, sv[i].rho, params)
        half = 0.5 * dt
        k2w, k2e = oracle_diff_rhs(w + half * k1w, eta + half * k1e,
                                   mu, mv, mrho, mtheta, params)
        k3w, k3e = oracle_diff_rhs(w + half * k2w, eta + half * k2e,
                                   mu, mv, mrho, mtheta, params)
        k4w, k4e = oracle_diff_rhs(w + dt * k3w, eta + dt * k3e, su[i + 1].u, sv[i + 1].u,
                                   su[i + 1].rho, sv[i + 1].rho, params)
        sixth = dt / 6.0
        w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        eta = eta + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        exact_w = su[i + 1].u - sv[i + 1].u
        exact_e = su[i + 1].rho - sv[i + 1].rho
        defect = max(defect, sobolev_norm(w - exact_w, r)
                     + sobolev_norm(eta - exact_e, r - 2.0))
    return defect
