"""The allocating right-hand side and RK4 stages: the oracle of the workspace path.

`AllocatingOperators` keeps the operator tables of `solver._Operators`
and the bodies its methods had before every stage wrote into a
`solver._Workspace`: each evaluation allocates its value spectra, value
rows, bilinear rows and transform output afresh.  `allocating_rk4` is the
stage formula that went with them.  The workspace path performs the same
floating-point operations in the same order, so the two agree bit for bit.
"""

import numpy as np

from chslab.solver import _Operators


class AllocatingOperators(_Operators):
    def values(self, stack: np.ndarray) -> np.ndarray:
        """Value stacks of (u, rho) rows (..., 2, N/2+1): (..., 6, N), one irfft."""
        spec = np.empty(stack.shape[:-2] + (6, self.half), dtype=complex)
        np.multiply(self.analysis[:4], stack[..., :1, :], out=spec[..., :4, :])
        np.multiply(self.analysis[4:], stack[..., 1:, :], out=spec[..., 4:, :])
        return np.fft.irfft(spec, n=self.grid.n, axis=-1)

    def bilinear(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """B(a, c): the rows (bracket, u-transport, rho tendency).

        B(U, U) is the quadratic part of the right-hand side at U, so
        B(U, U) - B(V, V) = B(U - V, U) + B(V, U - V) exactly.
        """
        b, kap = self.params.b, self.params.kappa
        u, ux, uxx, _, rho, _ = np.moveaxis(a, -2, 0)
        c = np.moveaxis(c, -2, 0)
        bracket = ((0.5 * b) * u * c[0] + (3.0 - b) * ux * c[1]
                   - (0.5 * (b + 5.0)) * uxx * c[2] + (b - 5.0) * ux * c[3]
                   + (0.5 * kap) * rho * c[4])
        return np.stack([bracket, u * c[1], -(u * c[5] + (b - 1.0) * ux * c[4])], axis=-2)

    def tendencies(self, rows: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """(du, drho) rows from the bilinear rows plus the alpha term in u."""
        out = np.fft.rfft(rows, axis=-1)
        out *= self.synthesis
        du = out[..., 0, :] + out[..., 1, :] + self.linear * stack[..., 0, :]
        return np.stack([du, out[..., 2, :]], axis=-2)

    def rhs(self, stack: np.ndarray) -> np.ndarray:
        """B(U, U) plus the alpha term for every row of a (P, 2, N/2+1) stack."""
        vals = self.values(stack)
        return self.tendencies(self.bilinear(vals, vals), stack)

    def diff_rhs(self, stack: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """B(w, U) + B(V, w) plus the alpha term for rows w, from U's and V's values."""
        vals = self.values(stack)
        return self.tendencies(self.bilinear(vals, us) + self.bilinear(vs, vals), stack)


def allocating_rk4(tendency, stack: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of each row, and the mask of rows with a non-finite stage.

    `tendency(x, c)` is the right-hand side at x, c = 0, 1/2 or 1 dt into the step.
    """
    k1 = tendency(stack, 0.0)
    k2 = tendency(x2 := stack + (0.5 * dt) * k1, 0.5)
    k3 = tendency(x3 := stack + (0.5 * dt) * k2, 0.5)
    k4 = tendency(x4 := stack + dt * k3, 1.0)
    finite = np.isfinite([stack, x2, x3, x4]).all(axis=(0, 2, 3))
    return stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), ~finite


def allocating_step(grid, stack: np.ndarray, params, dt: float, work=None):
    """`solver.step_rk4` on the allocating path, which takes no workspace: `work` is unread."""
    ops = AllocatingOperators(grid, params)
    return allocating_rk4(lambda x, _: ops.rhs(x), stack, dt)
