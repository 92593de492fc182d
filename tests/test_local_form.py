"""The right-hand side satisfies the local form of the system, for every b.

With m = (1 - d^2/dx^2)^2 u and P the 2/3 projection, the tendencies of
band-limited data obey

    (1 - d^2/dx^2)^2 du = -P[u m_x + b u_x m + kappa rho rho_x] + alpha u_x,
    drho = -P[u rho_x + (b - 1) u_x rho].

The coefficients below are typed from this local form, not from the
solver's bracket, and the products are formed here on the doubled grid,
where the product of two fields banded below N/3 is exact.  The check
therefore holds at roundoff for every b != 1, kappa and alpha, and a
wrong coefficient in the bracket breaks it.
"""

import numpy as np
import pytest

from chslab.solver import SystemParams, _operators, _Workspace
from chslab.spectral import Grid


def _banded_pairs(grid: Grid, rows: int, rng) -> np.ndarray:
    """(rows, 2, N/2+1) random real data with every mode |k| < N/3."""
    half = grid.n // 2 + 1
    band = (grid.n - 1) // 3
    stack = np.zeros((rows, 2, half), dtype=complex)
    stack[..., :band + 1] = (rng.standard_normal((rows, 2, band + 1))
                             + 1j * rng.standard_normal((rows, 2, band + 1)))
    stack[..., 0] = stack[..., 0].real
    return stack


def _local_form(grid: Grid, stack: np.ndarray, b: float, kappa: float, alpha: float):
    """The two sides of each local-form identity, from exact doubled-grid products."""
    n, half = grid.n, grid.n // 2 + 1
    ik = 1j * grid.xi[:half]
    helm2 = (1.0 + grid.xi[:half] ** 2) ** 2
    keep = np.abs(grid.modes[:half]) <= n // 3  # P

    def values(c):  # grid values on the doubled grid of half spectra on `grid`
        fine = np.zeros(c.shape[:-1] + (n + 1,), dtype=complex)
        fine[..., :half] = c
        return np.fft.irfft(fine, n=2 * n, axis=-1, norm="forward")

    def project(v):  # half spectrum on `grid` of P applied to doubled-grid values
        return np.where(keep, np.fft.rfft(v, axis=-1, norm="forward")[..., :half], 0.0)

    u_hat, rho_hat = stack[:, 0], stack[:, 1]
    m_hat = helm2 * u_hat
    u, ux, m, mx, rho, rhox = values(np.stack(
        [u_hat, ik * u_hat, m_hat, ik * m_hat, rho_hat, ik * rho_hat]))
    u_side = -project(u * mx + b * ux * m + kappa * rho * rhox) + alpha * ik * u_hat
    rho_side = -project(u * rhox + (b - 1.0) * ux * rho)
    return helm2, u_side, rho_side


@pytest.mark.parametrize("n, length", [(32, 2.0 * np.pi), (64, 10.0), (128, 40.0)])
@pytest.mark.parametrize("seed", range(4))
def test_rhs_satisfies_the_local_form(n, length, seed):
    rng = np.random.default_rng([seed, n])
    b = 1.0
    while abs(b - 1.0) < 0.1:
        b = rng.uniform(-3.0, 5.0)
    kappa, alpha = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
    grid = Grid(n, length)
    stack = _banded_pairs(grid, 3, rng)

    ops = _operators(grid, SystemParams(b=b, kappa=kappa, alpha=alpha))
    du, drho = ops.rhs(stack, _Workspace(n, len(stack)), np.empty_like(stack)).swapaxes(0, 1)

    helm2, u_side, rho_side = _local_form(grid, stack, b, kappa, alpha)
    # roundoff relative to the largest term each identity balances
    np.testing.assert_allclose(helm2 * du, u_side, rtol=0,
                               atol=1e-13 * np.abs(u_side).max())
    np.testing.assert_allclose(drho, rho_side, rtol=0, atol=1e-13 * np.abs(rho_side).max())
