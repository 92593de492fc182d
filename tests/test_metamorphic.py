"""The right-hand side and the stepper commute with the system's symmetries.

Two maps of a periodic pair (u, rho) are exact on the grid:

- translation by one grid cell, (u, rho)(x) -> (u, rho)(x - dx), which
  multiplies mode k of each half spectrum by e^{-i k dx};
- at alpha = 0, the reflection (u, rho)(x) -> (-u(-x), rho(-x)), which on
  the half spectra of real fields is u -> -conj(u), rho -> conj(rho).

The system is invariant under both (the alpha u_x term alone breaks the
reflection), and so is every step of the dealiased scheme: the 2/3 mask
and the Fourier multipliers are diagonal and even in k, and pointwise
products on the grid commute with both maps.  So the stacked right-hand
side, and a short fixed-dt run, of transformed data equal the transformed
output at roundoff.  A term that depends on the position on the grid, or
one of the wrong parity, breaks this.
"""

import numpy as np
import pytest

from chslab.fields import random_halves
from chslab.solver import COMPLETED, SystemParams, _operators, _Workspace, solve_stack
from chslab.spectral import Grid

GRIDS = [(32, 2.0 * np.pi), (64, 10.0), (128, 40.0)]


def _translate(grid: Grid, stack: np.ndarray) -> np.ndarray:
    return stack * np.exp(-1j * grid.xi[:grid.n // 2 + 1] * grid.dx)


def _reflect(stack: np.ndarray) -> np.ndarray:
    return np.conj(stack) * np.array([-1.0, 1.0])[:, None]


def _pairs(grid: Grid, rows: int, seed: int, smoothness: float = 1.0) -> np.ndarray:
    """(rows, 2, N/2+1) random real pairs over the whole band, aliased modes included."""
    halves = random_halves(grid, smoothness, [100 * seed + i for i in range(2 * rows)])
    return halves.reshape(rows, 2, -1)


def _params(seed: int, alpha=None) -> SystemParams:
    rng = np.random.default_rng(seed)
    b = 1.0
    while abs(b - 1.0) < 0.1:
        b = rng.uniform(-3.0, 5.0)
    kappa, drawn = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
    return SystemParams(b=b, kappa=kappa, alpha=drawn if alpha is None else alpha)


def _rhs(grid: Grid, params: SystemParams, stack: np.ndarray) -> np.ndarray:
    return _operators(grid, params).rhs(stack, _Workspace(grid.n, len(stack)),
                                        np.empty_like(stack))


def _mismatch(grid, params, stack, transform) -> float:
    """Largest gap between rhs(T stack) and T rhs(stack), relative to the largest tendency."""
    out = _rhs(grid, params, stack)
    return np.abs(_rhs(grid, params, transform(stack)) - transform(out)).max() / np.abs(out).max()


@pytest.mark.parametrize("n, length", GRIDS)
@pytest.mark.parametrize("seed", range(3))
def test_rhs_commutes_with_translation_by_one_cell(n, length, seed):
    grid = Grid(n, length)
    stack = _pairs(grid, 3, seed)
    assert _mismatch(grid, _params(seed), stack, lambda c: _translate(grid, c)) < 1e-13


@pytest.mark.parametrize("n, length", GRIDS)
@pytest.mark.parametrize("seed", range(3))
def test_rhs_commutes_with_reflection_at_alpha_zero(n, length, seed):
    grid = Grid(n, length)
    stack = _pairs(grid, 3, seed)
    assert _mismatch(grid, _params(seed, alpha=0.0), stack, _reflect) < 1e-13
    # the alpha u_x term is odd under the map, so the check tells it apart
    assert _mismatch(grid, _params(seed, alpha=0.5), stack, _reflect) > 1e-3


def _final_halves(grid: Grid, params: SystemParams, stack: np.ndarray) -> np.ndarray:
    """The (P, 2, N/2+1) final stack of 10 fixed steps, after checking every row completed."""
    trajs = solve_stack(grid, stack, params, 4.0, 0.05, dt_policy=0.005, dense=False,
                        seam_policy="ignore")
    assert [tr.status for tr in trajs] == [COMPLETED] * len(stack)
    assert all(len(tr.times) == 11 for tr in trajs)
    return np.array([[tr.final.u.half, tr.final.rho.half] for tr in trajs])


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["translation", "reflection"])
def test_fixed_dt_run_commutes_with_the_symmetries(name, seed):
    grid = Grid(64, 10.0)
    params = _params(seed, alpha=None if name == "translation" else 0.0)
    transform = (lambda c: _translate(grid, c)) if name == "translation" else _reflect
    stack = _pairs(grid, 2, seed, smoothness=7.0)  # smooth enough to keep the grid
    # rows never mix, so one run steps the data and its image side by side
    final = _final_halves(grid, params, np.concatenate([stack, transform(stack)]))
    np.testing.assert_allclose(final[2:], transform(final[:2]), rtol=0,
                               atol=1e-13 * np.abs(final).max())
