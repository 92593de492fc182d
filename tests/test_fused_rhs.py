"""The fused real-FFT right-hand side against the Field-by-Field oracle.

`oracle_rhs` is the original evaluation of the nonlocal system: every
quadratic term is its own dealiased `product` of full complex spectra.
The solver's kernel evaluates the same algebra from one batched irfft and
one batched rfft on the half spectrum, so the two agree to roundoff on
every real field.
"""

import numpy as np
from hypothesis import given, strategies as st

from chslab.fields import random_field
from chslab.solver import State, SystemParams, _Operators, rhs
from chslab.spectral import (
    Field,
    Grid,
    dealias_truncate,
    dx,
    helmholtz_inverse_dx,
    product,
)


def oracle_rhs(state: State, params: SystemParams) -> tuple[Field, Field]:
    """Right-hand side of the nonlocal form; all products dealiased."""
    u, rho = state.u, state.rho
    b, kap, al = params.b, params.kappa, params.alpha

    ux = dx(u, 1)
    uxx = dx(u, 2)
    uxxx = dx(u, 3)

    bracket = (
        (0.5 * b) * product(u, u, dealias=True)
        + (3.0 - b) * product(ux, ux, dealias=True)
        - (0.5 * (b + 5.0)) * product(uxx, uxx, dealias=True)
        + (b - 5.0) * product(ux, uxxx, dealias=True)
        + (0.5 * kap) * product(rho, rho, dealias=True)
        - al * u
    )
    du = -product(u, ux, dealias=True) - helmholtz_inverse_dx(bracket)
    drho = (
        -product(u, dx(rho, 1), dealias=True)
        - (b - 1.0) * product(ux, rho, dealias=True)
    )
    return du, drho


def random_dealiased(grid, smoothness, amplitude, seed):
    """Random real field in the solver's data space, cut to the 2/3 band.

    H^s decay keeps the cancellation inside the bracket at roundoff; white
    noise at N = 1024 on a short domain loses about 1e-12 of relative
    accuracy there in either evaluation.
    """
    return dealias_truncate(random_field(grid, smoothness, amplitude=amplitude,
                                         seed=seed))


@given(
    log_n=st.integers(4, 10),
    length=st.floats(1.0, 100.0),
    seed=st.integers(0, 2**31),
    amp_u=st.floats(1e-3, 10.0),
    amp_rho=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    b=st.floats(-5.0, 5.0).filter(lambda b: abs(b - 1.0) > 1e-3),
    kappa=st.floats(-3.0, 3.0),
    alpha=st.floats(-3.0, 3.0),
)
def test_fused_rhs_matches_oracle(log_n, length, seed, amp_u, amp_rho, b,
                                  kappa, alpha):
    grid = Grid(2**log_n, length)
    state = State(random_dealiased(grid, 4.0, amp_u, seed),
                  random_dealiased(grid, 2.0, amp_rho, seed + 1), 0.0)
    params = SystemParams(b=b, kappa=kappa, alpha=alpha)
    for got, want in zip(rhs(state, params), oracle_rhs(state, params)):
        scale = np.abs(want.coefficients).max()
        assert np.abs(got.coefficients - want.coefficients).max() <= 1e-13 * scale


def test_fused_rhs_matches_oracle_on_undealiased_input(line):
    # the alpha term acts on the whole spectrum of u, products on its
    # retained band only, exactly as in the oracle
    rng = np.random.default_rng(5)
    u = Field.from_values(line, rng.standard_normal(line.n))
    rho = Field.from_values(line, rng.standard_normal(line.n))
    params = SystemParams(b=2.5, kappa=0.3, alpha=1.7)
    for got, want in zip(rhs(State(u, rho), params), oracle_rhs(State(u, rho), params)):
        scale = np.abs(want.coefficients).max()
        assert np.abs(got.coefficients - want.coefficients).max() <= 1e-13 * scale


def test_fused_rhs_output_is_real_and_dealiased(line):
    state = State(random_dealiased(line, 4.0, 0.5, 11),
                  random_dealiased(line, 2.0, 0.2, 12))
    for f in rhs(state, SystemParams(alpha=0.4)):
        c = f.coefficients
        assert np.array_equal(c[1:], np.conj(c[-1:0:-1]))
        assert np.all(c[np.abs(line.modes) > line.n // 3] == 0.0)


def test_operator_tables_keep_their_inline_expressions_bit_for_bit():
    # the tables come from spectral's half-spectrum multipliers; these are
    # the expressions they were built from inline, on |xi|.  Only the
    # Nyquist entry differs in sign, and the 2/3 mask zeroes it
    for n, length in ((8, 1.0), (256, 64.0), (4096, 2.0 * np.pi)):
        grid = Grid(n, length)
        ops = _Operators(grid, SystemParams(alpha=1.7))
        xi = np.abs(grid.xi[: n // 2 + 1])
        mask = np.abs(grid.modes[: n // 2 + 1]) <= n // 3
        deriv = [(1j * xi) ** k for k in range(4)]
        helm = 1j * xi / (1.0 + xi**2) ** 2
        helm[-1] = 0.0
        one = np.ones_like(helm)
        assert np.array_equal(ops.analysis, (n * mask) * np.array(deriv + deriv[:2]))
        assert np.array_equal(ops.synthesis, (mask / n) * np.array([-helm, -one, one]))
        assert np.array_equal(ops.linear, 1.7 * helm)
