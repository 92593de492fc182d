"""Transform-level oracles.

Everything here is checkable by hand on one or two Fourier modes, so
tolerances are at roundoff scale.  Frozen constants carry a short
derivation note where the arithmetic is not obvious.  The closed-form
`line_fit` replaced np.polyfit in the Holder fit and the frequency
sweep; np.polyfit stays here as its oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chslab.spectral import (
    Field,
    Grid,
    bessel_pow,
    commutator_bessel,
    commutator_bessel_dx,
    dealias_truncate,
    dx,
    helmholtz_inverse_dx,
    line_fit,
    pad_to,
    product,
    product_exact,
    sobolev_norm,
    sup_norm,
)
from chslab.inequalities import product_negative_sweep
from full_spectrum import inner, truncate_to


def sin_field(grid, k=1):
    return Field.from_values(grid, np.sin(k * 2.0 * np.pi / grid.length * grid.x))


def cos_field(grid, k=1):
    return Field.from_values(grid, np.cos(k * 2.0 * np.pi / grid.length * grid.x))


def smooth_random(grid, seed=0, decay=3.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n, dtype=complex)
    half = grid.n // 2
    amp = (1.0 + np.arange(1, half) ** 2) ** (-decay / 2.0)
    z = rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)
    c[1:half] = amp * z
    c[-1:-half:-1] = np.conj(c[1:half])
    c[0] = rng.standard_normal()
    return Field(grid, c[: half + 1])


# ---------------------------------------------------------------- grids

def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        Grid(96, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 1.0)
    with pytest.raises(ValueError):
        Grid(64, 0.0)


def test_grid_rejects_non_finite_length():
    for length in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Grid(64, length)


def test_grid_samples_and_spacing(circle):
    assert circle.dx == pytest.approx(2.0 * np.pi / 64, rel=1e-15)
    assert circle.x[0] == 0.0
    assert circle.x[-1] == pytest.approx(circle.length - circle.dx, rel=1e-15)
    d = circle.doubled()
    assert d.n == 128 and d.length == circle.length


def test_frequencies_follow_fft_order(circle):
    assert circle.modes[0] == 0
    assert circle.modes[1] == 1
    assert circle.modes[-1] == -1
    # unit circle: mode k has frequency exactly k
    assert np.allclose(circle.xi, circle.modes.astype(float), atol=0)


# ------------------------------------------------- single-mode identities

def test_sine_coefficients(circle):
    c = sin_field(circle).coefficients
    # sin x = -(i/2) e^{ix} + (i/2) e^{-ix}
    assert abs(c[1] - (-0.5j)) < 1e-12
    assert abs(c[-1] - 0.5j) < 1e-12
    mask = np.ones(64, dtype=bool)
    mask[[1, -1]] = False
    assert np.abs(c[mask]).max() < 1e-12


def test_derivative_of_sine_is_cosine(circle):
    err = dx(sin_field(circle), 1) - cos_field(circle)
    assert sup_norm(err) < 1e-12


def test_second_derivative_flips_sign(circle):
    err = dx(cos_field(circle, 3), 2) + 9.0 * cos_field(circle, 3)
    assert sup_norm(err) < 1e-11


def test_smoothing_then_derivative_on_cosine(circle):
    # (1 - dxx)^{-2} cos x = cos x / 4, then d/dx gives -sin x / 4
    out = helmholtz_inverse_dx(cos_field(circle))
    err = out - (-0.25) * sin_field(circle)
    assert sup_norm(err) < 1e-14


def test_sine_norm_closed_form(circle):
    # ||sin||_{H^s}^2 = L * 2^s * (1/4 + 1/4) = pi * 2^s on the unit circle
    f = sin_field(circle)
    for s in (0.0, 1.0, 2.5, 4.0, -1.5):
        assert sobolev_norm(f, s) == pytest.approx(
            math.sqrt(math.pi) * 2.0 ** (s / 2.0), rel=1e-12)


def test_l2_norm_matches_quadrature(circle):
    f = smooth_random(circle, seed=3)
    quad = math.sqrt(circle.dx * float(np.sum(f.values**2)))
    assert sobolev_norm(f, 0.0) == pytest.approx(quad, rel=1e-12)


def test_inner_product_polarization(circle):
    f = smooth_random(circle, seed=1)
    g = smooth_random(circle, seed=2)
    lhs = inner(f, g)
    rhs = 0.25 * (sobolev_norm(f + g, 0.0) ** 2 - sobolev_norm(f - g, 0.0) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_sup_norm_of_shifted_cosine(circle):
    f = Field.from_values(circle, 2.0 + np.cos(circle.x))
    assert sup_norm(f) == pytest.approx(3.0, rel=1e-13)


# ------------------------------------------------------ smoothing scale

def test_smoothing_identity_at_zero(circle):
    f = smooth_random(circle, seed=5)
    assert np.array_equal(bessel_pow(f, 0.0).coefficients, f.coefficients)


def test_smoothing_group_law(circle):
    f = smooth_random(circle, seed=6)
    for a, b in [(1.0, 1.0), (2.0, -2.0), (-3.5, 1.25), (6.0, -6.0), (-6.0, 3.0)]:
        two_step = bessel_pow(bessel_pow(f, a), b)
        one_step = bessel_pow(f, a + b)
        # error scales with the amplified output, not the input
        scale = max(sobolev_norm(one_step, 0.0), sobolev_norm(f, 0.0))
        assert sobolev_norm(two_step - one_step, 0.0) < 1e-10 * scale


@given(st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-6.0, max_value=6.0))
def test_smoothing_group_law_property(a, b):
    grid = Grid(64, 2.0 * np.pi)
    f = smooth_random(grid, seed=9)
    two = bessel_pow(bessel_pow(f, a), b)
    one = bessel_pow(f, a + b)
    scale = max(sobolev_norm(one, 0.0), sobolev_norm(f, 0.0))
    assert sobolev_norm(two - one, 0.0) < 1e-10 * scale


def test_smoothing_inverts_cleanly(circle):
    f = smooth_random(circle, seed=7)
    back = bessel_pow(bessel_pow(f, 4.0), -4.0)
    assert sobolev_norm(back - f, 0.0) < 1e-11 * sobolev_norm(f, 0.0)


def test_norm_commutes_with_smoothing(circle):
    # ||Lambda^sigma f||_{s} = ||f||_{s+sigma} by definition of both sides
    f = smooth_random(circle, seed=8)
    assert sobolev_norm(bessel_pow(f, 1.5), 2.0) == pytest.approx(
        sobolev_norm(f, 3.5), rel=1e-12)


# ------------------------------------------------------------- realness

def test_real_input_stays_real_through_multipliers(circle):
    f = smooth_random(circle, seed=11)
    for g in (dx(f, 1), bessel_pow(f, -2.3), helmholtz_inverse_dx(f)):
        c = g.coefficients
        assert np.abs(c[1:] - np.conj(c[-1:0:-1])).max() < 1e-14
        assert abs(c[0].imag) < 1e-15


# --------------------------------------------------- dealiasing and pads

def test_dealias_clears_top_band(circle):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    c[1:] = 0.5 * (c[1:] + np.conj(c[-1:0:-1]))  # hermitian so values are real
    c[0] = c[0].real
    c[32] = c[32].real
    f = Field(circle, c[:33])
    g = dealias_truncate(f)
    keep = np.abs(circle.modes) <= 64 // 3
    assert np.all(g.coefficients[~keep] == 0)
    assert np.array_equal(g.coefficients[keep], f.coefficients[keep])


def test_pad_round_trip_is_exact(circle):
    f = smooth_random(circle, seed=12)
    fine = circle.doubled()
    back = truncate_to(pad_to(f, fine), circle)
    assert np.abs(back.coefficients - f.coefficients).max() == 0.0


def test_pad_interpolates_at_shared_points(circle):
    f = smooth_random(circle, seed=13)
    g = pad_to(f, circle.doubled())
    assert np.abs(g.values[::2] - f.values).max() < 1e-13


def test_dealiased_product_matches_projected_exact_product(circle):
    f = dealias_truncate(smooth_random(circle, seed=14, decay=1.0))
    g = dealias_truncate(smooth_random(circle, seed=15, decay=1.0))
    fast = product(f, g, dealias=True)
    slow = dealias_truncate(truncate_to(product_exact(f, g), circle))
    assert sobolev_norm(fast - slow, 0.0) < 1e-13 * max(1.0, sobolev_norm(slow, 0.0))


def test_product_of_two_cosines(circle):
    # cos x * cos 2x = (cos 3x + cos x) / 2, alias-free at this size
    p = product(cos_field(circle, 1), cos_field(circle, 2))
    expect = 0.5 * (cos_field(circle, 3) + cos_field(circle, 1))
    assert sup_norm(p - expect) < 1e-13


@given(st.integers(min_value=0, max_value=200))
def test_derivative_is_linear_in_products(seed):
    # projection commutes with d/dx, so Leibniz holds exactly mode by mode
    grid = Grid(64, 2.0 * np.pi)
    f = smooth_random(grid, seed=seed)
    g = smooth_random(grid, seed=seed + 1000)
    lhs = dx(product_exact(f, g), 1)
    rhs = product_exact(dx(f, 1), g) + product_exact(f, dx(g, 1))
    scale = max(1.0, sobolev_norm(lhs, 0.0))
    assert sobolev_norm(lhs - rhs, 0.0) < 1e-11 * scale


# ---------------------------------------------------------- commutators

def test_commutator_order_two_hand_expansion(circle):
    # [Lambda^2, cos x] cos 2x = (5/2) cos 3x - (3/2) cos x:
    #   Lambda^2 (cos x cos 2x) = 5 cos 3x + cos x, minus
    #   cos x * 5 cos 2x = (5/2)(cos 3x + cos x)
    out = commutator_bessel(2.0, cos_field(circle), cos_field(circle, 2))
    fine = circle.doubled()
    expect = 2.5 * cos_field(fine, 3) - 1.5 * cos_field(fine, 1)
    assert sup_norm(out - expect) < 1e-12


def test_commutator_with_derivative_hand_expansion(circle):
    # [Lambda^{-1} d/dx, cos x] sin 2x, worked out mode by mode:
    #   Lambda^{-1} d/dx (cos x sin 2x) = (3/(2 sqrt 10)) cos 3x + (1/(2 sqrt 2)) cos x
    #   cos x Lambda^{-1} d/dx sin 2x  = (1/sqrt 5)(cos 3x + cos x)
    out = commutator_bessel_dx(-1.0, cos_field(circle), sin_field(circle, 2))
    fine = circle.doubled()
    a3 = 3.0 / (2.0 * math.sqrt(10.0)) - 1.0 / math.sqrt(5.0)
    a1 = 1.0 / (2.0 * math.sqrt(2.0)) - 1.0 / math.sqrt(5.0)
    expect = a3 * cos_field(fine, 3) + a1 * cos_field(fine, 1)
    assert sup_norm(out - expect) < 1e-13


def test_commutator_vanishes_at_order_zero(circle):
    f = dealias_truncate(smooth_random(circle, seed=20))
    g = dealias_truncate(smooth_random(circle, seed=21))
    out = commutator_bessel(0.0, f, g)
    assert sup_norm(out) < 1e-13


def test_commutator_vanishes_for_constant_multiplier(circle):
    ones = Field.from_values(circle, np.ones(circle.n))
    g = dealias_truncate(smooth_random(circle, seed=22))
    # roundoff in the padded constant is amplified by (1 + xi^2)^{1.25}
    # at the top retained mode, so zero here means ~1e-11
    assert sup_norm(commutator_bessel(2.5, ones, g)) < 5e-11
    assert sup_norm(commutator_bessel_dx(-1.0, ones, g)) < 1e-12


def test_commutator_is_antisymmetric_under_swap(circle):
    # [Lambda^r, f] g + [Lambda^r, g] f = Lambda^r(fg) - f Lambda^r g
    #                                   + Lambda^r(gf) - g Lambda^r f
    # which equals 2 Lambda^r (fg) - (f Lambda^r g + g Lambda^r f); check
    # the equivalent direct identity instead of trusting the algebra twice
    f = dealias_truncate(smooth_random(circle, seed=23))
    g = dealias_truncate(smooth_random(circle, seed=24))
    fine = circle.doubled()
    lhs = commutator_bessel(2.0, f, g) + Field.from_values(
        fine, pad_to(f, fine).values * bessel_pow(pad_to(g, fine), 2.0).values)
    rhs = bessel_pow(Field.from_values(
        fine, pad_to(f, fine).values * pad_to(g, fine).values), 2.0)
    assert sup_norm(lhs - rhs) < 1e-11


# ---------------------------------------------------------- field algebra

def test_field_arithmetic_matches_pointwise(circle):
    f = smooth_random(circle, seed=30)
    g = smooth_random(circle, seed=31)
    assert np.allclose((f + g).values, f.values + g.values, atol=1e-13)
    assert np.allclose((f - g).values, f.values - g.values, atol=1e-13)
    assert np.allclose((2.5 * f).values, 2.5 * f.values, atol=1e-13)


def test_fields_reject_grid_mismatch(circle):
    other = Grid(128, 2.0 * np.pi)
    f = smooth_random(circle, seed=32)
    g = smooth_random(other, seed=32)
    with pytest.raises(ValueError):
        _ = f + g
    with pytest.raises(ValueError):
        product(f, g)


def test_norm_monotone_in_smoothness_index(circle):
    f = smooth_random(circle, seed=33)
    norms = [sobolev_norm(f, s) for s in (-2.0, 0.0, 1.0, 2.5, 4.0)]
    assert all(a <= b * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------- line fit


@pytest.mark.parametrize("live", range(3, 8))
def test_line_fit_matches_polyfit_on_holder_ladders(live):
    # the Holder ladder's 7 deltas; the noise-floor mask leaves 3 to 7 of them
    logd = np.log10(np.geomspace(1e-2, 1e-5, 7))
    rng = np.random.default_rng(live)
    for beta in (0.5, 1.0, 1.5, 3.0):
        for keep in (np.arange(live), np.sort(rng.choice(7, live, replace=False))):
            x = logd[keep]
            y = beta * x + 0.57 + 0.02 * rng.standard_normal(live)
            slope, intercept = np.polyfit(x, y, 1)
            assert line_fit(x, y) == pytest.approx((slope, intercept), rel=1e-12)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_line_fit_matches_polyfit_on_the_sweep_log_modes(n):
    # 2 to 7 sweep modes fit on these grids
    for triple in ((0.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        modes, ratios, slope = product_negative_sweep(Grid(n, 2.0 * np.pi), *triple)
        x, y = np.log(modes.astype(float)), np.log(ratios)
        assert slope == line_fit(x, y)[0]
        assert line_fit(x, y) == pytest.approx(tuple(np.polyfit(x, y, 1)), rel=1e-12)
