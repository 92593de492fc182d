"""Initial data constructors: determinism, decay, and calibrated size."""

import threading

import numpy as np
import pytest

from chslab import fields
from chslab.fields import (
    INITIAL_KINDS,
    cosine_mode,
    gaussian_bump,
    initial_pair,
    random_field,
    random_halves,
    sech2_bump,
)
from chslab.spectral import Grid, bessel_pow, sobolev_norm


def expected_sq_norm(grid: Grid, smoothness: float, gamma: float,
                     amplitude: float) -> float:
    """Closed-form ensemble mean of ||random_field||^2 in H^smoothness."""
    return float(grid.length * amplitude**2 * np.sum((1.0 + grid.xi**2) ** (-gamma)))


@pytest.fixture
def grid():
    return Grid(256, 64.0)


def test_bumps_vanish_at_the_seam(grid):
    for make in (gaussian_bump, sech2_bump):
        f = make(grid, amplitude=1.0)
        edge = (grid.x < 0.1 * grid.length) | (grid.x > 0.9 * grid.length)
        assert np.abs(f.values[edge]).max() < 1e-10


def test_bump_peaks_at_center(grid):
    f = gaussian_bump(grid, amplitude=2.0)
    assert f.values.max() == pytest.approx(2.0, rel=1e-6)
    assert grid.x[np.argmax(f.values)] == pytest.approx(grid.length / 2.0, abs=grid.dx)


def test_cosine_mode_has_two_coefficients():
    grid = Grid(64, 2.0 * np.pi)
    f = cosine_mode(grid, 5, amplitude=3.0)
    c = f.coefficients
    assert c[5] == pytest.approx(1.5, rel=1e-13)
    assert c[-5] == pytest.approx(1.5, rel=1e-13)
    mask = np.ones(64, dtype=bool)
    mask[[5, -5]] = False
    assert np.abs(c[mask]).max() < 1e-14


def test_cosine_mode_rejects_unresolvable_index():
    grid = Grid(64, 2.0 * np.pi)
    with pytest.raises(ValueError):
        cosine_mode(grid, 40)
    with pytest.raises(ValueError):
        cosine_mode(grid, -1)
    # mode zero is just a constant, still legitimate
    assert cosine_mode(grid, 0, amplitude=2.0).values == pytest.approx(2.0)


def test_random_field_is_seed_deterministic(grid):
    a = random_field(grid, 3.0, seed=42)
    b = random_field(grid, 3.0, seed=42)
    c = random_field(grid, 3.0, seed=43)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)


def draw_oracle(grid, smoothness, gamma, amplitude, seed):
    """The full-spectrum draw random_field made before the stacked builder."""
    rng = np.random.default_rng(seed)
    n, half = grid.n, grid.n // 2
    g = np.zeros(n, dtype=complex)
    g[0] = rng.standard_normal()
    re = rng.standard_normal(half - 1)
    im = rng.standard_normal(half - 1)
    g[1:half] = (re + 1j * im) / np.sqrt(2.0)
    g[-(half - 1):] = np.conj(g[half - 1:0:-1])
    g[half] = rng.standard_normal()
    return amplitude * (1.0 + grid.xi**2) ** (-(smoothness + gamma) / 2.0) * g


def oracle_halves(grid, smoothness, seeds, gamma=0.6, amplitude=1.0):
    """Half spectra of the oracle draws, one row per seed."""
    return np.array([draw_oracle(grid, smoothness, gamma, amplitude, seed)[: grid.n // 2 + 1]
                     for seed in seeds])


@pytest.mark.parametrize("n", [2**p for p in range(3, 13)])  # N = 8 .. 4096
def test_stacked_draws_are_bit_identical_to_single_fields(n):
    grid = Grid(n, 5.0)
    seeds = np.arange(3, 23, 2)
    stack = random_halves(grid, 2.5, seeds, gamma=0.7, amplitude=1.3)
    for row, seed in zip(stack, seeds):
        single = random_field(grid, 2.5, 0.7, 1.3, int(seed)).coefficients
        assert single.tobytes() == draw_oracle(grid, 2.5, 0.7, 1.3, seed).tobytes()
        assert row.tobytes() == single[: n // 2 + 1].tobytes()


def test_huge_and_repeated_seeds_draw_as_alone():
    grid = Grid(64, 3.0)
    seeds = [2**64, 5, 2**70 + 3, 5, 2**64, 2**64 - 1]
    stack = random_halves(grid, 2.0, seeds)
    assert stack.tobytes() == oracle_halves(grid, 2.0, seeds).tobytes()
    assert np.array_equal(stack[1], stack[3]) and np.array_equal(stack[0], stack[4])
    assert not np.array_equal(stack[0], stack[5])


def test_draws_survive_eviction_from_the_seed_cache():
    grid = Grid(8, 1.0)
    bound = fields._SEED_STATES
    seeds = list(range(10**6, 10**6 + bound + 40))
    first = random_halves(grid, 0.0, seeds)
    info = fields._seeded_state.cache_info()
    assert info.currsize == bound == info.maxsize
    again = random_halves(grid, 0.0, seeds[:50])  # evicted by the later seeds
    assert first.tobytes() == oracle_halves(grid, 0.0, seeds).tobytes()
    assert again.tobytes() == first[:50].tobytes()


def test_concurrent_draws_equal_the_serial_draws():
    grid = Grid(256, 5.0)
    # multiples of 15 are drawn by both threads; together they overflow the cache
    jobs = [list(range(0, 2400, 3)), list(range(0, 2400, 5))]
    serial = [random_halves(grid, 1.0, seeds) for seeds in jobs]
    got = [[], []]
    start = threading.Barrier(2)

    def draw(t):
        start.wait()
        for block in range(0, len(jobs[t]), 16):
            got[t].append(random_halves(grid, 1.0, jobs[t][block:block + 16]))

    threads = [threading.Thread(target=draw, args=(t,)) for t in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for t in (0, 1):
        assert np.concatenate(got[t]).tobytes() == serial[t].tobytes()


def test_random_field_zero_amplitude_is_zero(grid):
    f = random_field(grid, 3.0, amplitude=0.0, seed=1)
    assert np.all(f.coefficients == 0)


def test_random_field_rejects_non_integrable_decay(grid):
    with pytest.raises(ValueError):
        random_field(grid, 3.0, gamma=0.5)
    with pytest.raises(ValueError):
        random_field(grid, 3.0, gamma=0.2)


def test_random_field_is_smoothing_of_flat_sample(grid):
    # the decay profile factorizes, so a smoothness-sigma draw is exactly
    # the order -sigma smoothing of the flat draw with the same seed
    flat = random_field(grid, 0.0, seed=7)
    shaped = random_field(grid, 2.5, seed=7)
    diff = shaped - bessel_pow(flat, -2.5)
    assert sobolev_norm(diff, 0.0) < 1e-12 * sobolev_norm(shaped, 0.0)


def test_ensemble_mean_square_norm_is_calibrated(grid):
    # law of large numbers at 500 draws; 5% is ~3 sigma for this ensemble
    sq = [sobolev_norm(random_field(grid, 2.0, seed=k), 2.0) ** 2
          for k in range(500)]
    expect = expected_sq_norm(grid, 2.0, gamma=0.6, amplitude=1.0)
    assert np.mean(sq) == pytest.approx(expect, rel=0.05)


def test_expected_norm_scales_with_amplitude(grid):
    one = expected_sq_norm(grid, 2.0, gamma=0.6, amplitude=1.0)
    three = expected_sq_norm(grid, 2.0, gamma=0.6, amplitude=3.0)
    assert three == pytest.approx(9.0 * one, rel=1e-13)


def test_random_field_values_are_real(grid):
    f = random_field(grid, 1.5, seed=11)
    c = f.coefficients
    assert np.abs(c[1:] - np.conj(c[-1:0:-1])).max() < 1e-15


def test_initial_pair_kinds(grid):
    L = grid.length
    cases = {
        "gaussian": (gaussian_bump(grid, 0.8, 3.0), gaussian_bump(grid, 0.4, L / 20.0)),
        "sech2": (sech2_bump(grid, 0.8, 3.0), sech2_bump(grid, 0.4, L / 40.0)),
        "random": (random_field(grid, 6.0, amplitude=0.8, seed=5),
                   random_field(grid, 4.0, amplitude=0.4, seed=6)),
    }
    for kind, (u_want, rho_want) in cases.items():
        u, rho = initial_pair(grid, kind, 0.8, 0.5, seed=5, width=3.0)
        assert np.array_equal(u.coefficients, u_want.coefficients), kind
        assert np.array_equal(rho.coefficients, rho_want.coefficients), kind
    u, rho = initial_pair(grid, "zero", 0.8, 0.5, seed=5)
    assert sobolev_norm(u, 0.0) == 0.0 and sobolev_norm(rho, 0.0) == 0.0
    assert set(cases) | {"zero"} == set(INITIAL_KINDS)
    with pytest.raises(ValueError):
        initial_pair(grid, "bogus", 1.0, 0.5, seed=0)


def test_initial_pair_default_width_is_the_bump_default(grid):
    u, _ = initial_pair(grid, "sech2", 1.0, 0.3, seed=0)
    assert np.array_equal(u.coefficients, sech2_bump(grid, 1.0).coefficients)
