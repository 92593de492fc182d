"""Initial-data constructors.

Localized bumps for solver runs (widths chosen so the default shapes
decay below 1e-10 well before the periodic seam) and seeded random
fields with prescribed Sobolev regularity for the inequality ensembles.

A draw is a pure function of its seed: the first N standard normals of
numpy's default generator, PCG64 seeded with that seed.  Seeding through
SeedSequence costs more than drawing a row, and the ensembles reuse their
seeds across probes, so the freshly seeded PCG64 state of recent seeds is
cached (a few hundred bytes each, whatever N) and each row reseeds one
local generator from it.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import Field, Grid

__all__ = ["gaussian_bump", "sech2_bump", "cosine_mode", "random_field",
           "random_halves", "INITIAL_KINDS", "initial_pair"]

INITIAL_KINDS = ("gaussian", "sech2", "random", "zero")


def gaussian_bump(grid: Grid, amplitude: float = 1.0, width: float | None = None) -> Field:
    """amplitude * exp(-((x - L/2)/width)^2), centred on the domain.

    Default width L/16 leaves the edge values at ~1e-18 * amplitude.
    """
    if width is None:
        width = grid.length / 16.0
    vals = amplitude * np.exp(-(((grid.x - grid.length / 2.0) / width) ** 2))
    return Field.from_values(grid, vals)


def sech2_bump(grid: Grid, amplitude: float = 1.0, width: float | None = None) -> Field:
    """amplitude * sech^2((x - L/2)/width), centred on the domain.

    sech^2 has fat exponential tails; the default width L/32 is the
    widest that keeps the edge values under 1e-10 * amplitude.
    """
    if width is None:
        width = grid.length / 32.0
    vals = amplitude / np.cosh((grid.x - grid.length / 2.0) / width) ** 2
    return Field.from_values(grid, vals)


def cosine_mode(grid: Grid, k: int, amplitude: float = 1.0) -> Field:
    """Single Fourier mode amplitude * cos(xi_k x)."""
    if not 0 <= k <= grid.n // 2:
        raise ValueError(f"mode index {k} outside [0, {grid.n // 2}]")
    return Field.from_values(grid, amplitude * np.cos(2.0 * np.pi * k * grid.x / grid.length))


# distinct seeds whose seeded PCG64 state is kept; the default ineq run
# draws from 400
_SEED_STATES = 1024


@functools.lru_cache(maxsize=_SEED_STATES)
def _seeded_state(seed: int) -> dict:
    """State of PCG64(seed) before its first draw (as default_rng(seed))."""
    return np.random.PCG64(seed).state


def _noise(n: int, seeds) -> np.ndarray:
    """Half spectra g_0..g_{N/2} of unit-variance complex Gaussians, one row per seed.

    Row i is built from the first N standard normals x of default_rng(seeds[i]):
    g_0 = x_0, g_k = (x_k + i x_{k+N/2-1}) / sqrt(2) for 0 < k < N/2 and
    g_{N/2} = x_{N-1}.  g_0 and the Nyquist g_{N/2} are real, so the
    Hermitian extension is the spectrum of a real field.  The generator is
    local to the call and reseeded per row from the cached seeded state.
    """
    bits = np.random.PCG64(0)  # reseeded before every row
    gen = np.random.Generator(bits)
    x = np.empty((len(seeds), n))
    for row, seed in zip(x, seeds):
        bits.state = _seeded_state(int(seed))
        gen.standard_normal(out=row)
    half = n // 2
    g = np.empty((len(seeds), half + 1), dtype=complex)
    g[:, 0] = x[:, 0]
    g[:, 1:half] = (x[:, 1:half] + 1j * x[:, half:n - 1]) / np.sqrt(2.0)
    g[:, half] = x[:, n - 1]
    return g


def random_halves(grid: Grid, smoothness: float, seeds, gamma: float = 0.6,
                  amplitude: float = 1.0) -> np.ndarray:
    """Half spectra of random_field draws, one row per seed.

    Row i is drawn from seeds[i] alone, so it is bit-identical to the half
    spectrum of random_field(grid, smoothness, gamma, amplitude, seeds[i]).
    """
    if not gamma > 0.5:
        raise ValueError(f"decay exponent gamma must exceed 1/2, got {gamma}")
    weights = (1.0 + grid.xi[: grid.n // 2 + 1] ** 2) ** (-(smoothness + gamma) / 2.0)
    return amplitude * weights * _noise(grid.n, seeds)


def random_field(grid: Grid, smoothness: float, gamma: float = 0.6,
                 amplitude: float = 1.0, seed: int = 0) -> Field:
    """Random real field with coefficients amplitude * (1+xi^2)^{-(smoothness+gamma)/2} g_k.

    g_k are unit-variance complex Gaussians on the half spectrum (g_0 and
    g_{N/2} real), deterministic in the seed.  The H^smoothness norm
    has expected square L * amplitude^2 * sum_k (1+xi_k^2)^{-gamma},
    finite precisely because gamma > 1/2 mimics integrability on the line.
    """
    return Field(grid, random_halves(grid, smoothness, [seed], gamma, amplitude)[0])


def initial_pair(grid: Grid, kind: str, amplitude: float, rho_amplitude: float,
                 seed: int, width: float | None = None) -> tuple[Field, Field]:
    """Initial data (u, rho) of one kind; rho is scaled by rho_amplitude * amplitude.

    width sets the bump width of u (None: the bump's default); rho gets
    a fixed narrower bump, and random kinds draw u and rho from seeds
    seed and seed + 1.
    """
    rho_amp = rho_amplitude * amplitude
    if kind == "gaussian":
        return (gaussian_bump(grid, amplitude, width),
                gaussian_bump(grid, rho_amp, grid.length / 20.0))
    if kind == "sech2":
        return (sech2_bump(grid, amplitude, width),
                sech2_bump(grid, rho_amp, grid.length / 40.0))
    if kind == "random":
        return (random_field(grid, 6.0, amplitude=amplitude, seed=seed),
                random_field(grid, 4.0, amplitude=rho_amp, seed=seed + 1))
    if kind == "zero":
        return Field.zero(grid), Field.zero(grid)
    raise ValueError(f"unknown initial data kind {kind!r}; pick one of {INITIAL_KINDS}")
