"""Full-spectrum oracle and test-only Field helpers.

A Field stores only its rfft half spectrum.  The functions named `full_*`
are the full complex-spectrum bodies that representation replaced: the
complex FFT in and out, the full-sum Sobolev norm, padding with the
+-N/2 Nyquist split and truncation with its fold.  They are the oracle
for the half-spectrum code; `full_mollifier` is the full-spectrum rule
the mollifier tables were built by.  `inner`, `truncate_to` and
`mollify` are Field helpers that only tests use.
"""

import numpy as np

from chslab.mollifier import bump_transform_raw
from chslab.spectral import Field


def full_from_values(grid, values):
    """Full spectrum in FFT order of real grid values, by the complex FFT."""
    return np.fft.fft(np.asarray(values, dtype=float)) / grid.n


def full_values(c):
    """Grid values of a full spectrum, by the complex inverse FFT."""
    return np.fft.ifft(c * c.size).real


def full_sobolev_norm(grid, c, s):
    """sqrt(L * sum (1 + xi^2)^s |c_k|^2) summed over the full spectrum."""
    weights = (1.0 + grid.xi**2) ** s
    return float(np.sqrt(grid.length * np.sum(weights * np.abs(c) ** 2)))


def full_pad(c, n):
    """Zero-pad a full spectrum to n modes, splitting the Nyquist across +-N/2."""
    m = c.size
    out = np.zeros(n, dtype=complex)
    out[: m // 2] = c[: m // 2]
    out[-(m // 2 - 1):] = c[-(m // 2 - 1):]
    out[m // 2] = 0.5 * c[m // 2]
    out[-(m // 2)] = 0.5 * np.conj(c[m // 2])
    return out


def full_truncate(c, n):
    """Keep the band of n modes; the +-n/2 pair folds onto the one Nyquist slot."""
    out = np.empty(n, dtype=complex)
    out[: n // 2] = c[: n // 2]
    out[n // 2 + 1:] = c[-(n // 2) + 1:]
    out[n // 2] = c[n // 2] + c[-(n // 2)]
    return out


def inner(f, g):
    """L2 inner product L * mean(f g) (exact for the stored bands)."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return float(f.grid.length * np.mean(f.values * g.values))


def truncate_to(f, grid):
    """Drop modes outside the band of a coarser grid with the same length.

    The +-N/2 pair of the source folds onto the single Nyquist slot of the
    target, matching what sampling on the coarse points would produce.
    """
    if grid.length != f.grid.length or grid.n > f.grid.n:
        raise ValueError("target grid must coarsen the source grid")
    if grid.n == f.grid.n:
        return f
    half = f.half[: grid.n // 2 + 1].copy()
    half[-1] = 2.0 * half[-1].real
    return Field(grid, half)


def mollify(f, table):
    """Low-pass the field through a half-spectrum mollifier multiplier."""
    if table.shape != f.half.shape:
        raise ValueError("mollifier table was built on a different grid")
    return Field(f.grid, f.half * table)


def full_mollifier(grid, eps):
    """The mollifier table by the full-spectrum rule, sliced to the half spectrum.

    np.unique runs over |eps xi| of all N modes in FFT order, the table
    is spread back over them, and only modes 0..N/2 are kept.
    """
    uniq, inverse = np.unique(np.abs(eps * grid.xi), return_inverse=True)
    raw = bump_transform_raw(uniq)
    return np.clip((raw / raw[0])[inverse], -1.0, 1.0)[: grid.n // 2 + 1]
