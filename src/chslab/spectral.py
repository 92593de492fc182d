"""Fourier toolkit for real periodic functions on [0, L).

Conventions
-----------
A real field on an N-point grid is stored as its rfft half spectrum: the
coefficients c_k of the modes k = 0..N/2, shape (N/2 + 1,), with

    f(x) = sum_k c_k exp(i xi_k x),      xi_k = 2 pi k / L,

so c_k approximates (1/L) int_0^L f(x) exp(-i xi_k x) dx.  The negative
modes c_{-k} = conj(c_k) are never stored; `Field.coefficients` derives
the full spectrum in FFT order on demand.  Values come from one irfft
and go back by one rfft, so a Field is real by construction.  The norm

    ||f||_{H^s}^2 = L * sum_k (1 + xi_k^2)^s |c_k|^2

sums over the full spectrum (the half spectrum's modes 0 < k < N/2 count
twice) and agrees with the integral L2 norm at s = 0 (Parseval).

Every linear operator is a half-spectrum multiplier (`half_dx`,
`half_bessel`, `half_helmholtz_dx`).  A stack of fields is an array of
half spectra, shape (..., N/2 + 1), whose rows the stacked helpers
transform and reduce one by one; the Field functions are their one-row
calls.  The product of two band-limited fields fits the band of the
doubled grid, where `product_exact` and the commutators are alias-free;
`product(..., dealias=True)` applies the 2/3 rule instead.  Odd-order
derivatives zero the unpaired Nyquist mode, whose derivative is not real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid", "Field", "dx", "bessel_pow", "helmholtz_inverse_dx", "sobolev_norm",
    "sup_norm", "product", "product_exact", "pad_to", "commutator_bessel",
    "commutator_bessel_dx", "half_weights", "sobolev_norms", "half_dx",
    "half_bessel", "half_helmholtz_dx", "half_dealias_mask", "half_values",
    "product_half", "commutator_inputs", "commutator_half", "line_fit",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L) with a power-of-two point count."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not 0.0 < self.length < np.inf:
            raise ValueError(f"grid length must be positive and finite, got {self.length}")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers 2 pi k / L in FFT order (lone -N/2 entry at Nyquist)."""
        return 2.0 * np.pi * self.modes / self.length

    @property
    def dx(self) -> float:
        return self.length / self.n

    def doubled(self) -> "Grid":
        return Grid(2 * self.n, self.length)


class Field:
    """Real periodic function stored as its rfft half spectrum.

    `half` (modes 0..N/2) is canonical; values and the full spectrum are
    derived on each read, one irfft for the values.  Instances are
    immutable: every operation returns a new Field.
    """

    __slots__ = ("grid", "half")

    def __init__(self, grid: Grid, half: np.ndarray):
        if np.shape(half) != (grid.n // 2 + 1,):
            raise ValueError(f"half spectrum shape {np.shape(half)} does not match "
                             f"grid size {grid.n} (want N/2 + 1 modes)")
        self.grid = grid
        self.half = np.asarray(half, dtype=complex)
        self.half.flags.writeable = False

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "Field":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"value length {values.shape} does not match grid size {grid.n}")
        return cls(grid, _half_coefficients(values))

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n // 2 + 1, dtype=complex))

    @property
    def coefficients(self) -> np.ndarray:
        """The full spectrum in FFT order: the Hermitian extension of half."""
        return np.concatenate([self.half, np.conj(self.half[-2:0:-1])])

    @property
    def values(self) -> np.ndarray:
        return half_values(self.half)

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.half + other.half)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.half - other.half)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.half * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.half)

    def __repr__(self):
        return f"Field(n={self.grid.n}, L={self.grid.length})"


def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


# -- half-spectrum multipliers -------------------------------------------


def half_dx(grid: Grid, order: int = 1) -> np.ndarray:
    """The d^order/dx^order multiplier (i xi)^order on the half spectrum.

    The unpaired Nyquist mode is zeroed for odd orders.
    """
    mult = (1j * grid.xi[: grid.n // 2 + 1]) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return mult


def half_bessel(grid: Grid, s: float) -> np.ndarray:
    """The bessel_pow multiplier (1 + xi^2)^(s/2) on the half spectrum."""
    return (1.0 + grid.xi[: grid.n // 2 + 1] ** 2) ** (s / 2.0)


def half_helmholtz_dx(grid: Grid) -> np.ndarray:
    """The d/dx (1 - d^2/dx^2)^{-2} multiplier i xi / (1 + xi^2)^2, Nyquist zeroed."""
    xi = grid.xi[: grid.n // 2 + 1]
    mult = 1j * xi / (1.0 + xi**2) ** 2
    mult[-1] = 0.0
    return mult


def half_dealias_mask(grid: Grid) -> np.ndarray:
    """The 2/3 rule on the half spectrum: True where |k| <= N/3 (never at N/2)."""
    return np.abs(grid.modes[: grid.n // 2 + 1]) <= grid.n // 3


@lru_cache(maxsize=64)
def half_weights(grid: Grid, s: float) -> np.ndarray:
    """(1 + xi^2)^s on the half spectrum, modes 0 < k < N/2 counted twice.

    For a real field, sum(w |c_k|^2) over the half spectrum is the
    full-spectrum sum in the H^s norm.  Cached per (grid, s), read-only.
    """
    w = (1.0 + grid.xi[: grid.n // 2 + 1] ** 2) ** s
    w[1:-1] *= 2.0
    w.flags.writeable = False
    return w


def sobolev_norms(c: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """H^s norm of each row of a stack of half spectra on grid."""
    a = np.abs(c)
    np.square(a, out=a)
    a *= half_weights(grid, s)
    return np.sqrt(grid.length * np.sum(a, axis=-1))


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line y ~ slope x + intercept through 1-D points, as (slope, intercept).

    Closed form from centred sums, so no BLAS or LAPACK code runs (np.polyfit
    would call LAPACK's lstsq).  Needs at least two distinct x.
    """
    xm, ym = float(np.mean(x)), float(np.mean(y))
    xc = x - xm
    slope = float(np.sum(xc * (y - ym)) / np.sum(xc * xc))
    return slope, ym - slope * xm


# -- Field operators: one-row calls of the multipliers -------------------


def dx(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order (0 <= order <= 4)."""
    if not (0 <= order <= 4):
        raise ValueError(f"derivative order must be in 0..4, got {order}")
    return f if order == 0 else Field(f.grid, f.half * half_dx(f.grid, order))


def bessel_pow(f: Field, s: float) -> Field:
    """Smoothing/roughening operator of order s: multiplier (1 + xi^2)^(s/2)."""
    return Field(f.grid, f.half * half_bessel(f.grid, s))


def helmholtz_inverse_dx(f: Field) -> Field:
    """Derivative composed with the inverse squared Helmholtz operator.

    Multiplier i xi / (1 + xi^2)^2; kills the mean and the Nyquist mode.
    """
    return Field(f.grid, f.half * half_helmholtz_dx(f.grid))


def sobolev_norm(f: Field, s: float) -> float:
    """Fractional Sobolev norm sqrt(L * sum (1 + xi^2)^s |c_k|^2)."""
    return float(sobolev_norms(f.half, f.grid, s))


def sup_norm(f: Field) -> float:
    """Maximum absolute grid value."""
    return float(np.max(np.abs(f.values)))


def dealias_truncate(f: Field) -> Field:
    """Zero every mode with |k| > N/3 (2/3 rule)."""
    return Field(f.grid, np.where(half_dealias_mask(f.grid), f.half, 0.0))


def product(f: Field, g: Field, dealias: bool = False) -> Field:
    """Pointwise product in value space.

    With `dealias` both inputs and the output are truncated by the 2/3
    rule, which makes the retained band free of aliasing errors.
    """
    _check_same_grid(f, g)
    if dealias:
        f = dealias_truncate(f)
        g = dealias_truncate(g)
    out = Field.from_values(f.grid, f.values * g.values)
    if dealias:
        out = dealias_truncate(out)
    return out


def pad_to(f: Field, grid: Grid) -> Field:
    """Zero-pad the spectrum onto a finer grid with the same length."""
    if grid.length != f.grid.length or grid.n < f.grid.n:
        raise ValueError("target grid must refine the source grid")
    return f if grid.n == f.grid.n else Field(grid, _pad_half(f.half, grid.n))


# -- stacked half spectra ---------------------------------------------
#
# Each row of a stack is transformed and reduced on its own, so a row's
# result does not depend on how many rows share the stack.  Products and
# commutators land on the doubled grid, where they are alias-free.


def _pad_half(c: np.ndarray, n: int) -> np.ndarray:
    """Half spectra zero-padded onto an n-point grid finer than theirs.

    The source's lone Nyquist coefficient is halved: on the finer grid it
    is split across the +-N/2 pair, which keeps the padded field real and
    equal to the source at the shared points.
    """
    m = c.shape[-1] - 1
    out = np.zeros(c.shape[:-1] + (n // 2 + 1,), dtype=complex)
    out[..., :m] = c[..., :m]
    out[..., m] = 0.5 * c[..., m]
    return out


def half_values(c: np.ndarray) -> np.ndarray:
    """Grid values of each row, one batched unscaled irfft."""
    return np.fft.irfft(c, n=2 * (c.shape[-1] - 1), axis=-1, norm="forward")


def _half_coefficients(values: np.ndarray, out=None) -> np.ndarray:
    """Half spectra of each row of grid values, one batched rfft scaled by 1/N.

    With `out`, an array of the result's shape, the rfft writes there.
    """
    return np.fft.rfft(values, axis=-1, norm="forward", out=out)


def commutator_inputs(f: np.ndarray, g: np.ndarray):
    """What every commutator [M, f] g of these rows shares on the doubled grid.

    f and g are stacks of one shape.  Returns the values of f, the half
    spectra of f g and g padded.  f and g are padded and transformed one
    at a time; the values of g become f g in place, and their rfft
    overwrites f's padded spectrum, which is no longer needed.
    """
    n = 4 * (f.shape[-1] - 1)
    f = _pad_half(f, n)
    fv = half_values(f)
    g = _pad_half(g, n)
    fg = half_values(g)
    fg *= fv
    return fv, _half_coefficients(fg, out=f), g


def product_half(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Alias-free products f g of rows, as half spectra on the doubled grid."""
    return commutator_inputs(f, g)[1]


def commutator_half(mult: np.ndarray, fv: np.ndarray, fg: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """[M, f] g = M(f g) - f M(g) on the doubled grid, from commutator_inputs.

    mult is M's half-spectrum multiplier on the doubled grid; per call
    this is one irfft and one rfft.  Both write into buffers the call
    allocated (the rfft over the spectrum of M g), never into its inputs,
    which every commutator of the same rows shares.
    """
    work = mult * g
    vals = half_values(work)
    vals *= fv
    _half_coefficients(vals, out=work)
    out = mult * fg
    out -= work
    return out


def product_exact(f: Field, g: Field) -> Field:
    """Alias-free product, returned on the doubled grid.

    Both inputs are zero-padded to twice the resolution; the true product
    of two band-limited fields fits inside that band, so the result is
    exact (used for diagnostics and inequality probes).
    """
    _check_same_grid(f, g)
    return Field(f.grid.doubled(), product_half(f.half, g.half))


def commutator_bessel(r: float, f: Field, g: Field) -> Field:
    """Commutator of the order-r smoothing operator with multiplication by f.

    Returns (1 - dxx)^(r/2) (f g) - f * (1 - dxx)^(r/2) g on the doubled
    grid, with all products alias-free.
    """
    _check_same_grid(f, g)
    fine = f.grid.doubled()
    return Field(fine, commutator_half(half_bessel(fine, r),
                                       *commutator_inputs(f.half, g.half)))


def commutator_bessel_dx(sigma: float, f: Field, v: Field) -> Field:
    """Commutator of (1 - dxx)^(sigma/2) d/dx with multiplication by f.

    Alias-free evaluation on the doubled grid.
    """
    _check_same_grid(f, v)
    fine = f.grid.doubled()
    mult = half_bessel(fine, sigma) * half_dx(fine)
    return Field(fine, commutator_half(mult, *commutator_inputs(f.half, v.half)))
