"""Fourier toolkit for real periodic functions on [0, L).

Conventions
-----------
A field on an N-point grid is stored through its Fourier coefficients
c_k with the normalisation

    f(x) = sum_k c_k exp(i xi_k x),      xi_k = 2 pi k / L,

so c_k approximates the continuous coefficient
(1/L) int_0^L f(x) exp(-i xi_k x) dx.  With this scaling the Sobolev
norm

    ||f||_{H^s}^2 = L * sum_k (1 + xi_k^2)^s |c_k|^2

agrees with the integral L2 norm at s = 0 (Parseval).

The product of two band-limited fields is itself band-limited within a
grid of twice the resolution; `product_exact` exploits that to return
alias-free products for diagnostics, while `product(..., dealias=True)`
applies the 2/3-rule truncation.  The alias-free products, commutators
and Sobolev norms also come in a stacked form on arrays of rfft half
spectra, which the inequality probes use for whole blocks of samples;
`product_exact` and the commutators are one-row calls of it.
Odd-order derivative multipliers zero the unpaired Nyquist mode so that
real fields stay real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "dx",
    "bessel_pow",
    "helmholtz_inverse_dx",
    "sobolev_norm",
    "sup_norm",
    "inner",
    "product",
    "product_exact",
    "pad_to",
    "truncate_to",
    "commutator_bessel",
    "commutator_bessel_dx",
    "half_weights",
    "sobolev_norms",
    "half_dx",
    "half_bessel",
    "from_half",
    "half_values",
    "product_half",
    "commutator_inputs",
    "commutator_half",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L) with a power-of-two point count."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not (self.length > 0):
            raise ValueError(f"grid length must be positive, got {self.length}")

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
    """Real periodic function with dual value/coefficient views.

    The coefficient array (FFT order) is canonical; values are derived.
    Instances are immutable: every operation returns a new Field.
    """

    __slots__ = ("grid", "_coeffs", "_values")

    def __init__(self, grid: Grid, coefficients: np.ndarray):
        if coefficients.shape != (grid.n,):
            raise ValueError(
                f"coefficient length {coefficients.shape} does not match grid size {grid.n}"
            )
        self.grid = grid
        self._coeffs = np.asarray(coefficients, dtype=complex)
        self._coeffs.flags.writeable = False
        self._values = None

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "Field":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(
                f"value length {values.shape} does not match grid size {grid.n}"
            )
        return cls(grid, np.fft.fft(values) / grid.n)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n, dtype=complex))

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    @property
    def half(self) -> np.ndarray:
        """The rfft half spectrum: coefficients of modes 0..N/2."""
        return self._coeffs[: self.grid.n // 2 + 1]

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.ifft(self._coeffs * self.grid.n).real
            self._values.flags.writeable = False
        return self._values

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self._coeffs + other._coeffs)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self._coeffs - other._coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self._coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self._coeffs)

    def __repr__(self):
        return f"Field(n={self.grid.n}, L={self.grid.length})"


def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def dx(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order (0 <= order <= 4).

    The unpaired Nyquist mode is zeroed for odd orders so output stays real.
    """
    if not (0 <= order <= 4):
        raise ValueError(f"derivative order must be in 0..4, got {order}")
    if order == 0:
        return f
    mult = (1j * f.grid.xi) ** order
    if order % 2 == 1:
        mult[f.grid.n // 2] = 0.0
    return Field(f.grid, f.coefficients * mult)


def bessel_pow(f: Field, s: float) -> Field:
    """Smoothing/roughening operator of order s: multiplier (1 + xi^2)^(s/2)."""
    return Field(f.grid, f.coefficients * (1.0 + f.grid.xi**2) ** (s / 2.0))


def helmholtz_inverse_dx(f: Field) -> Field:
    """Derivative composed with the inverse squared Helmholtz operator.

    Multiplier i xi / (1 + xi^2)^2; kills the mean mode and the unpaired
    Nyquist mode, output is real.
    """
    xi = f.grid.xi
    mult = 1j * xi / (1.0 + xi**2) ** 2
    mult[f.grid.n // 2] = 0.0
    return Field(f.grid, f.coefficients * mult)


def sobolev_norm(f: Field, s: float) -> float:
    """Fractional Sobolev norm sqrt(L * sum (1 + xi^2)^s |c_k|^2)."""
    weights = (1.0 + f.grid.xi**2) ** s
    total = np.sum(weights * np.abs(f.coefficients) ** 2)
    return float(np.sqrt(f.grid.length * total))


def sup_norm(f: Field) -> float:
    """Maximum absolute grid value."""
    return float(np.max(np.abs(f.values)))


def inner(f: Field, g: Field) -> float:
    """L2 inner product L * mean(f g) (exact for the stored bands)."""
    _check_same_grid(f, g)
    return float(f.grid.length * np.mean(f.values * g.values))


def _dealias_mask(grid: Grid) -> np.ndarray:
    return np.abs(grid.modes) <= grid.n // 3


def dealias_truncate(f: Field) -> Field:
    """Zero every mode with |k| > N/3 (2/3 rule)."""
    return Field(f.grid, np.where(_dealias_mask(f.grid), f.coefficients, 0.0))


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
    if grid.n == f.grid.n:
        return f
    n = f.grid.n
    c = np.zeros(grid.n, dtype=complex)
    c[: n // 2] = f.coefficients[: n // 2]
    c[-(n // 2 - 1) :] = f.coefficients[-(n // 2 - 1) :]
    # split the unpaired Nyquist coefficient across +-N/2 to keep symmetry
    cn = f.coefficients[n // 2]
    c[n // 2] = 0.5 * cn
    c[-(n // 2)] = 0.5 * np.conj(cn)
    return Field(grid, c)


def truncate_to(f: Field, grid: Grid) -> Field:
    """Drop modes outside the band of a coarser grid with the same length.

    The +-N/2 pair of the source folds onto the single Nyquist slot of the
    target, matching what sampling on the coarse points would produce.
    """
    if grid.length != f.grid.length or grid.n > f.grid.n:
        raise ValueError("target grid must coarsen the source grid")
    if grid.n == f.grid.n:
        return f
    n = grid.n
    c = np.empty(n, dtype=complex)
    c[: n // 2] = f.coefficients[: n // 2]
    c[n // 2 + 1 :] = f.coefficients[-(n // 2) + 1 :]
    c[n // 2] = f.coefficients[n // 2] + f.coefficients[-(n // 2)]
    return Field(grid, c)


# -- stacked half spectra ---------------------------------------------
#
# A stack of real fields on one N-point grid is an array of rfft half
# spectra, shape (..., N/2 + 1), in the Field coefficient scaling.
# Each row is transformed and reduced on its own, so a row's result does
# not depend on how many rows share the stack.  Products and commutators
# land on the doubled grid, where they are alias-free.


@lru_cache(maxsize=64)
def half_weights(grid: Grid, s: float) -> np.ndarray:
    """(1 + xi^2)^s on the half spectrum, modes 0 < k < N/2 counted twice.

    For a real field, sum(w |c_k|^2) over the half spectrum is the
    full-spectrum sum behind sobolev_norm.  Cached per (grid, s), read-only.
    """
    w = (1.0 + grid.xi[: grid.n // 2 + 1] ** 2) ** s
    w[1:-1] *= 2.0
    w.flags.writeable = False
    return w


def sobolev_norms(c: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """H^s norm of each row of a stack of half spectra on grid."""
    return np.sqrt(grid.length * np.sum(half_weights(grid, s) * np.abs(c) ** 2, axis=-1))


def half_dx(grid: Grid) -> np.ndarray:
    """The d/dx multiplier i xi on the half spectrum, Nyquist zeroed as in dx."""
    mult = 1j * grid.xi[: grid.n // 2 + 1]
    mult[-1] = 0.0
    return mult


def half_bessel(grid: Grid, s: float) -> np.ndarray:
    """The bessel_pow multiplier (1 + xi^2)^(s/2) on the half spectrum."""
    return (1.0 + grid.xi[: grid.n // 2 + 1] ** 2) ** (s / 2.0)


def from_half(grid: Grid, half: np.ndarray) -> Field:
    """The real Field whose spectrum is the Hermitian extension of half."""
    n = grid.n
    full = np.empty(n, dtype=complex)
    full[: n // 2 + 1] = half
    full[n // 2 + 1:] = np.conj(half[n // 2 - 1: 0: -1])
    return Field(grid, full)


def _pad_half(c: np.ndarray) -> np.ndarray:
    """Half spectra zero-padded onto the doubled grid.

    The lone Nyquist coefficient is halved, as pad_to splits it across
    the +-N/2 pair of the finer grid.
    """
    n = 2 * (c.shape[-1] - 1)
    out = np.zeros(c.shape[:-1] + (n + 1,), dtype=complex)
    out[..., : n // 2] = c[..., : n // 2]
    out[..., n // 2] = 0.5 * c[..., n // 2]
    return out


def half_values(c: np.ndarray) -> np.ndarray:
    """Grid values of each row, one batched irfft."""
    n = 2 * (c.shape[-1] - 1)
    return np.fft.irfft(c * n, n=n, axis=-1)


def _half_coefficients(values: np.ndarray) -> np.ndarray:
    """Half spectra of each row of grid values, one batched rfft."""
    return np.fft.rfft(values, axis=-1) / values.shape[-1]


def commutator_inputs(f: np.ndarray, g: np.ndarray):
    """What every commutator [M, f] g of these rows shares on the doubled grid.

    Returns the values of f, the half spectra of f g and g padded.
    """
    padded = _pad_half(np.stack([f, g]))
    fv, gv = half_values(padded)
    return fv, _half_coefficients(fv * gv), padded[1]


def product_half(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Alias-free products f g of rows, as half spectra on the doubled grid."""
    return commutator_inputs(f, g)[1]


def commutator_half(mult: np.ndarray, fv: np.ndarray, fg: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """[M, f] g = M(f g) - f M(g) on the doubled grid, from commutator_inputs.

    mult is M's half-spectrum multiplier on the doubled grid; per call
    this is one irfft and one rfft.
    """
    return mult * fg - _half_coefficients(fv * half_values(mult * g))


def product_exact(f: Field, g: Field) -> Field:
    """Alias-free product, returned on the doubled grid.

    Both inputs are zero-padded to twice the resolution; the true product
    of two band-limited fields fits inside that band, so the result is
    exact (used for diagnostics and inequality probes).
    """
    _check_same_grid(f, g)
    return from_half(f.grid.doubled(), product_half(f.half, g.half))


def commutator_bessel(r: float, f: Field, g: Field) -> Field:
    """Commutator of the order-r smoothing operator with multiplication by f.

    Returns (1 - dxx)^(r/2) (f g) - f * (1 - dxx)^(r/2) g on the doubled
    grid, with all products alias-free.
    """
    _check_same_grid(f, g)
    fine = f.grid.doubled()
    return from_half(fine, commutator_half(half_bessel(fine, r),
                                           *commutator_inputs(f.half, g.half)))


def commutator_bessel_dx(sigma: float, f: Field, v: Field) -> Field:
    """Commutator of (1 - dxx)^(sigma/2) d/dx with multiplication by f.

    Alias-free evaluation on the doubled grid.
    """
    _check_same_grid(f, v)
    fine = f.grid.doubled()
    mult = half_bessel(fine, sigma) * half_dx(fine)
    return from_half(fine, commutator_half(mult, *commutator_inputs(f.half, v.half)))
