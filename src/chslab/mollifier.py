"""Friedrichs mollifier built from the canonical smooth bump.

The bump j(x) = Z^-1 exp(1/(x^2 - 1)) on (-1, 1), Z chosen so that the
bump integrates to one, is nonnegative, even and smooth, so its Fourier
transform jhat is real, even, equals 1 at the origin and satisfies
|jhat| <= 1 everywhere.  Mollification at scale eps multiplies mode k by
jhat(eps xi_k); tables of those samples are cached per (grid, eps).

jhat(w) = 2 int_0^1 exp(1/(x^2-1)) cos(w x) dx comes from the trapezoid
rule on m uniform nodes, divided by the w = 0 entry of the rule so the zero
mode is kept exactly.  The bump is flat at +-1, so the rule's error is jhat
aliased from 2 pi m - w, which decays like exp(-sqrt(2 pi m - w))
(Trefethen & Weideman, SIAM Rev. 56, 2014); m is the smallest count with
2 pi m - max w >= 1600, and >= 256.

The rule is evaluated by angle addition rather than as a dense cosine
matrix: with node j = a b + c (b about sqrt(m), 0 <= c < b),
cos(w j/m) = cos(w a b/m) cos(w c/m) - sin(w a b/m) sin(w c/m), so each
frequency needs about 4 sqrt(m) cosines and sines and two small matrix
products instead of m cosines, and the work arrays hold O(sqrt(m))
entries per frequency.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .spectral import Field, Grid, commutator_half, commutator_inputs, half_dx

__all__ = ["MollifierTable", "build_mollifier", "commutator_mollifier"]


def _trapezoid_nodes(w_max: float) -> int:
    """Trapezoid nodes m for frequencies up to w_max (module docstring)."""
    return max(256, math.ceil((w_max + 1600.0) / (2.0 * np.pi)))


def bump_transform_raw(w) -> np.ndarray:
    """Unnormalised cosine transform of the bump at each frequency in w (1-D)."""
    w = np.asarray(w, dtype=float)
    m = _trapezoid_nodes(float(np.abs(w).max()))
    b = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    x = np.arange(m) / m
    weights = np.zeros(-(-m // b) * b)  # zero-padded to whole rows of b nodes
    weights[:m] = np.exp(1.0 / (x * x - 1.0)) * (2.0 / m)
    weights[0] *= 0.5
    weights = weights.reshape(-1, b)  # row a: nodes a b .. a b + b - 1
    fine = np.outer(w, np.arange(b) / m)
    coarse = np.outer(w, np.arange(len(weights)) * (b / m))
    return (np.einsum("ka,ka->k", np.cos(fine) @ weights.T, np.cos(coarse))
            - np.einsum("ka,ka->k", np.sin(fine) @ weights.T, np.sin(coarse)))


@dataclass(frozen=True)
class MollifierTable:
    """Samples jhat(eps xi_k) for one grid and mollification scale."""

    grid: Grid
    eps: float
    multiplier: np.ndarray

    def __post_init__(self):
        self.multiplier.flags.writeable = False

    @property
    def half(self) -> np.ndarray:
        """The multiplier on the rfft half spectrum (modes 0..N/2)."""
        return self.multiplier[: self.grid.n // 2 + 1]


_cache: dict[tuple[int, float, float], MollifierTable] = {}
_cache_lock = threading.Lock()


def build_mollifier(grid: Grid, eps: float) -> MollifierTable:
    """Build (or fetch from cache) the multiplier table for one scale.

    Requires 0 < eps <= 1 and eps < L/2 so the periodised bump support
    does not wrap onto itself.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"mollifier scale must lie in (0, 1], got {eps}")
    if not (eps < grid.length / 2.0):
        raise ValueError(
            f"mollifier scale {eps} too large for domain length {grid.length}"
        )
    key = (grid.n, grid.length, float(eps))
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit

    # uniq[0] is the zero frequency, so raw / raw[0] puts exactly 1 there
    uniq, inverse = np.unique(np.abs(eps * grid.xi), return_inverse=True)
    raw = bump_transform_raw(uniq)
    vals = raw / raw[0]
    table = MollifierTable(grid, float(eps), np.clip(vals[inverse], -1.0, 1.0))
    with _cache_lock:
        _cache[key] = table
    return table


def commutator_mollifier(table: MollifierTable, f: Field, g: Field) -> Field:
    """Mollifier commutator applied to the derivative: J(f g') - f J(g').

    Evaluated alias-free on the doubled grid (the matching table for the
    doubled grid is pulled from the cache); this is the one-row case of
    the stacked `spectral.commutator_half`.
    """
    if table.grid != f.grid or f.grid != g.grid:
        raise ValueError("fields and table must share one grid")
    fine_table = build_mollifier(f.grid.doubled(), table.eps)
    inputs = commutator_inputs(f.half, half_dx(f.grid) * g.half)
    return Field(fine_table.grid, commutator_half(fine_table.half, *inputs))
