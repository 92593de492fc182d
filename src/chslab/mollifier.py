"""Friedrichs mollifier built from the canonical smooth bump.

The bump j(x) = Z^-1 exp(1/(x^2 - 1)) on (-1, 1), Z chosen so that the
bump integrates to one, is nonnegative, even and smooth, so its Fourier
transform jhat is real, even, equals 1 at the origin and satisfies
|jhat| <= 1 everywhere.  Mollification at scale eps multiplies mode k by
jhat(eps xi_k); tables of those samples are cached per (grid, eps).
Over modes 0..N/2, |eps xi_k| strictly increases (the Nyquist entry
-N/2 folds to +N/2), so a table transforms each of its frequencies once,
in mode order, with no unique pass.

jhat(w) = 2 int_0^1 exp(1/(x^2-1)) cos(w x) dx comes from the trapezoid
rule on m uniform nodes, divided by the w = 0 entry of the rule so the zero
mode is kept exactly.  The bump is flat at +-1, so the rule's error is jhat
aliased from 2 pi m - w, which decays like exp(-sqrt(2 pi m - w))
(Trefethen & Weideman, SIAM Rev. 56, 2014); m is the smallest count with
2 pi m - max w >= 1600, and >= 256.

The rule is evaluated by angle addition rather than as a dense cosine
matrix: with node j = a b + c (b about sqrt(m), 0 <= c < b),
cos(w j/m) = cos(w a b/m) cos(w c/m) - sin(w a b/m) sin(w c/m), so each
frequency needs about 4 sqrt(m) cosines and sines and two small
contractions instead of m cosines, and the work arrays hold O(sqrt(m))
entries per frequency.  The contractions are two-operand `np.einsum`
calls, which stay off BLAS: a matrix product would page about 1 MB of
BLAS code into the process for work this small.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spectral import Field, Grid, commutator_half, commutator_inputs, half_dx

__all__ = ["build_mollifier", "check_scale", "commutator_mollifier"]


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
    return (np.einsum("ka,ka->k", np.einsum("kc,ac->ka", np.cos(fine), weights),
                      np.cos(coarse))
            - np.einsum("ka,ka->k", np.einsum("kc,ac->ka", np.sin(fine), weights),
                        np.sin(coarse)))


def check_scale(eps: float, length: float) -> None:
    """Raise ValueError unless 0 < eps <= 1 and eps < length/2.

    Below length/2 the periodised bump support does not wrap onto itself.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"mollifier scale must lie in (0, 1], got {eps}")
    if not (eps < length / 2.0):
        raise ValueError(f"mollifier scale {eps} too large for domain length {length}")


@functools.lru_cache(maxsize=64)
def build_mollifier(grid: Grid, eps: float) -> np.ndarray:
    """The read-only multiplier jhat(eps xi_k) on the rfft half spectrum (modes 0..N/2).

    The scale must pass `check_scale`.
    """
    check_scale(eps, grid.length)
    # raw[0] is the zero frequency, so raw / raw[0] puts exactly 1 there
    raw = bump_transform_raw(np.abs(eps * grid.xi[: grid.n // 2 + 1]))
    half = np.clip(raw / raw[0], -1.0, 1.0)
    half.flags.writeable = False
    return half


def commutator_mollifier(eps: float, f: Field, g: Field) -> Field:
    """Mollifier commutator applied to the derivative: J(f g') - f J(g').

    Evaluated alias-free on the doubled grid with the scale-eps table of
    that grid; this is the one-row case of the stacked
    `spectral.commutator_half`.
    """
    if f.grid != g.grid:
        raise ValueError("fields must share one grid")
    fine = f.grid.doubled()
    inputs = commutator_inputs(f.half, half_dx(f.grid) * g.half)
    return Field(fine, commutator_half(build_mollifier(fine, eps), *inputs))
