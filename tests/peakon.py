"""Exact single peakons of the system at rho = 0 and alpha = 0, in numpy alone.

With m = (1 - d^2/dx^2)^2 u, the Green's function of the inertia operator
is g(x) = (1 + |x|) e^{-|x|} / 4, with transform (1 + xi^2)^{-2}.  For
m = p delta(x - q) the weak form of m_t + u m_x + b u_x m = 0 reduces to
q' = u(q) and p' = (1 - b) p u_x(q) (the peakon reduction of Camassa and
Holm, PRL 71, 1993, and of the b-family).  g is even and C^2, so
g'(0) = 0: one peakon keeps its p and moves rigidly at c = p g_per(0),
for every b != 1 and every kappa, while rho = 0 stays 0.

On a periodic grid of length L the datum's half spectrum is
(p / L)(1 + xi_k^2)^{-2} e^{-i xi_k q}, and its exact state at time t is
the same with q + c t.  g lies in H^s only for s < 7/2, so runs on this
datum sit at the edge of the paper's theory, with energy in every mode.
"""

import math

import numpy as np


def peakon_stack(grid, p: float, q: float) -> np.ndarray:
    """The (1, 2, N/2+1) stack of one peakon of momentum p at q, with rho = 0."""
    xi = 2.0 * np.pi * np.arange(grid.n // 2 + 1) / grid.length
    u = (p / grid.length) * (1.0 + xi**2) ** -2 * np.exp(-1j * xi * q)
    return np.array([[u, np.zeros_like(u)]])


def peakon_speed(p: float, length: float) -> float:
    """c = p g_per(0), the periodised Green's function summed over its images.

    The images beyond the third fall below e^{-3 L}, far under roundoff for L >= 16.
    """
    return p * sum((1.0 + abs(n) * length) * math.exp(-abs(n) * length) / 4.0
                   for n in range(-3, 4))


def band_l2(grid, d: np.ndarray) -> float:
    """L^2 norm of a half spectrum d over the band |k| <= N/3 that the solver retains."""
    k = np.arange(grid.n // 2 + 1)
    w = np.where(k == 0, 1.0, 2.0)[k <= grid.n // 3]
    return math.sqrt(grid.length * np.sum(w * np.abs(d[k <= grid.n // 3]) ** 2))
