"""Empirical probes for the commutator and product estimates.

Each probe draws a seeded ensemble of random fields, evaluates both
sides of one inequality, and reports the largest ratio of left side to
constant-free right side.  The ratios are scale-invariant (both sides
are jointly homogeneous in the inputs), so the reported constant is a
lower estimate of the sharp one; acceptance only asks that it be finite
and stable, never that it match a book value.  Sample i always uses
seeds derived from base seed + i, so enlarging the ensemble extends the
ratio sequence instead of reshuffling it.

The convolution kernel bound behind the negative-index product estimate
is checked separately by adaptive quadrature on the line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import cosine_mode, random_field
from .mollifier import build_mollifier, commutator_mollifier
from .spectral import (
    Field,
    Grid,
    c1_norm,
    commutator_bessel,
    commutator_bessel_dx,
    dx,
    product_exact,
    sobolev_norm,
    sup_norm,
)

__all__ = [
    "ProbeConfig", "ProbeReport",
    "probe_algebra", "probe_kato_ponce", "probe_mollifier_commutator",
    "probe_calderon", "probe_product_low", "probe_product_negative",
    "probe_interpolation", "product_negative_sweep", "check_negative_hypotheses",
    "kernel_integral", "kernel_bound_scan", "KernelScanReport",
    "DEFAULT_EPS_LADDER",
]

DEFAULT_EPS_LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)


@dataclass(frozen=True)
class ProbeConfig:
    """Ensemble knobs plus whichever Sobolev indices the probe needs."""

    grid: Grid
    ensemble: int = 200
    gamma: float = 0.6
    amplitude: float = 1.0
    seed: int = 0
    r: float | None = None
    s: float | None = None
    sigma: float | None = None
    j: float | None = None
    k: float | None = None
    s1: float | None = None
    s2: float | None = None

    def __post_init__(self):
        if self.ensemble < 1:
            raise ValueError(f"ensemble size must be positive, got {self.ensemble}")
        if not self.gamma > 0.5:
            raise ValueError(f"decay exponent gamma must exceed 1/2, got {self.gamma}")
        if not self.amplitude > 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")

    def need(self, *names: str) -> list[float]:
        vals = []
        for name in names:
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"probe requires index parameter {name!r}")
            vals.append(float(v))
        return vals


@dataclass(frozen=True)
class ProbeReport:
    lemma: str
    constant: float
    worst_seed: int
    worst_index: int
    violations: int | None
    ensemble: int
    grid_n: int
    grid_length: float
    params: dict
    ratios: np.ndarray
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "constant": self.constant,
            "worst_seed": self.worst_seed,
            "worst_index": self.worst_index,
            "violations": self.violations,
            "ensemble": self.ensemble,
            "grid": {"n": self.grid_n, "length": self.grid_length},
            "extra": self.extra,
        }

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def save_ratios_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("index,ratio\n")
            for i, v in enumerate(self.ratios):
                fh.write(f"{i},{float(v)!r}\n")


def _report(cfg: ProbeConfig, lemma: str, ratios, params: dict,
            violations=None, extra=None) -> ProbeReport:
    ratios = np.asarray(ratios)
    worst = int(np.argmax(ratios))
    return ProbeReport(
        lemma=lemma,
        constant=float(ratios[worst]),
        worst_seed=cfg.seed + 2 * worst,
        worst_index=worst,
        violations=violations,
        ensemble=cfg.ensemble,
        grid_n=cfg.grid.n,
        grid_length=cfg.grid.length,
        params=params,
        ratios=ratios,
        extra=extra or {},
    )


def _pair(cfg: ProbeConfig, i: int, sf: float, sg: float) -> tuple[Field, Field]:
    f = random_field(cfg.grid, sf, cfg.gamma, cfg.amplitude, cfg.seed + 2 * i)
    g = random_field(cfg.grid, sg, cfg.gamma, cfg.amplitude, cfg.seed + 2 * i + 1)
    return f, g


def probe_algebra(cfg: ProbeConfig) -> ProbeReport:
    """||fg||_{H^r} against ||f||_inf ||g||_{H^r} + ||f||_{H^r} ||g||_inf."""
    (r,) = cfg.need("r")
    if not r > 0.0:
        raise ValueError(f"algebra probe needs r > 0, got {r}")
    ratios = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, r, r)
        lhs = sobolev_norm(product_exact(f, g), r)
        den = sup_norm(f) * sobolev_norm(g, r) + sobolev_norm(f, r) * sup_norm(g)
        ratios.append(lhs / den)
    return _report(cfg, "algebra", ratios, {"r": r})


def probe_kato_ponce(cfg: ProbeConfig) -> ProbeReport:
    """Commutator [Lambda^r, f]g against ||f_x||_inf ||g||_{H^{r-1}} + ||f||_{H^r} ||g||_inf."""
    (r,) = cfg.need("r")
    if not r >= 0.0:
        raise ValueError(f"kato-ponce probe needs r >= 0, got {r}")
    ratios = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, r, r - 1.0)
        lhs = sobolev_norm(commutator_bessel(r, f, g), 0.0)
        den = (sup_norm(dx(f, 1)) * sobolev_norm(g, r - 1.0)
               + sobolev_norm(f, r) * sup_norm(g))
        ratios.append(lhs / den)
    return _report(cfg, "kato-ponce", ratios, {"r": r})


def probe_mollifier_commutator(cfg: ProbeConfig,
                               eps_ladder=DEFAULT_EPS_LADDER) -> ProbeReport:
    """[J_eps, f] d/dx g against ||f||_{C^1} ||g||_{L^2}, uniformly in eps.

    The point of the estimate is eps-uniformity, so the report carries
    the per-eps maxima and their spread; the overall constant is the max
    over the whole ladder.  Draw f fairly smooth (index s, default 2.5)
    and g rough (L^2 only) so high modes are present to commute against.
    """
    f_smooth = 2.5 if cfg.s is None else float(cfg.s)
    tables = [build_mollifier(cfg.grid, e) for e in eps_ladder]
    per_eps = np.zeros(len(eps_ladder))
    ratios = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, f_smooth, 0.0)
        den = c1_norm(f) * sobolev_norm(g, 0.0)
        best = 0.0
        for m, tab in enumerate(tables):
            val = sobolev_norm(commutator_mollifier(tab, f, g), 0.0) / den
            per_eps[m] = max(per_eps[m], val)
            best = max(best, val)
        ratios.append(best)
    spread = float(per_eps.max() / per_eps.min()) if per_eps.min() > 0 else math.inf
    extra = {
        "eps_ladder": list(eps_ladder),
        "eps_constants": [float(v) for v in per_eps],
        "ladder_spread": spread,
        "end_ratio": float(per_eps[0] / per_eps[-1]),
    }
    return _report(cfg, "mollifier-commutator", ratios,
                   {"f_smoothness": f_smooth}, extra=extra)


def probe_calderon(cfg: ProbeConfig) -> ProbeReport:
    """Commutator [Lambda^sigma d/dx, f]v against ||f||_{H^s} ||v||_{H^sigma}."""
    s, sigma = cfg.need("s", "sigma")
    if not s > 1.5:
        raise ValueError(f"calderon probe needs s > 3/2, got {s}")
    if not 0.0 <= sigma + 1.0 <= s:
        raise ValueError(f"calderon probe needs 0 <= sigma+1 <= s, got sigma={sigma}")
    ratios = []
    for i in range(cfg.ensemble):
        f, v = _pair(cfg, i, s, sigma)
        lhs = sobolev_norm(commutator_bessel_dx(sigma, f, v), 0.0)
        ratios.append(lhs / (sobolev_norm(f, s) * sobolev_norm(v, sigma)))
    return _report(cfg, "calderon", ratios, {"s": s, "sigma": sigma})


def probe_product_low(cfg: ProbeConfig) -> ProbeReport:
    """||fg||_{H^{r-1}} against ||f||_{H^r} ||g||_{H^{r-1}}, r > 1/2."""
    (r,) = cfg.need("r")
    if not r > 0.5:
        raise ValueError(f"product-low probe needs r > 1/2, got {r}")
    ratios = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, r, r - 1.0)
        lhs = sobolev_norm(product_exact(f, g), r - 1.0)
        ratios.append(lhs / (sobolev_norm(f, r) * sobolev_norm(g, r - 1.0)))
    return _report(cfg, "product-low", ratios, {"r": r})


def check_negative_hypotheses(r: float, j: float, k: float):
    """Raise ValueError unless (r, j, k) meet the negative-index product hypotheses."""
    if not (float(k).is_integer() and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0.0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")
    if not j > 0.5:
        raise ValueError(f"need j > 1/2, got j={j}")
    if not j >= k - r:
        raise ValueError(f"need j >= k - r, got j={j}, k-r={k - r}")


def probe_product_negative(cfg: ProbeConfig) -> ProbeReport:
    """||fg||_{H^{r-k}} against ||f||_{H^j} ||g||_{H^{r-k}} (negative index)."""
    r, j, k = cfg.need("r", "j", "k")
    check_negative_hypotheses(r, j, k)
    ratios = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, j, r - k)
        lhs = sobolev_norm(product_exact(f, g), r - k)
        ratios.append(lhs / (sobolev_norm(f, j) * sobolev_norm(g, r - k)))
    return _report(cfg, "product-negative", ratios, {"r": r, "j": j, "k": k})


def product_negative_sweep(grid: Grid, r: float, j: float, k: float,
                           modes=None, gamma: float = 0.6,
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray, float]:
    """Ratio of the negative-index product bound as g climbs the spectrum.

    g is a single cosine at mode k0; f is a fixed random field of
    smoothness j.  A frequency-uniform constant shows up as a flat
    log-log curve; the returned slope is the least-squares trend.
    """
    check_negative_hypotheses(r, j, k)
    if modes is None:
        top = grid.n // 3
        modes = [m for m in (2, 4, 8, 16, 32, 64, 128) if m <= 0.9 * top]
    modes = np.asarray(modes, dtype=int)
    f = random_field(grid, j, gamma, 1.0, seed)
    nf = sobolev_norm(f, j)
    ratios = np.empty(len(modes))
    for i, k0 in enumerate(modes):
        g = cosine_mode(grid, int(k0))
        ratios[i] = sobolev_norm(product_exact(f, g), r - k) / (
            nf * sobolev_norm(g, r - k))
    slope = float(np.polyfit(np.log(modes.astype(float)), np.log(ratios), 1)[0])
    return modes, ratios, slope


def probe_interpolation(cfg: ProbeConfig,
                        thetas=(0.0, 0.25, 0.5, 0.75, 1.0)) -> ProbeReport:
    """||f||_{H^{th s1+(1-th)s2}} <= ||f||^th_{H^s1} ||f||^{1-th}_{H^s2}.

    This is exact Cauchy-Schwarz in coefficient space, so the violation
    count must come back zero (up to 1e-12 relative slack for roundoff).
    """
    s1, s2 = cfg.need("s1", "s2")
    if not s1 < s2:
        raise ValueError(f"need s1 < s2, got {s1}, {s2}")
    violations = 0
    ratios = []
    for i in range(cfg.ensemble):
        f = random_field(cfg.grid, s2, cfg.gamma, cfg.amplitude, cfg.seed + 2 * i)
        n1, n2 = sobolev_norm(f, s1), sobolev_norm(f, s2)
        best = 0.0
        for th in thetas:
            lhs = sobolev_norm(f, th * s1 + (1.0 - th) * s2)
            rhsv = n1**th * n2 ** (1.0 - th)
            if lhs > rhsv * (1.0 + 1e-12):
                violations += 1
            best = max(best, lhs / rhsv)
        ratios.append(best)
    return _report(cfg, "interpolation", ratios,
                   {"s1": s1, "s2": s2, "thetas": list(thetas)},
                   violations=violations)


# -- kernel integral ----------------------------------------------------

def kernel_integral(r: float, j: float, k: float, eta: float) -> float:
    """I(eta) = integral over the line of (1+xi^2)^{r-k} (1+(xi-eta)^2)^{-j}.

    Returns math.inf when j <= 1/2 (the tail is not integrable).  The
    integral is split at the two peak locations and each unbounded piece
    goes through quad's infinite-interval transform, which beats any
    fixed tail cutoff (a cutoff where the integrand reaches 1e-14 still
    leaves ~1e-7 of mass in the slow polynomial tail).
    """
    from scipy.integrate import quad  # here, not at load: no other command needs scipy

    if j <= 0.5:
        return math.inf
    p = r - k

    def integrand(xi):
        return (1.0 + xi * xi) ** p * (1.0 + (xi - eta) ** 2) ** (-j)

    cuts = sorted({0.0, float(eta)})
    pieces = [(-math.inf, cuts[0]), (cuts[-1], math.inf)]
    if len(cuts) == 2:
        pieces.insert(1, (cuts[0], cuts[1]))
    total = 0.0
    for a, b in pieces:
        val, _ = quad(integrand, a, b, epsabs=1e-300, epsrel=1e-11, limit=400)
        total += val
    return total


@dataclass(frozen=True)
class KernelScanReport:
    r: float
    j: float
    k: float
    etas: np.ndarray
    integrals: np.ndarray
    ratios: np.ndarray
    sup: float
    argmax: float
    last_decade_growth: float
    plateau: bool


def kernel_bound_scan(r: float, j: float, k: float,
                      etas=None) -> KernelScanReport:
    """Scan I(eta)/(1+eta^2)^{r-k} on a log grid; the bound needs a plateau.

    Hypotheses are enforced up front: outside them the ratio genuinely
    diverges (e.g. j < k - r makes it grow like a power of eta), so a
    violating triple is rejected rather than scanned.
    """
    check_negative_hypotheses(r, j, k)
    if etas is None:
        etas = np.concatenate([[0.0], np.geomspace(0.1, 1e4, 51)])
    etas = np.asarray(etas, dtype=float)
    integrals = np.array([kernel_integral(r, j, k, e) for e in etas])
    ratios = integrals / (1.0 + etas**2) ** (r - k)
    top = etas.max()
    decade = (etas >= top / 10.0) & (etas > 0)
    base = ratios[decade][0]
    growth = float(ratios[decade].max() / base - 1.0)
    best = int(np.argmax(ratios))
    return KernelScanReport(
        r=r, j=j, k=k, etas=etas, integrals=integrals, ratios=ratios,
        sup=float(ratios[best]), argmax=float(etas[best]),
        last_decade_growth=growth, plateau=bool(growth <= 0.02),
    )
