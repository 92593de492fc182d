"""Empirical probes for the commutator and product estimates.

Each probe draws a seeded ensemble of random fields, evaluates both
sides of one inequality, and reports the largest ratio of left side to
constant-free right side.  The ratios are scale-invariant (both sides
are jointly homogeneous in the inputs), so the reported constant is a
lower estimate of the sharp one; acceptance only asks that it be finite
and stable, never that it match a book value.  Sample i always uses
seeds seed + 2i and seed + 2i + 1, so enlarging the ensemble extends the
ratio sequence instead of reshuffling it.

An ensemble is evaluated in blocks of at most BLOCK probe-grid points
(BLOCK // N samples, at least one), each block as one stack of rfft half
spectra (`spectral.product_half` and friends): a few batched FFTs per
block in place of a Field pipeline per sample.  Every transform and
reduction acts on one row at a time, so a sample's ratio does not depend
on the block size or on how many samples share its block.

The convolution kernel bound behind the negative-index product estimate
is checked separately by a fixed double-exponential quadrature rule on
the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import cosine_mode, random_halves
from .mollifier import build_mollifier, check_scale
from .spectral import (
    Grid,
    commutator_half,
    commutator_inputs,
    half_bessel,
    half_dx,
    half_values,
    line_fit,
    product_half,
    sobolev_norms,
)

__all__ = [
    "ProbeConfig", "ProbeReport", "PROBES", "probe_runs", "ensemble_problems",
    "probe_algebra", "probe_kato_ponce", "probe_mollifier_commutator",
    "probe_calderon", "probe_product_low", "probe_product_negative",
    "probe_interpolation", "product_negative_sweep", "check_indices",
    "check_negative_hypotheses", "check_sweep_grid", "kernel_diverges", "check_kernel_range",
    "kernel_integral", "kernel_bound_scan", "KernelScanReport", "DEFAULT_EPS_LADDER",
]

DEFAULT_EPS_LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)  # interpolation weights
# modes k0 of the frequency sweep, those at most 0.9 N/3 on the grid
_SWEEP_MODES = (2, 4, 8, 16, 32, 64, 128)

# probe-grid points per stacked block, so a block holds BLOCK // N samples
# (at least one): 32 at N = 256 and 8 at the mollifier probe's N = 1024.
# It bounds the working set by points, not samples: 32 samples at N = 1024
# traced a 6.6 MB peak, 8 trace 1.7 MB.  The ratios do not depend on it.
BLOCK = 8192


def ensemble_problems(ensemble: int, gamma: float) -> list[str]:
    """Each rule the ensemble knobs of a probe break."""
    return [rule for holds, rule in (
        (ensemble >= 1, f"ensemble size must be positive, got {ensemble}"),
        (gamma > 0.5, f"decay exponent gamma must exceed 1/2, got {gamma}")) if not holds]


@dataclass(frozen=True)
class ProbeConfig:
    """Ensemble knobs plus whichever Sobolev indices the probe needs (which the probe
    judges); ValueError naming each rule of `ensemble_problems` the knobs break."""

    grid: Grid
    ensemble: int = 200
    gamma: float = 0.6
    seed: int = 0
    r: float | None = None
    s: float | None = None
    sigma: float | None = None
    j: float | None = None
    k: float | None = None
    s1: float | None = None
    s2: float | None = None

    def __post_init__(self):
        if problems := ensemble_problems(self.ensemble, self.gamma):
            raise ValueError("; ".join(problems))


def _need(cfg, *names: str) -> list[float]:
    """The named indices of cfg as floats; ValueError if one is unset."""
    if unset := [name for name in names if getattr(cfg, name) is None]:
        raise ValueError(f"probe requires index parameter {unset[0]!r}")
    return [float(getattr(cfg, name)) for name in names]


# probe -> (the indices it reads, their hypotheses in words and as a test)
_HYPOTHESES = {
    "algebra": (("r",), "r > 0", lambda r: r > 0.0),
    "kato-ponce": (("r",), "r >= 0", lambda r: r >= 0.0),
    "product-low": (("r",), "r > 1/2", lambda r: r > 0.5),
    "calderon": (("s", "sigma"), "s > 3/2 and 0 <= sigma+1 <= s",
                 lambda s, sigma: s > 1.5 and 0.0 <= sigma + 1.0 <= s),
    "interpolation": (("s1", "s2"), "s1 < s2", lambda s1, s2: s1 < s2),
}


def check_indices(probe: str, cfg: ProbeConfig) -> list[float]:
    """The indices `probe`, a name of PROBES, reads from cfg; ValueError unless each is set and
    they meet the probe's hypotheses.  The mollifier gives [] for its one index, s (f smoothness,
    2.5 if unset), which has no hypothesis; each of its scales must pass `check_scale`."""
    if probe == "mollifier":
        for eps in DEFAULT_EPS_LADDER:
            check_scale(eps, cfg.grid.length)
        return []
    if probe == "product-negative":
        return check_negative_hypotheses(*_need(cfg, "r", "j", "k"))
    names, rule, holds = _HYPOTHESES[probe]
    vals = _need(cfg, *names)
    if not holds(*vals):
        got = ", ".join(f"{name}={v:g}" for name, v in zip(names, vals))
        raise ValueError(f"need {rule}, got {got}")
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


def _report(cfg: ProbeConfig, lemma: str, blocks, params: dict,
            violations=None, extra=None) -> ProbeReport:
    """Report from the per-block ratio arrays, in sample order."""
    ratios = np.concatenate(blocks)
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


def _blocks(cfg: ProbeConfig):
    """Sample indices of the ensemble, BLOCK // N at a time (Python ints, so seeds never wrap)."""
    size = max(1, BLOCK // cfg.grid.n)
    for start in range(0, cfg.ensemble, size):
        yield range(start, min(start + size, cfg.ensemble))


def _pairs(cfg: ProbeConfig, idx: range, sf: float, sg: float):
    """Half-spectrum stacks (f, g) of samples idx, from seeds seed + 2i and seed + 2i + 1."""
    return (random_halves(cfg.grid, sf, [cfg.seed + 2 * i for i in idx], cfg.gamma),
            random_halves(cfg.grid, sg, [cfg.seed + 2 * i + 1 for i in idx], cfg.gamma))


def _sup(c: np.ndarray) -> np.ndarray:
    """Maximum absolute grid value of each row."""
    return np.abs(half_values(c)).max(axis=-1)


def probe_algebra(cfg: ProbeConfig) -> ProbeReport:
    """||fg||_{H^r} against ||f||_inf ||g||_{H^r} + ||f||_{H^r} ||g||_inf."""
    (r,) = check_indices("algebra", cfg)
    grid, fine = cfg.grid, cfg.grid.doubled()
    ratios = []
    for idx in _blocks(cfg):
        f, g = _pairs(cfg, idx, r, r)
        lhs = sobolev_norms(product_half(f, g), fine, r)
        sup_f, sup_g = _sup(np.stack([f, g]))
        den = sup_f * sobolev_norms(g, grid, r) + sobolev_norms(f, grid, r) * sup_g
        ratios.append(lhs / den)
    return _report(cfg, "algebra", ratios, {"r": r})


def probe_kato_ponce(cfg: ProbeConfig) -> ProbeReport:
    """Commutator [Lambda^r, f]g against ||f_x||_inf ||g||_{H^{r-1}} + ||f||_{H^r} ||g||_inf."""
    (r,) = check_indices("kato-ponce", cfg)
    grid, fine = cfg.grid, cfg.grid.doubled()
    mult, deriv = half_bessel(fine, r), half_dx(grid)
    ratios = []
    for idx in _blocks(cfg):
        f, g = _pairs(cfg, idx, r, r - 1.0)
        lhs = sobolev_norms(commutator_half(mult, *commutator_inputs(f, g)), fine, 0.0)
        sup_fx, sup_g = _sup(np.stack([deriv * f, g]))
        den = (sup_fx * sobolev_norms(g, grid, r - 1.0)
               + sobolev_norms(f, grid, r) * sup_g)
        ratios.append(lhs / den)
    return _report(cfg, "kato-ponce", ratios, {"r": r})


def probe_mollifier_commutator(cfg: ProbeConfig) -> ProbeReport:
    """[J_eps, f] d/dx g against ||f||_{C^1} ||g||_{L^2}, uniformly in eps.

    The point of the estimate is eps-uniformity, so the report carries
    the per-eps maxima and their spread; the overall constant is the max
    over the whole ladder.  Draw f fairly smooth (index s, default 2.5)
    and g rough (L^2 only) so high modes are present to commute against.
    Per block, f g' is formed once; each eps then costs one multiplier,
    one irfft and one rfft.
    """
    f_smooth = 2.5 if cfg.s is None else float(cfg.s)
    grid, fine = cfg.grid, cfg.grid.doubled()
    mults = [build_mollifier(fine, e) for e in DEFAULT_EPS_LADDER]
    deriv = half_dx(grid)
    per_eps = np.zeros(len(DEFAULT_EPS_LADDER))
    ratios = []
    for idx in _blocks(cfg):
        f, g = _pairs(cfg, idx, f_smooth, 0.0)
        sup_f, sup_fx = _sup(np.stack([f, deriv * f]))
        den = (sup_f + sup_fx) * sobolev_norms(g, grid, 0.0)
        inputs = commutator_inputs(f, deriv * g)
        vals = np.array([sobolev_norms(commutator_half(m, *inputs), fine, 0.0) / den
                         for m in mults])
        per_eps = np.maximum(per_eps, vals.max(axis=1))
        ratios.append(vals.max(axis=0))
    spread = float(per_eps.max() / per_eps.min()) if per_eps.min() > 0 else math.inf
    extra = {
        "eps_ladder": list(DEFAULT_EPS_LADDER),
        "eps_constants": [float(v) for v in per_eps],
        "ladder_spread": spread,
        "end_ratio": float(per_eps[0] / per_eps[-1]),
    }
    return _report(cfg, "mollifier-commutator", ratios,
                   {"f_smoothness": f_smooth}, extra=extra)


def probe_calderon(cfg: ProbeConfig) -> ProbeReport:
    """Commutator [Lambda^sigma d/dx, f]v against ||f||_{H^s} ||v||_{H^sigma}."""
    s, sigma = check_indices("calderon", cfg)
    grid, fine = cfg.grid, cfg.grid.doubled()
    mult = half_bessel(fine, sigma) * half_dx(fine)
    ratios = []
    for idx in _blocks(cfg):
        f, v = _pairs(cfg, idx, s, sigma)
        lhs = sobolev_norms(commutator_half(mult, *commutator_inputs(f, v)), fine, 0.0)
        ratios.append(lhs / (sobolev_norms(f, grid, s) * sobolev_norms(v, grid, sigma)))
    return _report(cfg, "calderon", ratios, {"s": s, "sigma": sigma})


def _product_ratios(cfg: ProbeConfig, sf: float, sg: float) -> list:
    """||fg||_{H^sg} / (||f||_{H^sf} ||g||_{H^sg}), per block."""
    grid, fine = cfg.grid, cfg.grid.doubled()
    ratios = []
    for idx in _blocks(cfg):
        f, g = _pairs(cfg, idx, sf, sg)
        lhs = sobolev_norms(product_half(f, g), fine, sg)
        ratios.append(lhs / (sobolev_norms(f, grid, sf) * sobolev_norms(g, grid, sg)))
    return ratios


def probe_product_low(cfg: ProbeConfig) -> ProbeReport:
    """||fg||_{H^{r-1}} against ||f||_{H^r} ||g||_{H^{r-1}}, r > 1/2."""
    (r,) = check_indices("product-low", cfg)
    return _report(cfg, "product-low", _product_ratios(cfg, r, r - 1.0), {"r": r})


def check_negative_hypotheses(r: float, j: float, k: float) -> list[float]:
    """[r, j, k]; ValueError unless they meet the negative-index product hypotheses."""
    if not (float(k).is_integer() and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0.0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")
    if kernel_diverges(j):
        raise ValueError(f"need j > 1/2, got j={j}")
    if not j >= k - r:
        raise ValueError(f"need j >= k - r, got j={j}, k-r={k - r}")
    return [r, j, k]


def probe_product_negative(cfg: ProbeConfig) -> ProbeReport:
    """||fg||_{H^{r-k}} against ||f||_{H^j} ||g||_{H^{r-k}} (negative index)."""
    r, j, k = check_indices("product-negative", cfg)
    return _report(cfg, "product-negative", _product_ratios(cfg, j, r - k),
                   {"r": r, "j": j, "k": k})


def check_sweep_grid(n: int) -> np.ndarray:
    """The sweep's modes on n grid points; ValueError unless two fit (a slope)."""
    modes = np.array([m for m in _SWEEP_MODES if m <= 0.9 * (n // 3)], dtype=int)
    if len(modes) < 2:
        raise ValueError(f"the frequency sweep needs N >= 16 to fit two modes, got N={n}")
    return modes


def product_negative_sweep(grid: Grid, r: float, j: float, k: float, gamma: float = 0.6,
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray, float]:
    """Ratio of the negative-index product bound as g climbs the spectrum.

    g is a single cosine at mode k0; f is a fixed random field of
    smoothness j.  A frequency-uniform constant shows up as a flat
    log-log curve; the returned slope is the least-squares trend.
    """
    check_negative_hypotheses(r, j, k)
    modes = check_sweep_grid(grid.n)
    f = random_halves(grid, j, [seed], gamma)
    g = np.array([cosine_mode(grid, int(k0)).half for k0 in modes])
    ratios = sobolev_norms(product_half(np.broadcast_to(f, g.shape), g),
                           grid.doubled(), r - k) / (
        sobolev_norms(f, grid, j) * sobolev_norms(g, grid, r - k))
    slope = line_fit(np.log(modes.astype(float)), np.log(ratios))[0]
    return modes, ratios, slope


def probe_interpolation(cfg: ProbeConfig) -> ProbeReport:
    """||f||_{H^{th s1+(1-th)s2}} <= ||f||^th_{H^s1} ||f||^{1-th}_{H^s2}.

    This is exact Cauchy-Schwarz in coefficient space, so the violation
    count must come back zero (up to 1e-12 relative slack for roundoff).
    """
    s1, s2 = check_indices("interpolation", cfg)
    violations = 0
    ratios = []
    for idx in _blocks(cfg):
        f = random_halves(cfg.grid, s2, [cfg.seed + 2 * i for i in idx], cfg.gamma)
        n1, n2 = sobolev_norms(f, cfg.grid, s1), sobolev_norms(f, cfg.grid, s2)
        best = np.zeros(len(idx))
        for th in _THETAS:
            lhs = sobolev_norms(f, cfg.grid, th * s1 + (1.0 - th) * s2)
            rhsv = n1**th * n2 ** (1.0 - th)
            violations += int(np.count_nonzero(lhs > rhsv * (1.0 + 1e-12)))
            best = np.maximum(best, lhs / rhsv)
        ratios.append(best)
    return _report(cfg, "interpolation", ratios,
                   {"s1": s1, "s2": s2, "thetas": list(_THETAS)},
                   violations=violations)


# the probes `--probe` names, in the order a run reports them
PROBES = {"algebra": probe_algebra, "kato-ponce": probe_kato_ponce,
          "product-low": probe_product_low, "calderon": probe_calderon,
          "interpolation": probe_interpolation, "mollifier": probe_mollifier_commutator,
          "product-negative": probe_product_negative}
# the (r, j, k) product-negative runs on under `--probe all`; both meet its hypotheses
NEGATIVE_TRIPLES = ((0.0, 1.0, 1.0), (1.0, 2.0, 3.0))


def probe_runs(cfg) -> tuple[list[tuple[str, ProbeConfig]], list[str]]:
    """The (probe name, ProbeConfig) runs that `--probe` makes for cfg, a run's config, in
    report order, and every rule they break.  The mollifier runs on mollifier_N points, and
    product-negative on the config's (r, j, k) when selected alone, on NEGATIVE_TRIPLES under
    "all".  Broken ensemble knobs keep their defaults here, so the indices are still judged."""
    knobs = {"ensemble": cfg.ensemble, "gamma": cfg.gamma}
    problems = ensemble_problems(**knobs)
    base = ProbeConfig(Grid(cfg.N, cfg.L), seed=cfg.seed, r=cfg.r, s=cfg.s, sigma=cfg.sigma,
                       j=cfg.j, k=cfg.k, s1=cfg.s1, s2=cfg.s2, **({} if problems else knobs))
    runs = []
    for name in PROBES if cfg.probe == "all" else (cfg.probe,):
        if name == "mollifier":
            runs.append((name, replace(base, grid=Grid(cfg.mollifier_N, cfg.L))))
        elif name == "product-negative" and cfg.probe == "all":
            runs += [(name, replace(base, r=r, j=j, k=k)) for r, j, k in NEGATIVE_TRIPLES]
        else:
            runs.append((name, base))
    for name, pcfg in runs:
        try:
            check_indices(name, pcfg)
        except ValueError as exc:
            problems.append(f"{name} probe invalid: {exc}")
    if cfg.probe in ("all", "product-negative"):
        try:
            check_sweep_grid(cfg.N)
        except ValueError as exc:
            problems.append(f"product-negative sweep invalid: {exc}")
    return runs, problems


# -- kernel integral ----------------------------------------------------

def kernel_diverges(j: float) -> bool:
    """Whether j <= 1/2: then the kernel ratio grows at least like eta^{1-2j} (log eta at 1/2),
    `kernel_integral` flags it with inf, and `kernel` reports divergence instead of scanning."""
    return not j > 0.5


def check_kernel_range(r: float, k: float, eta_max: float) -> None:
    """ValueError if (k - r) log10(1 + eta_max^2) > 300 in doubles: past that, the scan's
    (1+eta^2)^{r-k} and I(eta) leave the normal doubles and its ratio is nan, inf or subnormal."""
    if (k - r) * math.log10(1.0 + eta_max * eta_max) > 300.0:  # at k = r, 0 * inf is nan
        raise ValueError(f"need (k - r) log10(1 + eta_max^2) <= 300 to stay in double range, "
                         f"got r={r:g}, k={k:g}, eta_max={eta_max:g}")


def kernel_integral(r: float, j: float, k: float, eta: float) -> float:
    """I(eta) = integral over the line of (1+xi^2)^{r-k} (1+(xi-eta)^2)^{-j}.

    math.inf flags an unbounded ratio I(eta)/(1+eta^2)^{r-k} when
    `kernel_diverges(j)` (criterion 09 asserts the flag; I itself is
    finite, e.g. I(0) = 2.13 at (0, 0.4, 1)), and a tail exponent
    alpha = 2(j - r + k) - 1 that is not positive (I is infinite).
    Fixed double-exponential rules do the work (Takahasi & Mori, Publ.
    RIMS 9, 1974).  I is even in eta, so take eta >= 0.
    Each tail goes through its log-distance s = e^u from the nearer
    peak, u = sinh t, t in [-asinh 40, asinh(40/alpha + 40)] with step
    1/32: the integrand times s decays like s^{-alpha}, so the rule ends
    where that factor is e^{-40}.  The segment [0, eta] between the
    peaks goes through tanh-sinh, its nodes reaching within e^{-40} of
    both ends.  There a peak of unit width sits log(eta) e-folds from the
    segment's centre in the tanh-sinh variable, so the step is
    1 / (8 max(8, log eta)), which keeps the peaks resolved as eta grows.
    Every integrand value is formed in log space, so the far tail
    neither overflows nor underflows early.
    """
    p = r - k
    alpha = 2.0 * (j - p) - 1.0
    if kernel_diverges(j) or not alpha > 0.0:
        return math.inf
    eta = abs(float(eta))

    def piece(log_x, log_y, log_jac, h):
        # h * sum of integrand * Jacobian, given log |xi| and log |xi - eta|
        log_f = p * np.logaddexp(0.0, 2.0 * log_x) - j * np.logaddexp(0.0, 2.0 * log_y)
        return h * float(np.exp(log_f + log_jac).sum())

    h = 1.0 / 32.0
    t = h * np.arange(math.floor(-math.asinh(40.0) / h),
                      math.ceil(math.asinh(40.0 / alpha + 40.0) / h) + 1)
    u = np.sinh(t)
    far = np.logaddexp(u, math.log(eta)) if eta > 0.0 else u
    jac = u + np.log(np.cosh(t))
    total = piece(u, far, jac, h) + piece(far, u, jac, h)
    if eta > 0.0:
        log_eta = math.log(eta)
        spread = max(8.0, log_eta)
        h = 1.0 / (8.0 * spread)
        m = math.ceil(math.asinh((40.0 + spread) / math.pi) / h)
        t = h * np.arange(-m, m + 1)
        q = 0.5 * math.pi * np.sinh(t)  # xi = eta (1 + tanh q) / 2
        total += piece(log_eta - np.logaddexp(0.0, -2.0 * q),
                       log_eta - np.logaddexp(0.0, 2.0 * q),
                       log_eta + np.log(math.pi * np.cosh(t)) - 2.0 * np.logaddexp(q, -q),
                       h)
    return total


@dataclass(frozen=True)
class KernelScanReport:
    etas: np.ndarray
    integrals: np.ndarray
    ratios: np.ndarray
    sup: float
    argmax: float
    last_decade_growth: float
    plateau: bool


def kernel_bound_scan(r: float, j: float, k: float, eta_max: float = 1e4,
                      eta_points: int = 52) -> KernelScanReport:
    """Scan I(eta)/(1+eta^2)^{r-k} at eta = 0 and on the log grid
    `np.geomspace(0.1, eta_max, eta_points - 1)`; the bound needs a plateau.

    Hypotheses are enforced up front: outside them the ratio genuinely
    diverges (e.g. j < k - r makes it grow like a power of eta), so a
    violating triple, or a scan out of `check_kernel_range`, is rejected.
    """
    check_negative_hypotheses(r, j, k)
    check_kernel_range(r, k, eta_max)
    etas = np.concatenate([[0.0], np.geomspace(0.1, eta_max, eta_points - 1)])
    integrals = np.array([kernel_integral(r, j, k, e) for e in etas])
    # at k = r the weight is exactly 1, and 1 + eta^2 may overflow on the way to it
    ratios = integrals if k == r else integrals / (1.0 + etas**2) ** (r - k)
    top = etas.max()
    decade = (etas >= top / 10.0) & (etas > 0)
    base = ratios[decade][0]
    growth = float(ratios[decade].max() / base - 1.0)
    best = int(np.argmax(ratios))
    return KernelScanReport(
        etas=etas, integrals=integrals, ratios=ratios,
        sup=float(ratios[best]), argmax=float(etas[best]),
        last_decade_growth=growth, plateau=bool(growth <= 0.02),
    )
