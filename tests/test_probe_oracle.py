"""Stacked probe evaluation against the Field-by-Field oracle.

The probes evaluate whole blocks of samples as stacks of rfft half
spectra, and `kernel_integral` uses a fixed double-exponential rule.
The oracles below are the per-sample Field pipelines and scipy's
adaptive `quad` that they replaced: the batched ratios must agree with
them at roundoff level and pick the same worst sample, and each
sample's ratio must not depend on the ensemble size or the block size.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from chslab import inequalities
from chslab.fields import cosine_mode, random_field
from chslab.inequalities import (
    DEFAULT_EPS_LADDER,
    ProbeConfig,
    kernel_integral,
    probe_algebra,
    probe_calderon,
    probe_interpolation,
    probe_kato_ponce,
    probe_mollifier_commutator,
    probe_product_low,
    probe_product_negative,
    product_negative_sweep,
)
from chslab.mollifier import build_mollifier, commutator_mollifier
from chslab.spectral import (
    Field,
    Grid,
    bessel_pow,
    commutator_bessel,
    commutator_bessel_dx,
    dx,
    pad_to,
    product_exact,
    sobolev_norm,
    sup_norm,
)
from full_spectrum import mollify

# -- Field-by-Field oracle ------------------------------------------------


def oracle_product_exact(f, g):
    fine = f.grid.doubled()
    return Field.from_values(fine, pad_to(f, fine).values * pad_to(g, fine).values)


def oracle_commutator_bessel(r, f, g):
    fine = f.grid.doubled()
    ff, gf = pad_to(f, fine), pad_to(g, fine)
    term1 = bessel_pow(Field.from_values(fine, ff.values * gf.values), r)
    term2 = Field.from_values(fine, ff.values * bessel_pow(gf, r).values)
    return term1 - term2


def oracle_commutator_bessel_dx(sigma, f, v):
    fine = f.grid.doubled()
    ff, vf = pad_to(f, fine), pad_to(v, fine)
    op = lambda h: dx(bessel_pow(h, sigma), 1)
    term1 = op(Field.from_values(fine, ff.values * vf.values))
    term2 = Field.from_values(fine, ff.values * op(vf).values)
    return term1 - term2


def oracle_commutator_mollifier(eps, f, g):
    fine = f.grid.doubled()
    fine_table = build_mollifier(fine, eps)
    ff, gx = pad_to(f, fine), pad_to(dx(g, 1), fine)
    term1 = mollify(Field.from_values(fine, ff.values * gx.values), fine_table)
    term2 = Field.from_values(fine, ff.values * mollify(gx, fine_table).values)
    return term1 - term2


def _pair(cfg, i, sf, sg):
    f = random_field(cfg.grid, sf, cfg.gamma, seed=cfg.seed + 2 * i)
    g = random_field(cfg.grid, sg, cfg.gamma, seed=cfg.seed + 2 * i + 1)
    return f, g


def oracle_algebra(cfg):
    r = cfg.r
    out = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, r, r)
        lhs = sobolev_norm(oracle_product_exact(f, g), r)
        out.append(lhs / (sup_norm(f) * sobolev_norm(g, r) + sobolev_norm(f, r) * sup_norm(g)))
    return np.array(out), {}


def oracle_kato_ponce(cfg):
    r = cfg.r
    out = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, r, r - 1.0)
        lhs = sobolev_norm(oracle_commutator_bessel(r, f, g), 0.0)
        out.append(lhs / (sup_norm(dx(f, 1)) * sobolev_norm(g, r - 1.0)
                          + sobolev_norm(f, r) * sup_norm(g)))
    return np.array(out), {}


def oracle_mollifier(cfg):
    per_eps = np.zeros(len(DEFAULT_EPS_LADDER))
    out = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, cfg.s, 0.0)
        den = (sup_norm(f) + sup_norm(dx(f, 1))) * sobolev_norm(g, 0.0)
        vals = [sobolev_norm(oracle_commutator_mollifier(eps, f, g), 0.0) / den
                for eps in DEFAULT_EPS_LADDER]
        per_eps = np.maximum(per_eps, vals)
        out.append(max(vals))
    return np.array(out), {"eps_constants": per_eps}


def oracle_calderon(cfg):
    s, sigma = cfg.s, cfg.sigma
    out = []
    for i in range(cfg.ensemble):
        f, v = _pair(cfg, i, s, sigma)
        lhs = sobolev_norm(oracle_commutator_bessel_dx(sigma, f, v), 0.0)
        out.append(lhs / (sobolev_norm(f, s) * sobolev_norm(v, sigma)))
    return np.array(out), {}


def oracle_product(cfg, sf, sg):
    out = []
    for i in range(cfg.ensemble):
        f, g = _pair(cfg, i, sf, sg)
        lhs = sobolev_norm(oracle_product_exact(f, g), sg)
        out.append(lhs / (sobolev_norm(f, sf) * sobolev_norm(g, sg)))
    return np.array(out), {}


def oracle_interpolation(cfg, thetas=(0.0, 0.25, 0.5, 0.75, 1.0)):
    s1, s2 = cfg.s1, cfg.s2
    violations = 0
    out = []
    for i in range(cfg.ensemble):
        f = random_field(cfg.grid, s2, cfg.gamma, seed=cfg.seed + 2 * i)
        n1, n2 = sobolev_norm(f, s1), sobolev_norm(f, s2)
        best = 0.0
        for th in thetas:
            lhs = sobolev_norm(f, th * s1 + (1.0 - th) * s2)
            rhsv = n1**th * n2 ** (1.0 - th)
            violations += lhs > rhsv * (1.0 + 1e-12)
            best = max(best, lhs / rhsv)
        out.append(best)
    return np.array(out), {"violations": violations}


def oracle_kernel_integral(r, j, k, eta):
    p = r - k

    def integrand(xi):
        return (1.0 + xi * xi) ** p * (1.0 + (xi - eta) ** 2) ** (-j)

    cuts = sorted({0.0, float(eta)})
    pieces = [(-math.inf, cuts[0]), (cuts[-1], math.inf)]
    if len(cuts) == 2:
        pieces.insert(1, (cuts[0], cuts[1]))
    return sum(quad(integrand, a, b, epsabs=1e-300, epsrel=1e-11, limit=400)[0]
               for a, b in pieces)


CIRCLE = Grid(256, 2.0 * np.pi)
FINE = Grid(1024, 2.0 * np.pi)

# (probe, oracle, grid, indices)
CASES = {
    "algebra": (probe_algebra, oracle_algebra, CIRCLE, dict(r=2.0)),
    "kato-ponce": (probe_kato_ponce, oracle_kato_ponce, CIRCLE, dict(r=2.0)),
    "mollifier": (probe_mollifier_commutator, oracle_mollifier, FINE, dict(s=2.5)),
    "calderon": (probe_calderon, oracle_calderon, CIRCLE, dict(s=2.5, sigma=1.0)),
    "product-low": (probe_product_low, lambda c: oracle_product(c, c.r, c.r - 1.0),
                    CIRCLE, dict(r=2.0)),
    "product-negative-011": (probe_product_negative,
                             lambda c: oracle_product(c, c.j, c.r - c.k),
                             CIRCLE, dict(r=0.0, j=1.0, k=1.0)),
    "product-negative-123": (probe_product_negative,
                             lambda c: oracle_product(c, c.j, c.r - c.k),
                             CIRCLE, dict(r=1.0, j=2.0, k=3.0)),
    "interpolation": (probe_interpolation, oracle_interpolation, CIRCLE,
                      dict(s1=0.0, s2=3.0)),
}


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) / np.asarray(b) - 1.0)))


# -- one-row wrappers -------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_one_row_products_and_commutators_match_the_oracle(seed):
    grid = Grid(128, 5.0)
    f = random_field(grid, 2.0, seed=seed)
    g = random_field(grid, 1.0, seed=seed + 100)
    # roundoff in the product values, amplified by the largest multiplier
    xi = np.abs(grid.doubled().xi).max()
    fg = sup_norm(f) * sup_norm(g)
    cases = [
        (product_exact(f, g), oracle_product_exact(f, g), fg),
        (commutator_bessel(1.5, f, g), oracle_commutator_bessel(1.5, f, g),
         fg * (1.0 + xi**2) ** 0.75),
        (commutator_bessel_dx(0.5, f, g), oracle_commutator_bessel_dx(0.5, f, g),
         fg * (1.0 + xi**2) ** 0.25 * xi),
        (commutator_mollifier(0.25, f, g), oracle_commutator_mollifier(0.25, f, g),
         sup_norm(f) * sup_norm(dx(g, 1))),
    ]
    for new, old, scale in cases:
        assert new.grid == old.grid == grid.doubled()
        assert np.abs(new.coefficients - old.coefficients).max() <= 1e-15 * scale


# -- batched probes ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_probe_matches_the_field_oracle(name):
    probe, oracle, grid, idx = CASES[name]
    cfg = ProbeConfig(grid, ensemble=40, seed=3, **idx)
    rep = probe(cfg)
    want, extra = oracle(cfg)
    assert rep.ratios.shape == want.shape
    assert _rel(rep.ratios, want) <= 1e-12
    assert rep.worst_index == int(np.argmax(want))
    assert rep.worst_seed == 3 + 2 * rep.worst_index
    if "eps_constants" in extra:
        assert _rel(rep.extra["eps_constants"], extra["eps_constants"]) <= 1e-12
    if "violations" in extra:
        assert rep.violations == extra["violations"] == 0


def test_seeds_beyond_64_bits_do_not_wrap():
    cfg = ProbeConfig(CIRCLE, ensemble=3, seed=2**64 - 3, r=2.0)
    assert _rel(probe_algebra(cfg).ratios, oracle_algebra(cfg)[0]) <= 1e-12


def test_frequency_sweep_matches_the_field_oracle():
    for r, j, k in ((0.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
        modes, ratios, _ = product_negative_sweep(CIRCLE, r, j, k, seed=4)
        f = random_field(CIRCLE, j, 0.6, 1.0, 4)
        want = []
        for k0 in modes:
            g = cosine_mode(CIRCLE, int(k0))
            want.append(sobolev_norm(oracle_product_exact(f, g), r - k)
                        / (sobolev_norm(f, j) * sobolev_norm(g, r - k)))
        assert _rel(ratios, want) <= 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_ratios_are_a_prefix_of_the_larger_ensemble(name):
    # 70 samples cross a block boundary; sample i keeps its bytes
    probe, _, grid, idx = CASES[name]
    small = probe(ProbeConfig(grid, ensemble=70, **idx))
    large = probe(ProbeConfig(grid, ensemble=200, **idx))
    assert np.array_equal(small.ratios, large.ratios[:70])


def test_block_samples_follow_the_point_budget():
    # BLOCK counts probe-grid points: 32 samples at N = 256, 8 at N = 1024
    sizes = {n: [len(b) for b in inequalities._blocks(ProbeConfig(Grid(n, 2.0 * np.pi)))]
             for n in (256, 1024, 16384)}
    assert sizes[256] == [32] * 6 + [8]
    assert sizes[1024] == [8] * 25
    assert sizes[16384] == [1] * 200


# (case, point budget): 32-sample mollifier blocks, as when BLOCK counted
# samples; one sample per block; budgets that split 200 samples unevenly
BUDGETS = [("mollifier", 32 * 1024), ("mollifier", 9),
           ("calderon", 9 * 256 + 100), ("interpolation", 7 * 256)]


@pytest.mark.parametrize("name,budget", BUDGETS)
def test_ratios_do_not_depend_on_the_block_budget(monkeypatch, name, budget):
    probe, _, grid, idx = CASES[name]
    cfg = ProbeConfig(grid, ensemble=200, **idx)
    default = probe(cfg)
    monkeypatch.setattr(inequalities, "BLOCK", budget)
    other = probe(cfg)
    assert np.array_equal(default.ratios, other.ratios)
    # every other field too: constant, worst seed, violations and extra
    assert replace(default, ratios=None) == replace(other, ratios=None)


# -- kernel quadrature ------------------------------------------------------

ETAS = np.concatenate([[0.0], np.geomspace(0.1, 1e4, 51)])
TRIPLES = [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 0.51, 1.0),
           (0.3, 3.7, 4.0), (0.5, 0.6, 1.0), (0.5, 0.75, 1.0), (2.0, 1.5, 2.0),
           (0.0, 2.0, 2.0), (1.5, 2.5, 3.0), (0.0, 5.0, 1.0), (2.0, 0.506, 2.0)]


@pytest.mark.parametrize("triple", TRIPLES)
def test_kernel_integral_matches_quad(triple):
    r, j, k = triple
    inequalities.check_negative_hypotheses(r, j, k)
    assert j - r + k >= 0.505
    got = np.array([kernel_integral(r, j, k, e) for e in ETAS])
    want = np.array([oracle_kernel_integral(r, j, k, e) for e in ETAS])
    assert _rel(got, want) <= 5e-11


def test_kernel_integral_meets_closed_forms():
    for j in (0.501, 0.55, 1.0, 2.5):
        # r = k: a Student-t mass, sqrt(pi) Gamma(j - 1/2) / Gamma(j)
        want = math.sqrt(math.pi) * math.gamma(j - 0.5) / math.gamma(j)
        assert _rel([kernel_integral(1.0, j, 1.0, e) for e in ETAS], want) <= 1e-13
    # two unit Lorentzians: 2 pi / (4 + eta^2)
    got = [kernel_integral(0.0, 1.0, 1.0, e) for e in ETAS]
    assert _rel(got, 2.0 * math.pi / (4.0 + ETAS**2)) <= 1e-13


def test_kernel_integral_is_even_in_eta():
    for e in (0.3, 7.0, 2e3):
        assert kernel_integral(0.5, 1.0, 1.0, -e) == kernel_integral(0.5, 1.0, 1.0, e)


def test_kernel_integral_flags_a_non_integrable_tail():
    # j > 1/2 but r - k > 0 leaves tail exponent 2(j - r + k) - 1 <= 0
    assert math.isinf(kernel_integral(2.0, 0.75, 1.0, 1.0))
