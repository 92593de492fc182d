"""Estimate probes and the convolution-kernel scan.

The probes are statistical, so unit tests pin exact structure instead:
closed-form ratios for hand-checkable inputs, hypothesis rejection at
the stated index ranges, determinism of the bookkeeping, and the two
kernel integrals that reduce to textbook contour integrals.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chslab.cli import _csv, _json, _probe_json
from chslab.fields import random_field
from chslab.inequalities import (
    DEFAULT_EPS_LADDER,
    KernelScanReport,
    ProbeConfig,
    check_kernel_range,
    check_negative_hypotheses,
    ensemble_problems,
    kernel_bound_scan,
    kernel_diverges,
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
from chslab.spectral import (
    Field,
    Grid,
    dealias_truncate,
    product_exact,
    sobolev_norm,
    sup_norm,
)


@pytest.fixture
def circle256():
    return Grid(256, 2.0 * np.pi)


def small_cfg(grid, **kw):
    base = dict(ensemble=40, gamma=0.6, seed=0)
    base.update(kw)
    return ProbeConfig(grid, **base)


# ----------------------------------------------------------- validation

def test_config_rejects_bad_ensemble_knobs(circle256):
    with pytest.raises(ValueError):
        ProbeConfig(circle256, ensemble=0)
    with pytest.raises(ValueError):
        ProbeConfig(circle256, gamma=0.5)
    # every broken knob is named at once
    assert ensemble_problems(200, 0.6) == []
    problems = ensemble_problems(0, 0.5)
    assert problems == ["ensemble size must be positive, got 0",
                        "decay exponent gamma must exceed 1/2, got 0.5"]
    with pytest.raises(ValueError) as err:
        ProbeConfig(circle256, ensemble=0, gamma=0.5)
    assert str(err.value) == "; ".join(problems)


def test_probes_demand_their_indices(circle256):
    with pytest.raises(ValueError):
        probe_algebra(small_cfg(circle256))  # r missing
    with pytest.raises(ValueError):
        probe_calderon(small_cfg(circle256, s=2.5))  # sigma missing


def test_index_range_enforcement(circle256):
    with pytest.raises(ValueError):
        probe_algebra(small_cfg(circle256, r=0.0))
    with pytest.raises(ValueError):
        probe_kato_ponce(small_cfg(circle256, r=-0.5))
    with pytest.raises(ValueError):
        probe_product_low(small_cfg(circle256, r=0.5))
    with pytest.raises(ValueError):
        probe_calderon(small_cfg(circle256, s=1.2, sigma=0.0))
    with pytest.raises(ValueError):
        probe_calderon(small_cfg(circle256, s=2.5, sigma=2.0))  # sigma+1 > s
    with pytest.raises(ValueError):
        probe_interpolation(small_cfg(circle256, s1=3.0, s2=3.0))


def test_negative_index_hypotheses(circle256):
    # j >= k - r fails: the ratio genuinely grows, so the probe refuses
    with pytest.raises(ValueError):
        probe_product_negative(small_cfg(circle256, r=0.5, j=1.0, k=2.0))
    with pytest.raises(ValueError):
        probe_product_negative(small_cfg(circle256, r=3.0, j=1.0, k=2.0))  # r > k
    with pytest.raises(ValueError):
        probe_product_negative(small_cfg(circle256, r=1.0, j=0.4, k=1.0))  # j <= 1/2
    with pytest.raises(ValueError):
        probe_product_negative(small_cfg(circle256, r=1.0, j=2.0, k=2.5))  # k not integer


# --------------------------------------------------- closed-form ratios

def test_algebra_ratio_for_two_cosines():
    # f = g = cos x at r = 1 on the unit circle:
    #   ||cos^2||_1 = sqrt(7 pi)/2, denominator = 2 sqrt(2 pi),
    #   ratio = sqrt(14)/8
    grid = Grid(64, 2.0 * np.pi)
    f = Field.from_values(grid, np.cos(grid.x))
    num = sobolev_norm(product_exact(f, f), 1.0)
    den = sup_norm(f) * sobolev_norm(f, 1.0) * 2.0
    assert num / den == pytest.approx(math.sqrt(14.0) / 8.0, rel=1e-12)


def test_low_product_ratio_for_constant_factor():
    # f identically 1 makes the ratio collapse to 1/sqrt(L) for any g;
    # g is dealiased so padding to the product grid is norm-exact
    grid = Grid(64, 2.0 * np.pi)
    ones = Field.from_values(grid, np.ones(grid.n))
    g = dealias_truncate(random_field(grid, 1.0, seed=5))
    num = sobolev_norm(product_exact(ones, g), 1.0)
    den = sobolev_norm(ones, 2.0) * sobolev_norm(g, 1.0)
    assert num / den == pytest.approx(1.0 / math.sqrt(2.0 * np.pi), rel=1e-12)


# ------------------------------------------------------- probe behavior

def test_probe_reports_are_deterministic(circle256):
    a = probe_algebra(small_cfg(circle256, r=2.0))
    b = probe_algebra(small_cfg(circle256, r=2.0))
    assert np.array_equal(a.ratios, b.ratios)
    assert a.constant == b.constant


def test_worst_seed_points_at_the_worst_draw(circle256):
    rep = probe_kato_ponce(small_cfg(circle256, r=2.0, seed=100))
    assert rep.worst_seed == 100 + 2 * rep.worst_index
    assert rep.ratios[rep.worst_index] == rep.constant


def test_probe_constants_are_modest(circle256):
    # sanity scale: these are normalized ratios, not raw norms
    for rep in (probe_algebra(small_cfg(circle256, r=2.0)),
                probe_kato_ponce(small_cfg(circle256, r=2.0)),
                probe_product_low(small_cfg(circle256, r=2.0)),
                probe_calderon(small_cfg(circle256, s=2.5, sigma=1.0))):
        assert 0.0 < rep.constant < 10.0
        assert math.isfinite(rep.constant)


def test_interpolation_convexity_never_fails(circle256):
    rep = probe_interpolation(small_cfg(circle256, s1=0.0, s2=3.0, ensemble=100))
    assert rep.violations == 0
    # endpoints theta = 0, 1 give ratio exactly 1
    assert rep.constant == pytest.approx(1.0, abs=1e-12)


def test_mollifier_probe_reports_ladder(circle256):
    rep = probe_mollifier_commutator(small_cfg(circle256, s=2.5, ensemble=20))
    extra = rep.extra
    assert extra["eps_ladder"] == list(DEFAULT_EPS_LADDER)
    assert len(extra["eps_constants"]) == len(DEFAULT_EPS_LADDER)
    assert all(v > 0 for v in extra["eps_constants"])
    assert extra["ladder_spread"] >= 1.0
    assert rep.constant == pytest.approx(max(extra["eps_constants"]), rel=1e-12)


def test_mollifier_probe_peak_memory_is_bounded():
    # the doubled-grid rows of one block set the peak: at the CLI defaults,
    # 8-sample blocks trace 1.7 MB where 32-sample blocks traced 6.6 MB
    cfg = ProbeConfig(Grid(1024, 2.0 * np.pi), ensemble=200, s=2.5)
    probe_mollifier_commutator(cfg)  # fill the table and seed caches first
    tracemalloc.start()
    try:
        probe_mollifier_commutator(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_report_json_round_trip(circle256):
    rep = probe_algebra(small_cfg(circle256, r=1.5))
    back = json.loads(_json(_probe_json(rep)))
    assert back == json.loads(json.dumps(_probe_json(rep)))
    assert back["constant"] == rep.constant and back["grid"]["n"] == 256
    lines = _csv("index,ratio", enumerate(rep.ratios)).decode().splitlines()
    assert lines[0] == "index,ratio"
    assert len(lines) == 1 + len(rep.ratios)
    assert [float(l.split(",")[1]) for l in lines[1:]] == list(rep.ratios)


# ------------------------------------------------------- frequency sweep

def test_negative_product_sweep_is_flat(circle256):
    modes, ratios, slope = product_negative_sweep(circle256, 0.0, 1.0, 1.0)
    assert len(modes) == len(ratios)
    assert np.all(modes <= 0.9 * (256 // 3))
    assert slope <= 0.05


def test_sweep_rejects_bad_triples(circle256):
    with pytest.raises(ValueError):
        product_negative_sweep(circle256, 0.5, 1.0, 2.0)


def test_sweep_needs_two_modes_for_its_slope():
    with pytest.raises(ValueError, match="N >= 16"):
        product_negative_sweep(Grid(8, 2.0 * np.pi), 0.0, 1.0, 1.0)
    modes, _, slope = product_negative_sweep(Grid(16, 2.0 * np.pi), 0.0, 1.0, 1.0)
    assert list(modes) == [2, 4] and math.isfinite(slope)


# -------------------------------------------------------- kernel integral

def test_kernel_integral_collapses_to_lorentzian():
    # r = k leaves a single Lorentzian of mass pi at every offset
    for r, k in ((1.0, 1.0), (2.0, 2.0)):
        for eta in (0.0, 3.7, 100.0):
            assert kernel_integral(r, 1.0, k, eta) == pytest.approx(
                math.pi, rel=1e-9)


def test_kernel_integral_matches_cauchy_convolution():
    # (0, 1, 1): product of two unit Lorentzians integrates to
    # 2 pi / (4 + eta^2)
    for eta in (0.0, 1.0, 10.0, 300.0):
        assert kernel_integral(0.0, 1.0, 1.0, eta) == pytest.approx(
            2.0 * math.pi / (4.0 + eta * eta), rel=1e-8)


def test_one_predicate_says_where_the_kernel_bound_diverges():
    for j in (-1.0, 0.25, 0.5):
        assert kernel_diverges(j)
        assert math.isinf(kernel_integral(0.0, j, 1.0, 1.0))
        with pytest.raises(ValueError, match="need j > 1/2"):
            check_negative_hypotheses(1.0, j, 1.0)
    for j in (0.5000001, 1.0):
        assert not kernel_diverges(j)
        assert math.isfinite(kernel_integral(0.0, j, 1.0, 1.0))
        assert check_negative_hypotheses(1.0, j, 1.0) == [1.0, j, 1.0]


def test_kernel_integral_flags_divergence():
    assert math.isinf(kernel_integral(0.0, 0.4, 1.0, 0.0))
    assert math.isinf(kernel_integral(1.0, 0.5, 1.0, 2.0))


def test_kernel_scan_plateaus_at_known_levels():
    scan = kernel_bound_scan(0.0, 1.0, 1.0)
    assert isinstance(scan, KernelScanReport)
    assert scan.plateau
    assert scan.last_decade_growth <= 0.02
    # ratio 2 pi (1+eta^2)/(4+eta^2) climbs to 2 pi
    assert scan.sup == pytest.approx(2.0 * math.pi, rel=1e-6)

    flat = kernel_bound_scan(1.0, 1.0, 1.0)
    assert flat.plateau
    assert np.allclose(flat.ratios, math.pi, rtol=1e-8)


def test_kernel_scan_rejects_unsupported_triples():
    with pytest.raises(ValueError):
        kernel_bound_scan(0.5, 1.0, 2.0)


def test_kernel_scan_stays_in_double_range():
    # past (k - r) log10(1 + eta_max^2) = 300 the ratio came out nan (the
    # first three) or from subnormal integrals (the last two)
    for r, j, k, eta_max in ((0.0, 100.0, 100.0, 1e4), (1.0, 2.0, 3.0, 1e81),
                             (0.0, 1.0, 1.0, 1e155), (0.0, 40.0, 40.0, 1e4),
                             (1.0, 2.0, 3.0, 1e76)):
        with pytest.raises(ValueError, match="double range"):
            check_kernel_range(r, k, eta_max)
        with pytest.raises(ValueError, match="double range"):
            kernel_bound_scan(r, j, k, eta_max, eta_points=10)
    # at the edge, and k = r at any eta_max (1 + eta^2 overflows, its power 0 does not)
    for r, j, k, eta_max in ((1.0, 2.0, 3.0, 1e75), (0.0, 37.0, 37.0, 1e4),
                             (2.0, 3.0, 2.0, 1e300)):
        check_kernel_range(r, k, eta_max)
        with np.errstate(over="ignore"):
            scan = kernel_bound_scan(r, j, k, eta_max, eta_points=10)
        assert scan.plateau
        assert (np.abs(scan.integrals) >= np.finfo(float).tiny).all()
        assert np.isfinite(scan.ratios).all()


def test_kernel_scan_at_k_equal_r_raises_no_overflow_warning():
    # the weight (1 + eta^2)^0 is exactly 1, so 1 + eta^2 is never formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = kernel_bound_scan(2, 3, 2, 1e300, eta_points=10)
    assert np.array_equal(scan.ratios, scan.integrals) and np.isfinite(scan.ratios).all()


def test_kernel_scan_accepts_custom_offsets():
    scan = kernel_bound_scan(1.0, 2.0, 3.0, eta_max=1000.0, eta_points=5)
    assert np.array_equal(scan.etas, [0.0, *np.geomspace(0.1, 1000.0, 4)])
    assert len(scan.integrals) == len(scan.etas)
    assert scan.sup >= scan.ratios[0]
