"""Smoothing-by-convolution behavior that the probes downstream lean on.

The multiplier tables come from a trapezoid rule; scalar adaptive `quad`
of the same cosine transform, the method it replaced, is kept here as
the oracle.  The rule is evaluated by angle addition; its dense cosine
matrix form is the second oracle.  Tables are built on the half
spectrum; the full-spectrum rule they replaced is the third.  The angle
addition contracts with einsum, which stays off BLAS; its form with
matrix products, which call BLAS, is the fourth.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import chslab
from chslab import mollifier
from chslab.inequalities import DEFAULT_EPS_LADDER
from chslab.mollifier import (
    build_mollifier,
    bump_transform_raw,
    commutator_mollifier,
)
from chslab.spectral import Field, Grid, dealias_truncate, dx, sobolev_norm, sup_norm
from full_spectrum import full_mollifier, inner, mollify

_QUAD_TOL = 1e-12


def _bump_scalar(x: float) -> float:
    return float(np.exp(1.0 / (x * x - 1.0))) if abs(x) < 1.0 else 0.0


def quad_transform(w: float) -> float:
    """Oracle: 2 int_0^1 exp(1/(x^2-1)) cos(w x) dx by adaptive quadrature."""
    val, _ = quad(
        _bump_scalar, 0.0, 1.0, weight="cos", wvar=float(w),
        epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
    )
    return 2.0 * val


def dense_transform(w):
    """Oracle: the trapezoid rule as one dense cosine matrix times the weights."""
    w = np.asarray(w, dtype=float)
    m = mollifier._trapezoid_nodes(float(np.abs(w).max()))
    x = np.arange(m) / m
    weights = np.exp(1.0 / (x * x - 1.0)) * (2.0 / m)
    weights[0] *= 0.5
    return np.cos(np.outer(w, x)) @ weights


def matmul_transform(w):
    """Oracle: the angle-addition rule with its two contractions as BLAS matrix products."""
    w = np.asarray(w, dtype=float)
    m = mollifier._trapezoid_nodes(float(np.abs(w).max()))
    b = math.isqrt(m - 1) + 1
    x = np.arange(m) / m
    weights = np.zeros(-(-m // b) * b)
    weights[:m] = np.exp(1.0 / (x * x - 1.0)) * (2.0 / m)
    weights[0] *= 0.5
    weights = weights.reshape(-1, b)
    fine = np.outer(w, np.arange(b) / m)
    coarse = np.outer(w, np.arange(len(weights)) * (b / m))
    return (np.einsum("ka,ka->k", np.cos(fine) @ weights.T, np.cos(coarse))
            - np.einsum("ka,ka->k", np.sin(fine) @ weights.T, np.sin(coarse)))


def oracle_table(grid, eps):
    """The table by quad on the half spectrum (modes 0..N/2)."""
    uniq, inverse = np.unique(np.abs(eps * grid.xi[: grid.n // 2 + 1]), return_inverse=True)
    return np.array([quad_transform(w) for w in uniq])[inverse] / quad_transform(0.0)


@pytest.fixture
def grid():
    return Grid(128, 2.0 * np.pi)


def smooth_random(grid, seed=0, decay=3.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n, dtype=complex)
    half = grid.n // 2
    amp = (1.0 + np.arange(1, half) ** 2) ** (-decay / 2.0)
    z = rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)
    c[1:half] = amp * z
    c[-1:-half:-1] = np.conj(c[1:half])
    return Field(grid, c[: half + 1])


def test_symbol_is_one_at_zero_frequency(grid):
    assert build_mollifier(grid, 0.5)[0] == 1.0


def test_symbol_stays_in_unit_interval(grid):
    for eps in (1.0, 0.25, 1.0 / 64.0):
        m = build_mollifier(grid, eps)
        assert m.max() <= 1.0
        assert m.min() >= -1.0


def test_symbol_decays_at_high_frequency(grid):
    m = build_mollifier(grid, 1.0)
    assert np.abs(m[40:]).max() < 1e-3


def test_transform_peaks_at_zero():
    raw = bump_transform_raw(np.array([0.0, 0.5, 1.0, 3.0, 10.0]))
    assert np.all(np.abs(raw[1:]) < raw[0])


@pytest.mark.parametrize("n", [1024, 2048])
def test_default_ladder_tables_match_quad(n):
    grid = Grid(n, 2.0 * np.pi)
    for eps in DEFAULT_EPS_LADDER:
        table = build_mollifier(grid, eps)
        assert np.abs(table - oracle_table(grid, eps)).max() <= 1e-12


@pytest.mark.parametrize("n", [2**p for p in range(3, 13)])
def test_half_spectrum_tables_equal_the_full_spectrum_rule(n):
    # |eps xi| takes the same values over modes 0..N/2 as over all N modes,
    # and already in increasing order, so no unique pass is needed
    grid = Grid(n, 2.0 * np.pi)
    for eps in DEFAULT_EPS_LADDER:
        assert np.array_equal(build_mollifier(grid, eps), full_mollifier(grid, eps))


@pytest.mark.parametrize("n", [1024, 2048])
def test_angle_addition_matches_the_dense_rule_on_the_default_ladder(n):
    grid = Grid(n, 2.0 * np.pi)
    for eps in DEFAULT_EPS_LADDER:
        w = np.unique(np.abs(eps * grid.xi))
        want = dense_transform(w)
        assert np.abs(bump_transform_raw(w) - want).max() <= 1e-13 * want[0]


def test_einsum_contractions_match_the_matrix_products():
    # the doubled grid of the mollifier probe's N = 1024; relative to the
    # zero-frequency value, the scale of every table entry
    grid = Grid(2048, 2.0 * np.pi)
    for eps in DEFAULT_EPS_LADDER:
        w = np.abs(eps * grid.xi[: grid.n // 2 + 1])
        want = matmul_transform(w)
        assert np.abs(bump_transform_raw(w) - want).max() <= 1e-15 * want[0]


@pytest.mark.parametrize("w", [
    [0.0],
    [2.5],
    [-7.0, 7.0, 0.0, 1e-9],
    np.random.default_rng(0).uniform(-3000.0, 3000.0, 257),
    np.linspace(0.0, 40.0, 1001)[::-1],
])
def test_angle_addition_matches_the_dense_rule_on_any_frequencies(w):
    scale = dense_transform([0.0])[0]
    got = bump_transform_raw(np.array(w))
    assert got.shape == (len(w),)
    assert np.abs(got - dense_transform(w)).max() <= 1e-13 * scale


def test_table_build_needs_no_dense_cosine_matrix():
    # the dense rule peaks at about 7 MB on this table; the uncached build runs
    grid = Grid(2048, 2.0 * np.pi)
    tracemalloc.start()
    try:
        build_mollifier.__wrapped__(grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_node_rule_scales_to_high_frequency():
    # frequencies up to 4096.  Here quad's own tolerance bounds the
    # agreement: it is off by 1.3e-12 near w = 2989, where doubling the
    # trapezoid nodes moves the table by 1.5e-14
    grid = Grid(8192, 2.0 * np.pi)
    table = build_mollifier(grid, 1.0)
    tol = 2.0 * _QUAD_TOL / quad_transform(0.0)
    assert np.abs(table - oracle_table(grid, 1.0)).max() <= tol


@pytest.mark.parametrize("n", [1024, 2048])
def test_doubling_the_nodes_leaves_the_tables_unchanged(n, monkeypatch):
    grid = Grid(n, 2.0 * np.pi)
    freqs = [np.unique(np.abs(eps * grid.xi)) for eps in DEFAULT_EPS_LADDER]
    base = [bump_transform_raw(w) for w in freqs]
    nodes = mollifier._trapezoid_nodes
    monkeypatch.setattr(mollifier, "_trapezoid_nodes", lambda w_max: 2 * nodes(w_max))
    for w, b in zip(freqs, base):
        fine = bump_transform_raw(w)
        assert np.abs(fine / fine[0] - b / b[0]).max() <= 1e-14


def test_one_transform_per_table_build(monkeypatch):
    # the benchmark's tracer counts table-cache misses from these calls
    calls = []

    def counted(w):
        calls.append(np.size(w))
        return bump_transform_raw(w)

    monkeypatch.setattr(mollifier, "bump_transform_raw", counted)
    grid = Grid(32, 3.0)  # a (grid, eps) pair no other test builds
    build_mollifier(grid, 0.3)
    build_mollifier(grid, 0.3)
    assert calls == [17]


def test_cli_and_mollifier_probe_do_not_import_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(chslab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import chslab.cli\n"
        "from chslab.inequalities import ProbeConfig, probe_mollifier_commutator\n"
        "from chslab.spectral import Grid\n"
        "probe_mollifier_commutator(ProbeConfig(Grid(32, 6.283185307179586), ensemble=2))\n"
        f"assert chslab.cli.main(['kernel', '--out', {str(tmp_path / 'k')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_mollified_field_converges_as_eps_shrinks(grid):
    f = smooth_random(grid, seed=1)
    errs = []
    for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
        table = build_mollifier(grid, eps)
        errs.append(sobolev_norm(mollify(f, table) - f, 0.0))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05 * sobolev_norm(f, 0.0)


def test_mollification_never_expands_the_norm(grid):
    f = smooth_random(grid, seed=2)
    for eps in (1.0, 0.125):
        table = build_mollifier(grid, eps)
        for s in (0.0, 2.0, -1.5):
            assert sobolev_norm(mollify(f, table), s) <= sobolev_norm(f, s) * (1 + 1e-12)


def test_mollifier_is_self_adjoint(grid):
    f = smooth_random(grid, seed=3)
    g = smooth_random(grid, seed=4)
    table = build_mollifier(grid, 0.25)
    lhs = inner(mollify(f, table), g)
    rhs = inner(f, mollify(g, table))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mollifier_commutes_with_derivative(grid):
    f = smooth_random(grid, seed=5)
    table = build_mollifier(grid, 0.5)
    a = mollify(dx(f, 1), table)
    b = dx(mollify(f, table), 1)
    assert sup_norm(a - b) < 1e-12 * max(1.0, sup_norm(b))


def test_commutator_vanishes_for_constant_multiplier(grid):
    ones = Field.from_values(grid, np.ones(grid.n))
    g = dealias_truncate(smooth_random(grid, seed=6))
    assert sup_norm(commutator_mollifier(0.25, ones, g)) < 1e-13


def test_commutator_vanishes_for_constant_argument(grid):
    f = dealias_truncate(smooth_random(grid, seed=7))
    const = Field.from_values(grid, 0.7 * np.ones(grid.n))
    # g' = 0 kills both terms
    assert sup_norm(commutator_mollifier(0.25, f, const)) < 1e-14


def test_commutator_scales_linearly_in_multiplier(grid):
    f = dealias_truncate(smooth_random(grid, seed=8))
    g = dealias_truncate(smooth_random(grid, seed=9))
    one = commutator_mollifier(0.25, f, g)
    three = commutator_mollifier(0.25, 3.0 * f, g)
    assert sup_norm(three - 3.0 * one) < 1e-12 * max(1.0, sup_norm(one))


def test_tables_are_cached(grid):
    a = build_mollifier(grid, 0.125)
    b = build_mollifier(grid, 0.125)
    assert a is b


def test_table_rejects_bad_widths(grid):
    with pytest.raises(ValueError):
        build_mollifier(grid, 0.0)
    with pytest.raises(ValueError):
        build_mollifier(grid, 1.5)
    small = Grid(16, 1.0)
    with pytest.raises(ValueError):
        build_mollifier(small, 0.75)  # eps must stay under L/2


def test_mollify_rejects_grid_mismatch(grid):
    table = build_mollifier(grid, 0.25)
    other = smooth_random(Grid(64, 2.0 * np.pi), seed=1)
    with pytest.raises(ValueError):
        mollify(other, table)


def test_multiplier_is_read_only(grid):
    table = build_mollifier(grid, 0.5)
    with pytest.raises(ValueError):
        table[0] = 2.0
