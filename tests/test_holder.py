"""Continuity-exponent law, perturbation families, and the sweep driver."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chslab.cli import _holder_artifacts
from chslab.config import ConfigError, parse_config
from chslab.fields import gaussian_bump, random_field, sech2_bump
from chslab.holder import (
    holder_exponent,
    make_family,
    run_holder,
    sweep,
)
from chslab.solver import SystemParams, y_norms
from chslab.spectral import Field, Grid, sobolev_norm


@pytest.fixture
def grid():
    return Grid(256, 64.0)


def params():
    return SystemParams(b=2.0, kappa=1.0, alpha=0.0, c_s=1.0)


# -------------------------------------------------------- exponent law

def test_frozen_exponent_values():
    assert holder_exponent(4.0, 1.0).beta == 1.0
    assert holder_exponent(4.0, 1.0).regime == "lipschitz"
    assert holder_exponent(4.0, 2.0).beta == 1.0
    assert holder_exponent(3.75, 1.0).beta == pytest.approx(10.0 / 11.0, abs=1e-15)
    assert holder_exponent(3.75, 1.0).regime == "interpolation-low"
    assert holder_exponent(4.0, 3.5).beta == 0.5
    assert holder_exponent(4.0, 3.5).regime == "interpolation-high"


def test_overlapping_clauses_agree():
    # at s = 3.75, r = 1.25 both interpolation clauses apply and give 1
    case = holder_exponent(3.75, 1.25)
    assert case.beta == pytest.approx(1.0, abs=1e-12)


def test_boundary_between_clauses_is_continuous():
    # approach r = 5 - s from both sides and compare at the seam
    for s in np.linspace(3.6, 3.95, 8):
        r = 5.0 - s
        here = holder_exponent(s, r).beta
        below = holder_exponent(s, r - 1e-7).beta
        assert abs(here - below) < 1e-6
        assert abs(here - (2.0 * s - 5.0) / (s - r)) < 1e-9


def test_exponent_range_enforcement():
    with pytest.raises(ValueError):
        holder_exponent(3.4, 1.0)  # s too low
    with pytest.raises(ValueError):
        holder_exponent(4.0, 0.5)  # r below the data class floor
    with pytest.raises(ValueError):
        holder_exponent(4.0, 4.0)  # r must stay below s


def test_trivial_second_component_widens_the_range():
    case = holder_exponent(4.5, 0.3, rho_trivial=True)
    assert case.beta == pytest.approx(20.0 / 21.0, abs=1e-15)
    with pytest.raises(ValueError):
        holder_exponent(4.5, 0.3, rho_trivial=False)
    # the low clause opens up to s < 5 in this regime
    assert holder_exponent(4.6, 0.2, rho_trivial=True).regime == "interpolation-low"


# ------------------------------------------------------------- families

def test_family_member_zero_is_the_base(grid):
    fam = make_family(grid, 4.0, 2.0)
    assert np.array_equal(fam.members()[0], fam.base)


def test_family_distances_scale_exactly_linearly(grid):
    fam = make_family(grid, 4.0, 2.0)
    base, *members = fam.members()
    for d, st in zip(fam.deltas, members):
        dist = (sobolev_norm(Field(grid, st[0] - base[0]), 4.0)
                + sobolev_norm(Field(grid, st[1] - base[1]), 2.0))
        assert dist == pytest.approx(float(d), rel=1e-12)


def test_family_fits_in_the_requested_ball(grid):
    fam = make_family(grid, 4.0, 1.5, base_amplitude=5.0)  # forces a rescale
    for st in fam.members()[1:]:
        assert y_norms(st, grid, 4.0) <= 1.5 * (1.0 + 1e-12)


def test_family_rejects_bad_ladders(grid):
    with pytest.raises(ValueError):
        make_family(grid, 4.0, 2.0, delta_max=1e-2, delta_min=1e-4, delta_count=3)  # short
    with pytest.raises(ValueError):
        make_family(grid, 4.0, 2.0, delta_max=1e-2, delta_min=9e-3,
                    delta_count=5)  # under two decades
    with pytest.raises(ValueError):
        make_family(grid, 4.0, 0.005)  # ladder cannot fit in the ball


def _config_accepts(h, **ladder) -> bool:
    overrides = {key: repr(val) for key, val in dict(ladder, h=h).items()}
    try:
        parse_config("", "holder", "unused", overrides)
    except ConfigError:
        return False
    return True


_DECADES = st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e)


@settings(max_examples=400)
@given(delta_max=_DECADES, delta_min=_DECADES, delta_count=st.integers(1, 12),
       h=st.floats(1e-3, 4.0))
# two decades exactly, whose ratio rounds to 100 or just below it, and a ladder just short
@example(delta_max=0.011, delta_min=0.00011, delta_count=7, h=2.0)
@example(delta_max=1e-2, delta_min=1e-4, delta_count=7, h=2.0)
@example(delta_max=1e-3, delta_min=1e-5, delta_count=4, h=2.0)
@example(delta_max=0.011, delta_min=0.000111, delta_count=7, h=2.0)
def test_every_ladder_the_config_accepts_builds(delta_max, delta_min, delta_count, h):
    # config._cross_checks asks holder.ladder_problems, the rule make_family
    # raises on, so config accepts exactly the ladders make_family builds
    ladder = dict(delta_max=delta_max, delta_min=delta_min, delta_count=delta_count)
    try:
        fam = make_family(Grid(64, 64.0), 4.0, h, **ladder)
    except ValueError:
        assert not _config_accepts(h, **ladder)
    else:
        assert _config_accepts(h, **ladder)
        assert np.array_equal(fam.deltas, np.geomspace(delta_max, delta_min, delta_count))


@pytest.mark.parametrize("delta_min,accepted", [(1e-4, True), (0.0, False), (-1e-5, False)])
def test_ladder_edges_agree_with_the_config(delta_min, accepted):
    # exactly two decades passes both; delta_min <= 0 would give NaN members
    ladder = dict(delta_max=1e-2, delta_min=delta_min, delta_count=7)
    assert _config_accepts(2.0, **ladder) == accepted
    if accepted:
        fam = make_family(Grid(64, 64.0), 4.0, 2.0, **ladder)
        assert np.array_equal(fam.deltas, np.geomspace(1e-2, 1e-4, 7))
    else:
        with pytest.raises(ValueError, match="delta_min"):
            make_family(Grid(64, 64.0), 4.0, 2.0, **ladder)


def test_family_kinds_are_checked(grid):
    with pytest.raises(ValueError):
        make_family(grid, 4.0, 2.0, base_kind="triangle")
    with pytest.raises(ValueError):
        make_family(grid, 4.0, 2.0, direction_kind="spike")


def test_base_kinds_build_the_shared_initial_data(grid):
    # rho is half of u's amplitude, on the narrower fixed-width bump
    L = grid.length
    expected = {
        "gaussian-bump": (gaussian_bump(grid, 0.1), gaussian_bump(grid, 0.05, L / 20.0)),
        "sech2-bump": (sech2_bump(grid, 0.1), sech2_bump(grid, 0.05, L / 40.0)),
        "random-decay": (random_field(grid, 6.0, amplitude=0.1, seed=4),
                         random_field(grid, 4.0, amplitude=0.05, seed=5)),
    }
    for kind, (u0, rho0) in expected.items():
        fam = make_family(grid, 4.0, 100.0, base_kind=kind, seed=4,
                          base_amplitude=0.1)  # a ball this big never shrinks the base
        assert np.array_equal(fam.base[0], u0.half), kind
        assert np.array_equal(fam.base[1], rho0.half), kind


def test_trivial_family_flag_follows_contents(grid):
    fam = make_family(grid, 4.0, 2.0, rho_trivial=True)
    assert fam.rho_trivial
    assert sobolev_norm(Field(grid, fam.base[1]), 0.0) == 0.0
    mixed = make_family(grid, 4.0, 2.0)
    assert not mixed.rho_trivial


# ------------------------------------------------------------ single runs

def test_single_case_passes_and_reports_unit_slope(grid):
    fam = make_family(grid, 4.0, 2.0)
    rep = run_holder(fam, params(), 2.0, T=0.5)
    assert rep.verdict == "pass"
    assert rep.slope == pytest.approx(1.0, abs=1e-6)
    assert rep.residual < 1e-6
    assert rep.case.beta == 1.0


def test_run_holder_judges_at_the_familys_own_s(grid):
    fam = make_family(grid, 3.75, 2.0)
    rep = run_holder(fam, params(), 1.0, T=0.2)
    assert rep.case.s == 3.75
    assert rep.case.regime == "interpolation-low"
    assert rep.case.beta == 10.0 / 11.0


def test_degenerate_ladder_is_flagged(grid):
    fam = make_family(grid, 4.0, 2.0, delta_max=1e-12, delta_min=1e-15, delta_count=5)
    rep = run_holder(fam, params(), 2.0, T=0.2)
    assert rep.verdict.startswith("degenerate")
    assert math.isnan(rep.slope)


# ----------------------------------------------------------------- sweep

def test_sweep_preserves_case_order_and_is_deterministic(grid):
    cases = [(4.0, 2.0), (4.0, 2.0)]
    reports = sweep(cases, grid, params(), T=0.3)
    assert len(reports) == 2
    assert reports[0].slope == reports[1].slope
    assert np.array_equal(reports[0].distances, reports[1].distances)


def test_sweep_raises_on_a_bad_case(grid):
    # a bad (s, r) is an error of the call, not a report row
    with pytest.raises(ValueError, match=r"need s > 7/2, got s=3\.4"):
        sweep([(4.0, 2.0), (3.4, 1.0)], grid, params(), T=0.3)


def test_report_files_round_trip(grid):
    reports = sweep([(4.0, 2.0)], grid, params(), T=0.3)
    artifacts = _holder_artifacts(reports)
    assert list(artifacts) == [
        "holder_reports.csv", "holder_reports.json", "curves_s4-r2.csv"]
    lines = artifacts["holder_reports.csv"].decode().splitlines()
    assert lines[0] == "case,s,r,beta_theory,slope,residual,verdict"
    assert len(lines) == 2
    assert lines[1].startswith("s4-r2,")

    data = json.loads(artifacts["holder_reports.json"])
    assert data[0]["verdict"] == "pass"

    rows = artifacts["curves_s4-r2.csv"].decode().splitlines()
    assert rows[0] == "delta,distance"
    assert len(rows) == 1 + len(reports[0].deltas)
