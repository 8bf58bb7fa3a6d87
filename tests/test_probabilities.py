"""Tests for the closed-form outcome probabilities and expected points.

The bin probabilities are cross-checked three ways: against frozen
mpmath reference values, against adaptive quadrature of the normal
density, and against the equivalent difference-of-CDF closed forms at
integer offsets from the class means.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from f1bench.calibration import SCENARIOS, make_params
from f1bench.normal import std_normal_cdf
from f1bench.probabilities import (
    AGGREGATE_KINDS, FULL_RACE_POINTS, SPRINT_POINTS, aggregate_probability,
    expected_race_points, expected_season_points, position_distribution,
    position_probability,
)
from f1bench.simulate import SeasonConfig

# Frozen mpmath (50 digit) reference values for the baseline model.
ELITE_P1 = 0.125
ELITE_P3 = 0.12912253512798472
NONELITE_P1 = 0.00016170758400941175
ELITE_PODIUM = 0.35069314477597139
ELITE_TOP10 = 0.98929566790160967
NONELITE_TOP10 = 0.13427772909902999

# Frozen mpmath expected season totals (24 full + 6 sprint baseline,
# 18 full + 6 sprint for the dominant-manufacturer benchmark season).
EXPECTED_ELITE_SEASON = 315.4378156271933
EXPECTED_NONELITE_SEASON = 10.648535947395175
EXPECTED_DOMINANT_ELITE_SEASON = 195.87092096513339


def normal_bin_mass(mu, sigma, lo, hi):
    """Adaptive quadrature of the N(mu, sigma^2) density over (lo, hi)."""
    def density(x):
        z = (x - mu) / sigma
        return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))

    mass, _ = quad(density, lo, hi)
    return mass


def test_frozen_examples():
    params = make_params()
    assert abs(position_probability(params, "elite", 1) - ELITE_P1) <= 1e-12
    assert abs(position_probability(params, "elite", 3) - ELITE_P3) <= 1e-12
    assert abs(position_probability(params, "nonelite", 1) - NONELITE_P1) <= 1e-12
    assert abs(aggregate_probability(params, "elite", "podium") - ELITE_PODIUM) <= 1e-12
    assert abs(aggregate_probability(params, "elite", "top10") - ELITE_TOP10) <= 1e-12
    assert abs(aggregate_probability(params, "nonelite", "top10") - NONELITE_TOP10) <= 1e-12


def test_rounded_examples():
    # the same quantities at the coarser precision they are usually
    # quoted with
    params = make_params()
    assert abs(position_probability(params, "elite", 3) - 0.12917) <= 1e-4
    assert abs(position_probability(params, "nonelite", 1) - 1.62e-4) <= 1e-5
    assert abs(aggregate_probability(params, "elite", "podium") - 0.35069) <= 1e-4
    assert abs(aggregate_probability(params, "elite", "top10") - 0.98934) <= 1e-4
    assert abs(aggregate_probability(params, "nonelite", "top10") - 0.13432) <= 1e-4


def test_bins_sum_to_one_all_scenarios():
    for scenario in SCENARIOS:
        params = make_params(scenario)
        for driver_class in ("elite", "nonelite"):
            probs = position_distribution(params, driver_class)
            assert probs.shape == (20,)
            assert (probs >= 0.0).all()
            assert abs(probs.sum() - 1.0) <= 1e-9


def test_bins_match_quadrature():
    # every interior bin integrates the density over (k-0.5, k+0.5];
    # position 1 absorbs the lower tail and position 20 the upper tail
    for driver_class in ("elite", "nonelite"):
        params = make_params()
        mu = params.class_mean(driver_class)
        sigma = params.class_sigma(driver_class)
        probs = position_distribution(params, driver_class)
        for k in range(1, 21):
            lo = -np.inf if k == 1 else k - 0.5
            hi = np.inf if k == 20 else k + 0.5
            assert abs(probs[k - 1] - normal_bin_mass(mu, sigma, lo, hi)) <= 1e-8


def test_bins_equal_integer_offset_closed_forms():
    # with mu = 4.5 and 14.5 the bin edges land on integer offsets, so
    # each bin equals a difference of CDFs at integer arguments
    params = make_params()
    for driver_class, mu in (("elite", 4.5), ("nonelite", 14.5)):
        sigma = params.class_sigma(driver_class)
        win = std_normal_cdf((1.5 - mu) / sigma)
        assert abs(position_probability(params, driver_class, 1) - win) <= 1e-12
        for k in range(2, 11):
            closed = (std_normal_cdf((k + 0.5 - mu) / sigma)
                      - std_normal_cdf((k - 0.5 - mu) / sigma))
            assert abs(position_probability(params, driver_class, k) - closed) <= 1e-12


def test_aggregates_equal_bin_sums_and_closed_forms():
    params = make_params()
    for driver_class in ("elite", "nonelite"):
        mu = params.class_mean(driver_class)
        sigma = params.class_sigma(driver_class)
        probs = position_distribution(params, driver_class)
        for kind, boundary in AGGREGATE_KINDS.items():
            value = aggregate_probability(params, driver_class, kind)
            assert abs(value - probs[:boundary].sum()) <= 1e-9
            assert abs(value - std_normal_cdf((boundary + 0.5 - mu) / sigma)) <= 1e-12


def test_elite_tail_is_monotone():
    probs = position_distribution(make_params(), "elite")
    # the mode straddles 4.5, so the two central bins match and the
    # tail decays strictly from position 5 on
    assert abs(probs[3] - probs[4]) <= 2e-16
    for k in range(4, 19):
        assert probs[k] > probs[k + 1]


def test_nonelite_shape_is_unimodal():
    probs = position_distribution(make_params(), "nonelite")
    for k in range(0, 13):
        assert probs[k] < probs[k + 1]
    assert abs(probs[13] - probs[14]) <= 2e-16
    for k in range(14, 18):
        assert probs[k] > probs[k + 1]
    # position 20 absorbs the whole upper tail (an eleventh of the
    # mass), so the decay necessarily stops there
    assert probs[19] > probs[18]


def test_position_validation():
    params = make_params()
    for bad in (0, 21, -3, 2.5, "3"):
        with pytest.raises(ValueError):
            position_probability(params, "elite", bad)
    with pytest.raises(ValueError):
        aggregate_probability(params, "elite", "top5")


def test_points_tables():
    assert len(FULL_RACE_POINTS) == len(SPRINT_POINTS) == 20
    assert FULL_RACE_POINTS[:10] == (25, 18, 15, 12, 10, 8, 6, 4, 2, 1)
    assert all(p == 0 for p in FULL_RACE_POINTS[10:])
    assert SPRINT_POINTS[:8] == (8, 7, 6, 5, 4, 3, 2, 1)
    assert all(p == 0 for p in SPRINT_POINTS[8:])


def test_expected_season_points():
    params = make_params()
    config = SeasonConfig()
    elite = expected_season_points(params, "elite", config)
    nonelite = expected_season_points(params, "nonelite", config)
    assert abs(elite - EXPECTED_ELITE_SEASON) <= 1e-9
    assert abs(nonelite - EXPECTED_NONELITE_SEASON) <= 1e-9
    # the analytic means sit right on the Monte Carlo benchmarks
    assert abs(elite - 315.456) <= 0.5
    assert abs(nonelite - 10.636) <= 0.2


def test_expected_season_points_dominant():
    params = make_params("dominant")
    config = SeasonConfig(scenario="dominant")
    value = expected_season_points(params, "elite", config)
    assert abs(value - EXPECTED_DOMINANT_ELITE_SEASON) <= 1e-9
    assert abs(value - 195.871) <= 0.5


def test_expected_season_points_composes_race_values():
    params = make_params()
    config = SeasonConfig(races_full=3, races_sprint=2)
    per_full = expected_race_points(params, "elite", FULL_RACE_POINTS)
    per_sprint = expected_race_points(params, "elite", SPRINT_POINTS)
    total = expected_season_points(params, "elite", config)
    assert abs(total - (3 * per_full + 2 * per_sprint)) <= 1e-12


def test_expected_season_points_empty_season():
    params = make_params()
    config = SeasonConfig(races_full=0, races_sprint=0)
    assert expected_season_points(params, "elite", config) == 0.0
    assert expected_season_points(params, "nonelite", config) == 0.0


def test_expected_season_points_rejects_negative_counts():
    params = make_params()
    bogus = SimpleNamespace(races_full=-1, races_sprint=6)
    with pytest.raises(ValueError):
        expected_season_points(params, "elite", bogus)
