"""Tests for the boundary-condition calibration of the rank models."""

import pytest

from f1bench.calibration import (
    MU_ELITE, MU_ELITE_DOMINANT, MU_NONELITE, Z_TABLE_LIMIT,
    ModelParams, calibrate, calibration_residuals, canonical_scenario, make_params,
)
from f1bench.normal import std_normal_cdf
from f1bench.simulate import SeasonConfig

# The four calibrated constants, frozen from an independent mpmath
# solve of the defining equations (50 significant digits).
SIGMA_ELITE = 2.607903347606801
SIGMA_NONELITE = 3.615344347471808
COV_ELITE = -6.0514722403046575
COV_NONELITE = -10.988249111479403

# Within-team correlations implied by the constants above.
RHO_ELITE = -0.8897706208303653
RHO_NONELITE = -0.8406769882886418


def test_calibrated_constants():
    sigma_elite, cov_elite = calibrate("elite")
    sigma_nonelite, cov_nonelite = calibrate("nonelite")
    assert abs(sigma_elite - 2.607903) <= 1e-5
    assert abs(sigma_nonelite - 3.615344) <= 1e-5
    assert abs(cov_elite - (-6.051472)) <= 1e-5
    assert abs(cov_nonelite - (-10.98825)) <= 1e-5


def test_calibrated_constants_full_precision():
    sigma_elite, cov_elite = calibrate("elite")
    sigma_nonelite, cov_nonelite = calibrate("nonelite")
    assert abs(sigma_elite - SIGMA_ELITE) <= 1e-12
    assert abs(sigma_nonelite - SIGMA_NONELITE) <= 1e-12
    assert abs(cov_elite - COV_ELITE) <= 1e-12
    assert abs(cov_nonelite - COV_NONELITE) <= 1e-12


def test_fixed_point_equations():
    # one of eight elite drivers wins; one of twelve non-elite drivers
    # finishes ninth or better
    sigma_elite, _ = calibrate("elite")
    sigma_nonelite, _ = calibrate("nonelite")
    assert abs(8.0 * std_normal_cdf(-3.0 / sigma_elite) - 1.0) <= 1e-9
    assert abs(12.0 * std_normal_cdf(-5.0 / sigma_nonelite) - 1.0) <= 1e-9


def test_residuals_vanish():
    residuals = calibration_residuals(make_params())
    assert set(residuals) == {
        "sigma_elite", "sigma_nonelite", "cov_elite_pair", "cov_nonelite_pair",
    }
    for value in residuals.values():
        assert abs(value) <= 1e-9


def test_pair_sum_standard_deviations():
    # the pair-sum z-scores are pinned to the 4.9 table edge, so the
    # pair-sum standard deviations must be 6/4.9 and 10/4.9
    params = make_params()
    std_elite = (2.0 * params.sigma_elite**2 + 2.0 * params.cov_elite_pair) ** 0.5
    std_nonelite = (2.0 * params.sigma_nonelite**2 + 2.0 * params.cov_nonelite_pair) ** 0.5
    assert abs(std_elite - 6.0 / Z_TABLE_LIMIT) <= 1e-12
    assert abs(std_nonelite - 10.0 / Z_TABLE_LIMIT) <= 1e-12


def test_implied_correlations():
    params = make_params()
    assert abs(params.cov_elite_pair / params.sigma_elite**2 - RHO_ELITE) <= 1e-12
    assert abs(params.cov_nonelite_pair / params.sigma_nonelite**2 - RHO_NONELITE) <= 1e-12
    # comfortably inside (-1, 0): strong rivalry, still positive definite
    assert -1.0 < RHO_ELITE < 0.0
    assert -1.0 < RHO_NONELITE < 0.0


def test_covariance_matrices_positive_definite():
    params = make_params()
    for sigma, cov in (
        (params.sigma_elite, params.cov_elite_pair),
        (params.sigma_nonelite, params.cov_nonelite_pair),
    ):
        # leading minors of [[s^2, c], [c, s^2]]
        assert sigma**2 > 0.0
        assert sigma**4 - cov**2 > 0.0


def test_make_params_baseline():
    params = make_params()
    assert params.mu_elite == MU_ELITE == 4.5
    assert params.mu_nonelite == MU_NONELITE == 14.5
    assert Z_TABLE_LIMIT == 4.9


def test_make_params_dominant_shifts_only_the_elite_mean():
    base = make_params("baseline")
    dominant = make_params("dominant")
    assert dominant.mu_elite == MU_ELITE_DOMINANT == 5.5
    assert dominant.mu_nonelite == base.mu_nonelite
    assert dominant.sigma_elite == base.sigma_elite
    assert dominant.sigma_nonelite == base.sigma_nonelite
    assert dominant.cov_elite_pair == base.cov_elite_pair
    assert dominant.cov_nonelite_pair == base.cov_nonelite_pair


def test_rookie_is_not_a_scenario():
    # the rookie rule halves summaries downstream (rookie_benchmark);
    # it is not a parameter scenario
    with pytest.raises(ValueError):
        make_params("rookie")
    with pytest.raises(ValueError):
        SeasonConfig(scenario="rookie")


def test_scenario_alias():
    # each scenario has one spelling; the long dominant one is rejected
    assert canonical_scenario("baseline") == "baseline"
    assert canonical_scenario("dominant") == "dominant"
    for call in (canonical_scenario, make_params):
        with pytest.raises(ValueError, match="unknown scenario 'dominant_manufacturer'"):
            call("dominant_manufacturer")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        canonical_scenario("bogus")
    with pytest.raises(ValueError):
        make_params("bogus")


def test_class_accessors():
    params = make_params()
    assert params.of("elite") == (params.mu_elite, params.sigma_elite, params.cov_elite_pair)
    assert params.of("nonelite") == (
        params.mu_nonelite, params.sigma_nonelite, params.cov_nonelite_pair)
    with pytest.raises(ValueError, match="unknown driver class 'intermediate'"):
        params.of("intermediate")
    with pytest.raises(ValueError):
        calibrate("intermediate")


def test_invalid_params_rejected():
    good = dict(
        mu_elite=4.5, mu_nonelite=14.5,
        sigma_elite=SIGMA_ELITE, sigma_nonelite=SIGMA_NONELITE,
        cov_elite_pair=COV_ELITE, cov_nonelite_pair=COV_NONELITE,
    )
    with pytest.raises(ValueError):
        ModelParams(**{**good, "sigma_elite": 0.0})
    with pytest.raises(ValueError):
        ModelParams(**{**good, "sigma_elite": -1.0})
    with pytest.raises(ValueError):
        # non-elite must be more spread out than elite
        ModelParams(**{**good, "sigma_nonelite": 1.0})
    with pytest.raises(ValueError):
        # teammate covariance must be negative
        ModelParams(**{**good, "cov_elite_pair": 0.5})
    with pytest.raises(ValueError):
        # |cov| >= sigma^2 breaks positive definiteness
        ModelParams(**{**good, "cov_elite_pair": -SIGMA_ELITE**2})
    # a non-finite field, or an integer too large for a float, is named
    # before any other check reads it; NaN and inf compare false, and a
    # NaN elite mean made every rank a win
    for field in good:
        for value in (float("nan"), float("inf"), float("-inf"), 10**400, -10**400):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ModelParams(**{**good, field: value})
