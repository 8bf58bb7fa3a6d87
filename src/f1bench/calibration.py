"""Model parameters for elite and non-elite finishing-position models.

A race classification is modeled as a rounded, clamped normal draw.
Elite-team drivers are centred on rank 4.5 (uniform over the eight
elite seats) and non-elite drivers on 14.5 (uniform over the twelve
remaining seats).  The spreads are fixed by two boundary conditions:
one of the eight elite drivers is guaranteed to win,

    8 * Phi(-3 / sigma_elite) = 1,

and one of the twelve non-elite drivers is guaranteed to finish ninth
or better,

    12 * Phi(-5 / sigma_nonelite) = 1.

Within a team the two drivers' ranks are negatively correlated: the
pair sum r1 + r2 is pinned so that its z-score at the relevant
boundary (3 for an elite pair, 39 for a non-elite pair) sits at the
edge of a four-decimal normal table, |z| = 4.9, where the tabulated
tail mass is zero.  That convention gives the pair covariances

    cov_elite_pair    = 36 / (2 * 4.9^2) - sigma_elite^2
    cov_nonelite_pair = 100 / (2 * 4.9^2) - sigma_nonelite^2

both of which come out negative, as a shared car and intra-team
rivalry suggest they should.
"""

import math
from dataclasses import dataclass, fields

from .normal import std_normal_cdf, std_normal_quantile

__all__ = [
    "MU_ELITE", "MU_NONELITE", "MU_ELITE_DOMINANT", "Z_TABLE_LIMIT",
    "DRIVER_CLASSES", "SCENARIOS", "SCENARIO_SEASONS", "ModelParams",
    "canonical_scenario", "calibrate", "make_params", "calibration_residuals",
]

MU_ELITE = 4.5
MU_NONELITE = 14.5
# Revised elite mean when a single dominant manufacturer locks out the
# front row and the remaining elite seats span ranks 3..8.
MU_ELITE_DOMINANT = 5.5
# Season composition (full, sprint) each scenario's benchmarks are
# defined over.  The baseline season runs the full modern calendar of
# 24 grands prix plus 6 sprints; the dominant-manufacturer benchmark
# is defined over a season of 24 race weekends where the 6 sprint
# weekends displace full rounds, giving 18 full races plus 6 sprints.
SCENARIO_SEASONS = {"baseline": (24, 6), "dominant": (18, 6)}
# Edge of a four-decimal standard normal table: Phi(-4.9) prints as 0.
Z_TABLE_LIMIT = 4.9
# Per class: the seats n and rank gap g of the spread's boundary
# n * Phi(-g / sigma) = 1, and the gap between the pair sum's mean and
# its boundary, which sits Z_TABLE_LIMIT pair-sum deviations away.
_BOUNDARIES = {"elite": (8, 3.0, 6.0), "nonelite": (12, 5.0, 10.0)}

DRIVER_CLASSES = tuple(_BOUNDARIES)
SCENARIOS = tuple(SCENARIO_SEASONS)


def canonical_scenario(name):
    """``name`` if it names a scenario; ``ValueError`` otherwise."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    return name


@dataclass(frozen=True)
class ModelParams:
    """Means, spreads and within-team covariances for both classes."""

    mu_elite: float
    mu_nonelite: float
    sigma_elite: float
    sigma_nonelite: float
    cov_elite_pair: float
    cov_nonelite_pair: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise ValueError(f"{field.name} must be finite, got a value too large "
                                 "for a float") from None
            if not finite:
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not (self.sigma_elite > 0.0 and self.sigma_nonelite > 0.0):
            raise ValueError("standard deviations must be positive")
        if not self.sigma_nonelite > self.sigma_elite:
            raise ValueError("non-elite ranks must be more variable than elite ranks")
        for driver_class in DRIVER_CLASSES:
            _, sigma, cov = self.of(driver_class)
            if not cov < 0.0:
                raise ValueError(f"{driver_class} pair covariance must be negative")
            if not abs(cov) < sigma * sigma:
                raise ValueError(f"{driver_class} pair covariance matrix is not positive definite")

    def of(self, driver_class):
        """(mu, sigma, cov) of a class: its mean rank, spread and teammate covariance."""
        _check_class(driver_class)
        if driver_class == "elite":
            return self.mu_elite, self.sigma_elite, self.cov_elite_pair
        return self.mu_nonelite, self.sigma_nonelite, self.cov_nonelite_pair


def _check_class(driver_class):
    if driver_class not in DRIVER_CLASSES:
        raise ValueError(f"unknown driver class {driver_class!r}; expected one of {DRIVER_CLASSES}")


def calibrate(driver_class):
    """(sigma, cov) of a class, solved from its row of ``_BOUNDARIES``.

    sigma solves seats * Phi(-gap / sigma) = 1; cov puts the pair sum's
    boundary Z_TABLE_LIMIT pair-sum deviations from its mean, so that
    2 * sigma^2 + 2 * cov = (pair_gap / Z_TABLE_LIMIT)^2.  Elite gives
    about (2.607903, -6.051472), non-elite (3.615344, -10.98825).
    """
    _check_class(driver_class)
    seats, gap, pair_gap = _BOUNDARIES[driver_class]
    sigma = -gap / std_normal_quantile(1.0 / seats)
    return sigma, pair_gap**2 / (2.0 * Z_TABLE_LIMIT**2) - sigma**2


def make_params(scenario="baseline"):
    """Build the full parameter set for a scenario.

    The dominant-manufacturer scenario shifts only the elite mean to
    5.5; spreads and covariances are left as calibrated.
    """
    kind = canonical_scenario(scenario)
    (sigma_elite, cov_elite), (sigma_nonelite, cov_nonelite) = map(calibrate, DRIVER_CLASSES)
    return ModelParams(
        mu_elite=MU_ELITE_DOMINANT if kind == "dominant" else MU_ELITE,
        mu_nonelite=MU_NONELITE,
        sigma_elite=sigma_elite,
        sigma_nonelite=sigma_nonelite,
        cov_elite_pair=cov_elite,
        cov_nonelite_pair=cov_nonelite,
    )


def calibration_residuals(params):
    """Residuals of the defining equations for a parameter set.

    Returns a dict mapping a short label to the signed residual; all
    four should vanish to within 1e-9 for calibrated parameters.
    """
    residuals = {}
    for driver_class, (seats, gap, pair_gap) in _BOUNDARIES.items():
        _, sigma, cov = params.of(driver_class)
        pair_std = (2.0 * sigma**2 + 2.0 * cov) ** 0.5
        residuals[f"sigma_{driver_class}"] = seats * std_normal_cdf(-gap / sigma) - 1.0
        residuals[f"cov_{driver_class}_pair"] = pair_std - pair_gap / Z_TABLE_LIMIT
    return residuals
