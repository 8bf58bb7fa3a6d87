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

from dataclasses import dataclass

from .normal import std_normal_cdf, std_normal_quantile

__all__ = [
    "MU_ELITE", "MU_NONELITE", "MU_ELITE_DOMINANT", "Z_TABLE_LIMIT",
    "DRIVER_CLASSES", "SCENARIOS", "SCENARIO_ALIASES", "ModelParams", "canonical_scenario",
    "calibrate_sigma_elite", "calibrate_sigma_nonelite",
    "calibrate_cov_elite", "calibrate_cov_nonelite", "make_params",
    "calibration_residuals",
]

MU_ELITE = 4.5
MU_NONELITE = 14.5
# Revised elite mean when a single dominant manufacturer locks out the
# front row and the remaining elite seats span ranks 3..8.
MU_ELITE_DOMINANT = 5.5
# Edge of a four-decimal standard normal table: Phi(-4.9) prints as 0.
Z_TABLE_LIMIT = 4.9

DRIVER_CLASSES = ("elite", "nonelite")
SCENARIOS = ("baseline", "dominant")
SCENARIO_ALIASES = {"dominant_manufacturer": "dominant"}


def canonical_scenario(name):
    """Normalize a scenario name, accepting the long dominant spelling."""
    kind = SCENARIO_ALIASES.get(name, name)
    if kind not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    return kind


@dataclass(frozen=True)
class ModelParams:
    """Means, spreads and within-team covariances for both classes."""

    mu_elite: float
    mu_nonelite: float
    sigma_elite: float
    sigma_nonelite: float
    cov_elite_pair: float
    cov_nonelite_pair: float
    z_table_limit: float = Z_TABLE_LIMIT

    def __post_init__(self):
        if not (self.sigma_elite > 0.0 and self.sigma_nonelite > 0.0):
            raise ValueError("standard deviations must be positive")
        if not self.sigma_nonelite > self.sigma_elite:
            raise ValueError("non-elite ranks must be more variable than elite ranks")
        for cov, sigma, label in (
            (self.cov_elite_pair, self.sigma_elite, "elite"),
            (self.cov_nonelite_pair, self.sigma_nonelite, "nonelite"),
        ):
            if not cov < 0.0:
                raise ValueError(f"{label} pair covariance must be negative")
            if not abs(cov) < sigma * sigma:
                raise ValueError(f"{label} pair covariance matrix is not positive definite")

    def class_mean(self, driver_class):
        _check_class(driver_class)
        return self.mu_elite if driver_class == "elite" else self.mu_nonelite

    def class_sigma(self, driver_class):
        _check_class(driver_class)
        return self.sigma_elite if driver_class == "elite" else self.sigma_nonelite

    def class_cov(self, driver_class):
        _check_class(driver_class)
        return self.cov_elite_pair if driver_class == "elite" else self.cov_nonelite_pair


def _check_class(driver_class):
    if driver_class not in DRIVER_CLASSES:
        raise ValueError(f"unknown driver class {driver_class!r}; expected one of {DRIVER_CLASSES}")


def calibrate_sigma_elite():
    """Spread solving 8 * Phi(-3 / sigma) = 1, about 2.607903."""
    return -3.0 / std_normal_quantile(1.0 / 8.0)


def calibrate_sigma_nonelite():
    """Spread solving 12 * Phi(-5 / sigma) = 1, about 3.615344."""
    return -5.0 / std_normal_quantile(1.0 / 12.0)


def calibrate_cov_elite(sigma_elite):
    """Elite pair covariance from the pair-sum boundary at rank 3.

    The elite pair sum is N(9, 2 * sigma^2 + 2 * cov); requiring its
    z-score at 3 to reach -4.9 gives 2 * sigma^2 + 2 * cov = (6/4.9)^2.
    """
    if not sigma_elite > 0.0:
        raise ValueError("sigma_elite must be positive")
    return 36.0 / (2.0 * Z_TABLE_LIMIT**2) - sigma_elite**2


def calibrate_cov_nonelite(sigma_nonelite):
    """Non-elite pair covariance from the pair-sum boundary at rank 39.

    The non-elite pair sum is N(29, 2 * sigma^2 + 2 * cov); its z-score
    at 39 reaches +4.9 when 2 * sigma^2 + 2 * cov = (10/4.9)^2.
    """
    if not sigma_nonelite > 0.0:
        raise ValueError("sigma_nonelite must be positive")
    return 100.0 / (2.0 * Z_TABLE_LIMIT**2) - sigma_nonelite**2


def make_params(scenario="baseline"):
    """Build the full parameter set for a scenario.

    The dominant-manufacturer scenario shifts only the elite mean to
    5.5; spreads and covariances are left as calibrated.
    """
    kind = canonical_scenario(scenario)
    sigma_elite = calibrate_sigma_elite()
    sigma_nonelite = calibrate_sigma_nonelite()
    return ModelParams(
        mu_elite=MU_ELITE_DOMINANT if kind == "dominant" else MU_ELITE,
        mu_nonelite=MU_NONELITE,
        sigma_elite=sigma_elite,
        sigma_nonelite=sigma_nonelite,
        cov_elite_pair=calibrate_cov_elite(sigma_elite),
        cov_nonelite_pair=calibrate_cov_nonelite(sigma_nonelite),
    )


def calibration_residuals(params):
    """Residuals of the defining equations for a parameter set.

    Returns a dict mapping a short label to the signed residual; all
    four should vanish to within 1e-9 for calibrated parameters.
    """
    pair_std_elite = (2.0 * params.sigma_elite**2 + 2.0 * params.cov_elite_pair) ** 0.5
    pair_std_nonelite = (2.0 * params.sigma_nonelite**2 + 2.0 * params.cov_nonelite_pair) ** 0.5
    return {
        "sigma_elite": 8.0 * std_normal_cdf(-3.0 / params.sigma_elite) - 1.0,
        "sigma_nonelite": 12.0 * std_normal_cdf(-5.0 / params.sigma_nonelite) - 1.0,
        "cov_elite_pair": pair_std_elite - 6.0 / params.z_table_limit,
        "cov_nonelite_pair": pair_std_nonelite - 10.0 / params.z_table_limit,
    }
