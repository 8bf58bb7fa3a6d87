"""The finishing-position law: its rounding rule, probabilities and expected points.

A position is a normal rank draw rounded half up and clamped to 1..20
by ``round_to_position``, which the simulator imports from here.  The
exact distribution is a set of normal bin masses: position k covers
[k - 0.5, k + 0.5), with position 1 absorbing the lower tail and
position 20 the upper tail.  It doubles as the oracle the Monte Carlo
engine is validated against.
"""

import numpy as np

from .normal import std_normal_cdf

__all__ = [
    "FULL_RACE_POINTS", "SPRINT_POINTS", "AGGREGATE_KINDS", "round_to_position",
    "position_distribution", "aggregate_probability", "expected_season_points",
]

N_POSITIONS = 20

# Points for finishing positions 1..20 in each race format; the
# simulator scores with these same tables.
FULL_RACE_POINTS = (25, 18, 15, 12, 10, 8, 6, 4, 2, 1,
                    0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
SPRINT_POINTS = (8, 7, 6, 5, 4, 3, 2, 1, 0, 0,
                 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

# Upper rank boundary of each aggregate outcome.
AGGREGATE_KINDS = {"podium": 3, "top8": 8, "top10": 10}


def round_to_position(ranks):
    """Round rank draws half up, clamp to 1..20."""
    ranks = np.asarray(ranks, dtype=np.float64)
    return np.clip(np.floor(ranks + 0.5), 1, N_POSITIONS).astype(np.int64)


def _position_cdf(params, driver_class):
    """P(position <= k) for k = 0..20: the normal CDF at each bin's upper edge."""
    mu, sigma, _ = params.of(driver_class)
    inner = std_normal_cdf((np.arange(1, N_POSITIONS) + 0.5 - mu) / sigma)
    return np.concatenate(([0.0], inner, [1.0]))


def position_distribution(params, driver_class):
    """Probability of each finishing position 1..20 as a length-20 array.

    ``probs[k - 1]`` is the chance of classifying k-th.  The bins are
    the rounded, clamped normal masses described in the module
    docstring and sum to 1 by construction.
    """
    return np.diff(_position_cdf(params, driver_class))


def aggregate_probability(params, driver_class, kind):
    """Probability of a podium, top 8 or top 10 classification.

    Evaluated in closed form as P(position <= k) for the aggregate's
    boundary rank k, the CDF entry whose differences are the bins of
    ``position_distribution``, so it equals the sum of the first k bins.
    """
    if kind not in AGGREGATE_KINDS:
        raise ValueError(f"unknown aggregate {kind!r}; expected one of {tuple(AGGREGATE_KINDS)}")
    return float(_position_cdf(params, driver_class)[AGGREGATE_KINDS[kind]])


def expected_season_points(params, driver_class, config):
    """Exact expected season total for one driver.

    ``config`` only needs ``races_full`` and ``races_sprint``
    attributes, so any season configuration object works.  This is the
    analytic counterpart of the Monte Carlo season mean.
    """
    if config.races_full < 0 or config.races_sprint < 0:
        raise ValueError("race counts must be non-negative")
    probs = position_distribution(params, driver_class)
    per_full, per_sprint = (float(probs @ np.asarray(table, dtype=np.float64))
                            for table in (FULL_RACE_POINTS, SPRINT_POINTS))
    return config.races_full * per_full + config.races_sprint * per_sprint
