"""Closed-form race outcome probabilities and expected points.

The simulator rounds a normal rank draw to the nearest integer and
clamps it to 1..20, so the exact distribution over finishing positions
is a set of normal bin masses: position k covers [k - 0.5, k + 0.5),
with position 1 absorbing the lower tail and position 20 the upper
tail.  Everything here is analytic and doubles as the oracle the Monte
Carlo engine is validated against.
"""

import numpy as np

from .normal import std_normal_cdf

__all__ = [
    "FULL_RACE_POINTS", "SPRINT_POINTS", "AGGREGATE_KINDS",
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


def position_distribution(params, driver_class):
    """Probability of each finishing position 1..20 as a length-20 array.

    ``probs[k - 1]`` is the chance of classifying k-th.  The bins are
    the rounded, clamped normal masses described in the module
    docstring and sum to 1 by construction.
    """
    mu = params.class_mean(driver_class)
    sigma = params.class_sigma(driver_class)
    inner = std_normal_cdf((np.arange(1, N_POSITIONS) + 0.5 - mu) / sigma)
    cdf_at_edges = np.concatenate(([0.0], inner, [1.0]))
    return np.diff(cdf_at_edges)


def aggregate_probability(params, driver_class, kind):
    """Probability of a podium, top 8 or top 10 classification.

    Evaluated in closed form as Phi((k + 0.5 - mu) / sigma) for the
    aggregate's boundary rank k, which equals the sum of the first k
    position bins exactly.
    """
    if kind not in AGGREGATE_KINDS:
        raise ValueError(f"unknown aggregate {kind!r}; expected one of {tuple(AGGREGATE_KINDS)}")
    boundary = AGGREGATE_KINDS[kind]
    mu = params.class_mean(driver_class)
    sigma = params.class_sigma(driver_class)
    return std_normal_cdf((boundary + 0.5 - mu) / sigma)


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
