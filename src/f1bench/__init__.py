"""Normal-model calibration, Monte Carlo simulation and benchmarking
for Formula 1 finishing positions.

The package models a finishing position as a rounded, clamped normal
draw, calibrates the model from a handful of boundary conditions,
simulates seasons to obtain points benchmarks with empirical 95%
intervals, and classifies actual season results against them.
"""

# set before the submodule imports, which read it
__version__ = "0.1.0"

from .benchmark import (
    SeasonRecord, Verdict, classify, classify_season, ingest_results,
    load_bundled_results,
)
from .calibration import ModelParams, calibrate, make_params
from .normal import std_normal_cdf, std_normal_quantile
from .probabilities import (
    aggregate_probability, expected_season_points, position_distribution,
)
from .simulate import (
    SeasonConfig, SimulationSummary, rookie_benchmark,
    simulate_driver_season, simulate_team_season, summarize, summarize_all,
)

__all__ = [
    "std_normal_cdf", "std_normal_quantile",
    "ModelParams", "make_params", "calibrate",
    "position_distribution", "aggregate_probability", "expected_season_points",
    "SeasonConfig", "SimulationSummary", "simulate_driver_season",
    "simulate_team_season", "summarize", "summarize_all", "rookie_benchmark",
    "SeasonRecord", "Verdict", "classify", "classify_season",
    "ingest_results", "load_bundled_results",
    "__version__",
]
