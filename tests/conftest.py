"""Session fixtures: every large Monte Carlo run the suite asserts on.

Each run is simulated once per session, and every test that needs it
reads it here:

* ``golden_runs``: the 300,000-season ``season_totals`` of all four
  categories per scenario, with how often the kernel's edge screen
  polished a draw while they ran;
* ``full_runs``: the 1,000,000-season ``summarize_all`` per scenario;
* ``one_race_samples``: per driver class, race 0's positions and raw
  teammate rank pairs over the default 1,000,000 seasons.

A shorter run with the same seed is a prefix of a longer one, so a
test that wants fewer seasons slices them.  Arrays are read-only and
mappings are proxies, so a test that writes to a fixture fails.
"""

import math
import threading
import time
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import pytest

from f1bench import simulate
from f1bench.calibration import DRIVER_CLASSES, SCENARIOS, make_params
from f1bench.simulate import (
    CATEGORIES, SeasonConfig, sample_pair_ranks, sample_positions, season_totals, summarize_all,
)


class GoldenRun(NamedTuple):
    """One scenario's golden totals and its edge screen's record.

    ``polished`` counts the season-steps the screen sent through the
    polished quantile, and ``closest`` is the smallest distance of a
    polished rank from a bin edge.
    """

    config: SeasonConfig
    totals: MappingProxyType
    polished: int
    closest: float


class FullRun(NamedTuple):
    config: SeasonConfig
    summaries: MappingProxyType
    elapsed: float


class RaceSample(NamedTuple):
    positions: np.ndarray
    pair: tuple


def _frozen(array):
    array.setflags(write=False)
    return array


def _recording_ranks(record):
    """``simulate._ranks`` that records its polish calls, the ones without ``out``."""
    ranks = simulate._ranks
    lock = threading.Lock()

    def recording_ranks(plan, z, out=None):
        result = ranks(plan, z, out=out)
        if out is None:
            shifted = result + 0.5
            closest = float(np.abs(shifted - np.round(shifted)).min())
            with lock:
                record["polished"] += result.shape[1]
                record["closest"] = min(record["closest"], closest)
        return result

    return recording_ranks


@pytest.fixture(scope="session")
def golden_runs():
    runs = {}
    for scenario in SCENARIOS:
        config = SeasonConfig(n_sims=300_000, scenario=scenario)
        record = {"polished": 0, "closest": math.inf}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_ranks", _recording_ranks(record))
            totals = {category: _frozen(season_totals(category, config, workers=2))
                      for category in CATEGORIES}
        runs[scenario] = GoldenRun(config, MappingProxyType(totals), **record)
    return MappingProxyType(runs)


@pytest.fixture(scope="session")
def full_runs():
    runs = {}
    for scenario in SCENARIOS:
        config = SeasonConfig(scenario=scenario)
        start = time.perf_counter()
        summaries = summarize_all(config, workers=4)
        elapsed = time.perf_counter() - start
        runs[scenario] = FullRun(config, MappingProxyType(summaries), elapsed)
    return MappingProxyType(runs)


@pytest.fixture(scope="session")
def one_race_samples():
    params = make_params()
    config = SeasonConfig()
    return MappingProxyType({
        driver_class: RaceSample(
            _frozen(sample_positions(params, driver_class, config)),
            tuple(map(_frozen, sample_pair_ranks(params, driver_class, config))))
        for driver_class in DRIVER_CLASSES
    })
