"""Tests for the seeded Monte Carlo season engine.

Statistical checks run at 200,000 simulations with a fixed seed, so
every assertion is deterministic; the tolerances leave several
standard errors of headroom at that sample size.  They read the first
200,000 seasons of the session's one-race samples (``conftest.py``),
which are the draws a 200,000-season run makes.
"""

import dataclasses
import functools
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from f1bench import calibration, simulate
from f1bench.calibration import make_params
from f1bench.normal import (
    _ACK_A, _ACK_B, _ACK_C, _ACK_D, _P_LOW, _acklam, std_normal_cdf, std_normal_quantile,
)
from f1bench.probabilities import FULL_RACE_POINTS, SPRINT_POINTS, position_distribution
from f1bench.simulate import (
    CATEGORIES, CHUNK_SIMS, DEFAULT_SEED, MAX_RACES, MAX_SIMS, MAX_WORKERS, SCENARIO_SEASONS,
    SeasonConfig, SimulationSummary, load_cached_summaries,
    rookie_benchmark, round_to_position, sample_pair_ranks,
    sample_positions, season_totals, simulate_driver_season,
    simulate_team_season, store_summaries, summarize, summarize_all,
)
from f1bench.simulate import (
    _BLOCK_SIMS, _EDGE_MARGIN, _FULL_TABLE, _race_step, _race_uniforms, _rank_plan, _ranks,
    _season_top, _summary,
)

PARAMS = make_params()
STAT_SIMS = 200_000


def _reference_uniforms(race, car, chunk, count):
    """The first ``count`` uniforms of one Philox stream, as the engine keys and floors them."""
    seq = np.random.SeedSequence(entropy=[DEFAULT_SEED, race, car, chunk])
    return np.maximum(np.random.Generator(np.random.Philox(seq)).random(count), 2.0 ** -53)


class FlatParams:
    """Duck-typed parameter stub for diagnostic covariance settings."""

    def __init__(self, cov):
        self.cov = cov

    def of(self, driver_class):
        return 4.5, 2.607903347606801, self.cov


def test_round_to_position_half_away_from_zero():
    ranks = np.array([4.5, 3.5, 4.49, 4.51, 0.5, -0.5, -2.3, 20.5, 22.0, 10.0])
    expected = np.array([5, 4, 4, 5, 1, 1, 1, 20, 20, 10])
    assert (round_to_position(ranks) == expected).all()
    assert round_to_position(ranks).dtype == np.int64


def test_round_to_position_scalar():
    assert int(round_to_position(4.5)) == 5
    assert int(round_to_position(-2.3)) == 1
    assert int(round_to_position(19.5)) == 20


def test_race_format_order():
    # full races occupy the leading race indices, sprints the rest
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    assert config.races == 3
    full, sprint = np.array(FULL_RACE_POINTS), np.array(SPRINT_POINTS)
    expected = sum(table[sample_positions(PARAMS, "elite", config, race=race) - 1]
                   for race, table in enumerate((full, full, sprint)))
    assert (season_totals("elite_driver", config) == expected).all()


def test_uniform_offset_is_tail_of_full_draw():
    # offsets cover every residue mod 4, the chunk's last six seasons and
    # its last season alone, as a replay of that season reads it
    full = np.array([_reference_uniforms(3, car, 2, CHUNK_SIMS) for car in range(2)])
    for offset, count in [*((offset, 6) for offset in range(9)),
                          (CHUNK_SIMS - 6, 6), (CHUNK_SIMS - 1, 1)]:
        tail = _race_uniforms(SeasonConfig(), 3, 2 * CHUNK_SIMS + offset, np.empty((2, count)))
        assert tail.tobytes() == full[:, offset:offset + count].tobytes(), offset


def test_uniform_draws_are_open_interval():
    draws = _race_uniforms(SeasonConfig(), 0, 0, np.empty((2, 100_000)))
    assert draws.min() >= 2.0 ** -53
    assert draws.max() < 1.0


def test_season_config_validation():
    with pytest.raises(ValueError):
        SeasonConfig(races_full=-1)
    with pytest.raises(ValueError):
        SeasonConfig(races_sprint=-2)
    with pytest.raises(ValueError):
        SeasonConfig(n_sims=0)
    with pytest.raises(ValueError):
        SeasonConfig(master_seed=-1)
    with pytest.raises(ValueError):
        SeasonConfig(master_seed=2**64)
    with pytest.raises(ValueError):
        SeasonConfig(master_seed=1.5)
    # counts and the seed are ints, not floats or bools, whatever their value
    for field, value in (("n_sims", 2500.0), ("races_full", 1.5), ("races_sprint", True),
                         ("master_seed", True), ("n_sims", np.float64(100))):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SeasonConfig(**{field: value})
    # numpy integers pass, as they do for a replay's index, and are stored as ints
    for field, value in (("n_sims", np.int64(1000)), ("races_full", np.int32(3)),
                         ("races_sprint", np.int64(0)), ("master_seed", np.uint64(2**64 - 1))):
        config = SeasonConfig(**{field: value})
        assert config == SeasonConfig(**{field: int(value)})
        assert type(getattr(config, field)) is int
    with pytest.raises(ValueError):
        SeasonConfig(scenario="bogus")
    # the caps hold a team histogram to 4 MB and the block list to a few
    # MB; a config just above either fails before anything is allocated
    at_cap = SeasonConfig(races_full=MAX_RACES, races_sprint=0, n_sims=MAX_SIMS)
    assert 8 * (2 * _season_top(at_cap) + 1) <= 4_000_008
    # and a car's season total fits the scoring tables' dtype
    assert _season_top(at_cap) <= np.iinfo(_FULL_TABLE.dtype).max
    with pytest.raises(ValueError, match=r"races_full \+ races_sprint must be at most"):
        SeasonConfig(races_full=MAX_RACES - 5, races_sprint=6)
    with pytest.raises(ValueError, match="n_sims must be at most"):
        SeasonConfig(n_sims=MAX_SIMS + 1)


def test_season_config_canonicalizes_scenario():
    # a scenario has one spelling; the long dominant one is not an alias
    assert SeasonConfig(scenario="dominant").scenario == "dominant"
    with pytest.raises(ValueError, match="unknown scenario 'dominant_manufacturer'"):
        SeasonConfig(scenario="dominant_manufacturer")
    assert SCENARIO_SEASONS["dominant"] == (18, 6)
    assert SCENARIO_SEASONS["baseline"] == (24, 6)
    # one table: the scenario list is its keys, and simulate re-exports it
    assert SCENARIO_SEASONS is calibration.SCENARIO_SEASONS
    assert calibration.SCENARIOS == tuple(SCENARIO_SEASONS)


def test_season_config_takes_the_scenario_calendar():
    for scenario, (full, sprint) in SCENARIO_SEASONS.items():
        config = SeasonConfig(scenario=scenario)
        assert (config.races_full, config.races_sprint) == (full, sprint), scenario
        # an explicit count wins, one field at a time
        only_full = SeasonConfig(races_full=5, scenario=scenario)
        assert (only_full.races_full, only_full.races_sprint) == (5, sprint), scenario
        only_sprint = SeasonConfig(races_sprint=0, scenario=scenario)
        assert (only_sprint.races_full, only_sprint.races_sprint) == (full, 0), scenario


def test_simulation_summary_validation():
    with pytest.raises(ValueError):
        SimulationSummary(category="podium", mean_points=1.0,
                          ci_low=0.0, ci_high=2.0, n_sims=100)
    with pytest.raises(ValueError):
        SimulationSummary(category="elite_driver", mean_points=6.5,
                          ci_low=7.0, ci_high=6.0, n_sims=100)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SimulationSummary(category="elite_driver", mean_points=value,
                              ci_low=6.0, ci_high=7.0, n_sims=100)
        with pytest.raises(ValueError):
            SimulationSummary(category="elite_driver", mean_points=6.5,
                              ci_low=6.0, ci_high=value, n_sims=100)
    # the values are real numbers, not bools or strings, and are stored as floats
    for field, value in (("ci_low", True), ("mean_points", False), ("ci_high", "7.0"),
                         ("mean_points", None)):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SimulationSummary(**{"category": "elite_driver", "mean_points": 6.5,
                                 "ci_low": 6.0, "ci_high": 7.0, "n_sims": 100, field: value})
    summary = SimulationSummary("elite_driver", 6, np.int64(6), np.float32(7.5), np.int64(100))
    assert summary == SimulationSummary("elite_driver", 6.0, 6.0, 7.5, 100)
    assert {type(value) for value in (summary.mean_points, summary.ci_low, summary.ci_high)} \
        == {float}
    assert type(summary.n_sims) is int
    # the season count is an integer of at least 1
    for n_sims in (1000.0, True, 0, -5, "100"):
        with pytest.raises(ValueError, match="n_sims must be an integer of at least 1"):
            SimulationSummary("elite_driver", 6.5, 6.0, 7.0, n_sims)


def test_summary_mean_may_lie_outside_the_band():
    # one season in forty scores a point, so the band is 0..0 and the mean 0.025
    config = SeasonConfig(races_full=0, races_sprint=1, n_sims=40, master_seed=31)
    totals = season_totals("nonelite_driver", config)
    assert totals.sum() == 1
    summary = summarize("nonelite_driver", config)
    assert summary == _summary_of("nonelite_driver", totals)
    assert (summary.ci_low, summary.ci_high, summary.mean_points) == (0.0, 0.0, 0.025)


def test_determinism_same_seed():
    config = SeasonConfig(races_full=3, races_sprint=1, n_sims=20_000)
    first = season_totals("elite_driver", config)
    second = season_totals("elite_driver", config)
    assert (first == second).all()


def test_different_seeds_differ():
    config = SeasonConfig(races_full=3, races_sprint=1, n_sims=20_000)
    other = SeasonConfig(races_full=3, races_sprint=1, n_sims=20_000,
                         master_seed=99)
    assert (season_totals("elite_driver", config)
            != season_totals("elite_driver", other)).any()


def test_worker_count_does_not_change_totals():
    # span two chunks so the parallel path actually splits the work
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=CHUNK_SIMS + 1000)
    serial = season_totals("elite_driver", config, workers=1)
    for workers in (2, 3, 8):
        assert (season_totals("elite_driver", config, workers=workers) == serial).all()


def test_invalid_worker_count_rejected():
    config = SeasonConfig(races_full=1, races_sprint=0, n_sims=100)
    # a count above the cap fails before the pool is built
    for workers in (0, -3, 2.5, True, MAX_WORKERS + 1):
        with pytest.raises(ValueError, match="workers"):
            season_totals("elite_driver", config, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            summarize_all(config, workers=workers)
    # a numpy integer is a worker count, and so is the cap; one block
    # runs serially whatever the count
    for workers in (np.int64(2), MAX_WORKERS):
        assert (season_totals("elite_driver", config, workers=workers)
                == season_totals("elite_driver", config)).all()


def test_pool_is_no_larger_than_the_block_count(monkeypatch):
    sizes = []

    class RecordingPool(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
    config = SeasonConfig(races_full=1, races_sprint=0, n_sims=_BLOCK_SIMS + 1)
    season_totals("elite_driver", config, workers=8)
    summarize_all(config, workers=8)
    assert sizes == [2, 2]


def test_prefix_property():
    # a shorter run is a prefix of a longer one with the same seed
    config_small = SeasonConfig(races_full=3, races_sprint=1, n_sims=5_000)
    config_large = SeasonConfig(races_full=3, races_sprint=1, n_sims=20_000)
    small = season_totals("elite_team", config_small)
    large = season_totals("elite_team", config_large)
    assert (large[:5_000] == small).all()


# sha256 of each category's season_totals as little-endian int64 bytes
# at seed 2025, for the baseline (24 + 6 races) and dominant (18 + 6
# races, elite mean 5.5) seasons.  300000 seasons span two full chunks
# and end in a partial one, so chunk edges are part of the check.  The
# totals are the session's ``golden_runs``.
GOLDEN_DIGESTS = {
    "baseline": {
        "elite_driver": "40f13de8bb1f571f3650cce8a85ffcce4ed779c15b9359262dba993357b1481a",
        "elite_team": "f222fd1f4e5ab969d1464a3ce41baef2d8078291f48739d24ecca65eb32ca171",
        "nonelite_driver": "5501537745e7da5251a3128d2b946eea87eaa2f529775e7c4b47a3614c60963e",
        "nonelite_team": "071f595a1d9210a63034785507cb2aaf67770649dc78ec8315e2de74e5cb15eb",
    },
    "dominant": {
        "elite_driver": "b57eef18f50532cb45b5c3b3cc0958f6a52c07aee12843cb92dab0079d92c809",
        "elite_team": "564175b21cc238cffeb0d4cc7c3d08784bd17c27cfa0e100846847bcba467a0a",
        "nonelite_driver": "da85de821a307699701c21fa6a3b2545654e5b1aefb1afff262aace1bddcc4a1",
        "nonelite_team": "3fd2a69b9b0c094ff2c723f66893c7f9cd2b07b0b37a738aaa365efea5dd1b6e",
    },
}


def test_golden_digests(golden_runs):
    for scenario, digests in GOLDEN_DIGESTS.items():
        for category in CATEGORIES:
            totals = golden_runs[scenario].totals[category]
            digest = hashlib.sha256(np.asarray(totals, dtype="<i8").tobytes()).hexdigest()
            assert digest == digests[category], (scenario, category)


def test_golden_runs_polish_as_often_as_the_screen_predicts(golden_runs):
    # Each rank row's density sums to 1 over the half-integer bin edges,
    # so a row lands within _EDGE_MARGIN of one with probability
    # 2 * _EDGE_MARGIN per season-step.  The golden runs build 6 rows:
    # one per driver category and two per team category.
    for scenario, run in golden_runs.items():
        expected = 6 * 2 * _EDGE_MARGIN * run.config.n_sims * run.config.races
        band = 5 * math.sqrt(expected)
        # the band excludes 0, so a silent screen fails
        assert band < expected, scenario
        assert abs(run.polished - expected) <= band, (scenario, run.polished, expected)
        # no polished rank sits within a last-bit difference of libm's
        # erfc or exp of a bin edge, so the digests hold on any IEEE-754 host
        assert run.closest >= 1e-12, (scenario, run.closest)


def test_acklam_start_stays_within_margin():
    # an unpolished rank must sit well inside the margin of the polished
    # one, at the extreme uniforms and on both sides of Acklam's
    # branch points as well as over a million ordinary draws, in every
    # rank row: each class's car-0 row and each team's car-1 row
    tiny = 2.0 ** -53
    extremes = [tiny, 1.0 - tiny]
    for point in (0.02425, 0.97575):
        extremes += [np.nextafter(point, 0.0), point, np.nextafter(point, 1.0)]
    uniforms = np.array([np.concatenate([_reference_uniforms(0, car, 0, 1_000_000),
                                         extremes]) for car in range(2)])
    plan = _rank_plan(PARAMS, CATEGORIES)
    start = _ranks(plan, [_acklam(u) for u in uniforms])
    polished = _ranks(plan, [std_normal_quantile(u) for u in uniforms])
    assert len(start) == 4
    for r_start, r_polished in zip(start, polished):
        assert np.abs(r_start - r_polished).max() < _EDGE_MARGIN / 10


def _acklam_masked(p):
    """Acklam's approximation with each branch evaluated on its own entries only."""
    q = np.empty_like(p)
    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if lo.any():
        r = np.sqrt(-2.0 * np.log(p[lo]))
        q[lo] = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
                ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    if hi.any():
        r = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        q[hi] = -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
                ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    if mid.any():
        r = p[mid] - 0.5
        s = r * r
        q[mid] = (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r / \
                 (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0)
    return q


def test_acklam_equals_masked_reference():
    tiny = 2.0 ** -53
    extremes = [tiny, 1.0 - tiny]
    for point in (_P_LOW, 1.0 - _P_LOW):
        extremes += [np.nextafter(point, 0.0), point, np.nextafter(point, 1.0)]
    p = np.concatenate([_reference_uniforms(0, 0, 0, 100_000), extremes])
    with np.errstate(all="raise"):
        assert _acklam(p).tobytes() == _acklam_masked(p).tobytes()
        # one-element arrays, as a replay passes, take a single branch each
        for value in extremes:
            one = np.array([value])
            assert _acklam(one).tobytes() == _acklam_masked(one).tobytes(), value


def _bin_edge_uniforms(params, driver_class):
    """Uniforms whose polished rank lies on or a few ulps off each bin edge."""
    mu, sigma, _ = params.of(driver_class)
    edges = std_normal_cdf((np.arange(1, 20) + 0.5 - mu) / sigma)
    return (edges[:, None] + np.arange(-3, 4) * 2.0 ** -53).ravel()


def _polished_positions(plan, uniforms):
    """Every rank row's rounded polished rank."""
    return [round_to_position(r)
            for r in _ranks(plan, [std_normal_quantile(u) for u in uniforms])]


def _counting_quantile(monkeypatch, sizes):
    """Make the stacked step's polish record the size of each quantile call."""
    polished_quantile = std_normal_quantile

    def counting_quantile(p):
        sizes.append(len(p))
        return polished_quantile(p)

    monkeypatch.setattr(simulate, "std_normal_quantile", counting_quantile)


def test_near_edge_draws_take_polished_path(monkeypatch):
    sizes = []
    for params in (PARAMS, make_params("dominant")):
        for driver_class in ("elite", "nonelite"):
            edge = _bin_edge_uniforms(params, driver_class)
            other = _reference_uniforms(0, 1, 0, len(edge))
            for category, uniforms in ((f"{driver_class}_driver", [edge]),
                                       (f"{driver_class}_team", [edge, other])):
                plan = _rank_plan(params, (category,))
                uniforms = np.array(uniforms)
                expected = _polished_positions(plan, uniforms)
                sizes.clear()
                _counting_quantile(monkeypatch, sizes)
                positions = np.clip(_race_step(plan, uniforms), 1, 20)
                monkeypatch.undo()
                # every draw sits at an edge, so every draw was polished
                assert sizes == [len(edge)] * len(uniforms)
                for got, want in zip(positions, expected):
                    assert (got == want).all()


def test_stacked_step_screens_every_row(monkeypatch):
    # car 0 puts one class's rows on its bin edges and the other class's
    # rows at ordinary values; the screen takes the union over rows, so
    # every row of every category must read the rounded polished rank
    sizes = []
    for params in (PARAMS, make_params("dominant")):
        plan = _rank_plan(params, CATEGORIES)
        for edge_class in ("elite", "nonelite"):
            edge = _bin_edge_uniforms(params, edge_class)
            ordinary = _reference_uniforms(5, 0, 0, 4096)
            uniforms = np.array([np.concatenate([edge, ordinary]),
                                 _reference_uniforms(5, 1, 0, len(edge) + 4096)])
            expected = _polished_positions(plan, uniforms)
            sizes.clear()
            _counting_quantile(monkeypatch, sizes)
            positions = np.clip(_race_step(plan, uniforms), 1, 20)
            monkeypatch.undo()
            # each car is polished once, over the same flagged seasons,
            # and those include every edge season
            assert len(sizes) == 2 and sizes[0] == sizes[1] >= len(edge)
            for category, rows in zip(CATEGORIES, plan.reads):
                assert len(rows) == (2 if category.endswith("team") else 1)
                for row in rows:
                    assert (positions[row] == expected[row]).all(), (category, row)
                # a category on its own reads the same rows
                alone = _rank_plan(params, (category,))
                own = np.clip(_race_step(alone, uniforms[:len(rows)]), 1, 20)
                assert (own == positions[list(rows)]).all(), category


def test_positions_step_rejects_non_positive_definite_covariance():
    fake = FlatParams(cov=-(2.607903347606801 ** 2))
    uniforms = np.array([np.full(4, 0.3), np.full(4, 0.6)])
    with pytest.raises(ValueError, match="positive definite"):
        _race_step(_rank_plan(fake, ("elite_team",)), uniforms)


def test_single_season_replay_matches_batch():
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=CHUNK_SIMS + 3)
    totals = season_totals("elite_driver", config)
    # indices inside the first chunk, at its edge, and across it
    for index in (0, 7, 131, CHUNK_SIMS - 1, CHUNK_SIMS, CHUNK_SIMS + 2):
        assert simulate_driver_season(PARAMS, "elite", config, index) == totals[index]


def test_single_team_replay_matches_batch():
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=CHUNK_SIMS + 3)
    totals = season_totals("elite_team", config)
    for index in (0, 42, CHUNK_SIMS - 1, CHUNK_SIMS + 1):
        assert simulate_team_season(PARAMS, "elite", config, index) == totals[index]


def test_sim_index_bounds():
    config = SeasonConfig(races_full=1, races_sprint=0, n_sims=100)
    # a bool is not an index: True would replay season 1
    for bad in (-1, 100, 2.5, True, False):
        with pytest.raises(ValueError, match="sim_index"):
            simulate_driver_season(PARAMS, "elite", config, bad)
        with pytest.raises(ValueError, match="sim_index"):
            simulate_team_season(PARAMS, "elite", config, bad)
    assert (simulate_driver_season(PARAMS, "elite", config, np.int64(1))
            == simulate_driver_season(PARAMS, "elite", config, 1))


def test_race_index_bounds():
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=100)
    with pytest.raises(ValueError):
        sample_positions(PARAMS, "elite", config, race=3)
    with pytest.raises(ValueError):
        sample_pair_ranks(PARAMS, "elite", config, race=-1)
    # True would sample race 1, and 1.0 reached numpy's seeding as a TypeError
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="race"):
            sample_positions(PARAMS, "elite", config, race=bad)
        with pytest.raises(ValueError, match="race"):
            sample_pair_ranks(PARAMS, "elite", config, race=bad)
    assert (sample_positions(PARAMS, "elite", config, race=np.int64(1))
            == sample_positions(PARAMS, "elite", config, race=1)).all()


def test_unknown_category():
    config = SeasonConfig(n_sims=100)
    with pytest.raises(ValueError):
        season_totals("elite_constructor", config)
    with pytest.raises(ValueError):
        summarize("reserve_driver", config)


def test_one_race_samples_are_prefixes_of_shorter_runs(one_race_samples):
    # the statistical tests slice the session's samples; a run that
    # ends past a block edge draws the same seasons
    config = SeasonConfig(n_sims=_BLOCK_SIMS + 5)
    for driver_class in ("elite", "nonelite"):
        sample = one_race_samples[driver_class]
        assert (sample_positions(PARAMS, driver_class, config)
                == sample.positions[:config.n_sims]).all()
        for got, held in zip(sample_pair_ranks(PARAMS, driver_class, config), sample.pair):
            assert got.tobytes() == held[:config.n_sims].tobytes()


def test_law_equivalence(one_race_samples):
    # empirical position frequencies track the analytic bins
    for driver_class in ("elite", "nonelite"):
        positions = one_race_samples[driver_class].positions[:STAT_SIMS]
        freq = np.bincount(positions, minlength=21)[1:] / STAT_SIMS
        analytic = position_distribution(PARAMS, driver_class)
        assert np.abs(freq - analytic).max() <= 0.005


def test_one_race_samples_score_like_season_totals():
    # with a single race, the sampled race is the whole season
    config = SeasonConfig(races_full=1, races_sprint=0, n_sims=CHUNK_SIMS + 1000)
    points = np.array(FULL_RACE_POINTS)
    for driver_class in ("elite", "nonelite"):
        positions = sample_positions(PARAMS, driver_class, config)
        assert (points[positions - 1]
                == season_totals(f"{driver_class}_driver", config)).all()
        r1, r2 = sample_pair_ranks(PARAMS, driver_class, config)
        team = points[round_to_position(r1) - 1] + points[round_to_position(r2) - 1]
        assert (team == season_totals(f"{driver_class}_team", config)).all()


def _stat_pair(one_race_samples, driver_class):
    return tuple(ranks[:STAT_SIMS] for ranks in one_race_samples[driver_class].pair)


def test_raw_elite_mean(one_race_samples):
    r1, _ = _stat_pair(one_race_samples, "elite")
    assert abs(r1.mean() - 4.5) <= 0.02


def test_pair_sum_constraints(one_race_samples):
    r1, r2 = _stat_pair(one_race_samples, "elite")
    # the elite pair-sum boundary at 3 carries ~5e-7 mass, so even one
    # event would be unusual at this sample size
    assert int((r1 + r2 <= 3.0).sum()) <= 1
    n1, n2 = _stat_pair(one_race_samples, "nonelite")
    assert ((n1 + n2) <= 39.0).mean() >= 0.999998


def test_teammate_correlation(one_race_samples):
    r1, r2 = _stat_pair(one_race_samples, "elite")
    rho_elite = PARAMS.cov_elite_pair / PARAMS.sigma_elite**2
    assert abs(np.corrcoef(r1, r2)[0, 1] - rho_elite) <= 0.01
    n1, n2 = _stat_pair(one_race_samples, "nonelite")
    rho_nonelite = PARAMS.cov_nonelite_pair / PARAMS.sigma_nonelite**2
    assert abs(np.corrcoef(n1, n2)[0, 1] - rho_nonelite) <= 0.01


def test_zero_covariance_diagnostic():
    # with independent teammates the team season is just two driver
    # seasons, and the pair correlation collapses
    fake = FlatParams(cov=0.0)
    config = SeasonConfig(races_full=6, races_sprint=2, n_sims=50_000)
    driver_mean = season_totals("elite_driver", config, params=fake).mean()
    team_mean = season_totals("elite_team", config, params=fake).mean()
    assert abs(team_mean - 2.0 * driver_mean) <= 1.0
    r1, r2 = sample_pair_ranks(fake, "elite", config)
    assert abs(np.corrcoef(r1, r2)[0, 1]) <= 0.02


def test_non_positive_definite_covariance_rejected():
    fake = FlatParams(cov=-(2.607903347606801 ** 2))
    config = SeasonConfig(races_full=1, races_sprint=0, n_sims=100)
    with pytest.raises(ValueError):
        season_totals("elite_team", config, params=fake)
    with pytest.raises(ValueError):
        sample_pair_ranks(fake, "elite", config)


def test_summarize_fields():
    config = SeasonConfig(races_full=3, races_sprint=1, n_sims=10_000)
    summary = summarize("elite_driver", config)
    assert summary.category == "elite_driver"
    assert summary.n_sims == 10_000
    assert summary.ci_low <= summary.mean_points <= summary.ci_high
    totals = season_totals("elite_driver", config)
    assert abs(summary.mean_points - totals.mean()) <= 1e-12
    # interval endpoints are attained integer season totals
    assert summary.ci_low == int(summary.ci_low)
    assert summary.ci_high == int(summary.ci_high)
    assert np.isin([summary.ci_low, summary.ci_high], totals).all()


def _summary_of(category, totals):
    low, high = np.percentile(totals, [2.5, 97.5], method="inverted_cdf")
    return SimulationSummary(category, float(totals.mean()), float(low), float(high), totals.size)


def test_summaries_equal_summaries_of_season_totals(golden_runs):
    for scenario, run in golden_runs.items():
        config = run.config
        # chunk edges and block edges both fall inside the run, and it
        # ends in a partial block
        assert config.n_sims > 2 * CHUNK_SIMS and config.n_sims % _BLOCK_SIMS == 5088
        expected = {category: _summary_of(category, run.totals[category])
                    for category in CATEGORIES}
        for workers in (1, 3):
            assert summarize_all(config, workers=workers) == expected, (scenario, workers)
        # one category alone: a short calendar that still crosses a chunk
        # edge and a block edge, ends in a partial block and scores with
        # both points tables, at a small share of the golden run's cost
        small = SeasonConfig(races_full=2, races_sprint=1,
                             n_sims=CHUNK_SIMS + _BLOCK_SIMS + 5088, scenario=scenario)
        for category in CATEGORIES:
            assert summarize(category, small) == \
                _summary_of(category, season_totals(category, small)), (scenario, category)


def test_histogram_summary_equals_summary_of_expanded_totals():
    # the 2.5% and 97.5% ranks n * q - 1 are whole numbers at n = 40,
    # 200, 1000 and 300000, and fall between totals at the other sizes
    rng = np.random.default_rng(DEFAULT_SEED)
    for n in (40, 41, 199, 200, 1000, 12345, 300000):
        for size in (1, 2, 60, 1297):
            # a smooth hump plus sparse noise, so many bins are empty
            hump = np.exp(-0.5 * ((np.arange(size) - size / 2) / (size / 8 + 1)) ** 2)
            weights = hump + rng.random(size) * (rng.random(size) < 0.1)
            counts = rng.multinomial(n, weights / weights.sum())
            totals = np.repeat(np.arange(size), counts)
            assert _summary("elite_team", counts, n) == _summary_of("elite_team", totals), \
                (n, size)


class WinnerParams(FlatParams):
    """Every rank far below 1, so every car wins every race."""

    def of(self, driver_class):
        return -1000.0, *super().of(driver_class)[1:]


def test_row_totals_beyond_int16():
    # 1400 full races take a team's total past 32767, and a car that wins
    # every race takes a single row there too
    config = SeasonConfig(races_full=1400, races_sprint=0, n_sims=40)
    totals = {category: season_totals(category, config) for category in CATEGORIES}
    assert totals["elite_team"].min() > 32767
    expected = {category: _summary_of(category, totals[category]) for category in CATEGORIES}
    assert summarize_all(config) == expected
    winners = season_totals("elite_team", config, params=WinnerParams(cov=0.0))
    assert (winners == 2 * 1400 * 25).all()


def test_replay_allocates_no_block_workspace():
    # a replay's workspace is sized by its one season: one block-sized
    # array alone would be 128 KiB
    config = SeasonConfig(races_full=24, races_sprint=6, n_sims=CHUNK_SIMS)
    simulate_team_season(PARAMS, "elite", config, 0)
    for replay in (simulate_driver_season, simulate_team_season):
        tracemalloc.start()
        try:
            replay(PARAMS, "elite", config, 12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (replay.__name__, peak)


def test_summarize_rejects_tiny_samples():
    with pytest.raises(ValueError):
        summarize("elite_driver", SeasonConfig(n_sims=39))


def test_summarize_all_covers_categories():
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    summaries = summarize_all(config)
    assert set(summaries) == set(CATEGORIES)
    for category, summary in summaries.items():
        assert summary.category == category


def test_scenario_changes_results():
    base = SeasonConfig(races_full=3, races_sprint=1, n_sims=5_000)
    dominant = SeasonConfig(races_full=3, races_sprint=1, n_sims=5_000,
                            scenario="dominant")
    # same seed, same draws, shifted mean: totals must drop
    assert (season_totals("elite_driver", dominant).mean()
            < season_totals("elite_driver", base).mean())


def test_rookie_benchmark_halves():
    base = SimulationSummary(category="elite_driver", mean_points=315.456,
                             ci_low=253.0, ci_high=381.0, n_sims=1_000_000)
    rookie = rookie_benchmark(base)
    assert rookie.mean_points == 157.728
    assert rookie.ci_low == 126.5
    assert rookie.ci_high == 190.5
    assert rookie.n_sims == base.n_sims
    # halving then doubling recovers the input exactly
    assert (rookie.mean_points * 2.0, rookie.ci_low * 2.0, rookie.ci_high * 2.0) \
        == (base.mean_points, base.ci_low, base.ci_high)


def test_rookie_benchmark_zero_case():
    base = SimulationSummary(category="elite_driver", mean_points=0.0,
                             ci_low=0.0, ci_high=0.0, n_sims=100)
    rookie = rookie_benchmark(base)
    assert (rookie.mean_points, rookie.ci_low, rookie.ci_high) == (0.0, 0.0, 0.0)


def test_rookie_benchmark_rejects_other_categories():
    base = SimulationSummary(category="elite_team", mean_points=630.91,
                             ci_low=594.0, ci_high=669.0, n_sims=100)
    with pytest.raises(ValueError):
        rookie_benchmark(base)


def test_summary_cache_round_trip(tmp_path):
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    summaries = summarize_all(config)
    store_summaries(path, config, summaries)
    loaded = load_cached_summaries(path, config)
    assert loaded == summaries
    # the file is plain JSON, so it survives external inspection
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert len(payload) == 1


def test_summary_cache_misses(tmp_path, capsys):
    # a config that differs from the stored one in any single field is a
    # clean miss, and the stored config itself a hit
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    assert load_cached_summaries(path, config) is None
    summaries = summarize_all(config)
    store_summaries(path, config, summaries)
    other_values = {"races_full": 3, "races_sprint": 2, "n_sims": 1_001, "master_seed": 7,
                    "scenario": "dominant"}
    assert {field.name for field in dataclasses.fields(SeasonConfig)} == set(other_values)
    for name, value in other_values.items():
        other = dataclasses.replace(config, **{name: value})
        assert load_cached_summaries(path, other) is None, name
    assert capsys.readouterr().err == ""
    assert load_cached_summaries(path, dataclasses.replace(config)) == summaries


def test_summary_cache_misses_under_another_model(tmp_path, monkeypatch, capsys):
    # the same config is a clean miss once the version, the params or a
    # points table changes
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    summaries = summarize_all(config)
    store_summaries(path, config, summaries)
    changes = (
        ("__version__", "0.0.0"),
        ("make_params", lambda scenario: dataclasses.replace(make_params(scenario),
                                                             mu_nonelite=14.0)),
        ("SPRINT_POINTS", SPRINT_POINTS[:-1] + (1,)),
    )
    fingerprint = simulate._model_fingerprint
    for name, value in changes:
        with monkeypatch.context() as patch:
            patch.setattr(simulate, name, value)
            # the fingerprint is memoized per process, so patch in a fresh memo
            patch.setattr(simulate, "_model_fingerprint", functools.cache(fingerprint.__wrapped__))
            assert load_cached_summaries(path, config) is None, name
    assert capsys.readouterr().err == ""
    assert load_cached_summaries(path, config) == summaries


def test_summary_cache_store_drops_other_models(tmp_path):
    # entries under another model fingerprint, or in the older flat
    # format, are dropped by the next store
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    summaries = summarize_all(config)
    entry = {category: summary.as_dict() for category, summary in summaries.items()}
    old_key = ",".join(f"{name}={value}"
                       for name, value in dataclasses.asdict(config).items())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({old_key: entry, "0123456789abcdef": {old_key: entry}}, handle)
    assert load_cached_summaries(path, config) is None
    store_summaries(path, config, summaries)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    (fingerprint, entries), = payload.items()
    assert fingerprint != "0123456789abcdef"
    assert entries == {old_key: entry}
    assert load_cached_summaries(path, config) == summaries


def test_summary_cache_merges_configs(tmp_path):
    path = str(tmp_path / "summaries.json")
    first = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    second = SeasonConfig(races_full=1, races_sprint=1, n_sims=1_000)
    store_summaries(path, first, summarize_all(first))
    store_summaries(path, second, summarize_all(second))
    assert load_cached_summaries(path, first) is not None
    assert load_cached_summaries(path, second) is not None


def test_corrupt_summary_cache_is_a_miss(tmp_path, capsys):
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    for text in ('{"seed=2025', "[]"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert load_cached_summaries(path, config) is None
        assert path in capsys.readouterr().err
    # storing over the unreadable file replaces it
    summaries = summarize_all(config)
    store_summaries(path, config, summaries)
    assert load_cached_summaries(path, config) == summaries
    assert capsys.readouterr().err == ""


def test_summary_cache_write_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "summaries.json")
    first = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    second = SeasonConfig(races_full=1, races_sprint=1, n_sims=1_000)
    store_summaries(path, first, summarize_all(first))
    store_summaries(path, second, summarize_all(second))
    assert os.listdir(tmp_path) == ["summaries.json"]


def test_failed_summary_cache_write_keeps_old_file(tmp_path):
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    summaries = summarize_all(config)
    store_summaries(path, config, summaries)
    other = SeasonConfig(races_full=1, races_sprint=1, n_sims=1_000)

    class Unserialisable:
        def as_dict(self):
            return {"mean_points": object()}

    # json.dumps fails after the temporary file is opened
    with pytest.raises(TypeError):
        store_summaries(path, other, {"elite_driver": Unserialisable()})
    assert load_cached_summaries(path, config) == summaries
    assert os.listdir(tmp_path) == ["summaries.json"]


def test_malformed_summary_cache_entry_is_a_miss(tmp_path, capsys):
    path = str(tmp_path / "summaries.json")
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    summaries = summarize_all(config)
    store_summaries(path, config, summaries)
    with open(path, encoding="utf-8") as handle:
        (fingerprint, entries), = json.load(handle).items()
    (key, entry), = entries.items()
    renamed = dict(entry, elite_team=dict(entry["elite_team"], category="elite_driver"))
    resized = {category: dict(fields, n_sims=7) for category, fields in entry.items()}
    inverted = dict(entry, elite_team=dict(entry["elite_team"], ci_low=700.0, ci_high=600.0))
    not_a_number = dict(entry, elite_team=dict(entry["elite_team"], mean_points=float("nan")))
    # JSON types a summary does not hold: a bool endpoint, a float count
    boolean = dict(entry, elite_driver=dict(entry["elite_driver"], ci_low=True))
    float_count = {category: dict(fields, n_sims=1000.0) for category, fields in entry.items()}
    for bad in (
        {category: fields for category, fields in entry.items() if category != "elite_team"},
        dict(entry, rookie_elite_driver=entry["elite_driver"]),
        renamed,
        resized,
        inverted,
        not_a_number,
        boolean,
        float_count,
        ["elite_driver", "elite_team", "nonelite_driver", "nonelite_team"],
    ):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({fingerprint: {key: bad}}, handle)
        assert load_cached_summaries(path, config) is None
        assert path in capsys.readouterr().err
    # so is a model block that is not an object
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({fingerprint: [key]}, handle)
    assert load_cached_summaries(path, config) is None
    assert path in capsys.readouterr().err
    # an integer endpoint is a hit that reads back as the float a fresh run gives
    whole = dict(entry, elite_team=dict(entry["elite_team"],
                                        ci_high=int(entry["elite_team"]["ci_high"])))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({fingerprint: {key: whole}}, handle)
    loaded = load_cached_summaries(path, config)
    assert capsys.readouterr().err == ""
    assert loaded == summaries
    assert (json.dumps({c: s.as_dict() for c, s in loaded.items()})
            == json.dumps({c: s.as_dict() for c, s in summaries.items()}))
    # a well-formed entry still loads, without a warning
    store_summaries(path, config, summaries)
    assert load_cached_summaries(path, config) == summaries
    assert capsys.readouterr().err == ""


def test_unreadable_summary_cache_path_is_a_miss(tmp_path, capsys):
    config = SeasonConfig(races_full=2, races_sprint=1, n_sims=1_000)
    assert load_cached_summaries(str(tmp_path), config) is None
    assert str(tmp_path) in capsys.readouterr().err
    # a file in a missing directory is a plain miss
    assert load_cached_summaries(str(tmp_path / "missing" / "c.json"), config) is None
    assert capsys.readouterr().err == ""
