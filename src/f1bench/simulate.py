"""Seeded Monte Carlo engine for season point totals.

One simulated season draws a rank per race from the class's normal
model, rounds it to the nearest integer position in 1..20 and scores
it with the points table for that race format.  Teams draw a
correlated rank pair per race from the bivariate model and score both
cars.

Reproducibility is the organising constraint.  Every uniform deviate
comes from a Philox counter-based generator keyed by

    (master_seed, race_index, driver_index, chunk_index)

where a chunk is a fixed run of ``CHUNK_SIMS`` consecutive
simulation indices.  A season's draws are therefore a pure function of
the seed and its simulation index, so any partitioning of the seasons
across workers (or none) yields bit-identical totals, and a single
season can be replayed in isolation: Philox is counter-based, so the
replay skips straight to that season's draws.  The work is cut into
blocks of ``_BLOCK_SIMS`` seasons inside a chunk, read through the same
skip; a replay is a block of one season.

Normal deviates are produced by inverse transform.  A position depends
on its draw only through the rounded rank, so positions are decided
from Acklam's start, the first step of ``std_normal_quantile``, without
its Newton polish.  Draws that put a rank within ``_EDGE_MARGIN`` of a
bin edge (a few per million) are redone through the full polished
quantile.  The margin is more than 15 times the start's worst error,
so every position, and hence every total, is the one the polished
path gives.  Raw ranks (``sample_pair_ranks``) always take that path.

The key holds no category, so all four categories read the same
streams: both drivers' categories read car 0, and both teams' read
cars 0 and 1.  A team's car-0 rank is the same value as its class's
driver rank, so a race needs one car-0 rank row per class and one
car-1 row per team class, and a team is its driver's row plus a
teammate row.  ``summarize_all`` therefore runs one stacked pass per
race: it draws every car's uniforms into one array, builds every rank
row from their Acklam start in one array, polishes the seasons in
which any row sits near a bin edge and scores all rows with one table
lookup.  Each block's totals are reduced at once to a histogram per
category.
"""

import functools
import hashlib
import json
import math
import numbers
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .calibration import SCENARIO_SEASONS, SCENARIOS, canonical_scenario, make_params
from .normal import _acklam, std_normal_quantile
from .probabilities import FULL_RACE_POINTS, SPRINT_POINTS, round_to_position

__all__ = [
    "CHUNK_SIMS", "DEFAULT_SEED", "MAX_RACES", "MAX_SIMS", "MAX_WORKERS", "CATEGORIES",
    "SCENARIO_SEASONS",
    "SeasonConfig", "SimulationSummary", "round_to_position",
    "simulate_driver_season", "simulate_team_season", "season_totals",
    "summarize", "summarize_all", "rookie_benchmark",
    "sample_positions", "sample_pair_ranks",
    "load_cached_summaries", "store_summaries",
]

CHUNK_SIMS = 1 << 17
# Seasons are simulated in blocks of this many: a block's per-race
# arrays (128 KiB each) stay in cache, and each block reduces to small
# histograms at once.  It divides CHUNK_SIMS, so no block straddles two
# chunks' streams.
_BLOCK_SIMS = 1 << 14
DEFAULT_SEED = 2025
# Uniform draws are floored at 2^-53 so the inverse transform never
# sees an exact zero.
_UNIFORM_FLOOR = 2.0 ** -53
# Positions are decided from Acklam's start without the Newton polish,
# except within this distance of a bin edge k + 0.5.  Acklam's relative
# error is below 1.15e-9 and |z| < 8.3 for uniforms in [2^-53, 1), so
# the unpolished z lies within 1e-8 of the polished one.  A rank
# mu + sigma*z1, or a teammate's mu + rho*sigma*z1 + sigma*sqrt(1 - rho^2)*z2,
# then moves by at most sqrt(2)*sigma*1e-8 < 6e-8 for the calibrated
# sigma_max = 3.62.  A rank farther than the margin from every edge
# rounds to the same position either way; the margin leaves more than
# 15x headroom, and stays sufficient for any sigma below 70.
_EDGE_MARGIN = 1e-6

CATEGORIES = ("elite_driver", "elite_team", "nonelite_driver", "nonelite_team")

_MAX_SEED = 2 ** 64
# Before the first race, ``summarize_all`` allocates a team histogram of
# 2 * (25 * races_full + 8 * races_sprint) + 1 int64s per team category;
# at 10000 races that is at most 500001 of them, 4 MB.  A car's season
# total is then at most 25 * 10000 = 250000, so the scoring tables and
# the per-car totals are int32; team sums are taken in int64.
MAX_RACES = 10_000
# ``_map_blocks`` lists a season run's blocks up front; 10^9 seasons are
# 61036 blocks of ``_BLOCK_SIMS``, a list of under 10 MB.
MAX_SIMS = 10 ** 9
# ``_map_blocks`` starts up to this many threads, however many blocks a
# run has.
MAX_WORKERS = 256

# The quantiles of the 95% interval, as np.percentile forms them.
_BAND_QUANTILES = np.array([2.5, 97.5]) / 100

# Points of a full race and a sprint indexed by ``floor(r + 0.5)``.
# Index 0 scores position 1, and ``np.take``'s clip mode scores every
# index below 0 as position 1 and every index above 20 as position 20.
_FULL_TABLE, _SPRINT_TABLE = (np.array(points[:1] + points, dtype=np.int32)
                              for points in (FULL_RACE_POINTS, SPRINT_POINTS))


@dataclass(frozen=True)
class SeasonConfig:
    """Race counts (the scenario's unless given), simulation size, seed and scenario."""

    races_full: int | None = None
    races_sprint: int | None = None
    n_sims: int = 1_000_000
    master_seed: int = DEFAULT_SEED
    scenario: str = "baseline"

    def __post_init__(self):
        canonical_scenario(self.scenario)
        for field, default in zip(("races_full", "races_sprint"), SCENARIO_SEASONS[self.scenario]):
            if getattr(self, field) is None:
                object.__setattr__(self, field, default)
        for field in ("races_full", "races_sprint", "n_sims", "master_seed"):
            value = getattr(self, field)
            if not _is_int(value):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            object.__setattr__(self, field, int(value))
        if self.races_full < 0 or self.races_sprint < 0:
            raise ValueError("race counts must be non-negative")
        if self.races > MAX_RACES:
            raise ValueError(f"races_full + races_sprint must be at most {MAX_RACES}, "
                             f"got {self.races}")
        if self.n_sims < 1:
            raise ValueError("n_sims must be at least 1")
        if self.n_sims > MAX_SIMS:
            raise ValueError(f"n_sims must be at most {MAX_SIMS}, got {self.n_sims}")
        if not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError("master_seed must be an unsigned 64-bit integer")

    @property
    def races(self):
        return self.races_full + self.races_sprint


@dataclass(frozen=True)
class SimulationSummary:
    """Mean season points and the empirical 95% interval for a category."""

    category: str
    mean_points: float
    ci_low: float
    ci_high: float
    n_sims: int

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        for field in ("mean_points", "ci_low", "ci_high"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{field} must be a real number, got {value!r}")
            object.__setattr__(self, field, float(value))
        if not (_is_int(self.n_sims) and self.n_sims >= 1):
            raise ValueError(f"n_sims must be an integer of at least 1, got {self.n_sims!r}")
        object.__setattr__(self, "n_sims", int(self.n_sims))
        # The mean may lie outside the band: one scoring season in forty gives 0..0.
        if not (all(map(math.isfinite, (self.mean_points, self.ci_low, self.ci_high)))
                and self.ci_low <= self.ci_high):
            raise ValueError("summary must be finite with ci_low <= ci_high")

    def as_dict(self):
        return asdict(self)


def _category_kind(category):
    """(driver class, cars) of a category; teams score two cars."""
    driver_class, entity = category.rsplit("_", 1)
    return driver_class, 1 if entity == "driver" else 2


def _race_uniforms(config, race, start, out):
    """Fill ``out[car]`` with car ``car``'s uniforms of one race for seasons ``start ..``.

    The seasons must lie in one chunk.  Each car reads the Philox stream
    keyed by (seed, race, car, chunk).  Each counter step yields four
    64-bit words and ``random()`` uses one word per double, so the
    generator skips ``offset // 4`` counter steps and discards the
    remaining ``offset % 4`` words.
    """
    chunk_index, offset = divmod(start, CHUNK_SIMS)
    for car, row in enumerate(out):
        seq = np.random.SeedSequence(entropy=[config.master_seed, race, car, chunk_index])
        bits = np.random.Philox(seq)
        bits.advance(offset // 4)
        gen = np.random.Generator(bits)
        gen.random(offset % 4)
        gen.random(out=row)
    return np.maximum(out, _UNIFORM_FLOOR, out=out)


class _RankPlan(NamedTuple):
    """Rank rows ``mu + a * z0``, the trailing ``len(b)`` of them plus ``b * z1``.

    ``mu``, ``a`` and ``b`` are column vectors; ``reads`` holds each
    category's tuple of row indices.
    """

    mu: np.ndarray
    a: np.ndarray
    b: np.ndarray
    reads: list


def _rank_plan(params, categories):
    """The rank rows one race needs for ``categories``, and the rows each reads.

    Each class has one car-0 row, ``mu + sigma * z0``, which its driver
    category and its team's first car share.  Each team class adds a
    car-1 row from the conditional factorization of the bivariate
    normal, ``mu + rho * sigma * z0 + sigma * sqrt(1 - rho^2) * z1``.
    """
    kinds = [_category_kind(category) for category in categories]
    classes = list(dict.fromkeys(driver_class for driver_class, _ in kinds))
    pairs = list(dict.fromkeys(driver_class for driver_class, cars in kinds if cars == 2))
    mu, a, b = [], [], []
    for driver_class in classes:
        class_mu, sigma, _ = params.of(driver_class)
        mu.append(class_mu)
        a.append(sigma)
    for driver_class in pairs:
        class_mu, sigma, cov = params.of(driver_class)
        if not abs(cov) < sigma * sigma:
            raise ValueError("pair covariance matrix is not positive definite")
        rho = cov / (sigma * sigma)
        mu.append(class_mu)
        a.append(rho * sigma)
        b.append(sigma * math.sqrt(1.0 - rho * rho))
    reads = [
        (classes.index(driver_class),) if cars == 1
        else (classes.index(driver_class), len(classes) + pairs.index(driver_class))
        for driver_class, cars in kinds
    ]
    return _RankPlan(*(np.array(values).reshape(-1, 1) for values in (mu, a, b)), reads)


def _ranks(plan, z, out=None):
    """Raw (unrounded) ranks of every row of ``plan`` from per-car deviates ``z``."""
    ranks = np.multiply(plan.a, z[0], out=out)
    ranks += plan.mu
    if len(plan.b):
        teammates = ranks[len(plan.mu) - len(plan.b):]
        teammates += plan.b * z[1]
    return ranks


def _race_step(plan, uniforms, work=None):
    """Rank indices ``floor(r + 0.5)`` of every rank row of one race.

    ``uniforms`` holds one row per car.  The ranks are built from
    Acklam's start of each car's uniforms.  The seasons in which some
    row lies within ``_EDGE_MARGIN`` of a bin edge are redone through the
    polished quantile, so every index is the one the rounded polished
    rank gives.  ``work`` is a (float, intp) pair of (rows, seasons)
    arrays that the step overwrites; the intp one is returned, and
    clamping its entries to 1..20 gives the positions.
    """
    if work is None:
        shape = (len(plan.mu), uniforms.shape[1])
        work = np.empty(shape), np.empty(shape, dtype=np.intp)
    ranks, index = work
    # Acklam runs once per car.  On the stacked array its temporaries are
    # twice as large, and at one worker freeing them every race made the
    # allocator return their pages and fault them in again: ~200000 page
    # faults per 300000-season run instead of ~15000.
    _ranks(plan, [_acklam(u) for u in uniforms], out=ranks)
    ranks += 0.5
    np.floor(ranks, out=index, casting="unsafe")
    # r lies near a bin edge k + 0.5 when the fraction of r + 0.5 lies
    # near 0 or 1
    ranks -= index
    ranks -= 0.5
    near = np.abs(ranks, out=ranks) > 0.5 - _EDGE_MARGIN
    if near.any():
        seasons = np.flatnonzero(near.any(axis=0))
        polished = _ranks(plan, [std_normal_quantile(u) for u in uniforms[:, seasons]])
        index[:, seasons] = np.floor(polished + 0.5)
    return index


def _season_top(config):
    """A driver's highest season total: a win in every race."""
    return config.races_full * FULL_RACE_POINTS[0] + config.races_sprint * SPRINT_POINTS[0]


def _season_block(params, categories, config, start, count):
    """Season totals of seasons ``start .. start + count``, one array per category.

    The seasons must lie in one chunk.  The Philox key holds no
    category, so every category reads the same per-car streams, and a
    team's first car is its class's driver.  Each race draws every
    car's uniforms once, builds every rank row in one stacked step and
    scores all rows with one lookup.  A team's total is the sum of its
    two rows.  The workspace is sized by ``count``, and the totals are
    int64.
    """
    plan = _rank_plan(params, categories)
    rows = len(plan.mu)
    cars = 2 if len(plan.b) else 1
    uniforms = np.empty((cars, count))
    work = np.empty((rows, count)), np.empty((rows, count), dtype=np.intp)
    points = np.empty((rows, count), dtype=_FULL_TABLE.dtype)
    totals = np.zeros((rows, count), dtype=_FULL_TABLE.dtype)
    for race in range(config.races):
        _race_uniforms(config, race, start, uniforms)
        table = _FULL_TABLE if race < config.races_full else _SPRINT_TABLE
        np.take(table, _race_step(plan, uniforms, work), mode="clip", out=points)
        totals += points
    return [totals[list(read)].sum(axis=0, dtype=np.int64) for read in plan.reads]


def _is_int(value):
    """Whether ``value`` is an integer, a numpy one included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_index(name, value, stop):
    if not (_is_int(value) and 0 <= value < stop):
        raise ValueError(f"{name} must be an integer in [0, {stop}), got {value!r}")


def _check_run(categories, workers):
    for category in categories:
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    if not (_is_int(workers) and 1 <= workers <= MAX_WORKERS):
        raise ValueError(f"workers must be an integer from 1 to {MAX_WORKERS}, got {workers!r}")


def _map_blocks(run, n_sims, workers):
    """Yield ``run(start, count)`` of every block of seasons, in block order.

    The blocks run on up to ``workers`` threads; their results are
    yielded in the calling thread.
    """
    spans = [(start, min(_BLOCK_SIMS, n_sims - start))
             for start in range(0, n_sims, _BLOCK_SIMS)]
    if workers == 1 or len(spans) == 1:
        for span in spans:
            yield run(*span)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            yield from pool.map(run, *zip(*spans))


def season_totals(category, config, params=None, workers=1):
    """Simulate every season total for a category as an int64 array.

    The result depends only on the category, the configuration and the
    parameters, never on ``workers``: blocks are computed independently
    and written back by index.
    """
    _check_run((category,), workers)
    if params is None:
        params = make_params(config.scenario)

    totals = np.empty(config.n_sims, dtype=np.int64)

    def run(start, count):
        totals[start:start + count] = _season_block(params, (category,), config, start, count)[0]

    for _ in _map_blocks(run, config.n_sims, workers):
        pass
    return totals


def simulate_driver_season(params, driver_class, config, sim_index):
    """Points total of a single simulated driver season.

    Replays exactly the draws that season ``sim_index`` receives inside
    a full ``season_totals`` run, and draws nothing else.
    """
    return _replay(params, f"{driver_class}_driver", config, sim_index)


def simulate_team_season(params, driver_class, config, sim_index):
    """Points total of a single simulated team season (both cars)."""
    return _replay(params, f"{driver_class}_team", config, sim_index)


def _replay(params, category, config, sim_index):
    _check_index("sim_index", sim_index, config.n_sims)
    (totals,) = _season_block(params, (category,), config, int(sim_index), 1)
    return int(totals[0])


def summarize(category, config):
    """The ``SimulationSummary`` of one category: its entry of ``summarize_all``.

    The mean is the arithmetic mean of the season totals; the interval
    endpoints are the empirical 2.5th and 97.5th percentiles, reported
    as attained sample values (hence integers).
    """
    _check_run((category,), 1)
    return summarize_all(config)[category]


def summarize_all(config, workers=1):
    """Summaries for all four categories as a dict keyed by category.

    One pass over the blocks reduces each block's totals at once to one
    histogram per category, and the histograms are summed in the
    calling thread, so no ``n_sims``-long array is held for more than
    one category at a time.  Integer counts are exact, so the summaries
    equal those of ``season_totals`` bit for bit.
    """
    if config.n_sims < 40:
        raise ValueError("n_sims must be at least 40 for meaningful 95% percentiles")
    _check_run(CATEGORIES, workers)
    params = make_params(config.scenario)
    top = _season_top(config)
    sizes = [cars * top + 1 for _, cars in map(_category_kind, CATEGORIES)]

    def run(start, count):
        block = _season_block(params, CATEGORIES, config, start, count)
        return [np.bincount(totals, minlength=size) for totals, size in zip(block, sizes)]

    counts = [np.zeros(size, dtype=np.int64) for size in sizes]
    for block_counts in _map_blocks(run, config.n_sims, workers):
        for total, block_count in zip(counts, block_counts):
            total += block_count
    return {
        category: _summary(category, count, config.n_sims)
        for category, count in zip(CATEGORIES, counts)
    }


def _summary(category, counts, n_sims):
    """The ``SimulationSummary`` of the season totals that ``counts`` histograms.

    The mean is the exact integer sum over ``n_sims``.  The endpoints
    follow ``np.percentile(..., method="inverted_cdf")``, which takes the
    sorted total at index ``ceil(n * q - 1)`` (at least 0): the first
    total whose cumulative count exceeds that index.
    """
    index = np.maximum(np.ceil(n_sims * _BAND_QUANTILES - 1), 0)
    low, high = np.searchsorted(np.cumsum(counts), index, side="right")
    return SimulationSummary(
        category=category,
        mean_points=int(np.arange(len(counts)) @ counts) / n_sims,
        ci_low=float(low),
        ci_high=float(high),
        n_sims=n_sims,
    )


def rookie_benchmark(base):
    """Halve an elite-driver benchmark for a first-season driver.

    A rookie in an elite seat is given a year to bed in, so the season
    target is half the established benchmark: mean and both interval
    endpoints are divided by two, which may yield half-integer bounds.
    """
    if base.category != "elite_driver":
        raise ValueError("the rookie adjustment applies to the elite_driver benchmark only")
    return replace(base, mean_points=base.mean_points / 2.0,
                   ci_low=base.ci_low / 2.0, ci_high=base.ci_high / 2.0)


def sample_positions(params, driver_class, config, race=0):
    """Rounded finishing positions of one race across all simulations.

    Returns an int64 array of length ``config.n_sims`` holding the
    position that each simulated season records in the given race.
    Useful for checking the simulator against the analytic bins.
    """
    plan = _rank_plan(params, (f"{driver_class}_driver",))
    (index,) = _sample_race(lambda uniforms: _race_step(plan, uniforms), config, race, 1)
    return round_to_position(index)


def sample_pair_ranks(params, driver_class, config, race=0):
    """Raw teammate rank pairs (r1, r2) of one race across simulations.

    The ranks are returned before rounding, which is the scale on which
    the pair-sum boundary conditions and the within-team correlation
    are defined.  They go through the polished quantile.
    """
    plan = _rank_plan(params, (f"{driver_class}_team",))
    r1, r2 = _sample_race(
        lambda uniforms: _ranks(plan, [std_normal_quantile(u) for u in uniforms]),
        config, race, 2)
    return r1, r2


def _sample_race(step, config, race, cars):
    """``step``'s rows for one race's uniforms, joined over every block."""
    _check_index("race", race, config.races)
    return np.concatenate(list(_map_blocks(
        lambda start, count: step(_race_uniforms(config, race, start, np.empty((cars, count)))),
        config.n_sims, 1)), axis=1)


def _cache_key(config):
    return ",".join(f"{field.name}={getattr(config, field.name)}" for field in fields(config))


@functools.cache
def _model_fingerprint():
    """Digest of the version, every scenario's params and the points tables.

    Summaries depend on these beyond their configuration.  All are
    constants of the installed package, so this runs once per process.
    """
    model = [__version__, [asdict(make_params(scenario)) for scenario in SCENARIOS],
             FULL_RACE_POINTS, SPRINT_POINTS]
    return hashlib.sha256(json.dumps(model).encode()).hexdigest()[:16]


def _read_entries(path):
    """The cache file's entries under the current model; ``ValueError`` if malformed."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("top level is not a JSON object")
    entries = payload.get(_model_fingerprint(), {})
    if not isinstance(entries, dict):
        raise ValueError("model block is not a JSON object")
    return entries


def load_cached_summaries(path, config):
    """Load summaries for a configuration from a cache file, or None.

    Entries sit under ``_model_fingerprint``, so one written under
    another model is a miss.  A cache file that cannot be read, or
    whose entry for the configuration does not hold exactly the
    ``CATEGORIES`` summaries of ``config.n_sims`` seasons, is a miss: a
    warning naming the file goes to stderr, and the caller recomputes
    and rewrites it.
    """
    if not path or not os.path.exists(path):
        return None
    try:
        entry = _read_entries(path).get(_cache_key(config))
        if entry is None:
            return None
        if set(entry) != set(CATEGORIES):
            raise ValueError(f"entry holds categories {sorted(entry)}")
        summaries = {category: SimulationSummary(**entry[category]) for category in CATEGORIES}
        for category, summary in summaries.items():
            if (summary.category, summary.n_sims) != (category, config.n_sims):
                raise ValueError(f"entry {category} holds {summary.category} "
                                 f"of {summary.n_sims} seasons")
        return summaries
    except (OSError, TypeError, ValueError) as exc:
        print(f"f1bench: warning: ignoring unreadable summary cache {path}: {exc}",
              file=sys.stderr)
        return None


def store_summaries(path, config, summaries):
    """Store summaries for a configuration beside the current model's entries.

    Entries of other models are dropped.  An unreadable existing file
    is replaced.  The file is written as one line of JSON with sorted
    keys; any valid JSON layout, such as an indented one, reads back.
    The new contents go to a temporary file in the same
    directory that is then renamed over ``path``, so a reader sees
    either the old file or the new one.
    """
    try:
        entries = _read_entries(path)
    except (FileNotFoundError, ValueError):
        entries = {}
    entries[_cache_key(config)] = {
        category: summary.as_dict() for category, summary in summaries.items()
    }
    fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                     prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # one dumps call without indent takes json's C encoder; dump
            # to a handle, or any indent, takes the pure-Python one
            handle.write(json.dumps({_model_fingerprint(): entries}, sort_keys=True) + "\n")
        os.replace(temp_path, path)
    except BaseException:
        os.unlink(temp_path)
        raise
