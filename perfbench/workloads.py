"""The four benchmark workloads and the checks on their outputs.

Each workload is built from the workload seed alone, runs one
untimed warm-up operation, then runs numbered sections: a section is
the unit the timed loop repeats and whose median wall time is
``wall_s``.  Sections draw their inputs from ``(seed, index)``, so a
traced run can replay section ``i`` with and without wrappers on the
same inputs.  Outputs are kept in memory and checked after timing.

The program is driven only through the public functions of the
``f1bench`` modules, always looked up on the module at call time so
that the traced run's wrappers see every call.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import time

import numpy as np

from f1bench import benchmark, calibration, cli, probabilities, simulate

# sha256 of each category's season_totals as little-endian int64
# bytes, keyed by (scenario, n_sims, master_seed).  300000 seasons span
# two full 131072-season chunks and end in a partial one.
PINNED_DIGESTS = {
    ("baseline", 300_000, 2025): {
        "elite_driver": "40f13de8bb1f571f3650cce8a85ffcce4ed779c15b9359262dba993357b1481a",
        "elite_team": "f222fd1f4e5ab969d1464a3ce41baef2d8078291f48739d24ecca65eb32ca171",
        "nonelite_driver": "5501537745e7da5251a3128d2b946eea87eaa2f529775e7c4b47a3614c60963e",
        "nonelite_team": "071f595a1d9210a63034785507cb2aaf67770649dc78ec8315e2de74e5cb15eb",
    },
    ("dominant", 300_000, 2025): {
        "elite_driver": "b57eef18f50532cb45b5c3b3cc0958f6a52c07aee12843cb92dab0079d92c809",
        "elite_team": "564175b21cc238cffeb0d4cc7c3d08784bd17c27cfa0e100846847bcba467a0a",
        "nonelite_driver": "da85de821a307699701c21fa6a3b2545654e5b1aefb1afff262aace1bddcc4a1",
        "nonelite_team": "3fd2a69b9b0c094ff2c723f66893c7f9cd2b07b0b37a738aaa365efea5dd1b6e",
    },
}

MC_SIMS = 300_000
WARM_UP_SIMS = 1_000
# A Monte Carlo mean further than this many standard errors from the
# analytic expectation is a failed output.
MAX_STANDARD_ERRORS = 5.0


def nproc():
    return len(os.sched_getaffinity(0))


def digest(totals):
    return hashlib.sha256(np.asarray(totals, dtype="<i8").tobytes()).hexdigest()


def season_config(scenario, n_sims, seed):
    full, sprint = simulate.SCENARIO_SEASONS[scenario]
    return simulate.SeasonConfig(races_full=full, races_sprint=sprint, n_sims=n_sims,
                                 master_seed=seed, scenario=scenario)


def split_category(category):
    driver_class, entity = category.rsplit("_", 1)
    return driver_class, entity


def expected_points(params, category, config):
    """Exact mean season total; a team scores two drivers' worth."""
    driver_class, entity = split_category(category)
    mean = probabilities.expected_season_points(params, driver_class, config)
    return 2.0 * mean if entity == "team" else mean


def standard_error(params, category, config):
    """Standard error of the Monte Carlo mean of a category.

    A driver season is a sum of independent races, so its variance is
    the sum of the per-race points variances.  Teammates' ranks are
    negatively correlated and points fall with rank, so a team's
    variance is at most twice a driver's; that bound is used.
    """
    driver_class, entity = split_category(category)
    probs = probabilities.position_distribution(params, driver_class)
    variance = 0.0
    for races, table in ((config.races_full, probabilities.FULL_RACE_POINTS),
                         (config.races_sprint, probabilities.SPRINT_POINTS)):
        points = np.asarray(table, dtype=np.float64)
        mean = probs @ points
        variance += races * (probs @ (points * points) - mean * mean)
    if entity == "team":
        variance *= 2.0
    return math.sqrt(variance / config.n_sims)


def reference_summary(totals):
    """(mean, ci_low, ci_high) of season totals, by the summary's definition."""
    low, high = np.percentile(totals, [2.5, 97.5], method="inverted_cdf")
    return int(totals.sum()) / totals.size, float(low), float(high)


class McBatch:
    """``summarize_all`` for one scenario: one call is one operation."""

    min_samples = 1

    def __init__(self, seed, scenario, workers, n_sims=MC_SIMS):
        self.config = season_config(scenario, n_sims, seed)
        self.params = calibration.make_params(scenario)
        self.workers = workers
        self.seasons_per_section = len(simulate.CATEGORIES) * n_sims
        self.requests_per_section = 1
        self.outputs = []

    def facts(self):
        return {**dataclasses.asdict(self.config), "workers": self.workers}

    def warm_up(self):
        small = dataclasses.replace(self.config, n_sims=WARM_UP_SIMS)
        simulate.summarize_all(small, workers=self.workers)

    def section(self, index, latencies):
        start = time.perf_counter()
        try:
            output = simulate.summarize_all(self.config, workers=self.workers)
        except Exception as exc:  # a failed operation, reported by check()
            output = exc
        latencies.append(time.perf_counter() - start)
        self.outputs.append(output)

    @property
    def attempted(self):
        return len(self.outputs)

    def reference_totals(self):
        return {
            category: simulate.season_totals(category, self.config, params=self.params,
                                             workers=nproc())
            for category in simulate.CATEGORIES
        }

    def check(self, totals=None):
        """Count failed operations; returns (failed, problems, digests).

        The reference totals are pinned by digest where a pin exists,
        and their means are held within a few standard errors of the
        exact expectation at any seed.  Each operation must then
        report exactly the reference's mean and percentile band.
        """
        if totals is None:
            totals = self.reference_totals()
        digests = {category: digest(values) for category, values in totals.items()}
        problems = []
        config = self.config
        pinned = PINNED_DIGESTS.get((config.scenario, config.n_sims, config.master_seed))
        if pinned is not None and digests != pinned:
            problems.append(f"season_totals digests differ from the pinned ones: {digests}")
        reference = {}
        for category, values in totals.items():
            mean, low, high = reference_summary(values)
            gap = abs(mean - expected_points(self.params, category, config))
            if gap > MAX_STANDARD_ERRORS * standard_error(self.params, category, config):
                problems.append(f"{category} mean {mean} is {gap:.3f} from the exact mean")
            reference[category] = (mean, low, high, config.n_sims)
        reference_ok = not problems
        failed = 0
        for output in self.outputs:
            if isinstance(output, Exception):
                got = repr(output)
            else:
                got = {
                    category: (summary.mean_points, summary.ci_low, summary.ci_high, summary.n_sims)
                    for category, summary in output.items()
                }
            if not reference_ok or got != reference:
                failed += 1
                if len(problems) < 3:
                    problems.append(f"summarize_all returned {got}, expected {reference}")
        return failed, problems, digests

    def close(self):
        pass


class Replay:
    """Single-season replay, alternating driver and team requests.

    Season indices follow a golden-ratio sequence over ``[0, n_sims)``
    shifted by a uniform draw from the seed, one sequence for drivers
    and one for teams.  Each index is therefore uniform over the range,
    and any prefix of the sequence covers the range evenly, so the
    latency percentiles of a run depend little on the seed.  A section
    is ``PER_SECTION`` consecutive driver and team requests.
    ``n_sims`` is a quarter of a chunk: replay cost grows with the
    offset inside a chunk, and the quarter keeps at least 100 requests,
    enough for a 90th percentile, inside a 20-second run.
    """

    N_SIMS = simulate.CHUNK_SIMS // 4
    PER_SECTION = 8
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
    min_samples = 100

    def __init__(self, seed, n_sims=N_SIMS):
        self.seed = seed
        self.n_sims = n_sims
        self.config = season_config("baseline", n_sims, seed)
        self.params = calibration.make_params("baseline")
        self.shifts = np.random.default_rng(seed).random(2)
        self.requests_per_section = 2 * self.PER_SECTION
        self.seasons_per_section = self.requests_per_section
        self.outputs = []

    def facts(self):
        return {**dataclasses.asdict(self.config), "per_section": self.PER_SECTION}

    def warm_up(self):
        simulate.simulate_driver_season(self.params, "elite", self.config, 0)

    def requests(self, index):
        """(kind, driver class, season index) of section ``index``'s requests."""
        steps = (index * self.PER_SECTION + np.arange(self.PER_SECTION)) * self.GOLDEN
        drivers, teams = (((shift + steps) % 1.0 * self.n_sims).astype(np.int64)
                          for shift in self.shifts)
        classes = np.random.default_rng([self.seed, index]).choice(
            calibration.DRIVER_CLASSES, size=2 * self.PER_SECTION)
        sims = [(kind, int(sim)) for driver, team in zip(drivers, teams)
                for kind, sim in (("driver", driver), ("team", team))]
        return [(kind, str(cls), sim) for (kind, sim), cls in zip(sims, classes)]

    def section(self, index, latencies):
        for kind, driver_class, sim_index in self.requests(index):
            replay = (simulate.simulate_driver_season if kind == "driver"
                      else simulate.simulate_team_season)
            start = time.perf_counter()
            try:
                total = replay(self.params, driver_class, self.config, sim_index)
            except Exception as exc:  # a failed operation, reported by check()
                total = exc
            latencies.append(time.perf_counter() - start)
            self.outputs.append((f"{driver_class}_{kind}", sim_index, total))

    @property
    def attempted(self):
        return len(self.outputs)

    def reference_totals(self):
        return {
            category: simulate.season_totals(category, self.config, params=self.params)
            for category in simulate.CATEGORIES
        }

    def check(self, totals=None):
        """Every replayed total must equal the batch run's total."""
        if totals is None:
            totals = self.reference_totals()
        failed = 0
        problems = []
        for category, sim_index, total in self.outputs:
            if isinstance(total, Exception) or total != int(totals[category][sim_index]):
                failed += 1
                if len(problems) < 3:
                    problems.append(f"{category}[{sim_index}] replayed {total!r}, "
                                    f"batch {int(totals[category][sim_index])}")
        return failed, problems, {category: digest(values) for category, values in totals.items()}

    def close(self):
        pass


class ReportWarm:
    """In-process ``f1bench benchmark`` requests served from a warm cache.

    The cache is pre-filled with synthetic summaries for
    ``READ_CONFIGS`` configurations that requests read and
    ``WRITE_POOL`` that they never read.  A section is
    ``REQUESTS_PER_WRITE`` requests followed by one ``store_summaries``
    call that rewrites a pool configuration with fresh summaries.  The
    pool is pre-filled too, so the cache file keeps the same number of
    entries and the per-request cost stays steady however long the run.
    """

    READ_CONFIGS = 36
    WRITE_POOL = 12
    REQUESTS_PER_WRITE = 10
    N_SIMS = 100_000
    SCENARIOS = ("baseline", "dominant")
    min_samples = 100

    def __init__(self, seed, work_dir):
        self.seed = seed
        rng = np.random.default_rng([seed, 0x5eed])
        seeds = rng.choice(2 ** 32, size=self.READ_CONFIGS + self.WRITE_POOL, replace=False)
        configs = [season_config(self.SCENARIOS[i % 2], self.N_SIMS, int(s))
                   for i, s in enumerate(seeds)]
        self.read_configs = configs[:self.READ_CONFIGS]
        self.write_pool = configs[self.READ_CONFIGS:]
        self.expected = {}
        for scenario in self.SCENARIOS:
            params = calibration.make_params(scenario)
            config = season_config(scenario, self.N_SIMS, seed)
            for category in simulate.CATEGORIES:
                self.expected[scenario, category] = expected_points(params, category, config)
        self.path = os.path.join(work_dir, f"report_warm-cache-{os.getpid()}.json")
        if os.path.exists(self.path):
            os.remove(self.path)
        self.bands = []
        for config in configs:
            summaries = self.synthetic_summaries(config, rng)
            simulate.store_summaries(self.path, config, summaries)
            if len(self.bands) < self.READ_CONFIGS:
                self.bands.append(summaries)
        self.records = benchmark.load_bundled_results()
        self.seasons_per_section = self.REQUESTS_PER_WRITE * len(simulate.CATEGORIES) * self.N_SIMS
        self.requests_per_section = self.REQUESTS_PER_WRITE
        self.outputs = {}
        self.writes = 0
        self.failed_writes = []

    def facts(self):
        return {
            "n_sims": self.N_SIMS,
            "read_configs": [dataclasses.asdict(c) for c in self.read_configs],
            "write_pool": [dataclasses.asdict(c) for c in self.write_pool],
            "requests_per_write": self.REQUESTS_PER_WRITE,
        }

    def synthetic_summaries(self, config, rng):
        """Seeded summaries around the exact mean, with integer band edges."""
        summaries = {}
        for category in simulate.CATEGORIES:
            mean = self.expected[config.scenario, category] * (1.0 + rng.uniform(-0.03, 0.03))
            low = max(0.0, math.floor(mean * (1.0 - rng.uniform(0.1, 0.3)) - rng.uniform(0, 5)))
            high = math.ceil(mean * (1.0 + rng.uniform(0.1, 0.3)) + rng.uniform(0, 5))
            summaries[category] = simulate.SimulationSummary(
                category=category, mean_points=mean, ci_low=float(low), ci_high=float(high),
                n_sims=config.n_sims,
            )
        return summaries

    def argv(self, config):
        return ["benchmark", "--cache", self.path, "--scenario", config.scenario,
                "--seed", str(config.master_seed), "--sims", str(config.n_sims)]

    def request(self, config):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(self.argv(config))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a failed operation, reported by check()
                code = repr(exc)
        return code, out.getvalue()

    def warm_up(self):
        self.request(self.read_configs[0])

    def section(self, index, latencies):
        rng = np.random.default_rng([self.seed, index])
        for choice in rng.integers(self.READ_CONFIGS, size=self.REQUESTS_PER_WRITE):
            start = time.perf_counter()
            code, text = self.request(self.read_configs[choice])
            latencies.append(time.perf_counter() - start)
            key = (int(choice), code, text)
            self.outputs[key] = self.outputs.get(key, 0) + 1
        config = self.write_pool[index % self.WRITE_POOL]
        self.writes += 1
        try:
            simulate.store_summaries(self.path, config, self.synthetic_summaries(config, rng))
        except Exception as exc:  # a failed operation, reported by check()
            self.failed_writes.append(repr(exc))

    @property
    def attempted(self):
        return sum(self.outputs.values()) + self.writes

    def expected_report(self, choice):
        """(entity, name) -> (points text, arrow) by the strict band rule."""
        expected = {}
        for record in self.records:
            band = self.bands[choice][record.category]
            if record.points > band.ci_high:
                outcome = "above"
            elif record.points < band.ci_low:
                outcome = "below"
            else:
                outcome = "meets"
            expected[record.entity, record.name] = (f"{record.points:g}", benchmark.ARROWS[outcome])
        return expected

    def check(self):
        failed = len(self.failed_writes)
        problems = list(self.failed_writes[:3])
        for (choice, code, text), count in self.outputs.items():
            if code != 0 or parse_report(text) != self.expected_report(choice):
                failed += count
                if len(problems) < 3:
                    problems.append(f"request {self.argv(self.read_configs[choice])} "
                                    f"exited {code!r} with a wrong report")
        return failed, problems, {"bands": digest_bands(self.bands)}

    def cache_bytes(self):
        return os.path.getsize(self.path)

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)


def digest_bands(bands):
    text = repr([[(s.category, s.mean_points, s.ci_low, s.ci_high) for s in b.values()]
                 for b in bands])
    return hashlib.sha256(text.encode()).hexdigest()


def parse_report(text):
    """(entity, name) -> (points text, arrow) from a markdown verdict report."""
    rows = {}
    entity = None
    for line in text.splitlines():
        if line.startswith("## "):
            entity = {"## Drivers": "driver", "## Teams": "team"}.get(line)
        elif line.startswith("| ") and entity is not None:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if cells[0] in ("Driver", "Team", "---"):
                continue
            rows[entity, cells[0]] = (cells[-2], cells[-1])
    return rows


def make(name, seed, work_dir):
    """Build a named workload from its seed."""
    if name == "mc_serial":
        return McBatch(seed, "baseline", workers=1)
    if name == "mc_parallel":
        return McBatch(seed, "dominant", workers=nproc())
    if name == "replay":
        return Replay(seed)
    if name == "report_warm":
        return ReportWarm(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_serial", "mc_parallel", "replay", "report_warm")
