"""Full-scale acceptance checks.

Each test evaluates one acceptance criterion at its stated tolerance
and prints a single ``CRITERION n PASS/FAIL`` line (visible with
``pytest -s`` or in the failure output).  The simulation fixtures run
1,000,000 seasons, so this module dominates the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from f1bench.benchmark import classify_season, load_bundled_results
from f1bench.calibration import calibrate, calibration_residuals, make_params
from f1bench.normal import std_normal_cdf, std_normal_quantile
from f1bench.probabilities import position_distribution
from f1bench.simulate import (
    SeasonConfig, rookie_benchmark, sample_pair_ranks, sample_positions,
    summarize, summarize_all,
)

# Benchmark values the full-scale runs must land on, with the interval
# endpoints reported as (low, high).
BASELINE_TARGETS = {
    "elite_driver": (315.456, 0.5, (253, 381), 2),
    "elite_team": (630.91, 1.0, (594, 669), 3),
    "nonelite_driver": (10.636, 0.2, (1, 29), 2),
    "nonelite_team": (21.305, 0.3, (5, 44), 2),
}
DOMINANT_TARGETS = {
    "elite_driver": (195.871, 0.5, (147, 249), 2),
    "elite_team": (391.733, 1.0, (361, 424), 3),
}

# Reference verdicts for the bundled 2025 corpus.  Stroll's 33 points
# exceed the simulated non-elite driver band, so the strict interval
# rule reads "above"; a boundary-forgiving reading would call it
# "meets", and that difference is intentional and documented.
REFERENCE_DRIVER_VERDICTS = {
    "Lando Norris": "above",
    "Oscar Piastri": "above",
    "George Russell": "meets",
    "Kimi Antonelli": "below",
    "Max Verstappen": "above",
    "Yuki Tsunoda": "below",
    "Charles Leclerc": "below",
    "Lewis Hamilton": "below",
    "Alexander Albon": "above",
    "Carlos Sainz Jr": "above",
    "Isack Hadjar": "above",
    "Liam Lawson": "above",
    "Fernando Alonso": "above",
    "Lance Stroll": "above",
    "Oliver Bearman": "above",
    "Esteban Ocon": "above",
    "Nico Hülkenberg": "above",
    "Gabriel Bortoleto": "meets",
    "Pierre Gasly": "meets",
    "Franco Colapinto": "below",
}
REFERENCE_TEAM_VERDICTS = {
    "McLaren": "above",
    "Mercedes": "below",
    "Red Bull": "below",
    "Ferrari": "below",
    "Williams": "above",
    "Racing Bulls": "above",
    "Aston Martin": "above",
    "Haas": "above",
    "Sauber": "above",
    "Alpine": "meets",
}


def report(number, problems, detail):
    ok = not problems
    status = "PASS" if ok else "FAIL"
    suffix = detail if ok else detail + " | " + "; ".join(problems)
    print(f"CRITERION {number} {status}: {suffix}")
    assert ok, f"criterion {number}: {suffix}"


def check_summary(problems, label, summary, target):
    mean, mean_tol, (low, high), ci_tol = target
    if abs(summary.mean_points - mean) > mean_tol:
        problems.append(f"{label} mean {summary.mean_points:.3f} not within "
                        f"{mean_tol} of {mean}")
    if abs(summary.ci_low - low) > ci_tol:
        problems.append(f"{label} ci_low {summary.ci_low} not within {ci_tol} of {low}")
    if abs(summary.ci_high - high) > ci_tol:
        problems.append(f"{label} ci_high {summary.ci_high} not within {ci_tol} of {high}")


@pytest.fixture(scope="module")
def baseline_run():
    config = SeasonConfig()
    start = time.perf_counter()
    summaries = summarize_all(config, workers=4)
    elapsed = time.perf_counter() - start
    return config, summaries, elapsed


@pytest.fixture(scope="module")
def dominant_run():
    config = SeasonConfig(scenario="dominant")
    return {category: summarize(category, config) for category in ("elite_driver", "elite_team")}


def test_criterion_1_calibration_exactness():
    problems = []
    sigma_elite, cov_elite = calibrate("elite")
    sigma_nonelite, cov_nonelite = calibrate("nonelite")
    for label, value, expected in (
        ("sigma_elite", sigma_elite, 2.607903),
        ("sigma_nonelite", sigma_nonelite, 3.615344),
        ("cov_elite_pair", cov_elite, -6.051472),
        ("cov_nonelite_pair", cov_nonelite, -10.98825),
    ):
        if abs(value - expected) > 1e-5:
            problems.append(f"{label} {value!r} not within 1e-5 of {expected}")
    residuals = calibration_residuals(make_params())
    worst = max(abs(value) for value in residuals.values())
    if worst >= 1e-9:
        problems.append(f"worst residual {worst:.3e} >= 1e-9")
    report(1, problems,
           f"constants ({sigma_elite:.6f}, {sigma_nonelite:.6f}, "
           f"{cov_elite:.6f}, {cov_nonelite:.6f}), worst residual {worst:.2e}")


def test_criterion_2_baseline_benchmarks(baseline_run):
    _, summaries, elapsed = baseline_run
    problems = []
    for category, target in BASELINE_TARGETS.items():
        check_summary(problems, category, summaries[category], target)
    if elapsed >= 60.0:
        problems.append(f"full-scale run took {elapsed:.1f}s (limit 60s)")
    observed = ", ".join(
        f"{category} {s.mean_points:.3f} ({s.ci_low:.0f}, {s.ci_high:.0f})"
        for category, s in summaries.items()
    )
    report(2, problems, f"{observed}, elapsed {elapsed:.1f}s")


def test_criterion_3_dominant_and_rookie(baseline_run, dominant_run):
    _, baseline, _ = baseline_run
    problems = []
    for category, target in DOMINANT_TARGETS.items():
        check_summary(problems, f"dominant {category}", dominant_run[category], target)
    rookie = rookie_benchmark(baseline["elite_driver"])
    base = baseline["elite_driver"]
    if (rookie.mean_points, rookie.ci_low, rookie.ci_high) != (
            base.mean_points / 2.0, base.ci_low / 2.0, base.ci_high / 2.0):
        problems.append("rookie benchmark is not exactly half the baseline summary")
    for label, value, expected, tol in (
        ("rookie mean", rookie.mean_points, 157.728, 0.25),
        ("rookie ci_low", rookie.ci_low, 126.5, 1.0),
        ("rookie ci_high", rookie.ci_high, 190.5, 1.0),
    ):
        if abs(value - expected) > tol:
            problems.append(f"{label} {value} not within {tol} of {expected}")
    driver = dominant_run["elite_driver"]
    team = dominant_run["elite_team"]
    report(3, problems,
           f"dominant driver {driver.mean_points:.3f} ({driver.ci_low:.0f}, "
           f"{driver.ci_high:.0f}), team {team.mean_points:.3f} ({team.ci_low:.0f}, "
           f"{team.ci_high:.0f}), rookie ({rookie.mean_points:.3f}, "
           f"{rookie.ci_low}, {rookie.ci_high})")


def test_criterion_4_law_equivalence():
    params = make_params()
    config = SeasonConfig()
    problems = []
    worst = 0.0
    for driver_class in ("elite", "nonelite"):
        analytic = position_distribution(params, driver_class)
        if abs(analytic.sum() - 1.0) > 1e-9:
            problems.append(f"{driver_class} bins sum to {analytic.sum()!r}")
        positions = sample_positions(params, driver_class, config)
        freq = np.bincount(positions, minlength=21)[1:] / config.n_sims
        gap = np.abs(freq - analytic).max()
        worst = max(worst, gap)
        if gap > 0.005:
            problems.append(f"{driver_class} worst |freq - bin| {gap:.5f} > 0.005")
    report(4, problems, f"worst |frequency - analytic bin| {worst:.2e} over 1e6 draws")


def test_criterion_5_pair_constraints():
    params = make_params()
    config = SeasonConfig()
    problems = []
    r1, r2 = sample_pair_ranks(params, "elite", config)
    elite_violations = int((r1 + r2 <= 3.0).sum())
    if elite_violations > 5:
        problems.append(f"{elite_violations} elite pair-sum violations (limit 5)")
    rho_elite = params.cov_elite_pair / params.sigma_elite**2
    corr_elite = float(np.corrcoef(r1, r2)[0, 1])
    if abs(corr_elite - rho_elite) > 0.01:
        problems.append(f"elite correlation {corr_elite:.5f} not within 0.01 of {rho_elite:.5f}")
    n1, n2 = sample_pair_ranks(params, "nonelite", config)
    nonelite_ok = float(((n1 + n2) <= 39.0).mean())
    if nonelite_ok < 0.999998:
        problems.append(f"nonelite pair-sum frequency {nonelite_ok} < 0.999998")
    rho_nonelite = params.cov_nonelite_pair / params.sigma_nonelite**2
    corr_nonelite = float(np.corrcoef(n1, n2)[0, 1])
    if abs(corr_nonelite - rho_nonelite) > 0.01:
        problems.append(f"nonelite correlation {corr_nonelite:.5f} not within "
                        f"0.01 of {rho_nonelite:.5f}")
    report(5, problems,
           f"elite violations {elite_violations}, nonelite frequency {nonelite_ok:.6f}, "
           f"correlations {corr_elite:.5f}/{corr_nonelite:.5f}")


def test_criterion_6_verdict_regression(baseline_run):
    _, summaries, _ = baseline_run
    problems = []
    records = load_bundled_results()
    verdicts = classify_season(records, summaries)
    outcomes = {(v.record.entity, v.record.name): v.outcome for v in verdicts}
    for name, expected in REFERENCE_DRIVER_VERDICTS.items():
        got = outcomes[("driver", name)]
        if got != expected:
            problems.append(f"driver {name}: {got} != {expected}")
    for name, expected in REFERENCE_TEAM_VERDICTS.items():
        got = outcomes[("team", name)]
        if got != expected:
            problems.append(f"team {name}: {got} != {expected}")
    drivers = {r.name: r for r in records if r.entity == "driver"}
    for team in (r for r in records if r.entity == "team"):
        total = sum(d.points for d in drivers.values() if d.team == team.name)
        if total != team.points:
            problems.append(f"team {team.name} points {team.points} != driver sum {total}")
    report(6, problems,
           "verdicts match for 20 drivers (Stroll strictly above, as documented) "
           "and 10 teams; team points equal driver sums")


def test_criterion_7_worker_determinism(baseline_run):
    config, summaries, _ = baseline_run
    problems = []
    reference = json.dumps(
        {category: summary.as_dict() for category, summary in summaries.items()},
        sort_keys=True,
    )
    for workers in (1, 8):
        rerun = json.dumps(
            {category: summary.as_dict()
             for category, summary in summarize_all(config, workers=workers).items()},
            sort_keys=True,
        )
        if rerun != reference:
            problems.append(f"workers={workers} output differs from workers=4")
    report(7, problems, "serialized summaries bit-identical for workers 1, 4, 8")


def test_criterion_8_special_function_accuracy():
    problems = []
    grid = np.arange(1, 1000) / 1000.0
    round_trip = np.abs(std_normal_cdf(std_normal_quantile(grid)) - grid).max()
    if round_trip > 1e-9:
        problems.append(f"round-trip error {round_trip:.3e} > 1e-9")
    anchor = std_normal_cdf(-1.150349)
    if abs(anchor - 0.125) > 1e-6:
        problems.append(f"cdf(-1.150349) = {anchor!r} not within 1e-6 of 0.125")
    report(8, problems,
           f"round-trip {round_trip:.2e}, cdf(-1.150349) = {anchor:.9f}")
