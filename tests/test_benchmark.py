"""Tests for results ingestion and verdict classification."""

import dataclasses
import io

import numpy as np
import pytest

from f1bench.benchmark import (
    ARROWS, CSV_FIELDS, SeasonRecord, Verdict, classify, classify_season,
    ingest_results, load_bundled_results, markdown_report, verdict_rows,
)
from f1bench.simulate import SimulationSummary

# Benchmark intervals frozen from the full-scale simulation; the exact
# means do not matter for classification, only the interval endpoints.
BENCHMARKS = {
    "elite_driver": SimulationSummary("elite_driver", 315.456, 253.0, 381.0, 1_000_000),
    "nonelite_driver": SimulationSummary("nonelite_driver", 10.636, 1.0, 29.0, 1_000_000),
    "elite_team": SimulationSummary("elite_team", 630.91, 594.0, 669.0, 1_000_000),
    "nonelite_team": SimulationSummary("nonelite_team", 21.305, 5.0, 44.0, 1_000_000),
}

# Expected verdicts for the bundled 2025 corpus under the benchmarks
# above.  Stroll's 33 points sit just outside the non-elite driver
# band, so the strict interval rule reads "above"; a looser reading
# that forgives near-boundary scores would call it "meets" instead.
EXPECTED_DRIVER_OUTCOMES = {
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

EXPECTED_TEAM_OUTCOMES = {
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


def driver(name, team, entrant_class, points):
    return SeasonRecord(name=name, team=team, entrant_class=entrant_class,
                        points=points, entity="driver")


def test_classify_examples():
    norris = driver("Lando Norris", "McLaren", "elite", 423)
    assert classify(norris, BENCHMARKS["elite_driver"]).outcome == "above"
    russell = driver("George Russell", "Mercedes", "elite", 319)
    assert classify(russell, BENCHMARKS["elite_driver"]).outcome == "meets"
    colapinto = driver("Franco Colapinto", "Alpine", "nonelite", 0)
    assert classify(colapinto, BENCHMARKS["nonelite_driver"]).outcome == "below"


def test_classify_boundary_is_meets():
    # scores exactly on an endpoint count as meeting expectations
    low = driver("Edge Low", "Team", "elite", 253)
    high = driver("Edge High", "Team", "elite", 381)
    assert classify(low, BENCHMARKS["elite_driver"]).outcome == "meets"
    assert classify(high, BENCHMARKS["elite_driver"]).outcome == "meets"


def test_classify_rejects_category_mismatch():
    record = driver("Max Verstappen", "Red Bull", "elite", 421)
    with pytest.raises(ValueError):
        classify(record, BENCHMARKS["nonelite_driver"])
    with pytest.raises(ValueError):
        classify(record, BENCHMARKS["elite_team"])


def test_outcomes_partition_the_points_line():
    benchmark = BENCHMARKS["nonelite_driver"]
    for points in np.arange(0.0, 60.0, 0.5):
        record = driver("Probe", "Team", "nonelite", float(points))
        outcome = classify(record, benchmark).outcome
        above = points > benchmark.ci_high
        below = points < benchmark.ci_low
        meets = benchmark.ci_low <= points <= benchmark.ci_high
        assert above + below + meets == 1
        assert outcome == ("above" if above else "below" if below else "meets")


def test_classify_season_preserves_order():
    records = [
        driver("Lando Norris", "McLaren", "elite", 423),
        driver("Pierre Gasly", "Alpine", "nonelite", 22),
        SeasonRecord(name="McLaren", team="McLaren", entrant_class="elite",
                     points=833, entity="team"),
    ]
    verdicts = classify_season(records, BENCHMARKS)
    assert [v.record.name for v in verdicts] == ["Lando Norris", "Pierre Gasly", "McLaren"]
    assert [v.outcome for v in verdicts] == ["above", "meets", "above"]


def test_classify_season_names_missing_benchmark():
    records = [driver("Lando Norris", "McLaren", "elite", 423)]
    with pytest.raises(ValueError, match="Lando Norris"):
        classify_season(records, {})


def test_classify_season_empty():
    assert classify_season([], BENCHMARKS) == []


def test_verdict_validation():
    record = driver("Probe", "Team", "elite", 300)
    with pytest.raises(ValueError):
        Verdict(record=record, benchmark=BENCHMARKS["elite_driver"], outcome="great")


def test_arrow_glyphs():
    assert ARROWS == {"above": "↑", "meets": "→", "below": "↓"}
    record = driver("Probe", "Team", "elite", 400)
    assert classify(record, BENCHMARKS["elite_driver"]).arrow == "↑"


def test_ingest_valid_rows():
    text = "name,team,class,points,entity\nMax Verstappen,Red Bull,elite,421,driver\n"
    records = ingest_results(io.StringIO(text))
    assert len(records) == 1
    assert records[0].name == "Max Verstappen"
    assert records[0].team == "Red Bull"
    assert records[0].entrant_class == "elite"
    assert records[0].points == 421.0
    assert records[0].entity == "driver"
    assert records[0].category == "elite_driver"


def test_ingest_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        ingest_results(io.StringIO("driver,team,points\nA,B,1\n"))
    with pytest.raises(ValueError):
        ingest_results(io.StringIO(""))


def test_ingest_rejects_short_row():
    text = "name,team,class,points,entity\nMax Verstappen,Red Bull,elite\n"
    with pytest.raises(ValueError, match="line 2"):
        ingest_results(io.StringIO(text))


def test_ingest_rejects_non_numeric_points():
    text = "name,team,class,points,entity\nA,B,elite,lots,driver\n"
    with pytest.raises(ValueError, match="line 2.*points"):
        ingest_results(io.StringIO(text))


def test_ingest_rejects_negative_points():
    text = "name,team,class,points,entity\nA,B,elite,-5,driver\n"
    with pytest.raises(ValueError, match="line 2"):
        ingest_results(io.StringIO(text))


def test_ingest_rejects_non_finite_points():
    for value in ("inf", "-inf", "nan"):
        text = f"name,team,class,points,entity\nX,T,elite,{value},driver\n"
        with pytest.raises(ValueError, match="line 2: points must be finite"):
            ingest_results(io.StringIO(text))


def test_ingest_rejects_unknown_class_and_entity():
    bad_class = "name,team,class,points,entity\nA,B,legend,5,driver\n"
    with pytest.raises(ValueError, match="line 2"):
        ingest_results(io.StringIO(bad_class))
    bad_entity = "name,team,class,points,entity\nA,B,elite,5,steward\n"
    with pytest.raises(ValueError, match="line 2"):
        ingest_results(io.StringIO(bad_entity))


def test_ingest_rejects_duplicates():
    text = ("name,team,class,points,entity\n"
            "A,B,elite,5,driver\n"
            "A,B,elite,7,driver\n")
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        ingest_results(io.StringIO(text))
    # the same name may appear once per entity (teams share names with
    # nobody, but the rule is per entity)
    text = ("name,team,class,points,entity\n"
            "McLaren,McLaren,elite,833,team\n"
            "McLaren,McLaren,elite,423,driver\n")
    assert len(ingest_results(io.StringIO(text))) == 2


def test_bundled_corpus_shape():
    records = load_bundled_results()
    drivers = [r for r in records if r.entity == "driver"]
    teams = [r for r in records if r.entity == "team"]
    assert len(drivers) == 20
    assert len(teams) == 10
    elite_teams = {r.name for r in teams if r.entrant_class == "elite"}
    assert elite_teams == {"McLaren", "Mercedes", "Red Bull", "Ferrari"}


def test_bundled_corpus_is_parsed_once():
    records = load_bundled_results()
    assert isinstance(records, tuple)
    assert load_bundled_results() is records
    # the one tuple is shared by every caller, so its records are frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        records[0].points = 0.0


def test_bundled_team_points_equal_driver_sums():
    records = load_bundled_results()
    teams = [r for r in records if r.entity == "team"]
    for team in teams:
        drivers = [r for r in records if r.entity == "driver" and r.team == team.name]
        assert len(drivers) == 2, team.name
        assert team.points == sum(d.points for d in drivers), team.name
        assert {d.entrant_class for d in drivers} == {team.entrant_class}, team.name


def test_bundled_corpus_verdicts():
    records = load_bundled_results()
    verdicts = classify_season(records, BENCHMARKS)
    outcomes = {(v.record.entity, v.record.name): v.outcome for v in verdicts}
    for name, expected in EXPECTED_DRIVER_OUTCOMES.items():
        assert outcomes[("driver", name)] == expected, name
    for name, expected in EXPECTED_TEAM_OUTCOMES.items():
        assert outcomes[("team", name)] == expected, name


def test_scenario_monotonicity():
    # sliding the benchmark band downward can only move a verdict
    # toward "above", and always through "meets" on the way
    rank = {"below": 0, "meets": 1, "above": 2}
    start_low, start_high = 253.0, 381.0
    end_low, end_high = 1.0, 29.0
    for points in (0.0, 15.0, 29.0, 33.0, 150.0, 253.0, 300.0, 381.0, 423.0):
        record = driver("Probe", "Team", "elite", points)
        ranks = []
        for step in range(201):
            t = step / 200.0
            benchmark = SimulationSummary(
                category="elite_driver",
                mean_points=(start_low + start_high) / 2.0 * (1.0 - t)
                + (end_low + end_high) / 2.0 * t,
                ci_low=start_low * (1.0 - t) + end_low * t,
                ci_high=start_high * (1.0 - t) + end_high * t,
                n_sims=1_000_000,
            )
            ranks.append(rank[classify(record, benchmark).outcome])
        steps = np.diff(ranks)
        assert (steps >= 0).all()
        assert (steps <= 1).all()


def test_verdict_rows_are_textual():
    records = [driver("Lando Norris", "McLaren", "elite", 423)]
    rows = verdict_rows(classify_season(records, BENCHMARKS))
    assert rows[0]["outcome"] == "above"
    assert rows[0]["ci_low"] == 253.0
    assert not any("↑" in str(value) for value in rows[0].values())


def test_markdown_report_layout():
    records = [
        driver("Lando Norris", "McLaren", "elite", 423),
        SeasonRecord(name="Alpine", team="Alpine", entrant_class="nonelite",
                     points=22, entity="team"),
    ]
    report = markdown_report(classify_season(records, BENCHMARKS))
    assert "## Drivers" in report
    assert "## Teams" in report
    assert "| Lando Norris | McLaren | 423 | ↑ |" in report
    assert "| Alpine | 22 | → |" in report


def test_record_validation():
    with pytest.raises(ValueError):
        SeasonRecord(name="", team="X", entrant_class="elite", points=1, entity="driver")
    with pytest.raises(ValueError):
        SeasonRecord(name="A", team="", entrant_class="elite", points=1, entity="driver")
    with pytest.raises(ValueError):
        SeasonRecord(name="A", team="X", entrant_class="elite", points=-1, entity="driver")
    with pytest.raises(ValueError):
        SeasonRecord(name="A", team="X", entrant_class="elite", points=1, entity="marshal")
    assert CSV_FIELDS == ("name", "team", "class", "points", "entity")
