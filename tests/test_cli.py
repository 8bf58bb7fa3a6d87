"""End-to-end tests for the command line interface.

Each test drives ``main`` directly with an argv list and inspects the
captured stdout/stderr, so the whole pipeline short of process spawning
is exercised.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from f1bench.cli import SEED_ENV_VAR, main
from f1bench.simulate import SeasonConfig, SimulationSummary, store_summaries, summarize_all

# Full-scale (1e6 sims, seed 2025) summaries frozen from a verified
# run, used to pre-seed the cache so benchmark tests stay fast.
FULL_SCALE_SUMMARIES = {
    "elite_driver": SimulationSummary("elite_driver", 315.406417, 253.0, 381.0, 1_000_000),
    "elite_team": SimulationSummary("elite_team", 630.870517, 594.0, 669.0, 1_000_000),
    "nonelite_driver": SimulationSummary("nonelite_driver", 10.641863, 1.0, 29.0, 1_000_000),
    "nonelite_team": SimulationSummary("nonelite_team", 21.285124, 5.0, 44.0, 1_000_000),
}

SMALL = ["--sims", "2000", "--races-full", "3", "--races-sprint", "1"]

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_manifest(err):
    return json.loads(err.splitlines()[0])


def test_calibrate_defaults(capsys):
    code, out, err = run_cli(capsys, ["calibrate"])
    assert code == 0
    rows = {row["parameter"]: row for row in csv.DictReader(io.StringIO(out))}
    assert float(rows["mu_elite"]["value"]) == 4.5
    assert abs(float(rows["sigma_elite"]["value"]) - 2.607903) <= 1e-5
    assert abs(float(rows["sigma_nonelite"]["value"]) - 3.615344) <= 1e-5
    assert abs(float(rows["cov_elite_pair"]["value"]) - (-6.051472)) <= 1e-5
    assert abs(float(rows["cov_nonelite_pair"]["value"]) - (-10.98825)) <= 1e-5
    for name in ("sigma_elite", "sigma_nonelite", "cov_elite_pair", "cov_nonelite_pair"):
        assert abs(float(rows[name]["residual"])) <= 1e-9


def test_calibrate_output_matches_readme(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("$ f1bench calibrate\n", 1)[1].split("```", 1)[0]
    code, out, _ = run_cli(capsys, ["calibrate"])
    assert code == 0
    assert out == block


def test_calibrate_dominant_scenario(capsys):
    code, out, _ = run_cli(capsys, ["calibrate", "--scenario", "dominant"])
    assert code == 0
    rows = {row["parameter"]: row for row in csv.DictReader(io.StringIO(out))}
    assert float(rows["mu_elite"]["value"]) == 5.5
    assert abs(float(rows["sigma_elite"]["value"]) - 2.607903) <= 1e-5
    # the long spelling is accepted as an alias
    code, out2, _ = run_cli(capsys, ["calibrate", "--scenario", "dominant_manufacturer"])
    assert code == 0
    assert out2 == out


def test_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["calibrate", "--scenario", "bogus"])
    assert excinfo.value.code == 1
    assert "bogus" in capsys.readouterr().err


def test_probs_values(capsys):
    code, out, _ = run_cli(capsys, ["probs", "--format", "json"])
    assert code == 0
    rows = {row["outcome"]: row for row in json.loads(out)}
    assert len(rows) == 13
    assert abs(rows["p1"]["elite"] - 0.125) <= 1e-9
    assert abs(rows["p3"]["elite"] - 0.12917) <= 1e-4
    assert abs(rows["p1"]["nonelite"] - 1.62e-4) <= 1e-5
    assert abs(rows["podium"]["elite"] - 0.35069) <= 1e-4
    assert abs(sum(rows[f"p{k}"]["elite"] for k in range(1, 11))
               - rows["top10"]["elite"]) <= 1e-9


def test_simulate_small_run(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "--format", "json"] + SMALL)
    assert code == 0
    rows = {row["category"]: row for row in json.loads(out)}
    assert set(rows) == {"elite_driver", "elite_team", "nonelite_driver", "nonelite_team"}
    for row in rows.values():
        assert row["ci_low"] <= row["mean_points"] <= row["ci_high"]
        assert row["n_sims"] == 2000


def test_simulate_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["simulate"] + SMALL)
    _, second, _ = run_cli(capsys, ["simulate"] + SMALL)
    assert first == second


def test_simulate_workers_do_not_change_output(capsys):
    argv = ["simulate", "--sims", str(140_000), "--races-full", "2", "--races-sprint", "1"]
    _, serial, _ = run_cli(capsys, argv)
    _, parallel, _ = run_cli(capsys, argv + ["--workers", "4"])
    assert serial == parallel


def test_simulate_seed_changes_output(capsys):
    _, first, _ = run_cli(capsys, ["simulate"] + SMALL)
    _, second, _ = run_cli(capsys, ["simulate", "--seed", "7"] + SMALL)
    assert first != second


def test_simulate_formats(capsys):
    _, out_csv, _ = run_cli(capsys, ["simulate", "--format", "csv"] + SMALL)
    assert out_csv.startswith("category,mean_points,ci_low,ci_high,n_sims")
    _, out_md, _ = run_cli(capsys, ["simulate", "--format", "md"] + SMALL)
    assert out_md.startswith("| category |")
    _, out_json, _ = run_cli(capsys, ["simulate", "--format", "json"] + SMALL)
    json.loads(out_json)


def test_rookie_flag(capsys):
    _, base_out, _ = run_cli(capsys, ["simulate", "--format", "json"] + SMALL)
    base = {row["category"]: row for row in json.loads(base_out)}
    code, out, _ = run_cli(capsys, ["simulate", "--rookie", "--format", "json"] + SMALL)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["category"] == "rookie_elite_driver"
    assert rows[0]["mean_points"] == base["elite_driver"]["mean_points"] / 2.0
    assert rows[0]["ci_low"] == base["elite_driver"]["ci_low"] / 2.0


def test_rookie_requires_baseline(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--rookie", "--scenario", "dominant"] + SMALL)
    assert code == 1
    assert "rookie" in err


def test_simulate_rows_equal_library_summaries(capsys):
    # the library and the CLI take the same calendar for each scenario
    for scenario in ("baseline", "dominant"):
        code, out, _ = run_cli(capsys, ["simulate", "--scenario", scenario, "--sims", "2000",
                                        "--format", "json"])
        assert code == 0
        expected = summarize_all(SeasonConfig(scenario=scenario, n_sims=2000))
        assert json.loads(out) == [summary.as_dict() for summary in expected.values()]


def test_simulate_mean_outside_band(capsys):
    # one season in forty scores, so the nonelite driver mean lies above its 0..0 band
    code, out, err = run_cli(capsys, ["simulate", "--races-full", "0", "--races-sprint", "1",
                                      "--sims", "40", "--seed", "31", "--format", "json"])
    assert code == 0
    row = {row["category"]: row for row in json.loads(out)}["nonelite_driver"]
    assert (row["ci_low"], row["ci_high"], row["mean_points"]) == (0.0, 0.0, 0.025)
    assert read_manifest(err)["subcommand"] == "simulate"


def test_dominant_scenario_season_defaults(capsys):
    # the dominant benchmark season swaps six full rounds for sprints
    _, _, err = run_cli(capsys, ["simulate", "--scenario", "dominant", "--sims", "2000"])
    manifest = read_manifest(err)
    assert manifest["config"]["races_full"] == 18
    assert manifest["config"]["races_sprint"] == 6
    assert manifest["params"]["mu_elite"] == 5.5
    _, _, err = run_cli(capsys, ["simulate", "--sims", "2000"])
    manifest = read_manifest(err)
    assert manifest["config"]["races_full"] == 24
    assert manifest["config"]["races_sprint"] == 6


def test_manifest_reports_run(capsys):
    _, _, err = run_cli(capsys, ["simulate"] + SMALL)
    manifest = read_manifest(err)
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["master_seed"] == 2025
    assert manifest["config"]["n_sims"] == 2000
    assert abs(manifest["params"]["sigma_elite"] - 2.607903) <= 1e-5
    assert set(manifest["params"]) == {
        "mu_elite", "mu_nonelite", "sigma_elite", "sigma_nonelite",
        "cov_elite_pair", "cov_nonelite_pair", "z_table_limit",
    }
    assert set(manifest["config"]) == {
        "races_full", "races_sprint", "n_sims", "master_seed", "scenario", "workers", "format",
    }
    assert "timestamp" in manifest and "version" in manifest


def test_manifest_round_trip(tmp_path, capsys):
    path = str(tmp_path / "manifest.json")
    argv = ["simulate", "--seed", "31415", "--manifest", path] + SMALL
    _, first, err = run_cli(capsys, argv)
    assert err == ""
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    config = manifest["config"]
    replay = [
        "simulate",
        "--seed", str(config["master_seed"]),
        "--sims", str(config["n_sims"]),
        "--races-full", str(config["races_full"]),
        "--races-sprint", str(config["races_sprint"]),
        "--scenario", config["scenario"],
        "--format", config["format"],
    ]
    _, second, _ = run_cli(capsys, replay)
    assert second == first


def test_env_var_seed(monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    _, _, err = run_cli(capsys, ["simulate"] + SMALL)
    assert read_manifest(err)["config"]["master_seed"] == 777
    # an explicit flag wins over the environment
    _, _, err = run_cli(capsys, ["simulate", "--seed", "5"] + SMALL)
    assert read_manifest(err)["config"]["master_seed"] == 5


def test_env_var_seed_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "notanint")
    code, _, err = run_cli(capsys, ["simulate"] + SMALL)
    assert code == 1
    assert SEED_ENV_VAR in err


def test_invalid_sims_rejected(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--sims", "0"])
    assert code == 1
    assert "n_sims" in err
    code, _, _ = run_cli(capsys, ["simulate", "--races-full", "-1", "--sims", "100"])
    assert code == 1


def test_invalid_workers_rejected(capsys):
    for workers in ("0", "-3"):
        code, out, err = run_cli(capsys, ["simulate", "--workers", workers] + SMALL)
        assert code == 1
        assert out == ""
        # rejected before the manifest is written
        assert err.splitlines() == [f"f1bench: error: --workers must be at least 1, got {workers}"]


def test_failed_run_writes_no_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    for argv in (["simulate", "--cache", str(tmp_path / "missing" / "c.json")] + SMALL,
                 ["simulate", "--rookie", "--scenario", "dominant"] + SMALL):
        code, out, err = run_cli(capsys, argv + ["--manifest", str(manifest)])
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("f1bench: error: ")
        assert not manifest.exists()
    # on stderr, too, a failed run prints its error and nothing else
    code, _, err = run_cli(capsys, ["simulate", "--rookie", "--scenario", "dominant"] + SMALL)
    assert code == 1
    assert err == "f1bench: error: the rookie benchmark is defined on the baseline scenario\n"


def test_unwritable_manifest_path_is_an_error(tmp_path, capsys):
    # a file in a missing directory, then a directory
    _, expected, _ = run_cli(capsys, ["simulate"] + SMALL)
    for path in (tmp_path / "missing" / "m.json", tmp_path):
        code, out, err = run_cli(capsys, ["simulate", "--manifest", str(path)] + SMALL)
        assert code == 1
        assert out == expected
        (line,) = err.splitlines()
        assert line.startswith(f"f1bench: error: cannot write manifest {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_simulate_cache_round_trip(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    argv = ["simulate", "--cache", path] + SMALL
    _, first, _ = run_cli(capsys, argv)
    # second run must hit the cache and print the same rows
    _, second, _ = run_cli(capsys, argv)
    assert second == first
    with open(path, encoding="utf-8") as handle:
        assert len(json.load(handle)) == 1


def test_corrupt_cache_is_recomputed_and_rewritten(tmp_path, capsys):
    path = tmp_path / "cache.json"
    argv = ["simulate", "--cache", str(path)] + SMALL
    _, expected, _ = run_cli(capsys, ["simulate"] + SMALL)
    path.write_text('{"seed=2025,sims=', encoding="utf-8")
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out == expected
    assert "warning" in err and str(path) in err
    assert len(json.loads(path.read_text(encoding="utf-8"))) == 1
    # the rewritten file is a clean hit
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (0, expected)
    assert "warning" not in err


def test_malformed_cache_entry_is_recomputed_and_rewritten(tmp_path, capsys):
    path = tmp_path / "cache.json"
    argv = ["simulate", "--cache", str(path)] + SMALL
    _, expected, _ = run_cli(capsys, ["simulate"] + SMALL)
    run_cli(capsys, argv)
    (key, entry), = json.loads(path.read_text(encoding="utf-8")).items()
    del entry["elite_team"]
    path.write_text(json.dumps({key: entry}), encoding="utf-8")
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out == expected
    assert "warning" in err and str(path) in err
    rewritten = json.loads(path.read_text(encoding="utf-8"))
    assert list(rewritten) == [key]
    assert sorted(rewritten[key]) == ["elite_driver", "elite_team",
                                      "nonelite_driver", "nonelite_team"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (0, expected)
    assert "warning" not in err


def test_unwritable_cache_path_is_an_error(tmp_path, capsys):
    # a file in a missing directory, then a directory
    for path in (tmp_path / "missing" / "cache.json", tmp_path):
        code, out, err = run_cli(capsys, ["simulate", "--cache", str(path)] + SMALL)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith(
            f"f1bench: error: cannot write summary cache {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_benchmark_bundled_corpus(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    store_summaries(cache, SeasonConfig(), FULL_SCALE_SUMMARIES)
    code, out, _ = run_cli(capsys, ["benchmark", "--cache", cache, "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    outcomes = {(row["entity"], row["name"]): row["outcome"] for row in rows}
    assert len([k for k in outcomes if k[0] == "driver"]) == 20
    assert len([k for k in outcomes if k[0] == "team"]) == 10
    assert outcomes[("driver", "Lando Norris")] == "above"
    assert outcomes[("driver", "George Russell")] == "meets"
    assert outcomes[("driver", "Lance Stroll")] == "above"
    assert outcomes[("driver", "Franco Colapinto")] == "below"
    assert outcomes[("team", "McLaren")] == "above"
    assert outcomes[("team", "Ferrari")] == "below"
    assert outcomes[("team", "Alpine")] == "meets"


def test_benchmark_markdown_default(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    store_summaries(cache, SeasonConfig(), FULL_SCALE_SUMMARIES)
    code, out, _ = run_cli(capsys, ["benchmark", "--cache", cache])
    assert code == 0
    assert "## Drivers" in out and "## Teams" in out
    assert "| Lando Norris | McLaren | 423 | ↑ |" in out
    assert "| Pierre Gasly | Alpine | 22 | → |" in out
    assert "| Franco Colapinto | Alpine | 0 | ↓ |" in out
    assert "| Mercedes | 469 | ↓ |" in out


def test_benchmark_custom_results_file(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        "name,team,class,points,entity\n"
        "Prodigy,Upstart,nonelite,88,driver\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, [
        "benchmark", str(results), "--format", "json"] + SMALL)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["name"] == "Prodigy"
    assert rows[0]["outcome"] in ("above", "meets", "below")


def test_benchmark_missing_file(capsys):
    code, _, err = run_cli(capsys, ["benchmark", "/no/such/file.csv"] + SMALL)
    assert code == 1
    assert "cannot read" in err


def test_benchmark_malformed_file_names_line(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        "name,team,class,points,entity\n"
        "A,B,elite,lots,driver\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, ["benchmark", str(results)] + SMALL)
    assert code == 1
    assert "line 2" in err


def test_benchmark_rejects_infinite_points(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        "name,team,class,points,entity\n"
        "X,T,elite,inf,driver\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["benchmark", str(results)] + SMALL)
    assert code == 1
    assert out == ""
    assert "line 2: points must be finite" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "f1bench" in capsys.readouterr().out
