"""Command line interface.

Four subcommands cover the pipeline: ``calibrate`` prints the model
parameters with the residuals of their defining equations, ``probs``
prints the analytic outcome probabilities, ``simulate`` runs the Monte
Carlo benchmarks and ``benchmark`` judges actual season results
against them.

Every successful run emits a JSON manifest (to stderr, or to a file
with ``--manifest``) once the subcommand has finished, recording the
resolved configuration, the parameter values and the tool version;
re-running with the manifest's seed and configuration reproduces the
output byte for byte.  A run that fails emits none.  Exit codes: 0 on
success, 1 for validation errors (bad flags, malformed input files),
2 when a numeric self-check fails.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .benchmark import (
    ingest_results, classify_season, load_bundled_results,
    markdown_report, verdict_rows,
)
from .calibration import make_params, calibration_residuals, canonical_scenario
from .probabilities import (
    AGGREGATE_KINDS, aggregate_probability, position_distribution,
)
from .simulate import (
    CATEGORIES, DEFAULT_SEED, SCENARIO_SEASONS, SeasonConfig,
    load_cached_summaries, rookie_benchmark, store_summaries, summarize_all,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SELFCHECK = 2

SEED_ENV_VAR = "F1BENCH_SEED"
RESIDUAL_TOLERANCE = 1e-9
BIN_SUM_TOLERANCE = 1e-9

FORMATS = ("csv", "json", "md")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _default_seed():
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _fail(message):
    print(f"f1bench: error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _add_common(parser):
    parser.add_argument("--scenario", default="baseline",
                        choices=("baseline", "dominant", "dominant_manufacturer"),
                        help="parameter scenario (default: baseline)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    parser.add_argument("--sims", type=int, default=1_000_000,
                        help="number of simulated seasons (default: 1000000)")
    parser.add_argument("--races-full", type=int, default=None,
                        help="full races per season (default: per scenario)")
    parser.add_argument("--races-sprint", type=int, default=None,
                        help="sprint races per season (default: per scenario)")
    parser.add_argument("--format", default=None, choices=FORMATS,
                        help="output format (default: csv; benchmark: md)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads (at least 1); has no effect on results")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the run manifest JSON to PATH instead of stderr")


def build_parser():
    parser = _Parser(prog="f1bench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"f1bench {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    calibrate = commands.add_parser("calibrate", help="print model parameters and residuals")
    _add_common(calibrate)

    probs = commands.add_parser("probs", help="print analytic outcome probabilities")
    _add_common(probs)

    simulate = commands.add_parser("simulate", help="run Monte Carlo season benchmarks")
    _add_common(simulate)
    simulate.add_argument("--rookie", action="store_true",
                          help="emit the halved first-season elite driver benchmark")
    simulate.add_argument("--cache", default=None, metavar="PATH",
                          help="summary cache file to read and update")

    bench = commands.add_parser("benchmark", help="judge season results against benchmarks")
    _add_common(bench)
    bench.add_argument("results", nargs="?", default=None,
                       help="season results CSV (default: bundled 2025 season)")
    bench.add_argument("--cache", default=None, metavar="PATH",
                       help="summary cache file to read and update")
    return parser


def _resolve_config(args):
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    scenario = canonical_scenario(args.scenario)
    default_full, default_sprint = SCENARIO_SEASONS[scenario]
    seed = args.seed if args.seed is not None else _default_seed()
    return SeasonConfig(
        races_full=args.races_full if args.races_full is not None else default_full,
        races_sprint=args.races_sprint if args.races_sprint is not None else default_sprint,
        n_sims=args.sims,
        master_seed=seed,
        scenario=scenario,
    )


def _emit_manifest(args, config, params):
    manifest = {
        "subcommand": args.command,
        "config": {
            "races_full": config.races_full,
            "races_sprint": config.races_sprint,
            "n_sims": config.n_sims,
            "master_seed": config.master_seed,
            "scenario": config.scenario,
            "workers": args.workers,
            "format": _resolve_format(args),
        },
        "params": dataclasses.asdict(params),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(manifest, sort_keys=True)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text, file=sys.stderr)


def _resolve_format(args):
    if args.format is not None:
        return args.format
    return "md" if args.command == "benchmark" else "csv"


def _print_table(rows, fieldnames, fmt):
    """Write rows (list of dicts) to stdout as csv, json or markdown."""
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elif fmt == "json":
        json.dump(rows, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print("| " + " | ".join(fieldnames) + " |")
        print("|" + "|".join(" --- " for _ in fieldnames) + "|")
        for row in rows:
            print("| " + " | ".join(_cell(row[name]) for name in fieldnames) + " |")


def _cell(value):
    if isinstance(value, float):
        return format(value, ".6f")
    return str(value)


def cmd_calibrate(args, config):
    params = make_params(config.scenario)
    residuals = calibration_residuals(params)
    rows = [
        {
            "parameter": name,
            "value": repr(value),
            "residual": repr(residuals[name]) if name in residuals else "",
        }
        for name, value in dataclasses.asdict(params).items()
    ]
    _print_table(rows, ("parameter", "value", "residual"), _resolve_format(args))
    if any(abs(residual) > RESIDUAL_TOLERANCE for residual in residuals.values()):
        print("f1bench: calibration residuals exceed 1e-9", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def cmd_probs(args, config):
    params = make_params(config.scenario)
    outcome_rows = [(f"p{k}", k - 1) for k in range(1, 11)]
    distributions = {}
    for driver_class in ("elite", "nonelite"):
        probs = position_distribution(params, driver_class)
        if abs(probs.sum() - 1.0) > BIN_SUM_TOLERANCE:
            print(f"f1bench: {driver_class} position probabilities do not sum to 1",
                  file=sys.stderr)
            return EXIT_SELFCHECK
        distributions[driver_class] = probs
    rows = []
    for label, index in outcome_rows:
        rows.append({
            "outcome": label,
            "elite": distributions["elite"][index],
            "nonelite": distributions["nonelite"][index],
        })
    for kind in AGGREGATE_KINDS:
        rows.append({
            "outcome": kind,
            "elite": aggregate_probability(params, "elite", kind),
            "nonelite": aggregate_probability(params, "nonelite", kind),
        })
    _print_table(rows, ("outcome", "elite", "nonelite"), _resolve_format(args))
    return EXIT_OK


def _summaries_for(args, config):
    cache_path = getattr(args, "cache", None)
    summaries = load_cached_summaries(cache_path, config)
    if summaries is None:
        summaries = summarize_all(config, workers=args.workers)
        if cache_path:
            try:
                store_summaries(cache_path, config, summaries)
            except OSError as exc:
                raise ValueError(f"cannot write summary cache {cache_path}: {exc}") from None
    return summaries


def cmd_simulate(args, config):
    if args.rookie and config.scenario != "baseline":
        return _fail("the rookie benchmark is defined on the baseline scenario")
    summaries = _summaries_for(args, config)
    if args.rookie:
        rookie = rookie_benchmark(summaries["elite_driver"])
        rows = [{**rookie.as_dict(), "category": "rookie_elite_driver"}]
    else:
        rows = [summaries[category].as_dict() for category in CATEGORIES]
    _print_table(rows, tuple(rows[0]), _resolve_format(args))
    return EXIT_OK


def cmd_benchmark(args, config):
    if args.results is None:
        records = load_bundled_results()
    else:
        try:
            with open(args.results, encoding="utf-8", newline="") as handle:
                records = ingest_results(handle)
        except OSError as exc:
            return _fail(f"cannot read results file: {exc}")
    summaries = _summaries_for(args, config)
    verdicts = classify_season(records, summaries)
    fmt = _resolve_format(args)
    if fmt == "md":
        sys.stdout.write(markdown_report(verdicts))
    else:
        rows = verdict_rows(verdicts)
        _print_table(rows, ("name", "team", "class", "entity", "points",
                            "ci_low", "ci_high", "outcome"), fmt)
    return EXIT_OK


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "probs": cmd_probs,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        params = make_params(config.scenario)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        code = _COMMANDS[args.command](args, config)
    except ValueError as exc:
        return _fail(str(exc))
    if code == EXIT_OK:
        _emit_manifest(args, config, params)
    return code


if __name__ == "__main__":
    sys.exit(main())
