"""Command line interface.

Four subcommands cover the pipeline: ``calibrate`` prints the model
parameters with the residuals of their defining equations, ``probs``
prints the analytic outcome probabilities, ``simulate`` runs the Monte
Carlo benchmarks and ``benchmark`` judges actual season results
against them.  Each takes ``--scenario``, ``--format`` and
``--manifest``; only the two that simulate take the season flags.

Every successful run emits a JSON manifest (to stderr, or to a file
with ``--manifest``) once the subcommand has finished, recording the
inputs the run read, the parameter values and the tool version;
re-running with the manifest's configuration reproduces the output
byte for byte.  A run that fails emits none, and a manifest path that
cannot be written, or that names the run's results file or summary
cache, fails the run before the subcommand starts, as does a summary
cache path that cannot be written or names the results file.  Exit
codes: 0 on success, 1 for validation errors (bad flags, malformed
input files), 2 when the calibration residuals exceed 1e-9.
"""

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .benchmark import (
    VERDICT_FIELDS, ingest_results, classify_season, load_bundled_results,
    markdown_report, markdown_table, verdict_rows,
)
from .calibration import (
    DRIVER_CLASSES, SCENARIO_ALIASES, SCENARIOS, calibration_residuals, canonical_scenario,
    make_params,
)
from .probabilities import (
    AGGREGATE_KINDS, aggregate_probability, position_distribution,
)
from .simulate import (
    CATEGORIES, DEFAULT_SEED, SeasonConfig,
    load_cached_summaries, rookie_benchmark, store_summaries, summarize_all,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SELFCHECK = 2

RESIDUAL_TOLERANCE = 1e-9

FORMATS = ("csv", "json", "md")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _fail(message):
    print(f"f1bench: error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _add_common(parser, default_format="csv"):
    """Flags every subcommand reads."""
    parser.add_argument("--scenario", default="baseline",
                        choices=(*SCENARIOS, *SCENARIO_ALIASES),
                        help="parameter scenario (default: baseline)")
    parser.add_argument("--format", default=default_format, choices=FORMATS,
                        help=f"output format (default: {default_format})")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the run manifest JSON to PATH instead of stderr")


def _add_season(parser):
    """Flags of the subcommands that simulate seasons."""
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default: {DEFAULT_SEED})")
    parser.add_argument("--sims", type=int, default=SeasonConfig.n_sims,
                        help=f"number of simulated seasons (default: {SeasonConfig.n_sims})")
    parser.add_argument("--races-full", type=int, default=None,
                        help="full races per season (default: per scenario)")
    parser.add_argument("--races-sprint", type=int, default=None,
                        help="sprint races per season (default: per scenario)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads (at least 1); has no effect on results")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="summary cache file to read and update")


@functools.cache
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
    _add_season(simulate)
    simulate.add_argument("--rookie", action="store_true",
                          help="emit the halved first-season elite driver benchmark")

    bench = commands.add_parser("benchmark", help="judge season results against benchmarks")
    _add_common(bench, default_format="md")
    _add_season(bench)
    bench.add_argument("results", nargs="?", default=None,
                       help="season results CSV (default: bundled 2025 season)")
    return parser


def _season_config(args):
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    return SeasonConfig(
        races_full=args.races_full,
        races_sprint=args.races_sprint,
        n_sims=args.sims,
        master_seed=args.seed,
        scenario=args.scenario,
    )


def _same_file(path, other):
    """Whether two paths name one file: by device and inode where both exist."""
    if os.path.exists(path) and os.path.exists(other):
        return os.path.samefile(path, other)
    return os.path.realpath(path) == os.path.realpath(other)


def _check_written_path(label, path, inputs):
    """Fail before the run where writing ``path`` after it would fail or clobber an input."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {label} {path}: is a directory")
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise ValueError(f"cannot write {label} {path}: no such directory")
    for input_label, other in inputs.items():
        if other and _same_file(path, other):
            raise ValueError(f"cannot write {label} {path}: it is the {input_label}")


def _emit_manifest(args, recorded, params):
    manifest = {
        "subcommand": args.command,
        "config": recorded,
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
        cells = ([_cell(row[name]) for name in fieldnames] for row in rows)
        print("\n".join(markdown_table(fieldnames, cells)))


def _cell(value):
    if isinstance(value, float):
        return format(value, ".6f")
    return str(value)


def cmd_calibrate(args, config, params):
    residuals = calibration_residuals(params)
    rows = [
        {
            "parameter": name,
            "value": repr(value),
            "residual": repr(residuals[name]) if name in residuals else "",
        }
        for name, value in dataclasses.asdict(params).items()
    ]
    _print_table(rows, ("parameter", "value", "residual"), args.format)
    if any(abs(residual) > RESIDUAL_TOLERANCE for residual in residuals.values()):
        print("f1bench: calibration residuals exceed 1e-9", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def cmd_probs(args, config, params):
    distributions = {c: position_distribution(params, c) for c in DRIVER_CLASSES}
    rows = [{"outcome": f"p{k}", **{c: distributions[c][k - 1] for c in DRIVER_CLASSES}}
            for k in range(1, 11)]
    rows += [{"outcome": kind,
              **{c: aggregate_probability(params, c, kind) for c in DRIVER_CLASSES}}
             for kind in AGGREGATE_KINDS]
    _print_table(rows, ("outcome", *DRIVER_CLASSES), args.format)
    return EXIT_OK


def _summaries_for(args, config):
    summaries = load_cached_summaries(args.cache, config)
    if summaries is None:
        summaries = summarize_all(config, workers=args.workers)
        if args.cache:
            try:
                store_summaries(args.cache, config, summaries)
            except OSError as exc:
                raise ValueError(f"cannot write summary cache {args.cache}: {exc}") from None
    return summaries


def cmd_simulate(args, config, params):
    if args.rookie and config.scenario != "baseline":
        return _fail("the rookie benchmark is defined on the baseline scenario")
    summaries = _summaries_for(args, config)
    if args.rookie:
        rookie = rookie_benchmark(summaries["elite_driver"])
        rows = [{**rookie.as_dict(), "category": "rookie_elite_driver"}]
    else:
        rows = [summaries[category].as_dict() for category in CATEGORIES]
    _print_table(rows, tuple(rows[0]), args.format)
    return EXIT_OK


def cmd_benchmark(args, config, params):
    if args.results is None:
        records = load_bundled_results()
    else:
        try:
            # utf-8-sig also reads the byte-order mark of spreadsheet exports
            with open(args.results, encoding="utf-8-sig", newline="") as handle:
                records = ingest_results(handle)
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(f"cannot read results file: {exc}")
    summaries = _summaries_for(args, config)
    verdicts = classify_season(records, summaries)
    if args.format == "md":
        sys.stdout.write(markdown_report(verdicts))
    else:
        _print_table(verdict_rows(verdicts), VERDICT_FIELDS, args.format)
    return EXIT_OK


# The input each season command reads beyond the season flags.
_SEASON_COMMANDS = {"simulate": "rookie", "benchmark": "results"}
_COMMANDS = {
    "calibrate": cmd_calibrate,
    "probs": cmd_probs,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cache = getattr(args, "cache", None)
        inputs = {"results file": getattr(args, "results", None)}
        if args.manifest:
            _check_written_path("manifest", args.manifest, {**inputs, "summary cache": cache})
        if cache:
            _check_written_path("summary cache", cache, inputs)
        if args.command in _SEASON_COMMANDS:
            config = _season_config(args)
            extra = _SEASON_COMMANDS[args.command]
            recorded = {**dataclasses.asdict(config), "workers": args.workers,
                        extra: getattr(args, extra)}
        else:
            config = None
            recorded = {"scenario": canonical_scenario(args.scenario)}
        params = make_params(recorded["scenario"])
        code = _COMMANDS[args.command](args, config, params)
    except ValueError as exc:
        return _fail(str(exc))
    if code == EXIT_OK:
        try:
            _emit_manifest(args, {**recorded, "format": args.format}, params)
        except OSError as exc:
            return _fail(f"cannot write manifest {args.manifest}: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
