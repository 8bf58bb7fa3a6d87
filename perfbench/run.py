"""Benchmark for f1bench: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_serial --seed 2025 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``mc_serial``, ``mc_parallel``,
``replay`` and ``report_warm``.  The run builds the workload's inputs
from ``--seed``, measures set-up in fresh interpreters, runs one
untimed warm-up operation, repeats timed sections until ``--seconds``
have passed (and, where latency percentiles are reported, until at
least 100 operations have completed), then checks every output.

With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced sections on the same
inputs and reports per-layer metrics per operation, plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is the JSON result.  A fuller record, with machine facts and a
deterministic block that two runs of one seed share byte for byte, is
written under ``.perfbench_work/results``; a traced run also writes its
spans under ``.perfbench_work/spans``.

The program is imported from ``src/`` beside this directory; the run
fails without printing a result when that tree is missing.
"""

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5
TAIL_QUANTILE = 0.9
# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "seasons_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span name -> statistics reported for it.  Elements are counted for
# the array kernels only.
LAYER_STATS = {
    "normal.std_normal_quantile": ("calls", "elems", "self_s", "ns_per_elem"),
    "normal.std_normal_cdf": ("calls", "elems", "self_s", "ns_per_elem"),
    "simulate.round_to_position": ("calls", "elems", "self_s"),
    "simulate.season_totals": ("calls", "self_s"),
    "simulate.summarize": ("calls", "self_s"),
    "simulate.simulate_driver_season": ("calls", "self_s"),
    "simulate.simulate_team_season": ("calls", "self_s"),
    "simulate.load_cached_summaries": ("calls", "self_s"),
    "simulate.store_summaries": ("calls", "self_s"),
    "calibration.make_params": ("calls", "self_s"),
    "probabilities.position_distribution": ("calls", "self_s"),
    "benchmark.ingest_results": ("calls", "self_s"),
    "benchmark.classify_season": ("calls", "self_s"),
    "benchmark.markdown_report": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count/op", "elems": "count/op", "self_s": "s/op", "ns_per_elem": "ns"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from f1bench.simulate import CATEGORIES
    units = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
        if name == "simulate.summarize":
            for category in CATEGORIES:
                units[f"{name}.{category}_s"] = "s/op"
    units["simulate.cpu_util"] = "ratio"
    units["simulate.cache_bytes"] = "bytes"
    units["trace.overhead"] = "ratio"
    return units


def trace_targets():
    """Span name -> wrap options for ``SpanRecorder.install``."""
    targets = {name: {"elems": spans.array_size} if "elems" in stats else {}
               for name, stats in LAYER_STATS.items()}
    targets["simulate.summarize"]["tag"] = spans.first_arg
    return targets


def tail_percentile(samples, quantile=TAIL_QUANTILE):
    """Nearest-rank percentile, or None with fewer than ten samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(quantile * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND_TAIL:
        return None
    return ordered[rank - 1]


def use_source_tree():
    """Import f1bench from ``src/`` beside the benchmark, or exit 2."""
    package = ROOT / "src" / "f1bench" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: error: no f1bench source tree at {package.parent}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import f1bench
    if Path(f1bench.__file__).resolve() != package.resolve():
        print(f"perfbench: error: imported f1bench from {f1bench.__file__}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(name, seed):
    """Median seconds from a fresh interpreter through the warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_probe(name, seed):
    import workloads
    workload = workloads.make(name, seed, WORK_DIR)
    try:
        workload.warm_up()
    finally:
        workload.close()


def run_sections(workload, seconds, recorder=None):
    """Repeat sections until time and sample needs are met.

    With a recorder, each section runs untraced and then traced on the
    same inputs.  Returns untraced and traced section times, the
    untraced operation latencies and the CPU seconds of the untraced
    sections.
    """
    untraced, traced, latencies = [], [], []
    cpu = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        cpu_start, section_start = time.process_time(), time.perf_counter()
        workload.section(index, latencies)
        untraced.append(time.perf_counter() - section_start)
        cpu += time.process_time() - cpu_start
        if recorder is not None:
            recorder.install(trace_targets())
            try:
                section_start = time.perf_counter()
                workload.section(index, [])
                traced.append(time.perf_counter() - section_start)
            finally:
                recorder.restore()
        index += 1
        enough = recorder is not None or len(latencies) >= workload.min_samples
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced, latencies, cpu


def end_to_end_metrics(workload, setup_s, untraced, latencies, peak_rss_mb):
    # The mean section, not the median: on a shared host, slow phases
    # make section times bimodal, and a median jumps between the modes
    # where a mean moves with the share of time spent slow.
    wall = statistics.fmean(untraced)
    tail = tail_percentile(latencies)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "seasons_per_s": workload.seasons_per_section / wall,
        "requests_per_s": workload.requests_per_section / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        # With too few operations for any tail percentile (the Monte
        # Carlo workloads run a handful), the median stands in for it.
        "latency_p90_ms": 1e3 * (tail if tail is not None else statistics.median(latencies)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(workload, spans_summary, untraced, traced, cpu):
    """Per-layer metrics per operation of the traced sections."""
    from f1bench.simulate import CATEGORIES
    ops = len(traced) * workload.requests_per_section
    metrics = {}
    for name, stats in LAYER_STATS.items():
        entry = spans_summary.get(name, {"calls": 0, "elems": 0, "self_s": 0.0, "by_tag": {}})
        for stat in stats:
            if stat == "ns_per_elem":
                value = 1e9 * entry["self_s"] / entry["elems"] if entry["elems"] else 0.0
            else:
                value = entry[stat] / ops
            metrics[f"{name}.{stat}"] = value
        if name == "simulate.summarize":
            for category in CATEGORIES:
                metrics[f"{name}.{category}_s"] = entry["by_tag"].get(category, 0.0) / ops
    workers = getattr(workload, "workers", 1)
    metrics["simulate.cpu_util"] = cpu / (sum(untraced) * workers)
    metrics["simulate.cache_bytes"] = (workload.cache_bytes()
                                       if hasattr(workload, "cache_bytes") else 0)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics


def layer_shares(spans_summary):
    """Inclusive-time shares that the ROADMAP's layer estimates quote."""
    def total(name):
        return spans_summary.get(name, {}).get("total_s", 0.0)

    shares = {}
    if total("simulate.season_totals") and total("normal.std_normal_quantile"):
        shares["quantile_of_season_totals"] = (total("normal.std_normal_quantile")
                                               / total("simulate.season_totals"))
        shares["round_of_season_totals"] = (total("simulate.round_to_position")
                                            / total("simulate.season_totals"))
    if total("normal.std_normal_quantile"):
        shares["cdf_of_quantile"] = total("normal.std_normal_cdf") / total("normal.std_normal_quantile")
    return shares


def machine_facts():
    import numpy
    from f1bench import simulate
    source = inspect.getsource(simulate)
    generators = sorted(
        name for name, value in vars(numpy.random).items()
        if isinstance(value, type) and issubclass(value, numpy.random.BitGenerator)
        and f"random.{name}(" in source
    )
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bit_generator": ",".join(generators),
        "git_commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_serial", "mc_parallel", "replay", "report_warm"))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    use_source_tree()
    WORK_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    recorder = spans.SpanRecorder() if args.trace else None
    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    try:
        workload.warm_up()
        untraced, traced, latencies, cpu = run_sections(workload, args.seconds, recorder)
        if recorder is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end_metrics(workload, setup_s, untraced, latencies, peak_rss_mb)
            units = END_TO_END_UNITS
        else:
            summary = spans.summarize_spans(recorder.spans)
            metrics = per_layer_metrics(workload, summary, untraced, traced, cpu)
            units = per_layer_units()
        failed, problems, digests = workload.check()
        attempted = workload.attempted
    finally:
        workload.close()
    leftovers = spans.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"wrappers left installed: {leftovers}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts()
    record = {
        "deterministic": {"workload": args.workload, "seed": args.seed,
                          "config": workload.facts(), "digests": digests},
        "machine": facts,
        "timing": {"seconds": args.seconds, "sections": len(untraced),
                   "samples": len(latencies), "attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted, "metrics": metrics},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine  " + "  ".join(f"{key}={value}" for key, value in facts.items()))
    if recorder is not None:
        counts = {name: value for name, value in metrics.items()
                  if name.endswith(".calls")}
        record["deterministic"]["counts_per_op"] = counts
        shares = layer_shares(summary)
        record["timing"]["layer_shares"] = shares
        (WORK_DIR / "spans").mkdir(exist_ok=True)
        recorder.write(WORK_DIR / "spans" / f"{stem}.jsonl")
        for name, value in shares.items():
            print(f"share {name} = {value:.4f}")
        print(f"traced sections {len(traced)}, spans {len(recorder.spans)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if recorder is None:
        print(f"latency samples {len(latencies)}"
              + ("" if tail_percentile(latencies) is not None
                 else "; too few for a 90th percentile, latency_p90_ms repeats the median"))
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    for problem in problems:
        print(f"problem: {problem}")
    (WORK_DIR / "results").mkdir(exist_ok=True)
    with open(WORK_DIR / "results" / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
