"""Self-tests of the benchmark harness (run with pytest)."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import run

run.use_source_tree()

import spans  # noqa: E402
import workloads  # noqa: E402


def make_span(span_id, start, end, parent=None, thread=1, name="x"):
    return spans.Span(span_id, name, start, end, parent, thread, 0, None)


def test_self_time_subtracts_nested_children():
    recorded = [
        make_span(1, 0.0, 10.0),
        make_span(2, 1.0, 4.0, parent=1),
        make_span(3, 2.0, 3.0, parent=2),
        make_span(4, 5.0, 6.0, parent=1),
    ]
    assert spans.self_times(recorded) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_ignores_overlapping_spans_of_other_threads():
    recorded = [
        make_span(1, 0.0, 10.0, thread=1),
        make_span(2, 2.0, 8.0, thread=2),
        make_span(3, 3.0, 5.0, parent=2, thread=2),
    ]
    assert spans.self_times(recorded) == {1: 10.0, 2: 4.0, 3: 2.0}


def test_recorder_keeps_parents_per_thread():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", threading.get_ident)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: inner(), range(4)))
        return inner()

    main_thread = recorder.wrap("outer", outer)()
    (outer_span,) = [s for s in recorder.spans if s.name == "outer"]
    inner_spans = [s for s in recorder.spans if s.name == "inner"]
    same_thread = [s for s in inner_spans if s.thread == main_thread]
    other_threads = [s for s in inner_spans if s.thread != main_thread]
    assert outer_span.parent is None
    assert [s.parent for s in same_thread] == [outer_span.id]
    assert len(other_threads) == 4 and all(s.parent is None for s in other_threads)
    covered = same_thread[0].end - same_thread[0].start
    assert spans.self_times(recorder.spans)[outer_span.id] == pytest.approx(
        outer_span.end - outer_span.start - covered)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(1, 100))) is None
    assert run.tail_percentile(list(range(1, 101))) == 90
    assert run.tail_percentile([]) is None


class FakeWorkload:
    seasons_per_section = 4
    requests_per_section = 1


def test_latency_tail_needs_a_hundred_samples():
    few = [2.0, 1.0, 3.0]
    metrics = run.end_to_end_metrics(FakeWorkload(), 0.5, few, few, 40.0)
    assert metrics["latency_p50_ms"] == metrics["latency_p90_ms"] == 2000.0
    assert metrics["seasons_per_s"] == 2.0
    many = [float(i) for i in range(1, 101)]
    metrics = run.end_to_end_metrics(FakeWorkload(), 0.5, many, many, 40.0)
    assert metrics["latency_p90_ms"] == 90_000.0


def flipped(totals, category, index=0):
    """A copy of the totals with one byte of one season total flipped."""
    copy = {name: values.copy() for name, values in totals.items()}
    copy[category].view(np.uint8)[8 * index + 5] ^= 0x40
    return copy


def test_flipped_byte_in_batch_totals_fails_every_operation(monkeypatch):
    workload = workloads.McBatch(seed=7, scenario="baseline", workers=1, n_sims=1000)
    workload.section(0, [])
    totals = workload.reference_totals()
    assert workload.check(totals)[0] == 0
    assert workload.check(flipped(totals, "elite_team"))[0] == 1
    config = workload.config
    pins = {(config.scenario, config.n_sims, config.master_seed):
            {name: workloads.digest(values) for name, values in totals.items()}}
    monkeypatch.setattr(workloads, "PINNED_DIGESTS", pins)
    failed, problems, _ = workload.check(flipped(totals, "nonelite_driver"))
    assert failed == 1 and "pinned" in problems[0]


def test_flipped_byte_in_replay_reference_fails_that_request():
    workload = workloads.Replay(seed=3, n_sims=64)
    workload.section(0, [])
    totals = workload.reference_totals()
    assert workload.check(totals)[0] == 0
    category, sim_index, _ = workload.outputs[0]
    assert workload.check(flipped(totals, category, sim_index))[0] == 1


def test_report_warm_verdicts_follow_the_cached_band(tmp_path):
    workload = workloads.ReportWarm(seed=11, work_dir=tmp_path)
    try:
        latencies = []
        workload.section(0, latencies)
        assert len(latencies) == workload.REQUESTS_PER_WRITE
        assert workload.check()[0] == 0
        # Moving a band edge under a record changes its expected verdict.
        choice = next(iter(workload.outputs))[0]
        band = workload.bands[choice]["elite_driver"]
        workload.bands[choice]["elite_driver"] = type(band)(
            category=band.category, mean_points=band.mean_points, ci_low=0.0,
            ci_high=10_000.0, n_sims=band.n_sims)
        assert workload.check()[0] >= 1
    finally:
        workload.close()


def module_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items() if name.startswith("f1bench")
            for attr, value in vars(module).items()}


def test_traced_run_removes_every_wrapper(tmp_path):
    before = module_bindings()
    workload = workloads.ReportWarm(seed=5, work_dir=tmp_path)
    try:
        recorder = spans.SpanRecorder()
        untraced, traced, _, _ = run.run_sections(workload, 0, recorder)
    finally:
        workload.close()
    names = {span.name for span in recorder.spans}
    assert {"cli.main", "simulate.load_cached_summaries", "normal.std_normal_quantile"} <= names
    assert len(untraced) == len(traced) == 1
    assert spans.leftover_wrappers() == []
    after = module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
