"""Unit tests for ``repro.obs``: tracer, profiler, metrics, rendering.

The tracer and profiler are process-wide singletons, so every test runs
under an autouse fixture that resets both before and after — a leaked
enabled flag would silently change the behavior of unrelated suites.
"""

import json
import re
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    PROFILER,
    TRACER,
    build_service_registry,
    format_trace_summaries,
    new_trace_id,
    parse_prometheus_text,
    read_spans,
    render_trace,
    span,
    summarize_telemetry,
    summarize_traces,
    telemetry_enabled,
    write_spans,
)
from repro.obs.metrics import _NULL_PHASE
from repro.obs.trace import _NULL_SPAN, TELEMETRY_ENV, _new_span_id
from repro.service.backends import PoolBackend


@pytest.fixture(autouse=True)
def _clean_singletons():
    TRACER.reset()
    PROFILER.disable()
    PROFILER.reset()
    yield
    TRACER.reset()
    PROFILER.disable()
    PROFILER.reset()


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_fast_path_is_shared_null_object(self):
        # Identity, not just equivalence: the disabled path must not
        # allocate per call.
        assert span("anything") is _NULL_SPAN
        assert TRACER.span("anything") is _NULL_SPAN
        assert TRACER.begin("anything") is None
        TRACER.finish(None)  # no-op, must not raise
        assert TRACER.drain() == []

    def test_disabled_overhead_guard(self):
        # 50k disabled span entries should be effectively free (~ms).  The
        # 1 s bound is deliberately loose — it guards against accidentally
        # reintroducing allocation/locking on the disabled path, not
        # against scheduler jitter.
        t0 = time.perf_counter()
        for _ in range(50_000):
            with span("hot.loop"):
                pass
        assert time.perf_counter() - t0 < 1.0

    def test_nested_spans_share_trace_and_link_parents(self):
        TRACER.enable()
        with TRACER.span("outer") as outer:
            with span("inner", detail=1) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = TRACER.drain()
        assert [entry["name"] for entry in spans] == ["inner", "outer"]
        assert spans[0]["attrs"] == {"detail": 1}
        assert spans[1]["duration"] >= spans[0]["duration"] >= 0.0
        assert TRACER.drain() == []

    def test_begin_finish_and_context_of(self):
        TRACER.enable()
        root = TRACER.begin("request", trace_id=new_trace_id(), kind="scan")
        with TRACER.context_of(root):
            with span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        TRACER.finish(root)
        spans = TRACER.drain()
        assert {entry["name"] for entry in spans} == {"request", "child"}

    def test_context_of_none_is_null_context(self):
        TRACER.enable()
        with TRACER.context_of(None):
            assert TRACER.current() == ("", "")

    def test_explicit_context_adopts_foreign_parent(self):
        # The cross-process handshake: a worker re-opens the parent's
        # (trace_id, parent_span_id) pair and its spans link under it.
        TRACER.enable()
        with TRACER.context("remotetrace0001", "parentspan01"):
            with span("worker.scan") as worker:
                assert worker.trace_id == "remotetrace0001"
                assert worker.parent_id == "parentspan01"

    def test_add_stitches_worker_spans(self):
        TRACER.enable()
        foreign = [{"trace_id": "t1", "span_id": "s1", "parent_id": "",
                    "name": "worker.scan", "start": 0.0, "duration": 0.5,
                    "pid": 99}]
        TRACER.add(foreign)
        TRACER.add(None)
        TRACER.add([])
        assert TRACER.drain() == foreign

    def test_reset_disables_and_clears(self):
        TRACER.enable()
        with span("x"):
            pass
        TRACER.reset()
        assert not TRACER.enabled
        assert TRACER.drain() == []

    def test_jsonl_round_trip_and_torn_line_tolerance(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        first = [{"trace_id": "a", "span_id": "1", "parent_id": "",
                  "name": "one", "start": 1.0, "duration": 0.1, "pid": 1}]
        second = [{"trace_id": "b", "span_id": "2", "parent_id": "",
                   "name": "two", "start": 2.0, "duration": 0.2, "pid": 1}]
        write_spans(path, first)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')  # interrupted append
        write_spans(path, second)
        assert read_spans(path) == first + second
        assert read_spans(path, trace_id="b") == second
        assert read_spans(str(tmp_path / "missing.jsonl")) == []

    def test_flush_appends_and_empties(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        TRACER.enable()
        with span("flushed"):
            pass
        assert TRACER.flush(path) == 1
        assert TRACER.flush(path) == 0  # buffer now empty
        assert [entry["name"] for entry in read_spans(path)] == ["flushed"]

    def test_check_fork_same_pid_keeps_state(self):
        TRACER.enable()
        with span("kept"):
            pass
        TRACER.check_fork()
        assert TRACER.enabled
        assert len(TRACER.drain()) == 1


def _draw_ids(count):
    return [new_trace_id() for _ in range(count)], \
        [_new_span_id() for _ in range(count)]


class TestIds:
    def test_trace_and_span_ids_are_lowercase_hex(self):
        trace_ids, span_ids = _draw_ids(2000)
        assert all(re.fullmatch("[0-9a-f]{16}", i) for i in trace_ids)
        assert all(re.fullmatch("[0-9a-f]{12}", i) for i in span_ids)
        assert len(set(trace_ids)) == len(set(span_ids)) == 2000

    def test_forked_children_draw_their_own_ids(self):
        # Ids come from the kernel, not from state a fork copies: a
        # ``pool`` child never repeats its parent's next draws.
        children = PoolBackend(2).run(_draw_ids, [500, 500])
        parent = _draw_ids(500)
        trace_ids = [i for ids, _ in children + [parent] for i in ids]
        span_ids = [i for _, ids in children + [parent] for i in ids]
        assert len(set(trace_ids)) == len(set(span_ids)) == 1500


# ---------------------------------------------------------------------- #
# Profiler
# ---------------------------------------------------------------------- #
class TestProfiler:
    def test_disabled_is_null_and_records_nothing(self):
        assert PROFILER.phase("x") is _NULL_PHASE
        PROFILER.add_phase("x", 1.0)
        PROFILER.add_count("iters", 5)
        assert PROFILER.snapshot() == {}

    def test_phases_and_counts_accumulate(self):
        PROFILER.enable()
        PROFILER.add_phase("sweep", 0.5, entries=2)
        PROFILER.add_phase("sweep", 0.25)
        PROFILER.add_count("iterations", 10)
        PROFILER.add_count("iterations", 3)
        with PROFILER.phase("resume"):
            pass
        snap = PROFILER.snapshot()
        assert snap["phases"]["sweep"] == {"seconds": 0.75, "entries": 3}
        assert snap["phases"]["resume"]["entries"] == 1
        assert snap["counts"] == {"iterations": 13}

    def test_reset_clears_but_keeps_enabled(self):
        # Unlike Tracer.reset(), Profiler.reset() is clear-only — the
        # worker adopt path relies on calling disable() explicitly.
        PROFILER.enable()
        PROFILER.add_count("n", 1)
        PROFILER.reset()
        assert PROFILER.enabled
        assert PROFILER.snapshot() == {}


# ---------------------------------------------------------------------- #
# Metrics registry / exposition format
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total", "help").inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing", "help")
        with pytest.raises(ValueError):
            registry.gauge("thing", "help")

    def test_render_parses_and_histogram_invariants_hold(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", "events",
                         labels={"kind": "scan"}).inc(3)
        registry.gauge("repro_depth", "queue depth").set(2.5)
        hist = registry.histogram("repro_latency_seconds", "latency",
                                  labels={"detector": "usb"},
                                  buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        text = registry.render()
        samples = parse_prometheus_text(text)
        assert samples["repro_events_total"][0] == ({"kind": "scan"}, 3.0)
        assert samples["repro_depth"][0] == ({}, 2.5)
        buckets = {labels["le"]: value
                   for labels, value in samples["repro_latency_seconds_bucket"]}
        # Cumulative: 1 obs <= 0.1, 2 <= 1.0, 3 <= 10.0, all 4 <= +Inf.
        assert [buckets[le] for le in ("0.1", "1", "10", "+Inf")] == [1, 2, 3, 4]
        assert samples["repro_latency_seconds_count"][0][1] == 4.0
        assert samples["repro_latency_seconds_sum"][0][1] == pytest.approx(55.55)

    def test_parser_rejects_broken_payloads(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("orphan_sample 1\n")  # no TYPE header
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x wrongkind\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x counter\nx notanumber\n")
        # Non-cumulative buckets must be caught.
        bad = ("# TYPE h histogram\n"
               'h_bucket{le="1"} 5\n'
               'h_bucket{le="+Inf"} 3\n'
               "h_sum 1\nh_count 3\n")
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("repro_paths_total", "paths",
                         labels={"path": 'a"b\\c'}).inc(1)
        samples = parse_prometheus_text(registry.render())
        assert samples["repro_paths_total"][0][0] == {"path": 'a\\"b\\\\c'}


# ---------------------------------------------------------------------- #
# Service metric families from records + stats
# ---------------------------------------------------------------------- #
def _rows():
    return [
        {"detector": "USB", "seconds": 0.4,
         "telemetry": {"phases": {"usb.uap_sweep": {"seconds": 0.1,
                                                    "entries": 1}},
                       "pool": {"items": 10, "finalists": 4,
                                "in_flight_admissions": 2,
                                "cache": {"hits": 8, "misses": 2}}}},
        {"detector": "USB", "seconds": 0.6,
         "telemetry": {"phases": {"usb.uap_sweep": {"seconds": 0.2,
                                                    "entries": 1}}}},
        {"detector": "NC", "seconds": 3.0},
    ]


class TestBuildServiceRegistry:
    def test_families_from_records(self):
        text = build_service_registry(_rows()).render()
        samples = parse_prometheus_text(text)
        latency = {tuple(sorted(labels.items())): value for labels, value in
                   samples["repro_scan_latency_seconds_count"]}
        assert latency[(("detector", "USB"),)] == 2.0
        assert latency[(("detector", "NC"),)] == 1.0
        assert samples["repro_store_scan_records"][0][1] == 3.0
        assert samples["repro_inversion_phase_seconds_total"][0] == (
            {"phase": "usb.uap_sweep"}, pytest.approx(0.3))
        assert samples["repro_mega_finalist_fraction"][0][1] == 0.4
        assert samples["repro_mega_in_flight_admissions_total"][0][1] == 2.0
        assert samples["repro_activation_cache_hits_total"][0][1] == 8.0
        assert samples["repro_activation_cache_hit_ratio"][0][1] == 0.8

    def test_stats_snapshot_wins_over_record_cache(self):
        stats = {"queue_depth": 4,
                 "metrics": {"scans_served": 7, "cache_hits": 5,
                             "cache_misses": 2, "failures": 0, "retries": 1,
                             "cache_hit_ratio": 0.714,
                             "activation_cache_hits": 30,
                             "activation_cache_misses": 10,
                             "latency_p50_s": 0.5, "latency_p95_s": 2.0}}
        samples = parse_prometheus_text(
            build_service_registry(_rows(), stats).render())
        assert samples["repro_activation_cache_hits_total"][0][1] == 30.0
        assert samples["repro_activation_cache_hit_ratio"][0][1] == 0.75
        assert samples["repro_scans_served_total"][0][1] == 7.0
        assert samples["repro_queue_depth"][0][1] == 4.0
        assert samples["repro_scan_latency_p95_s"][0][1] == 2.0

    def test_empty_store_renders_valid_exposition(self):
        samples = parse_prometheus_text(build_service_registry([]).render())
        assert samples["repro_store_scan_records"][0][1] == 0.0
        assert samples["repro_activation_cache_hit_ratio"][0][1] == 0.0


class TestSummarizeTelemetry:
    def test_rollup(self):
        summary = summarize_telemetry(_rows())
        assert summary["scans"] == 3
        assert summary["per_detector"]["USB"]["scans"] == 2
        assert summary["per_detector"]["USB"]["mean_seconds"] == 0.5
        assert summary["phases"]["usb.uap_sweep"]["entries"] == 2
        assert summary["activation_cache"] == {"hits": 8, "misses": 2,
                                               "hit_ratio": 0.8}
        assert summary["pool"]["items"] == 10


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def _tree_spans():
    return [
        {"trace_id": "t", "span_id": "root", "parent_id": "",
         "name": "scan.request", "start": 1.0, "duration": 2.0, "pid": 1},
        {"trace_id": "t", "span_id": "w", "parent_id": "root",
         "name": "worker.scan", "start": 1.1, "duration": 1.5, "pid": 2,
         "attrs": {"detector": "usb"}},
        {"trace_id": "t", "span_id": "orphan", "parent_id": "lost",
         "name": "stranded", "start": 1.2, "duration": 0.1, "pid": 2},
    ]


class TestRender:
    def test_tree_indents_children_and_reroots_orphans(self):
        text = render_trace(_tree_spans(), "t")
        lines = text.splitlines()
        assert lines[0].startswith("trace t (3 spans)")
        assert any("scan.request" in line for line in lines)
        worker = next(line for line in lines if "worker.scan" in line)
        assert worker.startswith("|   ") or worker.startswith("    ")
        assert "[detector=usb]" in worker
        # The orphan's parent never appears: re-rooted, not dropped.
        assert any("stranded" in line for line in lines)

    def test_missing_trace_notice(self):
        assert "no spans found" in render_trace(_tree_spans(), "nope")

    def test_summaries_and_table(self):
        rows = summarize_traces(_tree_spans())
        assert len(rows) == 1
        row = rows[0]
        assert row["root"] == "scan.request"
        assert row["spans"] == 3 and row["pids"] == 2
        table = format_trace_summaries(rows)
        assert "scan.request" in table and "t" in table
        assert format_trace_summaries([]) == "no traces recorded"


# ---------------------------------------------------------------------- #
# Environment switches
# ---------------------------------------------------------------------- #
class TestTelemetryEnv:
    def test_default_and_falsy_values(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        assert telemetry_enabled() is True
        assert telemetry_enabled(default=False) is False
        for falsy in ("0", "false", "OFF", "no"):
            monkeypatch.setenv(TELEMETRY_ENV, falsy)
            assert telemetry_enabled() is False
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        assert telemetry_enabled(default=False) is True
