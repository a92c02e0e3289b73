"""Integration tests: telemetry through the real service layer.

The headline acceptance check lives here: a 2-worker scan fleet must
produce ONE stitched span tree per request, with parent-process spans
(request, fingerprint, cache lookup) and pool-worker spans (worker.scan,
inversion phases) linked under the same root across the process boundary.
"""

import json
import os

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.serialization import save_model
from repro.obs import (
    PROFILER,
    TRACER,
    parse_prometheus_text,
    read_spans,
)
from repro.service import ScanRequest, ScanScheduler, ShardedResultStore
from repro.service.cli import main as cli_main
from repro.service.store import METRICS_NAME, SPANS_NAME, sidecar_path


@pytest.fixture(autouse=True)
def _clean_singletons():
    TRACER.reset()
    PROFILER.disable()
    PROFILER.reset()
    yield
    TRACER.reset()
    PROFILER.disable()
    PROFILER.reset()


def _save_tiny(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path), metadata={"model": "basic_cnn",
                                           "dataset": "cifar10",
                                           "image_size": 12})
    return model


def _tiny_request(path, **overrides):
    defaults = dict(checkpoint=str(path), detector="usb",
                    classes=(0, 1, 2), clean_budget=10, samples_per_class=3,
                    iterations=2, uap_passes=1, seed=0)
    defaults.update(overrides)
    return ScanRequest(**defaults)


def _by_trace(spans):
    grouped = {}
    for entry in spans:
        grouped.setdefault(entry["trace_id"], []).append(entry)
    return grouped


class TestCrossProcessStitching:
    def test_two_worker_fleet_one_tree_per_request(self, tmp_path):
        """The acceptance criterion: spans from parent AND pool workers
        stitch into a single tree per request."""
        for index in range(2):
            _save_tiny(tmp_path / f"m{index}.npz", seed=40 + index)
        sink = str(tmp_path / "spans.jsonl")
        scheduler = ScanScheduler(workers=2, telemetry=True, span_sink=sink)
        requests = [_tiny_request(tmp_path / f"m{index}.npz")
                    for index in range(2)]
        records = scheduler.scan(requests)

        assert len(records) == 2
        for record in records:
            assert record.telemetry and record.telemetry.get("trace_id")
            assert record.spans == []  # drained into the parent tracer

        traces = _by_trace(read_spans(sink))
        assert len(traces) == 2
        parent_pid = os.getpid()
        for record in records:
            mine = traces[record.telemetry["trace_id"]]
            roots = [s for s in mine if not s["parent_id"]]
            assert [s["name"] for s in roots] == ["scan.request"]
            root = roots[0]
            assert root["pid"] == parent_pid
            # Every non-root span links to a span present in the trace:
            # nothing stranded on either side of the process boundary.
            ids = {s["span_id"] for s in mine}
            assert all(s["parent_id"] in ids for s in mine if s["parent_id"])
            names = {s["name"] for s in mine}
            assert {"scan.fingerprint", "scan.cache_lookup",
                    "worker.scan"} <= names
            worker = next(s for s in mine if s["name"] == "worker.scan")
            assert worker["parent_id"] == root["span_id"]
            assert worker["pid"] != parent_pid
            assert len({s["pid"] for s in mine}) >= 2

    def test_serial_scan_traces_without_workers(self, tmp_path):
        _save_tiny(tmp_path / "m.npz", seed=42)
        sink = str(tmp_path / "spans.jsonl")
        scheduler = ScanScheduler(workers=0, telemetry=True, span_sink=sink)
        record = scheduler.scan_one(_tiny_request(tmp_path / "m.npz"))
        spans = read_spans(sink, trace_id=record.telemetry["trace_id"])
        assert len({s["pid"] for s in spans}) == 1
        assert {s["name"] for s in spans} >= {"scan.request", "worker.scan"}
        # Inline execution still profiles phases into the telemetry block.
        assert record.telemetry.get("phases")

    def test_batched_scan_records_no_cascade_phases(self, tmp_path):
        # The default batched mode runs the pool with the cascade off, so
        # its telemetry must name a plain sweep, not a cascade that never ran.
        _save_tiny(tmp_path / "m.npz", seed=44)
        sink = str(tmp_path / "spans.jsonl")
        record = ScanScheduler(workers=0, telemetry=True, span_sink=sink
                               ).scan_one(_tiny_request(tmp_path / "m.npz"))
        phases = set(record.telemetry["phases"])
        assert "sweep" in phases
        assert not phases & {"coarse_sweep", "finalist_resume"}
        names = {s["name"] for s in read_spans(
            sink, trace_id=record.telemetry["trace_id"])}
        assert "mega.sweep" in names
        assert not names & {"mega.coarse_sweep", "mega.finalist_resume"}

    def test_cache_hit_is_annotated_and_spawns_no_worker_span(self, tmp_path):
        _save_tiny(tmp_path / "m.npz", seed=43)
        store = ShardedResultStore(str(tmp_path / "store"))
        sink = str(tmp_path / "spans.jsonl")
        request = _tiny_request(tmp_path / "m.npz")
        ScanScheduler(store=store, workers=0, telemetry=True,
                      span_sink=sink).scan_one(request)
        TRACER.reset()
        ScanScheduler(store=store, workers=0, telemetry=True,
                      span_sink=sink).scan_one(request)
        traces = _by_trace(read_spans(sink))
        assert len(traces) == 2
        hit_roots = [s for mine in traces.values() for s in mine
                     if not s["parent_id"] and (s.get("attrs") or {}
                                                ).get("cache_hit")]
        assert len(hit_roots) == 1
        hit_trace = traces[hit_roots[0]["trace_id"]]
        assert "worker.scan" not in {s["name"] for s in hit_trace}

    def test_telemetry_off_records_nothing(self, tmp_path):
        _save_tiny(tmp_path / "m.npz", seed=44)
        sink = str(tmp_path / "spans.jsonl")
        scheduler = ScanScheduler(workers=0, telemetry=False, span_sink=sink)
        record = scheduler.scan_one(_tiny_request(tmp_path / "m.npz"))
        assert not os.path.exists(sink)
        assert not (record.telemetry or {}).get("trace_id")


class TestActivationCacheMetrics:
    def test_mega_scan_feeds_cache_counters(self, tmp_path):
        for index in range(2):
            _save_tiny(tmp_path / f"m{index}.npz", seed=50 + index)
        scheduler = ScanScheduler(workers=0, telemetry=True)
        records = scheduler.scan([
            _tiny_request(tmp_path / f"m{index}.npz", inversion_mode="mega")
            for index in range(2)])
        assert len(records) == 2
        snapshot = scheduler.metrics.snapshot()
        assert (snapshot["activation_cache_hits"]
                + snapshot["activation_cache_misses"]) > 0
        assert 0.0 <= snapshot["activation_cache_hit_ratio"] <= 1.0
        # The group's cache delta is attributed once, on the lead record.
        caches = [((record.telemetry or {}).get("pool") or {}).get("cache")
                  for record in records]
        assert sum(1 for cache in caches if cache) >= 1


class TestDaemonTelemetry:
    def test_cycle_publishes_spans_stats_and_prom(self, tmp_path):
        from repro.service import DaemonConfig, WatchDaemon

        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=70)
        daemon = WatchDaemon(DaemonConfig(
            watch_dir=str(drop), store_path=str(tmp_path / "store"),
            detectors=("usb",), poll_interval=0.01, settle_polls=0,
            max_retries=1, job_timeout=120.0,
            request_options=dict(classes=(0, 1, 2), clean_budget=10,
                                 samples_per_class=3, iterations=2,
                                 uap_passes=1, seed=0)))
        daemon.run(max_iterations=2)

        stats = json.loads(open(daemon.stats_path).read())
        assert stats["metrics"]["scans_served"] == 1
        assert "activation_cache_hits" in stats["metrics"]

        # The child scan ran in a separate process: its spans must stitch
        # under the daemon.job root recorded by the daemon itself.
        spans = read_spans(str(tmp_path / "store" / SPANS_NAME))
        traces = _by_trace(spans)
        assert len(traces) == 1
        mine = next(iter(traces.values()))
        roots = [s for s in mine if not s["parent_id"]]
        assert [s["name"] for s in roots] == ["daemon.job"]
        assert len({s["pid"] for s in mine}) >= 2
        assert "worker.scan" in {s["name"] for s in mine}

        prom_path = str(tmp_path / "store" / METRICS_NAME)
        samples = parse_prometheus_text(open(prom_path).read())
        assert samples["repro_scans_served_total"][0][1] == 1.0
        assert samples["repro_scan_latency_seconds_count"][0][1] == 1.0
        assert "repro_queue_depth" in samples

    def test_no_telemetry_daemon_skips_sidecars(self, tmp_path):
        from repro.service import DaemonConfig, WatchDaemon

        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=71)
        daemon = WatchDaemon(DaemonConfig(
            watch_dir=str(drop), store_path=str(tmp_path / "store"),
            detectors=("usb",), poll_interval=0.01, settle_polls=0,
            max_retries=1, job_timeout=120.0, telemetry=False,
            request_options=dict(classes=(0, 1, 2), clean_budget=10,
                                 samples_per_class=3, iterations=2,
                                 uap_passes=1, seed=0)))
        daemon.run(max_iterations=2)
        assert not os.path.exists(str(tmp_path / "store" / SPANS_NAME))
        assert not os.path.exists(str(tmp_path / "store" / METRICS_NAME))
        assert json.loads(open(daemon.stats_path).read())[
            "scans_served"] == 1


class TestObservabilityCLI:
    def test_scan_trace_metrics_round_trip(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "m.npz", seed=60)
        assert cli_main(["scan", "m.npz", "--classes", "0,1",
                         "--iterations", "2", "--clean-budget", "10",
                         "--samples-per-class", "3",
                         "--store", "scans.jsonl"]) == 0
        out = capsys.readouterr().out
        trace_line = next(line for line in out.splitlines()
                          if line.strip().startswith("trace:"))
        trace_id = trace_line.split()[1]
        assert os.path.exists(sidecar_path("scans.jsonl", SPANS_NAME))

        # Listing, then the rendered tree for the printed id.
        assert cli_main(["trace", "--store", "scans.jsonl"]) == 0
        listing = capsys.readouterr().out
        assert trace_id in listing and "scan.request" in listing
        assert cli_main(["trace", trace_id, "--store", "scans.jsonl"]) == 0
        tree = capsys.readouterr().out
        assert f"trace {trace_id}" in tree
        assert "worker.scan" in tree and "scan.fingerprint" in tree

        # Metrics exposition over the same store parses and has the scan.
        assert cli_main(["metrics", "--store", "scans.jsonl"]) == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert samples["repro_scan_latency_seconds_count"][0][1] == 1.0
        assert "repro_activation_cache_hit_ratio" in samples

    def test_failed_scan_still_writes_its_trace(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                               image_size=12, rng=np.random.default_rng(64)),
                   "bare.npz")  # no metadata: resolution fails
        assert cli_main(["scan", "bare.npz", "--store", "scans.jsonl"]) == 1
        assert "metadata" in capsys.readouterr().err
        spans = read_spans(sidecar_path("scans.jsonl", SPANS_NAME))
        roots = [s for s in spans if not s["parent_id"]]
        assert [s["name"] for s in roots] == ["scan.request"]
        assert "metadata" in roots[0]["attrs"]["error"]
        assert all(s["parent_id"] == roots[0]["span_id"]
                   for s in spans if s["parent_id"])

    def test_trace_unknown_id_fails_cleanly(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["trace", "deadbeefdeadbeef",
                         "--store", "scans.jsonl"]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_metrics_output_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "m.npz", seed=61)
        assert cli_main(["scan", "m.npz", "--classes", "0,1",
                         "--iterations", "2", "--clean-budget", "10",
                         "--samples-per-class", "3",
                         "--store", "scans.jsonl"]) == 0
        capsys.readouterr()
        assert cli_main(["metrics", "--store", "scans.jsonl",
                         "--output", "out.prom"]) == 0
        parse_prometheus_text(open("out.prom").read())

    def test_metrics_on_a_missing_store_creates_nothing(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for store in ("typo_store", "typo_dir/", "typo.jsonl"):
            assert cli_main(["metrics", "--store", store]) == 0
            parse_prometheus_text(capsys.readouterr().out)
        assert os.listdir(tmp_path) == []

    def test_no_telemetry_flag_suppresses_sidecars(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "m.npz", seed=62)
        assert cli_main(["scan", "m.npz", "--classes", "0,1",
                         "--iterations", "2", "--clean-budget", "10",
                         "--samples-per-class", "3", "--no-telemetry",
                         "--store", "scans.jsonl"]) == 0
        assert "trace:" not in capsys.readouterr().out
        assert not os.path.exists(sidecar_path("scans.jsonl", SPANS_NAME))

    def test_report_json_includes_metrics_summary(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "m.npz", seed=63)
        assert cli_main(["scan", "m.npz", "--classes", "0,1",
                         "--iterations", "2", "--clean-budget", "10",
                         "--samples-per-class", "3",
                         "--store", "scans.jsonl"]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--store", "scans.jsonl", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["scans"] == 1
        assert "USB" in metrics["per_detector"]
        assert "activation_cache" in metrics
