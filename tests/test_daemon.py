"""Tests for the watch daemon: watcher, poll order, timeouts/retries, stats.

The timeout tests use real child processes (the daemon's kill path is the
feature under test); the end-to-end smoke runs a real tiny scan through
``WatchDaemon`` and the ``python -m repro watch`` CLI.
"""

import functools
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service import (
    CheckpointWatcher,
    DaemonConfig,
    JobTimeoutError,
    PoolBackend,
    RepairRecord,
    ScanRecord,
    ScanScheduler,
    ServiceMetrics,
    ShardedResultStore,
    WatchDaemon,
    execute_resolved,
)
from repro.service.cli import main as cli_main
from repro.service.scheduler import LATENCY_WINDOW


# ---------------------------------------------------------------------- #
# Module-level helpers (pickled into child processes)
# ---------------------------------------------------------------------- #
def _hang_scan(resolved):
    """A scan that never finishes (the kill path's guinea pig)."""
    time.sleep(60)


def _boom_scan(resolved):
    """A scan that always fails."""
    raise RuntimeError("boom")


def _flaky_scan(marker_path, resolved):
    """Fails on the first attempt, then delegates to the real scan."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return execute_resolved(resolved)


def _sleep_seconds(seconds):
    time.sleep(seconds)
    return seconds


def _fail_once_then_double(payload):
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient")
    return value * 2


def _kill_once_then_double(payload):
    """SIGKILLs its own process on the first attempt, then doubles."""
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


class _NeedsTwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its args when unpickled."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _raise_unpicklable(_):
    raise _NeedsTwoArgs(1, 2)


def _fail_once_then_pids(marker):
    """Fails on the first attempt; the retry returns both attempts' pids."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
        raise RuntimeError("transient")
    with open(marker) as handle:
        return int(handle.read()), os.getpid()


def _fake_backdoored_scan(resolved):
    """A scan that instantly claims BACKDOORED (auto-repair trigger)."""
    from repro.core.detection import DetectionResult
    detection = DetectionResult(detector="nc", triggers=[],
                                anomaly_indices={0: 9.0}, flagged_classes=[0],
                                is_backdoored=True)
    return ScanRecord.from_detection(
        key=resolved.key, fingerprint=resolved.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=resolved.request.checkpoint, model=resolved.model,
        dataset=resolved.dataset, detection=detection)


def _fake_repair(resolved):
    """A repair worker stub returning an instant successful RepairRecord."""
    return RepairRecord(
        key=resolved.key, fingerprint=resolved.scan.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=resolved.request.scan.checkpoint,
        model=resolved.scan.model, dataset=resolved.scan.dataset,
        detector=resolved.request.scan.detector,
        strategy=resolved.request.strategy, was_backdoored=True,
        repaired=True, success=True, accuracy_before=0.9,
        accuracy_after=0.9, report={"strategy": resolved.request.strategy})


def _save_tiny(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path), metadata={"model": "basic_cnn",
                                           "dataset": "cifar10",
                                           "image_size": 12})


_TINY_OPTIONS = dict(classes=(0, 1, 2), clean_budget=10, samples_per_class=3,
                     iterations=2, uap_passes=1, seed=0)


def _swap_workers(monkeypatch, scan=None, repair=None):
    """Replace the worker functions the scheduler's batch driver dispatches."""
    if scan is not None:
        monkeypatch.setattr("repro.service.scheduler.execute_resolved", scan)
    if repair is not None:
        monkeypatch.setattr("repro.service.repair.execute_repair", repair)


def _daemon(tmp_path, **overrides):
    drop = tmp_path / "drop"
    drop.mkdir(exist_ok=True)
    config_kwargs = dict(
        watch_dir=str(drop), store_path=str(tmp_path / "store"),
        detectors=("usb",), poll_interval=0.01, settle_polls=0,
        max_retries=1, request_options=dict(_TINY_OPTIONS))
    config_kwargs.update(overrides)
    return WatchDaemon(DaemonConfig(**config_kwargs))


# ---------------------------------------------------------------------- #
# Scheduler run_jobs: timeout + retries through the backend
# ---------------------------------------------------------------------- #
class TestRunJobsRetries:
    def test_serial_retry_recovers(self, tmp_path):
        scheduler = ScanScheduler(workers=0, job_retries=1)
        marker = str(tmp_path / "marker")
        results = scheduler.run_jobs(_fail_once_then_double, [(marker, 21)])
        assert results == [42]
        assert scheduler.metrics.retries == 1
        assert scheduler.metrics.failures == 0

    def test_serial_retries_exhausted_raises(self, tmp_path):
        scheduler = ScanScheduler(workers=0, job_retries=2)
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run_jobs(_boom_scan, [None, None])
        # Retries interleave FIFO across both failing jobs (2 each) before
        # the first one exhausts its budget and the batch fails.
        assert scheduler.metrics.retries == 4
        assert scheduler.metrics.failures == 1

    def test_pool_retry_recovers(self, tmp_path):
        scheduler = ScanScheduler(workers=2, job_retries=1)
        markers = [str(tmp_path / f"m{i}") for i in range(2)]
        results = scheduler.run_jobs(_fail_once_then_double,
                                     [(markers[0], 1), (markers[1], 2)])
        assert results == [2, 4]
        assert scheduler.metrics.retries == 2

    def test_pool_timeout_raises_job_timeout(self):
        scheduler = ScanScheduler(workers=2)
        with pytest.raises(JobTimeoutError):
            scheduler.run_jobs(_sleep_seconds, [0.01, 1.2], timeout=0.3)
        assert scheduler.metrics.failures == 1

    def test_pool_retries_a_killed_worker(self, tmp_path):
        # A SIGKILLed attempt is a crash like any other: retried in a
        # fresh child, not a broken pool.
        scheduler = ScanScheduler(workers=2, job_retries=1)
        markers = [str(tmp_path / f"k{i}") for i in range(2)]
        results = scheduler.run_jobs(_kill_once_then_double,
                                     [(markers[0], 1), (markers[1], 2)])
        assert results == [2, 4]
        assert scheduler.metrics.retries == 2
        assert scheduler.metrics.failures == 0

    def test_pool_kills_hung_attempts_and_retries_them(self):
        scheduler = ScanScheduler(workers=2)
        start = time.monotonic()
        with pytest.raises(JobTimeoutError, match="attempt 2"):
            scheduler.run_jobs(_sleep_seconds, [15, 15], timeout=0.5,
                               retries=1)
        assert time.monotonic() - start < 5.0
        # Both retries really ran, and no child outlives the call.
        assert multiprocessing.active_children() == []
        assert scheduler.metrics.retries == 2
        assert scheduler.metrics.failures == 1


# ---------------------------------------------------------------------- #
# Checkpoint watcher
# ---------------------------------------------------------------------- #
class TestCheckpointWatcher:
    def test_detects_new_files_once(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        assert watcher.poll() == []
        (tmp_path / "a.npz").write_bytes(b"x")
        assert watcher.poll() == [str(tmp_path / "a.npz")]
        assert watcher.poll() == []  # unchanged files report once

    def test_settle_polls_delays_half_copied_files(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=1)
        path = tmp_path / "a.npz"
        path.write_bytes(b"partial")
        assert watcher.poll() == []  # first sighting: not yet stable
        path.write_bytes(b"partial-more")  # still being copied
        assert watcher.poll() == []  # signature changed: stability reset
        assert watcher.poll() == [str(path)]  # stable for one full poll

    def test_changed_file_retriggers(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        path = tmp_path / "a.npz"
        path.write_bytes(b"v1")
        assert watcher.poll() == [str(path)]
        time.sleep(0.01)  # ensure a new mtime_ns
        path.write_bytes(b"v2-longer")
        assert watcher.poll() == [str(path)]

    def test_non_matching_files_ignored(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        (tmp_path / "notes.txt").write_text("hi")
        assert watcher.poll() == []

    def test_deleted_then_recreated_retriggers(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        path = tmp_path / "a.npz"
        path.write_bytes(b"v1")
        assert watcher.poll() == [str(path)]
        path.unlink()
        assert watcher.poll() == []
        path.write_bytes(b"v1")
        assert watcher.poll() == [str(path)]


# ---------------------------------------------------------------------- #
# Child-process scans: every pool attempt runs in a killable child
# ---------------------------------------------------------------------- #
class TestRunScanInChild:
    def test_timeout_kills_the_child(self):
        start = time.monotonic()
        with pytest.raises(JobTimeoutError):
            PoolBackend(workers=1).run(_hang_scan, [None], timeout=0.3)
        assert time.monotonic() - start < 5.0  # killed, not waited out
        assert multiprocessing.active_children() == []

    def test_child_error_is_reported(self):
        # The worker's exception comes back with its own type and message.
        with pytest.raises(RuntimeError, match="^boom$"):
            PoolBackend(workers=1).run(_boom_scan, [None], timeout=5.0)

    def test_unpicklable_error_becomes_a_named_runtime_error(self):
        with pytest.raises(RuntimeError, match="^_NeedsTwoArgs: 1/2$"):
            PoolBackend(workers=1).run(_raise_unpicklable, [None])

    def test_pool_retries_in_a_fresh_child(self, tmp_path):
        # The failed attempt goes back through the queue and reruns in a
        # new child; any picklable result comes back, not only records.
        metrics = ServiceMetrics()
        [(first, second)] = PoolBackend(workers=1).run(
            _fail_once_then_pids, [str(tmp_path / "marker")], timeout=30.0,
            retries=1, metrics=metrics)
        assert len({first, second, os.getpid()}) == 3
        assert metrics.retries == 1 and metrics.failures == 0


# ---------------------------------------------------------------------- #
# Daemon loop
# ---------------------------------------------------------------------- #
class TestWatchDaemon:
    def test_smoke_dropped_checkpoint_lands_in_store(self, tmp_path):
        daemon = _daemon(tmp_path, job_timeout=120.0)
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)

        store = ShardedResultStore(str(tmp_path / "store"))
        records = store.records()
        assert len(records) == 1
        assert records[0].detector == "USB"
        assert records[0].checkpoint.endswith("model.npz")

        stats = json.loads(open(daemon.stats_path).read())
        assert stats["scans_served"] == 1
        assert stats["cache_misses"] == 1
        assert stats["checkpoints_seen"] == 1
        assert stats["latency_p50_s"] > 0
        assert stats["latency_p95_s"] >= stats["latency_p50_s"]
        for field in ("cache_hit_ratio", "failures", "retries", "queue_depth",
                      "iterations", "updated_at", "store_path"):
            assert field in stats
        assert stats["backend"] == "pool"

    def test_second_daemon_serves_from_cache(self, tmp_path):
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        _daemon(tmp_path, job_timeout=120.0).run(max_iterations=2)
        # A fresh daemon over the same drop dir + store: pure cache hit.
        rerun = _daemon(tmp_path, job_timeout=120.0)
        rerun.run(max_iterations=2)
        stats = rerun.stats()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 0
        assert stats["cache_hit_ratio"] == 1.0
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 1

    def test_retry_then_success(self, tmp_path, monkeypatch):
        marker = str(tmp_path / "marker")
        _swap_workers(monkeypatch, scan=functools.partial(_flaky_scan, marker))
        daemon = _daemon(tmp_path, job_timeout=120.0)
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)
        stats = daemon.stats()
        assert stats["retries"] == 1
        assert stats["failures"] == 0
        assert stats["scans_served"] == 1
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 1

    def test_bounded_retries_then_failure_keeps_daemon_alive(self, tmp_path,
                                                             monkeypatch):
        _swap_workers(monkeypatch, scan=_boom_scan)
        daemon = _daemon(tmp_path, max_retries=1)
        _save_tiny(tmp_path / "drop" / "bad.npz", seed=1)
        _save_tiny(tmp_path / "drop" / "zz_other.npz", seed=2)
        daemon.run(max_iterations=2)
        stats = daemon.stats()
        # Both checkpoints were attempted (1 + 1 retry each), both failed,
        # and the loop survived to write stats.
        assert stats["failures"] == 2
        assert stats["retries"] == 2
        assert stats["queue_depth"] == 0
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 0

    def test_timeout_counts_as_failure(self, tmp_path, monkeypatch):
        _swap_workers(monkeypatch, scan=_hang_scan)
        daemon = _daemon(tmp_path, job_timeout=0.2, max_retries=0)
        _save_tiny(tmp_path / "drop" / "slow.npz", seed=1)
        start = time.monotonic()
        daemon.run(max_iterations=2)
        assert time.monotonic() - start < 10.0
        assert daemon.stats()["failures"] == 1

    def test_mega_request_options_store_a_record(self, tmp_path):
        # Mega-mode jobs travel as one mega-group job through a pool child.
        options = dict(_TINY_OPTIONS, inversion_mode="mega")
        daemon = _daemon(tmp_path, job_timeout=120.0, request_options=options)
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)
        records = ShardedResultStore(str(tmp_path / "store")).records()
        assert len(records) == 1
        assert records[0].detection["metadata"]["mega"] == 1.0
        assert records[0].worker_pid != os.getpid()
        assert daemon.stats()["failures"] == 0

    def test_unresolvable_checkpoint_is_a_failure_not_a_crash(self, tmp_path):
        daemon = _daemon(tmp_path)
        (tmp_path / "drop" / "garbage.npz").write_bytes(b"not a checkpoint")
        daemon.run(max_iterations=2)
        assert daemon.stats()["failures"] == 1

    def test_default_stats_path(self, tmp_path):
        # Stats follow the store's sidecar placement rules.
        assert _daemon(tmp_path).stats_path == str(
            tmp_path / "store" / "stats.json")
        assert _daemon(tmp_path, store_path=str(tmp_path / "s.jsonl")
                       ).stats_path == str(tmp_path / "s.jsonl.stats.json")


class TestAutoRepair:
    def _auto_daemon(self, tmp_path, monkeypatch):
        _swap_workers(monkeypatch, scan=_fake_backdoored_scan,
                      repair=_fake_repair)
        return _daemon(tmp_path, auto_repair=True,
                       repair_options={"strategy": "unlearn",
                                       "rescan": False})

    def test_flagged_checkpoint_is_auto_repaired(self, tmp_path, monkeypatch):
        daemon = self._auto_daemon(tmp_path, monkeypatch)
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)

        store = ShardedResultStore(str(tmp_path / "store"))
        scans = store.scan_records()
        repairs = store.repair_records()
        assert len(scans) == 1 and scans[0].is_backdoored
        assert len(repairs) == 1
        assert repairs[0].strategy == "unlearn" and repairs[0].success
        assert repairs[0].key != scans[0].key

        stats = json.loads(open(daemon.stats_path).read())
        assert stats["repairs_completed"] == 1
        assert stats["auto_repair"] is True
        assert stats["scans_served"] == 2  # the scan + the repair job
        assert stats["failures"] == 0

    def test_auto_repair_cache_hit_on_rerun(self, tmp_path, monkeypatch):
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        self._auto_daemon(tmp_path, monkeypatch).run(max_iterations=2)
        rerun = self._auto_daemon(tmp_path, monkeypatch)
        rerun.run(max_iterations=2)
        stats = rerun.stats()
        # the scan hit runs the repair again, which is itself a hit
        assert stats["cache_hits"] == 2 and stats["cache_misses"] == 0
        assert stats["repairs_completed"] == 0  # nothing recomputed
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 2

    def test_poll_scans_detector_by_detector_then_repairs(self, tmp_path,
                                                         monkeypatch):
        ran = []

        def scan(resolved):
            request = resolved.request
            ran.append(("scan", os.path.basename(request.checkpoint),
                        request.detector))
            return _fake_backdoored_scan(resolved)

        def repair(resolved):
            request = resolved.request.scan
            ran.append(("repair", os.path.basename(request.checkpoint),
                        request.detector))
            return _fake_repair(resolved)

        _swap_workers(monkeypatch, scan=scan, repair=repair)
        daemon = _daemon(tmp_path, detectors=("nc", "usb"), backend="inline",
                         auto_repair=True,
                         repair_options={"strategy": "unlearn",
                                         "rescan": False})
        _save_tiny(tmp_path / "drop" / "a.npz", seed=1)
        _save_tiny(tmp_path / "drop" / "b.npz", seed=2)
        assert daemon.run_once() == 8
        cells = [("a.npz", "nc"), ("b.npz", "nc"), ("a.npz", "usb"),
                 ("b.npz", "usb")]
        assert ran == ([("scan",) + cell for cell in cells]
                       + [("repair",) + cell for cell in cells])
        stats = json.loads(open(daemon.stats_path).read())
        assert stats["queue_depth"] == 0
        assert stats["repairs_completed"] == 4 and stats["failures"] == 0

    def test_repaired_outputs_are_not_reingested(self, tmp_path):
        # Regression: the repair pipeline writes *.repaired-<digest>.npz
        # next to the original; a watcher that picked those up would make
        # an auto-repair daemon loop on its own outputs forever.
        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=1)
        _save_tiny(drop / "model.repaired-abcd1234.npz", seed=1)
        watcher = CheckpointWatcher(str(drop), settle_polls=0)
        assert [os.path.basename(p) for p in watcher.poll()] == ["model.npz"]

    def test_no_auto_repair_for_clean_models(self, tmp_path):
        # The real tiny scan comes back clean -> no repair is queued.
        daemon = _daemon(tmp_path, job_timeout=120.0, auto_repair=True,
                         repair_options={"strategy": "unlearn"})
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)
        store = ShardedResultStore(str(tmp_path / "store"))
        assert len(store.scan_records()) == 1
        assert not store.scan_records()[0].is_backdoored
        assert store.repair_records() == []
        assert daemon.stats()["repairs_completed"] == 0


class TestServiceMetrics:
    def test_percentiles_pinned_on_known_sequence(self):
        metrics = ServiceMetrics()
        for value in (40.0, 10.0, 30.0, 20.0):
            metrics.record_latency(value)
        assert metrics.latency_percentile(50) == pytest.approx(25.0)
        assert metrics.latency_percentile(95) == pytest.approx(38.5)
        assert metrics.latency_percentile(0) == pytest.approx(10.0)
        assert metrics.latency_percentile(100) == pytest.approx(40.0)
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50_s"] == pytest.approx(25.0)
        assert snapshot["latency_p95_s"] == pytest.approx(38.5)

    def test_percentiles_match_numpy_convention(self):
        rng = np.random.default_rng(0)
        metrics = ServiceMetrics()
        values = rng.uniform(0.01, 5.0, size=257)
        for value in values:
            metrics.record_latency(float(value))
        for q in (10, 50, 90, 95, 99):
            assert metrics.latency_percentile(q) == pytest.approx(
                float(np.percentile(values, q)))

    def test_window_is_bounded_and_evicts_oldest(self):
        metrics = ServiceMetrics()
        total = LATENCY_WINDOW + 100
        values = np.random.default_rng(1).uniform(0.1, 9.0, size=total)
        for value in values:
            metrics.record_latency(float(value))
        assert len(metrics.latencies) == LATENCY_WINDOW
        window = values[-LATENCY_WINDOW:]
        assert metrics.latencies == tuple(float(v) for v in window)
        assert metrics.latency_percentile(95) == pytest.approx(
            float(np.percentile(window, 95)))

    def test_empty_window_is_zero(self):
        assert ServiceMetrics().latency_percentile(50) == 0.0


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #
class TestWatchCli:
    def test_watch_then_report_surfaces_metrics(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=1)
        rc = cli_main([
            "watch", str(drop), "--store", "scans", "--detectors", "usb",
            "--poll-interval", "0.01", "--settle-polls", "0",
            "--max-iterations", "2", "--retries", "1", "--job-timeout", "120",
            "--classes", "0,1,2", "--clean-budget", "10",
            "--samples-per-class", "3", "--iterations", "2"])
        assert rc == 0
        capsys.readouterr()

        assert cli_main(["report", "--store", "scans"]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out
        assert "daemon stats" in out
        assert "cache-hit ratio" in out
        assert "p50=" in out and "p95=" in out

        assert cli_main(["report", "--store", "scans", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 1
        assert payload["stats"]["scans_served"] == 1

    def test_store_cli_compact_and_merge(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=1)
        args = ["--classes", "0,1,2", "--clean-budget", "10",
                "--samples-per-class", "3", "--iterations", "2"]
        assert cli_main(["scan", str(drop / "model.npz"), "--store", "scans"]
                        + args) == 0
        assert cli_main(["store", "compact", "--store", "scans"]) == 0
        assert "compacted" in capsys.readouterr().out
        assert cli_main(["store", "merge", "--store", "merged",
                         "--source", "scans"]) == 0
        assert "merged 1 record(s)" in capsys.readouterr().out
        # The merged store serves the same request as a cache hit.
        assert cli_main(["scan", str(drop / "model.npz"), "--store", "merged"]
                        + args) == 0
        assert "cache hit" in capsys.readouterr().out
