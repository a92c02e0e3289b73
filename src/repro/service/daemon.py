"""Watch daemon: a long-running vetting loop over a checkpoint drop directory.

``python -m repro watch <dir>`` turns the scanning service into a service
proper: the daemon polls a drop directory for new or changed ``.npz``
checkpoints, enqueues one scan per (checkpoint, detector) on a prioritized
:class:`~repro.service.scheduler.JobQueue`, and drains the queue through the
scheduler's batch driver — the same resolve → cache plan → backend → store
path ``python -m repro scan`` takes.  Verdicts land in the (usually sharded)
result store — so any number of daemons and ad-hoc ``python -m repro scan``
invocations can share one store — and a JSON stats endpoint file (scans
served, cache-hit ratio, p50/p95 scan latency, failure and retry counts) is
rewritten atomically after every loop iteration for ``python -m repro
report`` and external monitors to consume.

The daemon's scheduler runs on the ``pool`` backend by default, one job at a
time: each attempt runs in a forked child that is *killed* at its deadline,
a failed or killed attempt is retried at once in a fresh child up to the
configured budget and counted as a failure past it, while the loop keeps
serving the rest of the queue.

A checkpoint is only enqueued once its (mtime, size) signature has stayed
stable for ``settle_polls`` consecutive polls, so half-copied files are never
scanned; rewriting a checkpoint re-triggers a scan (a changed file changes
its fingerprint, so the store treats it as a new model).
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import build_service_registry
from ..obs.trace import TRACER, new_trace_id
from ..utils.logging import get_logger
from .locks import atomic_write
from .records import ScanRequest
from .repair import RepairRequest, run_repairs
from .scheduler import JobQueue, ScanScheduler, _utc_now
from .store import METRICS_NAME, SPANS_NAME, STATS_NAME, open_store, sidecar_path

__all__ = ["CheckpointWatcher", "DaemonConfig", "WatchDaemon", "ScanJob",
           "RepairJob"]

_LOG = get_logger("repro.service.daemon")

#: Version tag written into the stats payload so consumers can evolve.
STATS_FORMAT = 1


#: File-name patterns the watcher skips by default: the repair pipeline's
#: own outputs (see :func:`repro.service.repair.default_repair_output`).
#: Without this an auto-repair daemon would re-ingest every repaired
#: checkpoint it writes into the drop directory — and, whenever a repaired
#: model is flagged again, loop repairing its own outputs forever.
DEFAULT_IGNORE_PATTERNS = ("*.repaired-*.npz",)


class CheckpointWatcher:
    """Polls a directory for new or changed checkpoint files.

    Args:
        directory: Drop directory to watch (non-recursive).
        patterns: ``fnmatch`` patterns a file name must match.
        ignore_patterns: Patterns to skip even when ``patterns`` match
            (default: the repair pipeline's ``*.repaired-*.npz`` outputs).
        settle_polls: Consecutive polls a file's (mtime, size) signature must
            stay unchanged before it is reported — protects against scanning
            half-copied checkpoints.  ``0`` reports files immediately.

    Each :meth:`poll` returns the paths that became *ready* since the last
    report: brand-new files and files whose content signature changed (which
    re-arms them).
    """

    def __init__(self, directory: str, patterns: Sequence[str] = ("*.npz",),
                 settle_polls: int = 1,
                 ignore_patterns: Sequence[str] = DEFAULT_IGNORE_PATTERNS
                 ) -> None:
        self.directory = os.fspath(directory)
        self.patterns = tuple(patterns)
        self.ignore_patterns = tuple(ignore_patterns)
        self.settle_polls = int(settle_polls)
        #: path -> (signature, polls the signature has been stable for).
        self._seen: Dict[str, Tuple[Tuple[int, int], int]] = {}
        #: path -> signature last reported to the caller.
        self._reported: Dict[str, Tuple[int, int]] = {}

    def _matches(self, name: str) -> bool:
        if any(fnmatch.fnmatch(name, pattern)
               for pattern in self.ignore_patterns):
            return False
        return any(fnmatch.fnmatch(name, pattern) for pattern in self.patterns)

    def poll(self) -> List[str]:
        """One polling pass; returns newly ready checkpoint paths (sorted)."""
        ready: List[str] = []
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return ready
        live = set()
        for name in names:
            if not self._matches(name):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            live.add(path)
            signature = (stat.st_mtime_ns, stat.st_size)
            previous = self._seen.get(path)
            if previous is None or previous[0] != signature:
                stable = 0
            else:
                stable = previous[1] + 1
            self._seen[path] = (signature, stable)
            if stable >= self.settle_polls and self._reported.get(path) != signature:
                self._reported[path] = signature
                ready.append(path)
        # Forget deleted files so a re-drop of the same name re-triggers.
        for path in list(self._seen):
            if path not in live:
                self._seen.pop(path, None)
                self._reported.pop(path, None)
        return ready


@dataclass(frozen=True)
class ScanJob:
    """One queued daemon job: scan ``checkpoint`` with ``detector``."""

    checkpoint: str
    detector: str


@dataclass(frozen=True)
class RepairJob:
    """One queued auto-repair job: repair ``checkpoint`` flagged by ``detector``."""

    checkpoint: str
    detector: str


@dataclass
class DaemonConfig:
    """Everything ``python -m repro watch`` configures.

    Args:
        watch_dir: Drop directory to poll for checkpoints.
        store_path: Result store (any :func:`repro.service.open_store`
            layout; an extension-less path creates a sharded store).
        detectors: Detectors run against every checkpoint.
        poll_interval: Seconds between directory polls.
        job_timeout: Wall-clock budget per job attempt; the ``pool`` child
            running it is killed at the deadline.  ``None`` disables it.
        max_retries: Bounded retry budget per job after a failure or
            timeout; on ``pool`` each retry runs at once in a fresh child.
        settle_polls: See :class:`CheckpointWatcher`.
        patterns: File-name patterns treated as checkpoints.
        stats_path: Stats endpoint file (default: ``stats.json`` beside the
            store, see :func:`~repro.service.store.sidecar_path`).
        request_options: Extra :class:`~repro.service.records.ScanRequest`
            fields applied to every job (scan budgets, classes, scenario...).
        auto_repair: When True, every checkpoint a scan flags as backdoored
            is queued for a detect -> repair -> verify job (behind the
            remaining scans), with the repaired checkpoint written next to
            the original and a :class:`~repro.service.records.RepairRecord`
            persisted to the store.
        repair_options: Extra :class:`~repro.service.repair.RepairRequest`
            fields for auto-repair jobs (strategy, budgets, guardrail...).
        telemetry: Record trace spans (``spans.jsonl`` beside the store) and
            export ``metrics.prom`` each cycle.  ``None`` follows the
            ``REPRO_TELEMETRY`` environment switch.
        backend: Execution backend for queued jobs: ``None``/``"pool"``
            runs each attempt in a killable forked child, one at a time;
            ``"fleet"`` hands jobs to the store-adjacent worker fleet (see
            :mod:`repro.service.fleet`), and ``"inline"`` runs them in the
            daemon process (tests; timeouts unenforceable).
    """

    watch_dir: str
    store_path: str
    detectors: Sequence[str] = ("usb",)
    poll_interval: float = 2.0
    job_timeout: Optional[float] = None
    max_retries: int = 1
    settle_polls: int = 1
    patterns: Sequence[str] = ("*.npz",)
    stats_path: Optional[str] = None
    request_options: Dict[str, Any] = field(default_factory=dict)
    auto_repair: bool = False
    repair_options: Dict[str, Any] = field(default_factory=dict)
    telemetry: Optional[bool] = None
    backend: Optional[str] = None


class WatchDaemon:
    """The ``python -m repro watch`` loop: poll, enqueue, scan, publish stats.

    Args:
        config: See :class:`DaemonConfig`.  The daemon builds its
            :class:`~repro.service.scheduler.ScanScheduler` around
            ``config.store_path`` — the configured backend (``pool`` by
            default), the job timeout, ``max_retries`` as the retry budget,
            and the store's span sidecar; that scheduler's
            :class:`~repro.service.scheduler.ServiceMetrics` is what the
            stats endpoint publishes.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.spans_path = sidecar_path(config.store_path, SPANS_NAME)
        self.metrics_path = sidecar_path(config.store_path, METRICS_NAME)
        self.scheduler = ScanScheduler(store=open_store(config.store_path),
                                       job_timeout=config.job_timeout,
                                       job_retries=config.max_retries,
                                       telemetry=config.telemetry,
                                       span_sink=self.spans_path,
                                       backend=config.backend or "pool")
        self.telemetry = self.scheduler.telemetry
        if self.telemetry:
            TRACER.enable()
        self.watcher = CheckpointWatcher(config.watch_dir,
                                         patterns=config.patterns,
                                         settle_polls=config.settle_polls)
        self.queue = JobQueue()
        self.stats_path = config.stats_path or sidecar_path(
            config.store_path, STATS_NAME)
        #: Checkpoints ever reported ready by the watcher.
        self.checkpoints_seen = 0
        #: Completed loop iterations (polls).
        self.iterations = 0
        #: Auto-repair jobs completed (fresh computations, not cache hits).
        self.repairs_completed = 0

    # ------------------------------------------------------------------ #
    # Queue handling
    # ------------------------------------------------------------------ #
    def _enqueue(self, checkpoint: str) -> None:
        """Queue one job per configured detector for a ready checkpoint."""
        self.checkpoints_seen += 1
        for priority, detector in enumerate(self.config.detectors):
            self.queue.push(ScanJob(checkpoint=checkpoint, detector=detector),
                            priority=priority)
            _LOG.info("queued %s [%s]", checkpoint, detector)

    def _request_for(self, job: Union[ScanJob, RepairJob]) -> ScanRequest:
        """Build the :class:`ScanRequest` a queued job resolves to."""
        return ScanRequest(checkpoint=job.checkpoint, detector=job.detector,
                           **self.config.request_options)

    def _repair_request_for(self, job: RepairJob) -> RepairRequest:
        """Build the :class:`RepairRequest` an auto-repair job resolves to."""
        return RepairRequest(scan=self._request_for(job),
                             **self.config.repair_options)

    def _enqueue_repair(self, job: ScanJob) -> None:
        """Queue an auto-repair for a flagged checkpoint, behind the scans."""
        detectors = list(self.config.detectors)
        priority = len(detectors) + (detectors.index(job.detector)
                                     if job.detector in detectors else 0)
        self.queue.push(RepairJob(checkpoint=job.checkpoint,
                                  detector=job.detector), priority=priority)
        _LOG.info("queued auto-repair for %s [%s]", job.checkpoint,
                  job.detector)

    def _process(self, job: Union[ScanJob, RepairJob]) -> None:
        """Run one queued job through the scheduler's batch driver.

        The scheduler does the cache lookup, the backend execution with its
        retries, the store append and the metrics; this method only
        builds the request under a ``daemon.job`` root span.  Scan jobs that
        come back BACKDOORED enqueue an auto-repair job (when
        ``auto_repair`` is on) behind the remaining scans.
        """
        is_repair = isinstance(job, RepairJob)
        # Each job is one trace: the scheduler's request root and whatever
        # the worker process records hang under this daemon.job span.
        root = (TRACER.begin("daemon.job", trace_id=new_trace_id(),
                             checkpoint=job.checkpoint, detector=job.detector,
                             kind="repair" if is_repair else "scan")
                if self.telemetry else None)
        try:
            with TRACER.context_of(root):
                if is_repair:
                    record = run_repairs(self.scheduler,
                                         [self._repair_request_for(job)])[0]
                else:
                    record = self.scheduler.scan_one(self._request_for(job))
        # The liveness boundary: a bad file, a timeout or any detector error
        # was already counted by the driver; log it and keep watching.
        except Exception as error:  # repro-lint: disable=exception-hygiene
            _LOG.error("%s [%s]: giving up: %s", job.checkpoint,
                       job.detector, error, exc_info=True)
            return
        finally:
            if root is not None:
                TRACER.finish(root)
                TRACER.flush(self.spans_path)
        if record.cache_hit:
            _LOG.info("%s [%s]: cache hit", job.checkpoint, job.detector)
        elif is_repair:
            self.repairs_completed += 1
            _LOG.info("%s [%s] repair -> %s (%.1fs)", job.checkpoint,
                      job.detector,
                      "success" if record.success else "NOT repaired",
                      record.seconds)
        else:
            _LOG.info("%s [%s] -> %s (%.1fs)", job.checkpoint, job.detector,
                      "BACKDOORED" if record.is_backdoored else "clean",
                      record.seconds)
        if not is_repair and self.config.auto_repair and record.is_backdoored:
            self._enqueue_repair(job)

    # ------------------------------------------------------------------ #
    # Loop
    # ------------------------------------------------------------------ #
    def run_once(self) -> int:
        """One iteration: poll the drop dir, drain the queue, publish stats.

        Returns:
            Number of jobs taken off the queue this iteration.
        """
        for checkpoint in self.watcher.poll():
            self._enqueue(checkpoint)
        processed = 0
        while self.queue:
            self._process(self.queue.pop().payload)
            processed += 1
        self.iterations += 1
        self.write_stats()
        return processed

    def run(self, max_iterations: Optional[int] = None) -> Dict[str, Any]:
        """Run the polling loop until interrupted (or for ``max_iterations``).

        Args:
            max_iterations: Stop after this many polls; ``None`` (production)
                loops until ``KeyboardInterrupt``.

        Returns:
            The final stats payload (also on disk at ``stats_path``).
        """
        try:
            while max_iterations is None or self.iterations < max_iterations:
                self.run_once()
                if max_iterations is not None and \
                        self.iterations >= max_iterations:
                    break
                time.sleep(self.config.poll_interval)
        except KeyboardInterrupt:
            _LOG.info("interrupted — writing final stats.")
            self.write_stats()
        return self.stats()

    # ------------------------------------------------------------------ #
    # Stats endpoint
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """The current stats payload (the endpoint-file schema)."""
        payload: Dict[str, Any] = {"format": STATS_FORMAT}
        snapshot = self.scheduler.metrics.snapshot()
        payload.update(snapshot)
        # Nested copy of the same snapshot: the schema the metrics exporter
        # and ``report --json`` consume (the flat keys stay for older
        # readers of the endpoint file).
        payload["metrics"] = snapshot
        payload.update({
            "backend": self.scheduler.backend.name,
            "queue_depth": len(self.queue),
            "checkpoints_seen": self.checkpoints_seen,
            "repairs_completed": self.repairs_completed,
            "auto_repair": bool(self.config.auto_repair),
            "iterations": self.iterations,
            "watch_dir": os.path.abspath(self.config.watch_dir),
            "store_path": os.path.abspath(self.config.store_path),
            "updated_at": _utc_now(),
        })
        from .fleet import fleet_snapshot
        fleet = fleet_snapshot(self.config.store_path)
        if fleet is not None:
            payload["fleet"] = fleet
        return payload

    def write_stats(self) -> None:
        """Atomically rewrite the stats endpoint file (and ``metrics.prom``).

        The Prometheus exposition beside the store is rebuilt from the same
        inputs every cycle — store rows plus the stats payload — so a
        scrape never sees partially updated families.
        """
        stats = self.stats()
        atomic_write(self.stats_path,
                     json.dumps(stats, indent=2, sort_keys=True) + "\n")
        if not self.telemetry:
            return
        store = self.scheduler.store
        try:
            rows = ([record.to_dict() for record in store.scan_records()]
                    if store is not None else [])
            registry = build_service_registry(rows, stats)
            atomic_write(self.metrics_path, registry.render())
        # Telemetry export must never take the daemon down: any failure is
        # logged and the next cycle retries with fresh store rows.
        except Exception as error:  # repro-lint: disable=exception-hygiene
            _LOG.warning("metrics.prom export failed: %s", error)
