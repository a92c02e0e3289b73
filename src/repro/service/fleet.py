"""Lease-based distributed execution: a store-adjacent shared job queue.

``python -m repro worker <store>`` processes — N on one box, or N boxes
sharing a filesystem — coordinate through two append-only JSONL event
tables next to the result store (:func:`repro.service.store.sidecar_path`
with name ``fleet``):

* ``fleet/jobs.jsonl`` — job lifecycle events (``submit`` / ``done`` /
  ``error`` / ``failed``), results riding inline on ``done`` lines;
* ``fleet/leases.jsonl`` — ownership events (``acquire`` / ``renew`` /
  ``release`` / ``requeue``) and worker presence (``online`` /
  ``heartbeat`` / ``offline``, each stamped with the worker's host).

Every mutation appends one line under a single advisory
:class:`~repro.service.locks.FileLock` (``fleet/locks/fleet.lock``) using
the store's ``O_APPEND`` single-write idiom, and state is a pure replay of
the two logs — there is no server process to crash and nothing to repair
after one.

**Lease-based ownership.**  A worker *acquires* a job by stamping a lease
with a deadline (``now + lease_seconds``) and renews it from a heartbeat
thread while the job runs.  A lease whose deadline passes — worker killed,
hung, or partitioned — is *requeued by any reader* (submitter poll, another
worker's acquire, a metrics snapshot) up to the job's retry budget; past
the budget the job fails with the shared
:class:`~repro.service.planning.JobTimeoutError` semantics.  Results and
errors are ownership-checked under the lock, so a worker that lost its
lease can never publish over the current owner (no double ownership), and
a submitted job always ends ``done`` or ``failed`` (no lost jobs) — the
invariants ``tests/test_fleet.py`` drives with hypothesis.

**Liveness and the host's cores.**  A worker stays live for its TTL after
its last heartbeat, and every acquire and lease renewal is one, so a
worker busy on a long job still counts.  Each claim carries the number of
live workers announced from the claiming worker's host (itself included),
and the worker sizes its BLAS pool to that share of the cores before it
runs the job (:func:`repro.nn.blas.share_cores`), so N workers on one box
do not oversubscribe it.

:class:`FleetBackend` adapts the queue to the
:class:`~repro.service.backends.ExecutionBackend` contract: payloads are
encoded per registered :class:`JobKind` (scan / mega group / repair /
probe), results decode back into records with their trace spans intact, so
fleet scans stitch into the submitter's trace exactly as pool workers do.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Dict, List, Optional
from uuid import uuid4

from ..nn.blas import share_cores, threads
from ..utils.logging import get_logger
from .backends import ExecutionBackend
from .planning import JobTimeoutError, ServiceMetrics
from .records import ScanRequest, record_from_dict
from .repair import RepairRequest, ResolvedRepair, execute_repair
from .scheduler import (ResolvedScan, execute_mega_group, execute_resolved,
                        load_inversion_stack)
from .store import _append_line, sidecar_path
from .locks import FileLock

__all__ = ["FleetQueue", "FleetBackend", "FleetWorker", "run_worker",
           "LeaseLostError", "JobKind", "register_kind", "kind_for",
           "probe_job", "fleet_snapshot", "fleet_dir", "DEFAULT_TENANT",
           "DEFAULT_LEASE_SECONDS"]

_LOG = get_logger("repro.service.fleet")

#: Tenant label applied when a submitter does not name one.
DEFAULT_TENANT = "default"
#: Default lease duration: how long a worker may go silent before any
#: reader may requeue its job.
DEFAULT_LEASE_SECONDS = 30.0
#: Fleet table file names inside the fleet directory.
JOBS_NAME = "jobs.jsonl"
LEASES_NAME = "leases.jsonl"


class LeaseLostError(RuntimeError):
    """A worker acted on a job whose lease it no longer holds.

    Raised on ``renew`` / ``complete`` / ``error`` when the job was requeued
    (lease expired) or finished by another owner in the meantime.  The
    worker must discard its result — the queue's current owner is
    authoritative.
    """


def fleet_dir(store_path: str) -> str:
    """The fleet coordination directory for a store path (any layout)."""
    return sidecar_path(store_path, "fleet")


# ---------------------------------------------------------------------- #
# Job kinds: how payloads and results cross the process boundary
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class JobKind:
    """One executable job type the fleet understands.

    A kind binds a module-level function to JSON codecs for its payload and
    result, so a submitter and an independently-started worker agree on the
    wire format without sharing any Python state.
    """

    #: Wire name stamped on ``submit`` events.
    name: str
    #: Module-level function workers execute.
    fn: Callable[[Any], Any]
    #: Payload object -> JSON-safe dict.
    encode: Callable[[Any], Dict[str, Any]]
    #: JSON-safe dict -> payload object.
    decode: Callable[[Dict[str, Any]], Any]
    #: Result object -> JSON-safe value (rides on the ``done`` event).
    encode_result: Callable[[Any], Any]
    #: JSON-safe value -> result object.
    decode_result: Callable[[Any], Any]


_KINDS: Dict[str, JobKind] = {}


def register_kind(kind: JobKind) -> JobKind:
    """Register a :class:`JobKind` (tests add probe-like kinds this way)."""
    _KINDS[kind.name] = kind
    return kind


def kind_for(fn: Callable[[Any], Any]) -> JobKind:
    """The registered kind executing ``fn``.

    Raises:
        ValueError: ``fn`` has no registered fleet kind — only functions
            with JSON codecs can cross the fleet's wire format (the pool
            backend has no such restriction).
    """
    for kind in _KINDS.values():
        if kind.fn is fn:
            return kind
    raise ValueError(
        f"{getattr(fn, '__qualname__', fn)!r} has no registered fleet job "
        "kind; the fleet backend can only run functions with JSON payload "
        "codecs (use --backend inline|pool for arbitrary callables).")


def _encode_resolved_scan(item: ResolvedScan) -> Dict[str, Any]:
    """JSON payload for a resolved scan (transport fields included)."""
    return {
        "request": item.request.to_dict(),
        "model": item.model,
        "dataset": item.dataset,
        "image_size": item.image_size,
        "fingerprint": item.fingerprint,
        "config_digest": item.config_digest,
        "key": item.key,
        "model_kwargs": dict(item.model_kwargs),
        "trace_id": item.trace_id,
        "parent_span_id": item.parent_span_id,
    }


def _decode_resolved_scan(payload: Dict[str, Any]) -> ResolvedScan:
    """Rebuild a :class:`ResolvedScan` from its wire payload."""
    return ResolvedScan(
        request=ScanRequest.from_dict(dict(payload["request"])),
        model=payload["model"],
        dataset=payload["dataset"],
        image_size=int(payload["image_size"]),
        fingerprint=payload["fingerprint"],
        config_digest=payload["config_digest"],
        key=payload["key"],
        model_kwargs=dict(payload.get("model_kwargs") or {}),
        trace_id=payload.get("trace_id", ""),
        parent_span_id=payload.get("parent_span_id", ""))


def _encode_resolved_repair(item: ResolvedRepair) -> Dict[str, Any]:
    """JSON payload for a resolved repair job, resolution included.

    The nested scan resolution, repair digest, cache key and output path
    all cross the wire, so the worker never re-reads or re-hashes the
    checkpoint and runs under exactly the key the submitter planned.
    """
    return {
        "request": item.request.to_dict(),
        "scan": _encode_resolved_scan(item.scan),
        "config_digest": item.config_digest,
        "key": item.key,
        "output": item.output,
        "trace_id": item.trace_id,
        "parent_span_id": item.parent_span_id,
    }


def _decode_resolved_repair(payload: Dict[str, Any]) -> ResolvedRepair:
    """Rebuild a :class:`ResolvedRepair` from its wire payload."""
    return ResolvedRepair(
        request=RepairRequest.from_dict(dict(payload["request"])),
        scan=_decode_resolved_scan(payload["scan"]),
        config_digest=payload["config_digest"],
        key=payload["key"],
        output=payload["output"],
        trace_id=payload.get("trace_id", ""),
        parent_span_id=payload.get("parent_span_id", ""))


def probe_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Diagnostic fleet job: sleep, maybe fail, report pid and BLAS pool.

    The smoke harness and the kill-a-worker test use probes to exercise the
    lease machinery without paying for a model scan.  ``payload`` knobs:
    ``sleep`` (seconds), ``fail`` (error message to raise), ``value``
    (echoed back).  The result also carries ``blas_threads``, the
    executing process's BLAS pool size (``None`` without OpenBLAS).
    """
    duration = float(payload.get("sleep", 0.0) or 0.0)
    if duration > 0:
        time.sleep(duration)
    if payload.get("fail"):
        raise RuntimeError(str(payload["fail"]))
    return {"value": payload.get("value"), "pid": os.getpid(),
            "blas_threads": threads()}


register_kind(JobKind(
    name="scan", fn=execute_resolved,
    encode=_encode_resolved_scan, decode=_decode_resolved_scan,
    encode_result=lambda record: record.to_dict(),
    decode_result=lambda payload: record_from_dict(dict(payload))))
register_kind(JobKind(
    name="mega", fn=execute_mega_group,
    encode=lambda group: {"group": [_encode_resolved_scan(item)
                                    for item in group]},
    decode=lambda payload: [_decode_resolved_scan(item)
                            for item in payload["group"]],
    encode_result=lambda records: [record.to_dict() for record in records],
    decode_result=lambda payloads: [record_from_dict(dict(payload))
                                    for payload in payloads]))
register_kind(JobKind(
    name="repair", fn=execute_repair,
    encode=_encode_resolved_repair, decode=_decode_resolved_repair,
    encode_result=lambda record: record.to_dict(),
    decode_result=lambda payload: record_from_dict(dict(payload))))
register_kind(JobKind(
    name="probe", fn=probe_job,
    encode=dict, decode=dict,
    encode_result=dict, decode_result=dict))


# ---------------------------------------------------------------------- #
# Replayed queue state
# ---------------------------------------------------------------------- #
@dataclass
class FleetJob:
    """Replayed state of one submitted job (event-log projection)."""

    job_id: str
    kind: str
    payload: Dict[str, Any]
    tenant: str
    priority: int
    retries: int
    sequence: int
    #: Executions started so far (one per ``acquire`` event).
    attempts: int = 0
    #: Current lease holder (``None`` when queued or terminal).
    owner: Optional[str] = None
    #: Lease expiry timestamp while leased.
    deadline: float = 0.0
    done: bool = False
    failed: bool = False
    #: Whether the terminal failure came from lease expiry (vs a job error).
    expired: bool = False
    result: Any = None
    error: str = ""
    #: Non-terminal attempt errors seen so far (diagnostics only).
    attempt_errors: List[str] = dataclass_field(default_factory=list)

    @property
    def status(self) -> str:
        """``queued`` / ``leased`` / ``done`` / ``failed``."""
        if self.done:
            return "done"
        if self.failed:
            return "failed"
        if self.owner is not None:
            return "leased"
        return "queued"


@dataclass
class FleetClaim:
    """What :meth:`FleetQueue.acquire` hands a worker: one leased job."""

    job_id: str
    kind: str
    payload: Dict[str, Any]
    attempts: int
    retries: int
    deadline: float
    #: Live workers announced from the claiming worker's host, itself
    #: included (presence events without a host count as another host).
    host_workers: int


class FleetQueue:
    """The shared job/lease tables: event-sourced, single-lock, replayed.

    Every public method takes the fleet lock, replays any events appended
    since the last call (both tables grow append-only, so replay is
    incremental from cached byte offsets), reaps expired leases, performs
    its mutation as one or more appended events, and re-replays — in-memory
    state is therefore never updated except through the log, and every
    process sharing the directory converges on the same state.

    Instances are thread-safe: an in-process mutex fronts the file lock,
    because ``flock`` only excludes across open file descriptions — two
    threads sharing one instance (and therefore one descriptor) would
    otherwise race the replay offsets.

    Args:
        store_path: The result-store path the fleet coordinates next to
            (tables live in :func:`fleet_dir` of this path).
        lock_timeout: Seconds to wait for the fleet lock.
        clock: Time source (injectable for the lease state-machine tests;
            production uses ``time.time`` so deadlines are comparable
            across machines sharing a filesystem).
        reader_id: Label stamped on requeue/fail events this reader writes
            (defaults to ``<host>:<pid>``).

    Attributes:
        host: Host name stamped on this instance's presence events
            (``os.uname().nodename``); claims count live workers per host.
    """

    def __init__(self, store_path: str, lock_timeout: Optional[float] = 30.0,
                 clock: Callable[[], float] = time.time,
                 reader_id: Optional[str] = None) -> None:
        self.path = fleet_dir(store_path)
        self.clock = clock
        self.host = os.uname().nodename
        self.reader_id = reader_id or f"{self.host}:{os.getpid()}"
        self._mutex = threading.RLock()
        self._lock = FileLock(os.path.join(self.path, "locks", "fleet.lock"),
                              timeout=lock_timeout)
        self._jobs_path = os.path.join(self.path, JOBS_NAME)
        self._leases_path = os.path.join(self.path, LEASES_NAME)
        self._offsets = {self._jobs_path: 0, self._leases_path: 0}
        self._jobs: Dict[str, FleetJob] = {}
        self._sequence = 0
        #: worker id -> [pid, liveness deadline, offline flag, host].
        self._workers: Dict[str, List[Any]] = {}
        self._leases_expired = 0
        self._leases_requeued = 0
        os.makedirs(os.path.join(self.path, "locks"), exist_ok=True)

    # ------------------------------------------------------------------ #
    # Event log plumbing
    # ------------------------------------------------------------------ #
    def _append(self, path: str, event: Dict[str, Any]) -> None:
        """Append one event line (the caller must hold the fleet lock)."""
        event = dict(event)
        event["ts"] = self.clock()
        _append_line(path, (json.dumps(event, sort_keys=True) + "\n"
                            ).encode("utf-8"))

    def _refresh(self) -> None:
        """Replay events appended since the last refresh (lock held)."""
        self._refresh_file(self._jobs_path, self._apply_job_event)
        self._refresh_file(self._leases_path, self._apply_lease_event)

    def _refresh_file(self, path: str,
                      apply: Callable[[Dict[str, Any]], None]) -> None:
        offset = self._offsets[path]
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            handle.seek(offset)
            chunk = handle.read()
        consumed = 0
        for line in chunk.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # incomplete tail; re-read next refresh
            consumed += len(line.encode("utf-8"))
            text = line.strip()
            if not text:
                continue
            try:
                event = json.loads(text)
            except json.JSONDecodeError:
                _LOG.warning("%s: skipped unreadable fleet event line.", path)
                continue
            apply(event)
        self._offsets[path] = offset + consumed

    def _apply_job_event(self, event: Dict[str, Any]) -> None:
        name = event.get("event")
        if name == "submit":
            job_id = event["job"]
            self._jobs[job_id] = FleetJob(
                job_id=job_id, kind=event.get("kind", ""),
                payload=event.get("payload") or {},
                tenant=event.get("tenant", DEFAULT_TENANT),
                priority=int(event.get("priority", 0)),
                retries=int(event.get("retries", 0)),
                sequence=self._sequence)
            self._sequence += 1
            return
        job = self._jobs.get(event.get("job", ""))
        if job is None:
            return
        if name == "done":
            job.done = True
            job.result = event.get("result")
            job.owner = None
        elif name == "error":
            job.attempt_errors.append(str(event.get("error", "")))
        elif name == "failed":
            job.failed = True
            job.error = str(event.get("error", ""))
            job.expired = bool(event.get("expired", False))
            if job.expired:
                self._leases_expired += 1
            job.owner = None

    def _apply_lease_event(self, event: Dict[str, Any]) -> None:
        name = event.get("event")
        if name in ("online", "heartbeat", "offline"):
            worker = event.get("worker", "")
            if name == "offline":
                if worker in self._workers:
                    self._workers[worker][2] = True
                return
            self._workers[worker] = [event.get("pid"),
                                     float(event.get("deadline", 0.0)), False,
                                     event.get("host")]
            return
        job = self._jobs.get(event.get("job", ""))
        if job is None:
            return
        if name == "acquire":
            job.attempts += 1
            job.owner = event.get("worker")
            job.deadline = float(event.get("deadline", 0.0))
        elif name == "renew":
            job.deadline = float(event.get("deadline", 0.0))
            worker = self._workers.get(event.get("worker", ""))
            if worker is not None and "worker_deadline" in event:
                worker[1] = float(event["worker_deadline"])
        elif name == "requeue":
            job.owner = None
            self._leases_requeued += 1
            if event.get("reason") == "expired":
                self._leases_expired += 1
        elif name == "release":
            job.owner = None

    # ------------------------------------------------------------------ #
    # Lease reaping (any reader may requeue an expired lease)
    # ------------------------------------------------------------------ #
    def _reap(self) -> None:
        """Requeue or fail every job whose lease deadline passed (lock held)."""
        now = self.clock()
        for job in list(self._jobs.values()):
            if job.status != "leased" or job.deadline > now:
                continue
            if job.attempts >= job.retries + 1:
                _LOG.warning("fleet job %s: lease expired on final attempt "
                             "%d; failing.", job.job_id, job.attempts)
                self._append(self._jobs_path, {
                    "event": "failed", "job": job.job_id,
                    "by": self.reader_id, "expired": True,
                    "error": (f"lease expired after {job.attempts} "
                              f"attempt(s) of {job.retries + 1} "
                              f"(last worker: {job.owner})")})
            else:
                _LOG.warning("fleet job %s: lease held by %s expired; "
                             "requeueing (attempt %d/%d).", job.job_id,
                             job.owner, job.attempts, job.retries + 1)
                self._append(self._leases_path, {
                    "event": "requeue", "job": job.job_id,
                    "by": self.reader_id, "reason": "expired"})
        self._refresh()

    def _live_hosts(self) -> List[Optional[str]]:
        """The host of every live worker, one entry per worker (lock held)."""
        now = self.clock()
        return [host for _, deadline, offline, host in self._workers.values()
                if not offline and deadline > now]

    def _require_owner(self, job_id: str, worker: str) -> FleetJob:
        """The live job leased to ``worker``, or raise :class:`LeaseLostError`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise LeaseLostError(f"{job_id}: unknown job.")
        if job.status != "leased" or job.owner != worker:
            raise LeaseLostError(
                f"{job_id}: lease no longer held by {worker} "
                f"(status={job.status}, owner={job.owner}).")
        return job

    # ------------------------------------------------------------------ #
    # Submitter API
    # ------------------------------------------------------------------ #
    def submit(self, kind: str, payload: Dict[str, Any],
               tenant: str = DEFAULT_TENANT, priority: int = 0,
               retries: int = 0) -> str:
        """Enqueue one job; returns its fleet job id.

        Args:
            kind: Registered :class:`JobKind` wire name.
            payload: JSON-safe job payload (already encoded).
            tenant: Queue-depth attribution label (the HTTP API stamps its
                per-job tenant here).
            priority: Lower runs first; FIFO within a priority.
            retries: Re-execution budget after failures/expiries — the same
                semantics as the inline and pool backends.
        """
        job_id = f"job-{uuid4().hex[:12]}"
        with self._mutex, self._lock:
            self._refresh()
            self._append(self._jobs_path, {
                "event": "submit", "job": job_id, "kind": kind,
                "payload": payload, "tenant": tenant,
                "priority": int(priority), "retries": int(retries)})
            self._refresh()
        return job_id

    def poll(self, job_ids: Optional[List[str]] = None) -> Dict[str, FleetJob]:
        """Current state of ``job_ids`` (or every job), reaping stale leases."""
        with self._mutex, self._lock:
            self._refresh()
            self._reap()
            if job_ids is None:
                return {job_id: job for job_id, job in self._jobs.items()}
            return {job_id: self._jobs[job_id] for job_id in job_ids
                    if job_id in self._jobs}

    # ------------------------------------------------------------------ #
    # Worker API
    # ------------------------------------------------------------------ #
    def announce(self, worker: str, pid: int, ttl: float,
                 online: bool = True) -> None:
        """Record worker presence (``online``/``offline`` + liveness TTL)."""
        with self._mutex, self._lock:
            self._refresh()
            if online:
                self._append(self._leases_path, {
                    "event": "online", "worker": worker, "pid": int(pid),
                    "host": self.host, "deadline": self.clock() + float(ttl)})
            else:
                self._append(self._leases_path, {
                    "event": "offline", "worker": worker})
            self._refresh()

    def acquire(self, worker: str, pid: int, lease_seconds: float,
                worker_ttl: Optional[float] = None) -> Optional[FleetClaim]:
        """Lease the front queued job to ``worker`` (``None`` when idle).

        One locked round trip: heartbeat the worker, reap expired leases
        (possibly requeueing work this very call then claims), pick the
        lowest ``(priority, sequence)`` queued job, and stamp its lease.
        The claim counts the live workers on this queue's host.
        """
        with self._mutex, self._lock:
            self._refresh()
            self._append(self._leases_path, {
                "event": "heartbeat", "worker": worker, "pid": int(pid),
                "host": self.host,
                "deadline": self.clock() + float(worker_ttl or
                                                 3 * lease_seconds)})
            self._refresh()
            self._reap()
            queued = [job for job in self._jobs.values()
                      if job.status == "queued"]
            if not queued:
                return None
            job = min(queued, key=lambda j: (j.priority, j.sequence))
            deadline = self.clock() + float(lease_seconds)
            self._append(self._leases_path, {
                "event": "acquire", "job": job.job_id, "worker": worker,
                "pid": int(pid), "deadline": deadline})
            self._refresh()
            return FleetClaim(job_id=job.job_id, kind=job.kind,
                              payload=job.payload, attempts=job.attempts,
                              retries=job.retries, deadline=job.deadline,
                              host_workers=self._live_hosts().count(
                                  self.host))

    def renew(self, job_id: str, worker: str, lease_seconds: float,
              worker_ttl: Optional[float] = None) -> float:
        """Extend a held lease; returns the new deadline.

        A renewal is also a heartbeat: it extends the worker's liveness by
        ``worker_ttl`` (default ``3 * lease_seconds``, as on acquire), so a
        worker busy on a long job stays live.

        Raises:
            LeaseLostError: The lease expired and was requeued (or finished
                by another owner) — the worker should abandon the job.
        """
        with self._mutex, self._lock:
            self._refresh()
            self._reap()
            self._require_owner(job_id, worker)
            deadline = self.clock() + float(lease_seconds)
            self._append(self._leases_path, {
                "event": "renew", "job": job_id, "worker": worker,
                "deadline": deadline,
                "worker_deadline": self.clock() + float(worker_ttl or
                                                        3 * lease_seconds)})
            self._refresh()
            return deadline

    def complete(self, job_id: str, worker: str, result: Any) -> None:
        """Publish a result, ownership-checked.

        Raises:
            LeaseLostError: ``worker`` no longer owns the job; the result
                is discarded so two owners can never both publish.
        """
        with self._mutex, self._lock:
            self._refresh()
            self._reap()
            self._require_owner(job_id, worker)
            self._append(self._jobs_path, {
                "event": "done", "job": job_id, "worker": worker,
                "result": result})
            self._refresh()

    def error(self, job_id: str, worker: str, message: str) -> None:
        """Record a failed attempt, releasing (or exhausting) the job.

        Within budget the job returns to the queue; on the final attempt it
        fails terminally with ``message``.

        Raises:
            LeaseLostError: ``worker`` no longer owns the job.
        """
        with self._mutex, self._lock:
            self._refresh()
            self._reap()
            job = self._require_owner(job_id, worker)
            if job.attempts >= job.retries + 1:
                self._append(self._jobs_path, {
                    "event": "failed", "job": job_id, "worker": worker,
                    "expired": False, "error": str(message)})
            else:
                self._append(self._jobs_path, {
                    "event": "error", "job": job_id, "worker": worker,
                    "error": str(message)})
                self._append(self._leases_path, {
                    "event": "release", "job": job_id, "worker": worker})
            self._refresh()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Fleet gauges/counters for ``/metrics`` and ``repro report``.

        Reaps first — a snapshot is "any reader" too, so a dead worker's
        leases are requeued even when only a dashboard is watching.
        """
        with self._mutex, self._lock:
            self._refresh()
            self._reap()
            by_status: Dict[str, int] = {"queued": 0, "leased": 0, "done": 0,
                                         "failed": 0}
            depth: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] += 1
                if job.status in ("queued", "leased"):
                    depth[job.tenant] = depth.get(job.tenant, 0) + 1
            return {
                "backend": "fleet",
                "workers_live": len(self._live_hosts()),
                "workers_seen": len(self._workers),
                "leases_held": by_status["leased"],
                "leases_expired_total": self._leases_expired,
                "leases_requeued_total": self._leases_requeued,
                "jobs_queued": by_status["queued"],
                "jobs_done": by_status["done"],
                "jobs_failed": by_status["failed"],
                "queue_depth": dict(sorted(depth.items())),
            }


def fleet_snapshot(store_path: str) -> Optional[Dict[str, Any]]:
    """The fleet snapshot for a store, or ``None`` when no fleet ran.

    ``repro report``, ``repro metrics``, and ``GET /metrics`` call this to
    decide whether to render fleet families: a store that never hosted a
    fleet has no ``fleet/`` directory and gets none.
    """
    directory = fleet_dir(store_path)
    if not os.path.isdir(directory):
        return None
    return FleetQueue(store_path).snapshot()


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
class FleetWorker:
    """One fleet worker: pull, lease, heartbeat, execute, publish, repeat.

    Before each job the worker sizes its BLAS pool to its share of the
    host's cores, one share per live worker announced from this host (the
    claim's ``host_workers``), and logs the size whenever it changes.

    Args:
        store_path: Store whose fleet tables to serve.
        worker_id: Stable identity on lease/presence events (default
            ``worker-<8 hex>``; pass an explicit id to survive restarts as
            "the same" worker in dashboards).
        lease_seconds: Lease duration stamped on acquire and each renewal.
        heartbeat_seconds: Renewal cadence (default ``lease_seconds / 3``,
            so two missed beats still keep the lease alive).
        poll_interval: Idle sleep between acquire attempts.
        max_jobs: Exit after this many executed jobs (``None`` = forever);
            the smoke harness uses ``1`` to force distinct worker pids.
        idle_timeout: Exit after this many seconds without work (``None`` =
            wait forever).
    """

    def __init__(self, store_path: str, worker_id: Optional[str] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 heartbeat_seconds: Optional[float] = None,
                 poll_interval: float = 0.2,
                 max_jobs: Optional[int] = None,
                 idle_timeout: Optional[float] = None) -> None:
        self.queue = FleetQueue(store_path)
        self.worker_id = worker_id or f"worker-{uuid4().hex[:8]}"
        self.lease_seconds = float(lease_seconds)
        self.heartbeat_seconds = float(heartbeat_seconds
                                       if heartbeat_seconds is not None
                                       else max(0.05, lease_seconds / 3.0))
        self.poll_interval = float(poll_interval)
        self.max_jobs = max_jobs
        self.idle_timeout = idle_timeout
        self.jobs_executed = 0
        #: Liveness TTL stamped on announce, acquire and every renewal.
        self._ttl = 3 * self.heartbeat_seconds + self.lease_seconds
        self._blas_threads: Optional[int] = None

    def _renewal_loop(self, job_id: str, stop: threading.Event,
                      lost: threading.Event) -> None:
        """Heartbeat thread body: renew until stopped or the lease is lost."""
        while not stop.wait(self.heartbeat_seconds):
            try:
                self.queue.renew(job_id, self.worker_id, self.lease_seconds,
                                 worker_ttl=self._ttl)
            except LeaseLostError:
                lost.set()
                return

    def _execute(self, claim: FleetClaim) -> None:
        """Run one claimed job under lease renewal and publish the outcome."""
        blas_threads = share_cores(claim.host_workers)
        if blas_threads != self._blas_threads:
            _LOG.info("%s: BLAS pool sized to %d thread(s) for %d live "
                      "worker(s) on this host.", self.worker_id, blas_threads,
                      claim.host_workers)
            self._blas_threads = blas_threads
        stop = threading.Event()
        lost = threading.Event()
        renewer = threading.Thread(
            target=self._renewal_loop, args=(claim.job_id, stop, lost),
            name=f"{self.worker_id}-renew", daemon=True)
        renewer.start()
        try:
            kind = _KINDS.get(claim.kind)
            if kind is None:
                raise ValueError(f"unknown fleet job kind '{claim.kind}' "
                                 "(worker build too old?)")
            result = kind.fn(kind.decode(claim.payload))
            encoded = kind.encode_result(result)
        except LeaseLostError:
            _LOG.warning("%s: lost lease on %s mid-run; discarding.",
                         self.worker_id, claim.job_id)
            return
        except Exception as error:  # repro-lint: disable=exception-hygiene
            # The worker loop is a keep-the-fleet-alive boundary: the error
            # is published to the queue (retry/fail decision happens there)
            # and the worker moves on to the next job.
            stop.set()
            renewer.join()
            _LOG.warning("%s: job %s attempt failed: %s", self.worker_id,
                         claim.job_id, error)
            try:
                self.queue.error(claim.job_id, self.worker_id,
                                 f"{type(error).__name__}: {error}")
            except LeaseLostError:
                _LOG.warning("%s: lost lease on %s before reporting its "
                             "error.", self.worker_id, claim.job_id)
            return
        finally:
            stop.set()
        renewer.join()
        if lost.is_set():
            _LOG.warning("%s: lease on %s expired mid-run; result discarded.",
                         self.worker_id, claim.job_id)
            return
        try:
            self.queue.complete(claim.job_id, self.worker_id, encoded)
        except LeaseLostError:
            _LOG.warning("%s: lost lease on %s at publish; result discarded.",
                         self.worker_id, claim.job_id)

    def run(self) -> int:
        """Serve the queue until ``max_jobs`` / ``idle_timeout``; returns jobs run."""
        # Import what a job runs before going live, so the first job does
        # not pay for it.
        load_inversion_stack()
        self.queue.announce(self.worker_id, os.getpid(), ttl=self._ttl)
        _LOG.info("%s: serving fleet at %s (lease %.1fs, heartbeat %.1fs).",
                  self.worker_id, self.queue.path, self.lease_seconds,
                  self.heartbeat_seconds)
        last_work = time.monotonic()
        try:
            while True:
                claim = self.queue.acquire(
                    self.worker_id, os.getpid(), self.lease_seconds,
                    worker_ttl=self._ttl)
                if claim is None:
                    if self.idle_timeout is not None and \
                            time.monotonic() - last_work >= self.idle_timeout:
                        break
                    time.sleep(self.poll_interval)
                    continue
                self._execute(claim)
                self.jobs_executed += 1
                last_work = time.monotonic()
                if self.max_jobs is not None and \
                        self.jobs_executed >= self.max_jobs:
                    break
        finally:
            self.queue.announce(self.worker_id, os.getpid(), ttl=0.0,
                                online=False)
        _LOG.info("%s: exiting after %d job(s).", self.worker_id,
                  self.jobs_executed)
        return self.jobs_executed


def run_worker(store_path: str, **options: Any) -> int:
    """Run one fleet worker to completion (the ``repro worker`` entry point).

    Args:
        store_path: Store whose fleet queue to serve.
        **options: Forwarded to :class:`FleetWorker`.

    Returns:
        Number of jobs the worker executed.
    """
    return FleetWorker(store_path, **options).run()


# ---------------------------------------------------------------------- #
# Backend adapter
# ---------------------------------------------------------------------- #
class FleetBackend(ExecutionBackend):
    """Run batches through the shared fleet queue (workers execute).

    The submitter never executes jobs itself: it encodes payloads, submits
    them, then polls — and polling makes it a lease reaper, so even with
    every worker dead the batch fails deterministically once retry budgets
    are spent instead of hanging on a silent lease.

    Args:
        store_path: Store whose fleet tables coordinate the work.
        poll_interval: Submitter poll sleep between queue checks.
        tenant: Tenant stamped on submitted jobs (the HTTP API overrides
            this per job for the per-tenant queue-depth gauge).
    """

    def __init__(self, store_path: str, poll_interval: float = 0.1,
                 tenant: str = DEFAULT_TENANT) -> None:
        self.store_path = os.fspath(store_path)
        self.poll_interval = float(poll_interval)
        self.tenant = tenant
        self.queue = FleetQueue(store_path)
        self.name = "fleet"

    def run(self, fn: Callable[[Any], Any], payloads: Any,
            timeout: Optional[float] = None, retries: int = 0,
            metrics: Optional[ServiceMetrics] = None) -> List[Any]:
        """Submit the batch to the fleet and wait for every verdict.

        ``timeout`` (the pool backends' per-job wall clock) is not enforced
        here — lease expiry already bounds a silent worker, and a *running*
        fleet worker renews its lease for as long as the job genuinely
        takes.
        """
        del timeout  # lease expiry is the fleet's liveness bound
        items = list(payloads)
        if not items:
            return []
        metrics = metrics if metrics is not None else ServiceMetrics()
        kind = kind_for(fn)
        job_ids = [self.queue.submit(kind.name, kind.encode(payload),
                                     tenant=self.tenant, retries=int(retries))
                   for payload in items]
        _LOG.info("fleet: submitted %d %s job(s) to %s.", len(job_ids),
                  kind.name, self.queue.path)
        last_warn = time.monotonic()
        while True:
            state = self.queue.poll(job_ids)
            if all(state[job_id].status in ("done", "failed")
                   for job_id in job_ids):
                break
            if time.monotonic() - last_warn >= 10.0:
                snap = self.queue.snapshot()
                if snap["workers_live"] == 0 and snap["leases_held"] == 0:
                    _LOG.warning(
                        "fleet: %d job(s) queued at %s but no live workers — "
                        "start some with `python -m repro worker <store>`.",
                        snap["jobs_queued"], self.queue.path)
                last_warn = time.monotonic()
            time.sleep(self.poll_interval)
        results: List[Any] = []
        for job_id in job_ids:
            job = state[job_id]
            metrics.retries += max(0, job.attempts - 1)
            if job.failed:
                metrics.failures += 1
                if job.expired:
                    raise JobTimeoutError(f"fleet job {job_id}: {job.error}")
                raise RuntimeError(f"fleet job {job_id}: {job.error}")
            results.append(kind.decode_result(job.result))
        return results
