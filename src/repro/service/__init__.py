"""Model-scanning service: fingerprints, cached results, parallel scheduling.

The service layer turns the in-process detectors into throughput:

* :mod:`repro.service.fingerprint` — content-addressed SHA-256 fingerprints
  of state dicts plus detector-config digests;
* :mod:`repro.service.records` — :class:`ScanRequest` / :class:`ScanRecord`,
  the picklable/JSON-safe units of work and result;
* :mod:`repro.service.locks` — advisory per-shard file locks and atomic
  file replacement, the multi-writer primitives;
* :mod:`repro.service.store` — result stores: the legacy single-file JSONL
  :class:`ResultStore` and the sharded, concurrent-writer
  :class:`ShardedResultStore` (pick via :func:`open_store`), both making
  repeat scans cache hits and both supporting ``compact`` / ``merge``;
* :mod:`repro.service.planning` — the backend-independent planning core:
  the prioritized :class:`JobQueue`, :class:`ServiceMetrics`, and the
  shared cache-lookup planner every execution path reuses;
* :mod:`repro.service.backends` — :class:`ExecutionBackend`, serial
  ``inline`` and ``pool``, which runs each job attempt in a forked child
  it kills at the deadline (pick via :func:`create_backend`);
* :mod:`repro.service.fleet` — the lease-based distributed worker fleet:
  a store-adjacent shared job queue (:class:`FleetQueue`), the
  ``python -m repro worker`` process (:class:`FleetWorker`), and the
  ``fleet`` execution backend (:class:`FleetBackend`);
* :mod:`repro.service.scheduler` — :class:`ScanScheduler`, which resolves
  cache keys in the parent and hands misses to its execution backend
  (``pool`` when ``workers > 1``) with per-job timeouts and bounded
  retries, accumulating :class:`ServiceMetrics`;
* :mod:`repro.service.repair` — cacheable detect -> repair -> verify jobs
  (:class:`RepairRequest` / :func:`run_repairs`) wrapping
  :mod:`repro.mitigation`, with atomically written repaired checkpoints and
  :class:`RepairRecord` persistence in the shared store;
* :mod:`repro.service.daemon` — :class:`WatchDaemon`, the long-running
  ``python -m repro watch`` loop over a checkpoint drop directory with a
  JSON stats endpoint and an opt-in auto-repair mode;
* :mod:`repro.service.routing` — strategy-routed triage
  (:class:`RoutingPolicy` / :func:`route_scan`): ``fastest`` /
  ``cheapest`` / ``thorough`` detector escalation plans with per-request
  cost breakdowns;
* :mod:`repro.service.api` — :class:`ApiServer`, the
  ``python -m repro serve`` HTTP front end (submit/poll/result/traces/
  metrics endpoints over the shared queue, scheduler, and store);
* :mod:`repro.service.cli` — the ``python -m repro`` command line
  (``scan`` / ``grid`` / ``repair`` / ``report`` / ``experiment`` /
  ``watch`` / ``serve`` / ``store compact`` / ``store merge``).
"""

from .api import ApiJob, ApiServer

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    InlineBackend,
    PoolBackend,
    create_backend,
)
from .daemon import CheckpointWatcher, DaemonConfig, WatchDaemon
from .fleet import (
    FleetBackend,
    FleetQueue,
    FleetWorker,
    LeaseLostError,
    fleet_snapshot,
    run_worker,
)
from .fingerprint import (
    digest_config,
    fingerprint_checkpoint,
    fingerprint_model,
    fingerprint_state_dict,
    scan_key,
)
from .locks import FileLock, LockTimeout, atomic_write
from .records import RepairRecord, ScanRecord, ScanRequest, record_from_dict
from .routing import (
    STRATEGIES,
    RoutingPolicy,
    TriageResult,
    escalation_reason,
    record_max_anomaly,
    route_scan,
)
from .repair import (
    RepairRequest,
    ResolvedRepair,
    atomic_save_model,
    execute_repair,
    resolve_repair,
    run_repairs,
)
from .scheduler import (
    JobQueue,
    JobTimeoutError,
    QueuedJob,
    ResolvedScan,
    ScanScheduler,
    ServiceMetrics,
    execute_resolved,
    resolve_request,
)
from .store import ResultStore, ShardedResultStore, open_store, stream_records

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "PoolBackend",
    "FleetBackend",
    "FleetQueue",
    "FleetWorker",
    "LeaseLostError",
    "create_backend",
    "fleet_snapshot",
    "run_worker",
    "stream_records",
    "digest_config",
    "fingerprint_checkpoint",
    "fingerprint_model",
    "fingerprint_state_dict",
    "scan_key",
    "ScanRecord",
    "ScanRequest",
    "RepairRecord",
    "RepairRequest",
    "ResolvedRepair",
    "record_from_dict",
    "resolve_repair",
    "execute_repair",
    "run_repairs",
    "atomic_save_model",
    "ResolvedScan",
    "ScanScheduler",
    "ServiceMetrics",
    "JobQueue",
    "JobTimeoutError",
    "QueuedJob",
    "execute_resolved",
    "resolve_request",
    "ResultStore",
    "ShardedResultStore",
    "open_store",
    "FileLock",
    "LockTimeout",
    "atomic_write",
    "CheckpointWatcher",
    "DaemonConfig",
    "WatchDaemon",
    "STRATEGIES",
    "RoutingPolicy",
    "TriageResult",
    "route_scan",
    "record_max_anomaly",
    "escalation_reason",
    "ApiJob",
    "ApiServer",
]
