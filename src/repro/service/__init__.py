"""Model-scanning service: fingerprints, cached results, parallel scheduling.

The service layer turns the in-process detectors into throughput:

* :mod:`repro.service.fingerprint` — content-addressed SHA-256 fingerprints
  of state dicts plus detector-config digests, and the memo that parses
  each checkpoint's bytes once (:class:`FingerprintMemo`);
* :mod:`repro.service.records` — :class:`ScanRequest` / :class:`ScanRecord`,
  the picklable/JSON-safe units of work and result, and their repair twins;
* :mod:`repro.service.locks` — advisory per-shard file locks and atomic
  file replacement, the multi-writer primitives;
* :mod:`repro.service.store` — result stores: the sharded,
  concurrent-writer :class:`ShardedResultStore`, which opens without
  replaying and reads one shard per cache hit, and the legacy single-file
  JSONL :class:`ResultStore` (pick via :func:`open_store`), both making
  repeat scans cache hits and both supporting ``compact`` / ``merge``;
* :mod:`repro.service.planning` — the backend-independent planning core:
  :class:`JobTimeoutError`, :class:`ServiceMetrics`, and the shared
  cache-lookup planner every execution path reuses;
* :mod:`repro.service.backends` — :class:`ExecutionBackend`, serial
  ``inline`` and ``pool``, which runs each job attempt in a forked child
  it kills at the deadline; both retry a failed job behind the rest of
  the batch (pick via :func:`create_backend`);
* :mod:`repro.service.fleet` — the lease-based distributed worker fleet:
  a store-adjacent shared job queue (:class:`FleetQueue`), the
  ``python -m repro worker`` process (:class:`FleetWorker`), and the
  ``fleet`` execution backend (:class:`FleetBackend`);
* :mod:`repro.service.scheduler` — :class:`ScanScheduler`, which resolves
  cache keys in the parent and hands misses to its execution backend
  (``pool`` when ``workers > 1``) with per-job timeouts and bounded
  retries, accumulating :class:`ServiceMetrics`;
* :mod:`repro.service.repair` — cacheable detect -> repair -> verify jobs
  (:func:`resolve_repair` / :func:`run_repairs`) wrapping
  :mod:`repro.mitigation`, with atomically written repaired checkpoints and
  :class:`RepairRecord` persistence in the shared store;
* :mod:`repro.service.daemon` — :class:`WatchDaemon`, the long-running
  ``python -m repro watch`` loop over a checkpoint drop directory: each
  poll scans the ready checkpoints detector by detector, then runs the
  opt-in auto-repairs, and publishes a JSON stats endpoint;
* :mod:`repro.service.routing` — strategy-routed triage
  (:class:`RoutingPolicy` / :func:`route_scan`): ``fastest`` /
  ``cheapest`` / ``thorough`` detector escalation plans with per-request
  cost breakdowns;
* :mod:`repro.service.api` — :class:`ApiServer`, the
  ``python -m repro serve`` HTTP front end (submit/poll/result/traces/
  metrics endpoints; submitted jobs wait on a stdlib priority queue for
  one dispatcher thread that drives the scheduler and store);
* :mod:`repro.service.cli` — the ``python -m repro`` command line
  (``scan`` / ``grid`` / ``repair`` / ``report`` / ``experiment`` /
  ``watch`` / ``serve`` / ``store compact`` / ``store merge``).

Importing the package loads none of these: each name in ``__all__``
resolves from its submodule on first access (PEP 562, :mod:`repro._lazy`),
so a one-shot command imports only the modules it runs.
"""

from typing import Dict

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
#: Importing one submodule, as every ``python -m repro`` command does, then
#: does not load the HTTP server, the fleet, the daemon or the repair
#: pipeline with it.
_EXPORTS: Dict[str, str] = {
    "BACKEND_NAMES": "backends", "ExecutionBackend": "backends",
    "InlineBackend": "backends", "PoolBackend": "backends",
    "FleetBackend": "fleet", "FleetQueue": "fleet", "FleetWorker": "fleet",
    "LeaseLostError": "fleet",
    "create_backend": "backends",
    "fleet_snapshot": "fleet", "run_worker": "fleet",
    "stream_records": "store",
    "digest_config": "fingerprint", "fingerprint_checkpoint": "fingerprint",
    "fingerprint_model": "fingerprint",
    "fingerprint_state_dict": "fingerprint",
    "read_checkpoint_fingerprint": "fingerprint", "scan_key": "fingerprint",
    "FingerprintMemo": "fingerprint",
    "ScanRecord": "records", "ScanRequest": "records",
    "RepairRecord": "records", "RepairRequest": "records",
    "ResolvedRepair": "repair",
    "record_from_dict": "records",
    "resolve_repair": "repair", "execute_repair": "repair",
    "run_repairs": "repair", "atomic_save_model": "repair",
    "ResolvedScan": "scheduler", "ScanScheduler": "scheduler",
    "ServiceMetrics": "scheduler", "JobTimeoutError": "scheduler",
    "execute_resolved": "scheduler", "resolve_request": "scheduler",
    "ResultStore": "store", "ShardedResultStore": "store",
    "open_store": "store",
    "FileLock": "locks", "LockTimeout": "locks", "atomic_write": "locks",
    "CheckpointWatcher": "daemon", "DaemonConfig": "daemon",
    "WatchDaemon": "daemon",
    "STRATEGIES": "routing", "RoutingPolicy": "routing",
    "TriageResult": "routing", "route_scan": "routing",
    "record_max_anomaly": "routing", "escalation_reason": "routing",
    "ApiJob": "api", "ApiServer": "api",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
