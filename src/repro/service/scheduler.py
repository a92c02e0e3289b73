"""Parallel scan scheduling over an execution backend, with a cached fast path.

The :class:`ScanScheduler` takes batches of
:class:`~repro.service.records.ScanRequest` and returns one
:class:`~repro.service.records.ScanRecord` per request, in order.  Scan
batches and repair batches (:func:`repro.service.repair.run_repairs`) share
one batch driver:

1. every request is *resolved* in the parent under its own root span — the
   checkpoint is read, its state dict fingerprinted, and the detector config
   digested into the cache key — so cache hits never reach a worker;
2. store hits are served and duplicate keys inside one batch collapse to a
   single computation (:class:`~repro.service.planning.CachePlanner`);
3. the remaining misses run through the scheduler's execution backend, one
   job per scan — except that every ``inversion_mode="mega"`` miss of the
   batch travels as *one* job (:func:`execute_mega_group`);
4. worker spans are stitched into the request traces, fresh records are
   appended to the attached result store (making the next identical
   request a hit), and in-batch duplicates are served from them.

Worker entry points (:func:`execute_resolved`, :func:`execute_mega_group`,
and whatever job function callers hand to :meth:`ScanScheduler.run_jobs`)
are module-level so they pickle under every multiprocessing start method.
They share one trace-adoption context manager and one setup helper, so every
worker replays the same RNG sequence for the same request.

**Layering.**  This module owns *planning*: request resolution, cache keys,
store lookups, and batch bookkeeping.  Where the planned work actually runs
is an :class:`~repro.service.backends.ExecutionBackend` — serial
(``inline``), a killable forked child per job attempt (``pool``), or the
lease-coordinated worker fleet (``fleet``, :mod:`repro.service.fleet`) —
selected per scheduler via the ``backend`` argument (every CLI entry point
exposes it as ``--backend``).  The backends own retry and timeout policy;
queue and metrics bookkeeping lives in :mod:`repro.service.planning`;
:class:`JobQueue`, :class:`QueuedJob`,
:class:`JobTimeoutError`, :class:`ServiceMetrics`, and
:data:`LATENCY_WINDOW` are re-exported here for compatibility.

**Metrics.**  Every scheduler carries a :class:`ServiceMetrics` accumulator
(scans served, cache-hit ratio, p50/p95 scan latency, failures, retries)
whose :meth:`ServiceMetrics.snapshot` is what the daemon publishes to its
stats endpoint file and ``python -m repro report`` renders.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import (dataclass, field as dataclass_field,
                         replace as dataclass_replace)
from datetime import datetime, timezone
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar, Union)

import numpy as np

from ..attacks.base import SCENARIO_ALL_TO_ONE, scan_pairs_for
from ..core.detection import detect_mega_fleet
from ..core.mega import CleanActivationCache
from ..core.trigger_optimizer import TriggerOptimizationConfig
from ..core.uap import TargetedUAPConfig
from ..core.usb import USBConfig
from ..data import DATASET_SPECS, load_dataset, stratified_sample
from ..data.dataset import Dataset
from ..defenses import NeuralCleanseConfig, TaborConfig, build_detector
from ..models import build_model
from ..nn.layers import Module
from ..nn.serialization import load_checkpoint, validate_state_dict
from ..obs.metrics import PROFILER
from ..obs.trace import (TRACER, new_trace_id, span as _span,
                         telemetry_enabled, write_spans)
from ..utils.logging import get_logger
from .backends import ExecutionBackend, create_backend
from .fingerprint import digest_config, fingerprint_state_dict, scan_key
from .planning import (CachePlanner, JobQueue, JobTimeoutError, LATENCY_WINDOW,
                       QueuedJob, ServiceMetrics)
from .records import ScanRecord, ScanRequest
from .store import ResultStore

__all__ = ["ResolvedScan", "ScanScheduler", "resolve_request",
           "execute_resolved", "execute_mega_group", "build_request_detector",
           "JobQueue", "QueuedJob", "JobTimeoutError", "ServiceMetrics",
           "activation_cache_bytes"]

_LOG = get_logger("repro.service.scheduler")

_JobT = TypeVar("_JobT")
_ResultT = TypeVar("_ResultT")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------- #
# Request resolution (parent side: cheap, cache-key producing)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResolvedScan:
    """A request with metadata applied and its cache key computed."""

    request: ScanRequest
    model: str
    dataset: str
    image_size: int
    fingerprint: str
    config_digest: str
    key: str
    #: Extra ``build_model`` kwargs from the checkpoint metadata (fleet
    #: checkpoints record their ``ExperimentScale.model_kwargs`` here so
    #: non-default architectures rebuild correctly).
    model_kwargs: Dict[str, object] = dataclass_field(default_factory=dict)
    #: Telemetry context stamped by the scheduler before dispatch: a
    #: non-empty ``trace_id`` tells the executing process to record spans
    #: under this trace, parented on the scheduler's root span.  These are
    #: transport fields only — they never enter the cache-key digest.
    trace_id: str = ""
    parent_span_id: str = ""


def _detector_config(request: ScanRequest):
    """The concrete detector config a request resolves to (digest input)."""
    kind = request.detector.lower()
    if kind == "usb":
        return USBConfig(
            uap=TargetedUAPConfig(max_passes=request.uap_passes),
            optimization=TriggerOptimizationConfig(
                iterations=request.iterations, ssim_weight=1.0,
                mask_l1_weight=0.01),
            anomaly_threshold=request.anomaly_threshold)
    if kind == "nc":
        return NeuralCleanseConfig(
            optimization=TriggerOptimizationConfig(
                iterations=request.iterations, ssim_weight=0.0,
                mask_l1_weight=0.01),
            anomaly_threshold=request.anomaly_threshold)
    if kind == "tabor":
        return TaborConfig(
            optimization=TriggerOptimizationConfig(
                iterations=request.iterations, ssim_weight=0.0,
                mask_l1_weight=0.01, mask_tv_weight=0.002,
                outside_pattern_weight=0.002),
            anomaly_threshold=request.anomaly_threshold)
    raise ValueError(f"Unknown detector '{request.detector}'.")


def build_request_detector(request: ScanRequest, clean_data: Dataset,
                           rng: np.random.Generator):
    """Instantiate the detector a request asks for."""
    return build_detector(request.detector, clean_data,
                          _detector_config(request), rng=rng)


def resolve_request(request: ScanRequest,
                    checkpoint_cache: Optional[Dict[str, tuple]] = None
                    ) -> ResolvedScan:
    """Fill in metadata defaults and compute the request's cache key.

    ``checkpoint_cache`` (path -> (state, metadata, fingerprint)) lets batch
    callers resolve many requests against the same file with one read and
    one SHA-256 — a grid scans each checkpoint once per detector, and the
    weights do not change between those requests.

    Raises:
        ValueError: the checkpoint names no model/dataset, ``classes`` is
            empty, or it or ``source_classes`` names a class outside the
            dataset — the scan fails here, once, before any dispatch.
    """
    cached = checkpoint_cache.get(request.checkpoint) if checkpoint_cache else None
    if cached is not None:
        state, metadata, fingerprint = cached
    else:
        state, metadata = load_checkpoint(request.checkpoint)
        with _span("scan.fingerprint", checkpoint=request.checkpoint):
            fingerprint = fingerprint_state_dict(state)
        if checkpoint_cache is not None:
            checkpoint_cache[request.checkpoint] = (state, metadata, fingerprint)
    model = request.model or metadata.get("model")
    dataset = request.dataset or metadata.get("dataset")
    if model is None or dataset is None:
        raise ValueError(
            f"{request.checkpoint}: checkpoint metadata does not name a "
            "model/dataset — pass --model and --dataset (or ScanRequest.model/"
            ".dataset) explicitly.")
    if dataset not in DATASET_SPECS:
        raise KeyError(f"Unknown dataset '{dataset}'. "
                       f"Available: {sorted(DATASET_SPECS)}")
    spec = DATASET_SPECS[dataset]
    named = (request.classes or ()) + (request.source_classes or ())
    if request.classes == () or not all(0 <= c < spec.num_classes
                                        for c in named):
        raise ValueError(
            f"{request.checkpoint}: classes {request.classes} / "
            f"source_classes {request.source_classes} must name classes of "
            f"{dataset} (0..{spec.num_classes - 1}).")
    image_size = int(request.image_size or metadata.get("image_size")
                     or spec.image_size)
    # The digest covers everything besides the weights that can change the
    # verdict: detector config, clean-data provenance, the class subset, and
    # the scenario axis — cached verdicts must never collide across
    # scenarios (an all-to-one scan and a source-conditional pair sweep of
    # the same weights are different results).
    digest_payload = {
        "detector": request.detector.lower(),
        "config": _detector_config(request),
        "dataset": dataset,
        "image_size": image_size,
        "clean_budget": request.clean_budget,
        "samples_per_class": request.samples_per_class,
        "classes": list(request.classes) if request.classes is not None else None,
        "seed": request.seed,
        "scenario": request.scenario,
        "source_classes": (list(request.source_classes)
                           if request.source_classes is not None else None),
    }
    # The default engine predates the knob; only deviations enter the digest
    # so verdicts cached before ``inversion_mode`` existed stay addressable.
    if request.inversion_mode != "batched":
        digest_payload["inversion_mode"] = request.inversion_mode
    digest = digest_config(digest_payload)
    return ResolvedScan(
        request=request, model=model, dataset=dataset, image_size=image_size,
        fingerprint=fingerprint, config_digest=digest,
        key=scan_key(fingerprint, request.detector, digest),
        model_kwargs=dict(metadata.get("model_kwargs") or {}))


# ---------------------------------------------------------------------- #
# Worker side: shared setup and trace adoption, then the entry points
# ---------------------------------------------------------------------- #
@dataclass
class _ScanSetup:
    """What a worker builds from a resolved scan before detection runs."""

    rng: np.random.Generator
    metadata: Dict[str, Any]
    model: Module
    clean: Dataset
    detector: Any
    classes: Optional[List[int]]
    pairs: Optional[List[Tuple[Optional[int], int]]]


def _prepare_scan(resolved: ResolvedScan) -> _ScanSetup:
    """Build a scan's detector inputs in the one order every worker replays.

    RNG (from the request seed) → checkpoint → model → clean sample →
    detector → classes/pairs.  Scan, mega-group and repair workers all run
    this sequence, so their detection passes reproduce the same verdict for
    the same request.
    """
    request = resolved.request
    spec = DATASET_SPECS[resolved.dataset]
    rng = np.random.default_rng(request.seed)
    state, metadata = load_checkpoint(request.checkpoint)
    model = build_model(resolved.model, num_classes=spec.num_classes,
                        in_channels=spec.channels,
                        image_size=resolved.image_size,
                        rng=np.random.default_rng(0),
                        **resolved.model_kwargs)
    validate_state_dict(model, state, source=request.checkpoint)
    model.load_state_dict(state)
    per_class = max(1, -(-request.clean_budget // spec.num_classes))
    _, test_set = load_dataset(
        resolved.dataset, samples_per_class=request.samples_per_class,
        test_per_class=max(per_class, 2), seed=request.seed,
        image_size=resolved.image_size)
    clean = stratified_sample(test_set, request.clean_budget, rng)
    detector = build_request_detector(request, clean, rng)
    classes = list(request.classes) if request.classes is not None else None
    pairs = None
    if request.scenario != SCENARIO_ALL_TO_ONE:
        candidates = (classes if classes is not None
                      else list(range(clean.num_classes)))
        pairs = scan_pairs_for(request.scenario, candidates,
                               source_classes=request.source_classes)
    return _ScanSetup(rng, metadata, model, clean, detector, classes, pairs)


@contextmanager
def _worker_trace(trace_id: str, parent_span_id: str) -> Iterator[bool]:
    """Telemetry around one worker job; yields whether a trace was adopted.

    Telemetry crosses the process boundary by value: a forked worker first
    resets the tracer/profiler state inherited from the parent
    (:meth:`~repro.obs.trace.Tracer.check_fork`), then *adopts* the stamped
    trace, and the caller drains its spans onto the returned record
    (``record.spans``) where the parent stitches them into the request's
    tree.  When the tracer is already live (inline execution in the
    parent), spans go straight to the parent buffer and nothing is adopted.
    The profiler is reset either way, so ``PROFILER.snapshot()`` covers
    exactly this job.
    """
    TRACER.check_fork()
    PROFILER.check_fork()
    adopted = bool(trace_id) and not TRACER.enabled
    if adopted:
        TRACER.enable()
        PROFILER.enable()
    if PROFILER.enabled:
        PROFILER.reset()
    try:
        with TRACER.context(trace_id, parent_span_id):
            yield adopted
    finally:
        if adopted:
            TRACER.reset()
            PROFILER.disable()
            PROFILER.reset()


def _scan_telemetry(resolved: ResolvedScan, detection,
                    detector) -> Dict[str, Any]:
    """The per-record ``telemetry`` block from the live profiler state."""
    telemetry: Dict[str, Any] = dict(PROFILER.snapshot())
    if resolved.trace_id:
        telemetry["trace_id"] = resolved.trace_id
    telemetry["iterations"] = sum(int(t.iterations)
                                  for t in detection.triggers)
    pool_stats = getattr(detector, "last_mega_stats", None)
    if pool_stats:
        telemetry["pool"] = dict(pool_stats)
    return telemetry


def _scan_record(resolved: ResolvedScan, detection) -> ScanRecord:
    return ScanRecord.from_detection(
        key=resolved.key, fingerprint=resolved.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=resolved.request.checkpoint, model=resolved.model,
        dataset=resolved.dataset, detection=detection,
        created_at=_utc_now(), worker_pid=os.getpid())


def execute_resolved(resolved: ResolvedScan) -> ScanRecord:
    """Run one already-resolved scan: the worker-side half of a request.

    Runs inside pool children and fleet workers (and inline for the serial
    fallback); must stay module-level and depend only on the
    picklable ``resolved`` payload.  The checkpoint is loaded exactly once
    here — the fingerprint and cache key were computed during resolution,
    so no re-hashing happens in the worker.

    Telemetry crosses the process boundary by value: the worker adopts the
    trace stamped on ``resolved``, and its spans and per-phase profile ride
    back on the returned record (``record.spans`` / ``record.telemetry``)
    where the parent stitches them into the request's tree.
    """
    request = resolved.request
    with _worker_trace(resolved.trace_id, resolved.parent_span_id) as adopted:
        with _span("worker.scan", detector=request.detector,
                   checkpoint=request.checkpoint):
            setup = _prepare_scan(resolved)
            start = time.perf_counter()
            detection = setup.detector.detect(
                setup.model, classes=setup.classes, pairs=setup.pairs,
                mode=request.inversion_mode)
            detection.seconds_total = time.perf_counter() - start
        record = _scan_record(resolved, detection)
        if PROFILER.enabled:
            record.telemetry = _scan_telemetry(resolved, detection,
                                               setup.detector)
        if adopted:
            record.spans = TRACER.drain()
        return record


def activation_cache_bytes() -> int:
    """Clean-activation cache budget: ``REPRO_ACTIVATION_CACHE_MB`` (MB).

    Defaults to 256 MB; see ``docs/ops.md`` for sizing guidance.
    """
    try:
        megabytes = int(os.environ.get("REPRO_ACTIVATION_CACHE_MB", "256"))
    except ValueError:
        megabytes = 256
    return max(1, megabytes) * 1024 * 1024


def execute_mega_group(group: Sequence[ResolvedScan]) -> List[ScanRecord]:
    """Run a batch of ``inversion_mode="mega"`` scans as one mega-batch.

    Every scan in ``group`` — classic (all-to-one) *and* pair-mode — folds
    its (model × cell) grid into a single
    :func:`~repro.core.detection.detect_mega_fleet` pool: a 5-checkpoint
    grid becomes one cross-model tensor program instead of five sequential
    scans, and pair sweeps from different models interleave their forwards
    in the same pool (each job keeps its own MAD selection group, so
    verdicts match the per-model path exactly).  The scheduler sends the
    whole group to its backend as *one* job, so it runs on a fleet worker
    or in a killable pool child under that job's timeout and retry budget.

    Per-request setup replays :func:`execute_resolved` exactly — fresh RNG
    from the request seed, same checkpoint load, same clean sample — so a
    mega record differs from a worker record only by its inversion engine.
    The group's detectors share one fresh clean-activation cache.

    Telemetry follows the same adopt-by-value protocol as
    :func:`execute_resolved`, under the first request's trace.  The fused
    sweep is one computation shared by every request, so its spans, pool
    stats and activation-cache counts attach to the *first* record only —
    per-request records still carry their own iteration counts, and
    summing pool stats across the group would double-count.
    """
    items = list(group)
    if not items:
        return []
    lead = items[0]
    with _worker_trace(lead.trace_id, lead.parent_span_id) as adopted:
        cache = CleanActivationCache(max_bytes=activation_cache_bytes())
        setups = [_prepare_scan(item) for item in items]
        for item, setup in zip(items, setups):
            setup.detector.activation_cache = cache
            setup.detector.model_key = item.fingerprint
            setup.detector.clean_key = (
                f"{item.dataset}:{item.image_size}:"
                f"s{item.request.seed}:b{item.request.clean_budget}")
        with _span("mega.fleet", models=len(setups)):
            detections = detect_mega_fleet(
                [(setup.detector, setup.model, setup.classes, setup.pairs)
                 for setup in setups], cache=cache)
        records = [_scan_record(item, detection)
                   for item, detection in zip(items, detections)]
        if PROFILER.enabled:
            for slot, (item, setup, detection, record) in enumerate(
                    zip(items, setups, detections, records)):
                record.telemetry = _scan_telemetry(item, detection,
                                                   setup.detector)
                if slot > 0:
                    # Shared-run stats live on the first record only.
                    for key in ("pool", "phases", "counts"):
                        record.telemetry.pop(key, None)
            records[0].telemetry.setdefault("pool", {})["cache"] = {
                "hits": cache.hits, "misses": cache.misses}
        if adopted:
            records[0].spans = TRACER.drain()
        return records


# ---------------------------------------------------------------------- #
# Scheduler
# ---------------------------------------------------------------------- #
class ScanScheduler:
    """Runs scan batches over an execution backend with result-store caching.

    Args:
        store: Optional result store (any :func:`repro.service.open_store`
            layout); without one every request is computed fresh.
        workers: Children the ``pool`` backend runs at once.  With the
            default backend, ``workers <= 1`` is the serial fallback: jobs
            run inline in the parent, in queue order — bit-identical to the
            pool path (children are forked with the same seeds), just
            without the process hop.
        job_timeout: Default per-job wall-clock budget (seconds) for
            :meth:`run_jobs` on the pool path; ``None`` disables it.
        job_retries: Default retry budget per job — a failed (or timed-out)
            job is re-queued up to this many times before the batch fails.
        telemetry: Record trace spans and per-phase profiles for every
            request.  ``None`` (the default) follows ``REPRO_TELEMETRY``
            (on unless set falsy); pass False for library callers that
            must not touch the process-wide tracer.
        span_sink: Optional ``spans.jsonl`` path; finished spans of every
            batch are appended there (see
            :func:`repro.service.store.sidecar_path`).
        backend: Where planned jobs execute — an
            :class:`~repro.service.backends.ExecutionBackend` instance or a
            spec string (``inline`` / ``pool`` / ``fleet``).  ``None`` (the
            default) picks ``pool`` when ``workers > 1``, else ``inline``.
            ``fleet`` requires a store (its queue lives next to
            it) and verdicts stay identical across backends — only the
            processes doing the work change.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 0, job_timeout: Optional[float] = None,
                 job_retries: int = 0, telemetry: Optional[bool] = None,
                 span_sink: Optional[str] = None,
                 backend: Union[ExecutionBackend, str, None] = None) -> None:
        self.store = store
        self.workers = int(workers)
        self.job_timeout = job_timeout
        self.job_retries = int(job_retries)
        self.telemetry = (telemetry_enabled() if telemetry is None
                          else bool(telemetry))
        self.span_sink = span_sink
        self.backend = self._resolve_backend(backend)
        #: Cumulative counters over the scheduler's life (never reset).
        self.metrics = ServiceMetrics()

    def _resolve_backend(self, backend: Union[ExecutionBackend, str, None]
                         ) -> ExecutionBackend:
        """Materialize the ``backend`` argument into an instance."""
        if isinstance(backend, ExecutionBackend):
            return backend
        if backend is None:
            backend = "pool" if self.workers > 1 else "inline"
        store_path = getattr(self.store, "path", None)
        return create_backend(backend, workers=self.workers,
                              store_path=store_path)

    @property
    def cache_hits(self) -> int:
        """Requests served from the store so far (see :class:`ServiceMetrics`)."""
        return self.metrics.cache_hits

    @property
    def cache_misses(self) -> int:
        """Requests that required a fresh computation so far."""
        return self.metrics.cache_misses

    # ------------------------------------------------------------------ #
    # Generic dispatch through the execution backend
    # ------------------------------------------------------------------ #
    def run_jobs(self, fn: Callable[[_JobT], _ResultT],
                 payloads: Sequence[_JobT],
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> List[_ResultT]:
        """Apply a module-level ``fn`` to every payload, preserving order.

        Dispatch happens through the scheduler's execution backend: every
        payload goes through the prioritized planning queue (all at
        priority 0 here, so plain FIFO) with the scheduler's retry budget;
        process-based backends additionally enforce ``timeout`` seconds of
        wall clock per job.  A job that exhausts its retries re-raises its
        last error (:class:`JobTimeoutError` for timeouts and expired fleet
        leases), failing the batch.

        Args:
            fn: Module-level callable (its result must pickle on the pool
                path; it needs a registered job kind for the fleet path).
            payloads: Job inputs; results come back in the same order.
            timeout: Per-job budget override (default: ``job_timeout``).
                Inline (serial) execution cannot be preempted, so the budget
                only applies on the pool path.
            retries: Retry budget override (default: ``job_retries``).

        Returns:
            ``[fn(p) for p in payloads]``, computed queue-driven.
        """
        timeout = self.job_timeout if timeout is None else timeout
        retries = self.job_retries if retries is None else int(retries)
        return self.backend.run(fn, list(payloads), timeout=timeout,
                                retries=retries, metrics=self.metrics)

    # ------------------------------------------------------------------ #
    # Cached scanning
    # ------------------------------------------------------------------ #
    @staticmethod
    def _served_copy(record: Any, item: Any) -> Any:
        """A cache-hit copy of ``record``, relabelled for the current request.

        The verdict is addressed by weights, not by file, so a hit may have
        been computed from a different checkpoint path with identical
        weights — the copy reports the path/model/dataset the caller asked
        about.  Serves scan and repair records alike (a resolved repair
        carries its scan resolution as ``item.scan``).
        """
        scan = getattr(item, "scan", item)
        copy = type(record).from_dict(record.to_dict())
        copy.cache_hit = True
        copy.checkpoint = scan.request.checkpoint
        copy.model = scan.model
        copy.dataset = scan.dataset
        return copy

    def scan(self, requests: Sequence[ScanRequest]) -> List[ScanRecord]:
        """Scan a batch, serving store hits and computing the rest in parallel.

        Args:
            requests: Scan jobs; the returned records line up with them.

        Returns:
            One :class:`~repro.service.records.ScanRecord` per request, in
            order — cache hits flagged via ``cache_hit``, fresh records
            appended to the attached store.
        """
        return self._run_batch(
            requests, "scan.request",
            lambda request: {"detector": request.detector,
                             "checkpoint": request.checkpoint},
            resolve_request, self._execute_scans,
            lookup_span="scan.cache_lookup")

    def _execute_scans(self, items: List[ResolvedScan]) -> List[ScanRecord]:
        """Dispatch pending scans: one job each, every mega-mode miss as one.

        Mega-mode requests batch across models and checkpoints, so a batch's
        mega misses travel to the backend as a single
        :func:`execute_mega_group` job.
        """
        records: List[Optional[ScanRecord]] = [None] * len(items)
        mega = [index for index, item in enumerate(items)
                if item.request.inversion_mode == "mega"]
        rest = [index for index, item in enumerate(items)
                if item.request.inversion_mode != "mega"]
        if mega:
            _LOG.info("Pooling %d mega-mode scan(s) into one mega-batch.",
                      len(mega))
            [group] = self.run_jobs(execute_mega_group,
                                    [[items[index] for index in mega]])
            for index, record in zip(mega, group):
                records[index] = record
        if rest:
            fresh = self.run_jobs(execute_resolved,
                                  [items[index] for index in rest])
            for index, record in zip(rest, fresh):
                records[index] = record
        return records

    def _run_batch(self, requests: Sequence[Any], root_name: str,
                   root_attrs: Callable[[Any], Dict[str, Any]],
                   resolve: Callable[..., Any],
                   execute: Callable[[List[Any]], List[Any]],
                   lookup_span: Optional[str] = None,
                   record_type: Optional[type] = None) -> List[Any]:
        """The one batch driver behind :meth:`scan` and ``run_repairs``.

        Each request is resolved under its own ``root_name`` span.  When a
        caller already holds a trace context (the HTTP API and the watch
        daemon root one span per job; the triage router runs stages under
        it), the roots join that trace instead of opening fresh ones.  The
        :class:`CachePlanner` then serves store hits; ``execute`` runs the
        misses through the backend; worker spans are stitched, metrics
        updated, fresh records appended to the store, and in-batch
        duplicates served from them.  Roots are finished — with an
        ``error`` attribute when the batch raised — and spans written in a
        ``finally``, so a failed request still leaves a complete trace.

        A miss counts as served only once its record comes back, and a
        request whose resolution raises counts as one failure (backends
        count their own jobs that exhaust the retry budget).
        """
        tracing = self.telemetry
        if tracing:
            TRACER.check_fork()
            PROFILER.check_fork()
            TRACER.enable()
            PROFILER.enable()
        ambient_trace, ambient_parent = (TRACER.current() if tracing
                                         else ("", ""))
        roots: List[Any] = []
        try:
            checkpoint_cache: Dict[str, tuple] = {}
            resolved = []
            for request in requests:
                root = (TRACER.begin(root_name,
                                     trace_id=ambient_trace or new_trace_id(),
                                     parent_id=ambient_parent,
                                     **root_attrs(request))
                        if tracing else None)
                roots.append(root)
                try:
                    with TRACER.context_of(root):
                        item = resolve(request,
                                       checkpoint_cache=checkpoint_cache)
                except Exception:
                    self.metrics.failures += 1
                    raise
                if root is not None:
                    item = dataclass_replace(item, trace_id=root.trace_id,
                                             parent_span_id=root.span_id)
                resolved.append(item)
            del checkpoint_cache  # free the cached state dicts before dispatch

            planner = CachePlanner(self.store, self.metrics,
                                   record_type=record_type)
            results, pending = planner.plan(resolved, roots,
                                            self._served_copy,
                                            span_name=lookup_span)
            if pending:
                _LOG.info("Computing %d/%d request(s) (%d served from cache) "
                          "via the %s backend.", len(pending), len(resolved),
                          sum(r is not None for r in results),
                          self.backend.name)
                fresh = execute([item for _, item in pending])
                for (index, _), record in zip(pending, fresh):
                    # Stitch spans recorded in another process; inline
                    # spans are already in this process's buffer.
                    worker_spans = record.pop_spans()
                    if tracing:
                        TRACER.add(worker_spans)
                    cache = ((record.telemetry or {}).get("pool") or {}
                             ).get("cache")
                    if cache:
                        self.metrics.record_activation_cache(
                            cache.get("hits", 0), cache.get("misses", 0))
                    self.metrics.record_miss(record.seconds)
                    if self.store is not None:
                        self.store.add(record)
                    results[index] = record

            # Fan computed records out to duplicate requests within the batch.
            by_key = {record.key: record for record in results
                      if record is not None}
            for index, item in enumerate(resolved):
                if results[index] is None:
                    results[index] = self._served_copy(by_key[item.key],
                                                       item)
                    self.metrics.record_hit()
            return results
        except Exception as error:
            for root in roots:
                if root is not None:
                    root.attrs["error"] = f"{type(error).__name__}: {error}"
            raise
        finally:
            if tracing:
                for root in roots:
                    TRACER.finish(root)
                spans = TRACER.drain()
                if self.span_sink:
                    write_spans(self.span_sink, spans)

    def scan_one(self, request: ScanRequest) -> ScanRecord:
        """Convenience wrapper for single-request callers (the CLI)."""
        return self.scan([request])[0]
