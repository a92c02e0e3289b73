"""Cacheable detect -> repair -> verify jobs for the scanning service.

``python -m repro repair <ckpt>`` turns the mitigation pipeline
(:mod:`repro.mitigation`) into service traffic that runs through the same
batch driver as scans (:func:`run_repairs`):

1. a :class:`RepairRequest` (a :class:`~repro.service.records.ScanRequest`
   plus the repair knobs) is *resolved* in the parent — checkpoint
   fingerprinted, scan config digested, repair config folded into its own
   digest — yielding a cache key distinct from every scan key;
2. hits are served from the shared result store as
   :class:`~repro.service.records.RepairRecord` entries;
3. misses run :func:`execute_repair` (module-level, picklable) on the
   scheduler's execution backend — the repair worker re-runs the detector to recover *full* reversed triggers (the
   store's compact scan summaries carry norms only), repairs, verifies, and
   writes the repaired checkpoint atomically
   (:func:`repro.service.locks.atomic_write`), so a crash mid-save never
   leaves a torn ``.npz`` behind;
4. fresh records land in the store, making the next identical request a
   hit.

The repair worker shares the scan worker's setup helper and so replays
the exact RNG sequence of :func:`~repro.service.scheduler.execute_resolved`:
its internal detection pass reproduces the scan verdict for the same
request budgets.
"""

from __future__ import annotations

import dataclasses
import io
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..data import DATASET_SPECS, load_dataset
from ..data.dataset import Dataset
from ..nn.layers import Module
from ..nn.serialization import METADATA_KEY
from ..obs.metrics import PROFILER
from ..obs.trace import TRACER, span as _span
from ..utils.logging import get_logger
from .fingerprint import digest_config, fingerprint_model, scan_key
from .locks import atomic_write
from .records import RepairRecord, ScanRequest
from .scheduler import (
    ResolvedScan,
    ScanScheduler,
    _prepare_scan,
    _utc_now,
    _worker_trace,
    resolve_request,
)

__all__ = ["RepairRequest", "ResolvedRepair", "resolve_repair",
           "execute_repair", "run_repairs", "atomic_save_model"]

_LOG = get_logger("repro.service.repair")


@dataclass(frozen=True)
class RepairRequest:
    """One repair job: a scan request plus the repair strategy and budgets.

    Every field participates in the repair cache key, so two repairs of the
    same weights with different strategies (or guardrails) never collide in
    the store.
    """

    #: The detect stage: which checkpoint, detector, and scan budgets.
    scan: ScanRequest
    #: Repair strategy (see :data:`repro.mitigation.STRATEGIES`).
    strategy: str = "both"
    #: Unlearning fine-tune epochs.
    unlearn_epochs: int = 3
    #: Unlearning learning rate.
    learning_rate: float = 1e-3
    #: Fraction of each unlearning batch stamped with a reversed trigger.
    stamp_fraction: float = 0.5
    #: Upper bound on the fraction of penultimate units pruned.
    prune_fraction: float = 0.1
    #: Clean-accuracy guardrail, in fraction points (0.03 = 3 points).
    max_accuracy_drop: float = 0.03
    #: Post-repair flip rate below which a cell counts as neutralized.
    success_flip_rate: float = 0.2
    #: Re-scan the repaired model with the same detector.
    rescan: bool = True
    #: Repaired checkpoint path, or an existing directory to hold the
    #: default name (default: derived from the input path and the repair
    #: digest, next to the input).
    output: Optional[str] = None

    def plan(self):
        """The :class:`repro.mitigation.RepairPlan` this request describes."""
        from ..mitigation import PruningConfig, RepairPlan, UnlearningConfig
        return RepairPlan(
            strategy=self.strategy,
            unlearning=UnlearningConfig(epochs=self.unlearn_epochs,
                                        learning_rate=self.learning_rate,
                                        stamp_fraction=self.stamp_fraction),
            pruning=PruningConfig(max_prune_fraction=self.prune_fraction),
            max_accuracy_drop=self.max_accuracy_drop,
            success_flip_rate=self.success_flip_rate,
            rescan=self.rescan)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (nested scan request included)."""
        payload = dataclasses.asdict(self)
        payload["scan"] = self.scan.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RepairRequest":
        """Rebuild a request from :meth:`to_dict` (unknown keys ignored)."""
        data = dict(payload)
        data["scan"] = ScanRequest.from_dict(dict(data["scan"]))
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class ResolvedRepair:
    """A repair request with its cache key and output path computed."""

    request: RepairRequest
    #: The resolved detect stage (fingerprint, scan config digest...).
    scan: ResolvedScan
    #: Repair-level config digest (scan digest + every repair knob).
    config_digest: str
    #: Store cache key: ``fingerprint:repair+<detector>:<digest>``.
    key: str
    #: Where the repaired checkpoint will be written.
    output: str
    #: Telemetry context stamped before dispatch (see
    #: :class:`~repro.service.scheduler.ResolvedScan`); never keyed.
    trace_id: str = ""
    parent_span_id: str = ""


def default_repair_output(checkpoint: str, digest: str) -> str:
    """Deterministic repaired-checkpoint path for one (checkpoint, config).

    Distinct repair configs write distinct files (the digest is in the
    name), so re-running with other knobs never clobbers an earlier repair.
    """
    stem, ext = os.path.splitext(os.fspath(checkpoint))
    return f"{stem}.repaired-{digest[:8]}{ext or '.npz'}"


def resolve_repair(request: RepairRequest,
                   checkpoint_cache: Optional[Dict[str, tuple]] = None
                   ) -> ResolvedRepair:
    """Compute a repair request's cache key (parent-side, no detector work).

    Args:
        request: The repair job.
        checkpoint_cache: Optional shared cache (see
            :func:`repro.service.scheduler.resolve_request`) so fleets
            fingerprint each checkpoint once.

    Returns:
        The :class:`ResolvedRepair` with key and output path filled in.
    """
    resolved_scan = resolve_request(request.scan,
                                    checkpoint_cache=checkpoint_cache)
    digest = digest_config({
        "scan_digest": resolved_scan.config_digest,
        "strategy": request.strategy,
        "unlearn_epochs": request.unlearn_epochs,
        "learning_rate": request.learning_rate,
        "stamp_fraction": request.stamp_fraction,
        "prune_fraction": request.prune_fraction,
        "max_accuracy_drop": request.max_accuracy_drop,
        "success_flip_rate": request.success_flip_rate,
        "rescan": request.rescan,
    })
    key = scan_key(resolved_scan.fingerprint,
                   f"repair+{request.scan.detector.lower()}", digest)
    output = default_repair_output(request.scan.checkpoint, digest)
    if request.output:
        output = (os.path.join(request.output, os.path.basename(output))
                  if os.path.isdir(request.output) else request.output)
    return ResolvedRepair(request=request, scan=resolved_scan,
                          config_digest=digest, key=key, output=output)


def atomic_save_model(model: Module, path: str,
                      metadata: Optional[Dict[str, Any]] = None) -> None:
    """Write ``model.state_dict()`` as an ``.npz`` checkpoint atomically.

    The archive is serialized in memory and swapped in with
    :func:`repro.service.locks.atomic_write`, so concurrent readers (and
    the watch daemon's settle detection) never observe a half-written
    checkpoint.
    """
    state = model.state_dict()
    if METADATA_KEY in state:
        raise ValueError(f"'{METADATA_KEY}' is reserved for metadata.")
    arrays = dict(state)
    if metadata is not None:
        import json
        arrays[METADATA_KEY] = np.array(json.dumps(metadata, sort_keys=True))
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    atomic_write(path, buffer.getvalue())


def _eval_sample(resolved: ResolvedScan) -> Dataset:
    """Evaluation split for the verify stage.

    Deterministic in the request seed and deliberately *larger* than the
    detector's clean sample (several samples per class), so the guardrail's
    accuracy delta is measured on a meaningful held-out pool rather than on
    the same handful of images the fine-tune just saw.
    """
    request = resolved.request
    spec = DATASET_SPECS[resolved.dataset]
    per_class = max(1, -(-request.clean_budget // spec.num_classes))
    _, test_set = load_dataset(
        resolved.dataset, samples_per_class=request.samples_per_class,
        test_per_class=max(3 * per_class, 10), seed=request.seed,
        image_size=resolved.image_size)
    return test_set


def execute_repair(resolved: ResolvedRepair) -> RepairRecord:
    """Run one already-resolved repair job: detect, repair, verify, persist.

    Worker-side half of a repair request (module-level so it pickles under
    every multiprocessing start method).  The detection pass replays the
    scan worker's setup and RNG sequence, so its verdict matches a plain
    scan of the same request; the repaired checkpoint is written atomically
    and only when a repair was applied and survived the guardrail.

    Telemetry crosses the process boundary by value exactly as in
    :func:`~repro.service.scheduler.execute_resolved`: a forked worker
    adopts the trace stamped on ``resolved`` and its stage spans
    (``repair.scan`` / ``repair.apply`` / ``repair.save``) ride back on the
    record.
    """
    from ..mitigation import repair_model

    request = resolved.request
    scan_request = request.scan
    with _worker_trace(resolved.trace_id, resolved.parent_span_id) as adopted:
        with _span("worker.repair", detector=scan_request.detector,
                   strategy=request.strategy):
            setup = _prepare_scan(resolved.scan)
            start = time.perf_counter()
            with _span("repair.scan", detector=scan_request.detector):
                detection = setup.detector.detect(
                    setup.model, classes=setup.classes, pairs=setup.pairs)
            eval_data = _eval_sample(resolved.scan)
            with _span("repair.apply", strategy=request.strategy,
                       rescan=bool(request.rescan)):
                report = repair_model(
                    setup.model, detection, setup.clean, plan=request.plan(),
                    detector=setup.detector if request.rescan else None,
                    eval_data=eval_data, rng=setup.rng)
            seconds = time.perf_counter() - start

            repaired_checkpoint: Optional[str] = None
            repaired_fingerprint: Optional[str] = None
            if report.repaired and not report.rolled_back:
                repair_meta = dict(setup.metadata)
                repair_meta.update({
                    "repaired_from": scan_request.checkpoint,
                    "repair_strategy": request.strategy,
                    "repair_key": resolved.key,
                    "repair_detector": scan_request.detector.lower(),
                })
                with _span("repair.save", output=resolved.output):
                    atomic_save_model(setup.model, resolved.output,
                                      metadata=repair_meta)
                repaired_checkpoint = resolved.output
                repaired_fingerprint = fingerprint_model(setup.model)
                _LOG.info("%s: repaired checkpoint written to %s",
                          scan_request.checkpoint, resolved.output)

        telemetry: Dict[str, Any] = {}
        if PROFILER.enabled:
            telemetry = dict(PROFILER.snapshot())
            if resolved.trace_id:
                telemetry["trace_id"] = resolved.trace_id
        record = _repair_record(resolved, detection, report, seconds,
                                repaired_checkpoint, repaired_fingerprint,
                                telemetry)
        if adopted:
            record.spans = TRACER.drain()
        return record


def _repair_record(resolved: ResolvedRepair, detection, report,
                   seconds: float, repaired_checkpoint: Optional[str],
                   repaired_fingerprint: Optional[str],
                   telemetry: Dict[str, Any]) -> RepairRecord:
    request = resolved.request
    scan_request = request.scan
    return RepairRecord(
        key=resolved.key,
        fingerprint=resolved.scan.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=scan_request.checkpoint,
        model=resolved.scan.model,
        dataset=resolved.scan.dataset,
        detector=scan_request.detector.lower(),
        strategy=request.strategy,
        scan_key=resolved.scan.key,
        was_backdoored=bool(detection.is_backdoored),
        repaired=bool(report.repaired),
        success=bool(report.success),
        accuracy_before=float(report.accuracy_before),
        accuracy_after=float(report.accuracy_after),
        repaired_checkpoint=repaired_checkpoint,
        repaired_fingerprint=repaired_fingerprint,
        report=report.to_dict(),
        seconds=seconds,
        created_at=_utc_now(),
        worker_pid=os.getpid(),
        telemetry=telemetry,
    )


def run_repairs(scheduler: ScanScheduler,
                requests: Sequence[RepairRequest]) -> List[RepairRecord]:
    """Repair a batch of checkpoints, store-cached and scheduler-dispatched.

    Runs through the same batch driver as
    :meth:`repro.service.ScanScheduler.scan`: every request is resolved in
    the parent under a ``repair.request`` root span, store hits (and
    in-batch duplicates) are served without worker dispatch, and the
    remaining misses run :func:`execute_repair` on the scheduler's backend
    (inline when ``workers <= 1`` — verdict-identical to the pool path).
    Fresh records are appended to the scheduler's store.

    Args:
        scheduler: Supplies the store, the backend, and the metrics.
        requests: Repair jobs; records come back in request order.

    Returns:
        One :class:`~repro.service.records.RepairRecord` per request.
    """
    return scheduler._run_batch(
        requests, "repair.request",
        lambda request: {"detector": request.scan.detector,
                         "checkpoint": request.scan.checkpoint,
                         "strategy": request.strategy},
        resolve_repair,
        lambda items: scheduler.run_jobs(execute_repair, items),
        record_type=RepairRecord)
