"""Shared trigger-reverse-engineering detection framework.

Every detector in the paper (Neural Cleanse, TABOR, USB) follows the same
outer loop:

1. For every candidate target class ``t``, reverse-engineer a trigger
   ``(pattern, mask)`` that sends clean inputs to ``t``.
2. Compare the sizes (L1 norms) of the per-class reversed triggers.
3. Flag classes whose trigger is an anomalously *small* outlier (the backdoor
   "shortcut"), using the median-absolute-deviation (MAD) anomaly index from
   the Neural Cleanse paper.

**Joint outer loop.**  By default (``mode="batched"``) :meth:`detect` runs
all K candidate classes as *one* joint optimization on the work-item pool of
:mod:`repro.core.mega`, with the budget cascade off: every model
forward/backward is amortized across classes on a ``(K·B, C, H, W)``
mega-batch.  ``mode="mega"`` uses the same pool with the cascade on.  Each
detector states its per-class starting points once, in
:meth:`TriggerReverseEngineeringDetector._mega_inits`, and both joint modes
take them from there.  The Alg. 2 refinement loss is a sum of independent
per-class terms, so given the same starting points the refinement matches
the sequential loop up to floating-point reduction order (NC/TABOR draw
their random inits in the same order, making the modes near-identical end
to end).  USB's joint Alg. 1 stage, however, shares one shuffle per sweep
across classes instead of consuming the RNG per class, so its UAP seeds —
and hence per-class trigger norms — differ from the sequential path in
their random stream, not just in rounding; flagged classes are expected to
agree, with anomaly indices within a small tolerance (tracked by the
Table 7 harness).  ``detect`` falls back to the sequential per-class loop
when the detector provides no starting points, when only one class is
scanned, or when ``mode="sequential"`` is passed (per-class wall-clock
measurements, or the reference for A/B validation).

This module provides the data structures, the MAD outlier test, and the
:class:`TriggerReverseEngineeringDetector` base class implementing the outer
loops; concrete detectors implement
:meth:`TriggerReverseEngineeringDetector.reverse_engineer` and
:meth:`TriggerReverseEngineeringDetector._mega_inits`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..nn.layers import Module
from ..obs.trace import span as _tspan
from ..utils.logging import get_logger
from .mega import (
    CleanActivationCache,
    MegaCascadeConfig,
    MegaPoolConfig,
    MegaTask,
    run_mega_inversion,
)
from .trigger_optimizer import (
    BatchedTriggerMaskOptimizer,
    TriggerOptimizationResult,
)

__all__ = [
    "ScanPair",
    "ReversedTrigger",
    "DetectionResult",
    "mad_anomaly_indices",
    "TriggerReverseEngineeringDetector",
    "detect_mega_fleet",
    "INVERSION_MODES",
]

#: Inversion execution modes accepted by :meth:`detect` (and the service's
#: ``--inversion-mode`` flag): the sequential per-class loop, the work-item
#: pool with the cascade off (one joint run per scan), and the pool with its
#: budget cascade.
INVERSION_MODES = ("sequential", "batched", "mega")

#: A (source, target) scan cell.  ``source`` is ``None`` for the classic
#: unconditional scan (trigger optimized over clean data from all classes);
#: an integer restricts the optimization to that source class, which is what
#: makes source-conditional backdoors recoverable.
ScanPair = Tuple[Optional[int], int]


def _pair_key(pair: ScanPair) -> str:
    """JSON key for a scan pair (``*`` encodes the unconditional source)."""
    source, target = pair
    return f"{'*' if source is None else int(source)}->{int(target)}"


def _parse_pair_key(key: str) -> ScanPair:
    source_text, _, target_text = key.partition("->")
    source = None if source_text == "*" else int(source_text)
    return (source, int(target_text))

_LOG = get_logger("repro.core.detection")

#: Consistency constant relating MAD to the standard deviation of a normal
#: distribution (used by Neural Cleanse and kept here for comparability).
MAD_CONSISTENCY = 1.4826

#: Fallback scale (as a fraction of the median) used when the MAD
#: degenerates to ~0.  With the default anomaly threshold of 2.0 this flags
#: values more than ~30% below the median — a relative criterion, so a
#: blatant outlier is caught at any pool size while near-identical pools
#: flag nothing (an absolute scale like the std cannot do this: for K-1
#: identical values plus one outlier the std-normalized gap is a constant
#: K/(1.4826*sqrt(K-1)) < 2 for K <= 7, independent of the outlier's size).
DEGENERATE_RELATIVE_SCALE = 0.15


@dataclass
class ReversedTrigger:
    """A reverse-engineered trigger for one candidate (source, target) cell.

    ``source_class`` is ``None`` for the classic unconditional scan; pair-mode
    scans (:meth:`TriggerReverseEngineeringDetector.detect` with ``pairs``)
    record which source class the clean data was restricted to.
    """

    target_class: int
    pattern: np.ndarray
    mask: np.ndarray
    success_rate: float
    seconds: float = 0.0
    iterations: int = 0
    source_class: Optional[int] = None

    @property
    def pair(self) -> ScanPair:
        """The (source, target) scan cell this trigger was optimized for."""
        return (self.source_class, self.target_class)

    @property
    def l1_norm(self) -> float:
        """L1 norm of the effective trigger ``pattern * mask`` (the paper's metric)."""
        return float(np.abs(self.pattern * self.mask).sum())

    @property
    def mask_l1(self) -> float:
        """L1 norm of the mask alone (Neural Cleanse's original metric)."""
        return float(np.abs(self.mask).sum())


def _reversed(target: int, result: TriggerOptimizationResult,
              **extra: Any) -> ReversedTrigger:
    """A :class:`ReversedTrigger` for ``target`` from one optimizer result."""
    return ReversedTrigger(target_class=int(target), pattern=result.pattern,
                           mask=result.mask, success_rate=result.success_rate,
                           iterations=result.iterations, **extra)


@dataclass
class DetectionResult:
    """Outcome of running a detector on one model."""

    detector: str
    triggers: List[ReversedTrigger]
    anomaly_indices: Dict[int, float]
    flagged_classes: List[int]
    is_backdoored: bool
    seconds_total: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Pair-mode extras (empty for classic unconditional scans): the anomaly
    #: index of every scanned (source, target) cell and the flagged cells.
    pair_anomaly_indices: Dict[ScanPair, float] = field(default_factory=dict)
    flagged_pairs: List[ScanPair] = field(default_factory=list)

    @property
    def per_class_l1(self) -> Dict[int, float]:
        """Mapping class -> reversed-trigger L1 norm.

        In pair mode several sources probe the same target; the smallest
        trigger per target is the one the outlier test cares about.
        """
        out: Dict[int, float] = {}
        for t in self.triggers:
            norm = t.l1_norm
            if t.target_class not in out or norm < out[t.target_class]:
                out[t.target_class] = norm
        return out

    @property
    def per_pair_l1(self) -> Dict[ScanPair, float]:
        """Mapping (source, target) -> reversed-trigger L1 norm."""
        return {t.pair: t.l1_norm for t in self.triggers}

    @property
    def suspect_class(self) -> Optional[int]:
        """The single most anomalous flagged class, if any."""
        if not self.flagged_classes:
            return None
        return max(self.flagged_classes, key=lambda c: self.anomaly_indices.get(c, 0.0))

    @property
    def median_l1(self) -> float:
        """Median reversed-trigger L1 norm (the MAD test's anchor)."""
        values = [t.l1_norm for t in self.triggers]
        return float(np.median(values)) if values else 0.0

    @property
    def min_l1(self) -> float:
        """Smallest reversed-trigger L1 norm across the scanned cells."""
        values = [t.l1_norm for t in self.triggers]
        return float(min(values)) if values else 0.0

    # ------------------------------------------------------------------ #
    # Compact (JSON-safe) round trip
    # ------------------------------------------------------------------ #
    def to_compact_dict(self) -> Dict[str, object]:
        """JSON-safe summary without the trigger pattern/mask arrays.

        The scanning service persists these to its JSONL result store; the
        arrays (the bulk of a result) are dropped, keeping per-class L1
        norms and success rates so the verdict-level API still works after
        :meth:`from_compact_dict`.  Pair-mode scans additionally persist one
        record per (source, target) cell under ``pairs``.
        """
        class_l1 = self.per_class_l1
        success: Dict[int, float] = {}
        for t in self.triggers:
            # keep the success rate of the smallest trigger per target
            if t.l1_norm <= class_l1.get(t.target_class, float("inf")):
                success[t.target_class] = float(t.success_rate)
        payload: Dict[str, object] = {
            "detector": self.detector,
            "is_backdoored": bool(self.is_backdoored),
            "flagged_classes": [int(c) for c in self.flagged_classes],
            "anomaly_indices": {str(c): float(v)
                                for c, v in self.anomaly_indices.items()},
            "per_class_l1": {str(c): float(v) for c, v in class_l1.items()},
            "success_rates": {str(c): float(v) for c, v in success.items()},
            "seconds_total": float(self.seconds_total),
            "metadata": {str(k): float(v) for k, v in self.metadata.items()},
        }
        if self.pair_anomaly_indices or any(t.source_class is not None
                                            for t in self.triggers):
            payload["pairs"] = [
                {"source": (None if t.source_class is None
                            else int(t.source_class)),
                 "target": int(t.target_class),
                 "l1": float(t.l1_norm),
                 "success": float(t.success_rate)}
                for t in self.triggers
            ]
            payload["pair_anomaly_indices"] = {
                _pair_key(pair): float(v)
                for pair, v in self.pair_anomaly_indices.items()
            }
            payload["flagged_pairs"] = [_pair_key(pair)
                                        for pair in self.flagged_pairs]
        return payload

    @classmethod
    def from_compact_dict(cls, payload: Dict[str, object]) -> "DetectionResult":
        """Rebuild a verdict-equivalent result from :meth:`to_compact_dict`.

        The reconstructed triggers carry a 1x1x1 pattern holding the stored
        L1 norm (with a mask of ones), so ``l1_norm`` — and everything
        derived from it (``per_class_l1``, ``min_l1``, ``median_l1``) —
        matches the original result; the spatial layout is gone.
        """
        def _norm_trigger(value: float) -> Tuple[np.ndarray, np.ndarray]:
            return (np.full((1, 1, 1), float(value), dtype=np.float64),
                    np.ones((1, 1, 1), dtype=np.float64))

        pairs = payload.get("pairs")
        if pairs:
            triggers = [
                ReversedTrigger(
                    target_class=int(entry["target"]),
                    pattern=_norm_trigger(entry["l1"])[0],
                    mask=_norm_trigger(entry["l1"])[1],
                    success_rate=float(entry.get("success", 0.0)),
                    source_class=(None if entry.get("source") is None
                                  else int(entry["source"])),
                )
                for entry in pairs
            ]
        else:
            success = {int(c): float(v)
                       for c, v in dict(payload.get("success_rates", {})).items()}
            triggers = [
                ReversedTrigger(
                    target_class=int(cls_key),
                    pattern=_norm_trigger(norm)[0],
                    mask=_norm_trigger(norm)[1],
                    success_rate=success.get(int(cls_key), 0.0),
                )
                for cls_key, norm in dict(payload["per_class_l1"]).items()
            ]
            triggers.sort(key=lambda t: t.target_class)
        return cls(
            detector=str(payload["detector"]),
            triggers=triggers,
            anomaly_indices={int(c): float(v)
                             for c, v in dict(payload["anomaly_indices"]).items()},
            flagged_classes=sorted(int(c) for c in payload["flagged_classes"]),
            is_backdoored=bool(payload["is_backdoored"]),
            seconds_total=float(payload.get("seconds_total", 0.0)),
            metadata={str(k): float(v)
                      for k, v in dict(payload.get("metadata", {})).items()},
            pair_anomaly_indices={
                _parse_pair_key(key): float(v)
                for key, v in dict(payload.get("pair_anomaly_indices", {})).items()
            },
            flagged_pairs=[_parse_pair_key(key)
                           for key in payload.get("flagged_pairs", [])],
        )


def mad_anomaly_indices(norms: Sequence[float]) -> Dict[int, float]:
    """Anomaly index of each value under the MAD outlier model.

    Only *smaller-than-median* values can be backdoor candidates (a backdoor
    shortcut makes the trigger smaller, never larger), so values above the
    median get index 0.

    When the MAD itself degenerates (more than half the values identical —
    e.g. all-but-one norms equal, where the single blatant outlier is exactly
    the case that must be flagged), the scale falls back to a relative,
    median-anchored estimate (:data:`DEGENERATE_RELATIVE_SCALE` of the
    median): a value is then anomalous in proportion to how far below the
    median it sits, so a tiny trigger among identical large ones is flagged
    at any pool size while an all-identical pool flags nothing.
    """
    values = np.asarray(list(norms), dtype=np.float64)
    if values.size == 0:
        return {}
    median = np.median(values)
    mad = np.median(np.abs(values - median))
    scale = MAD_CONSISTENCY * mad
    if scale < 1e-12:
        scale = DEGENERATE_RELATIVE_SCALE * float(median)
    indices: Dict[int, float] = {}
    for position, value in enumerate(values):
        if value >= median or scale < 1e-12:
            indices[position] = 0.0
        else:
            indices[position] = float((median - value) / scale)
    return indices


class TriggerReverseEngineeringDetector:
    """Base class: per-class reverse engineering + MAD outlier decision."""

    #: Detector name used in reports (overridden by subclasses).
    name: str = "detector"

    def __init__(self, clean_data: Dataset, anomaly_threshold: float = 2.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if len(clean_data) == 0:
            raise ValueError("Detectors need a non-empty clean dataset.")
        self.clean_data = clean_data
        self.anomaly_threshold = anomaly_threshold
        self._rng = rng or np.random.default_rng()
        #: Mega-path wiring (all optional).  The scanning service attaches a
        #: shared :class:`~repro.core.mega.CleanActivationCache` plus stable
        #: keys (model fingerprint / clean-pool digest); standalone callers
        #: fall back to per-object tokens and per-run caches.
        self.activation_cache: Optional[CleanActivationCache] = None
        self.mega_cascade: Optional[MegaCascadeConfig] = None
        self.mega_pool: Optional[MegaPoolConfig] = None
        self.model_key: Optional[str] = None
        self.clean_key: Optional[str] = None
        #: Stats of the most recent mega inversion run (pool/cascade/cache
        #: counters), for benchmarks and tests.
        self.last_mega_stats: Dict[str, object] = {}
        self._active_source: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Interface for subclasses
    # ------------------------------------------------------------------ #
    def reverse_engineer(self, model: Module, target_class: int) -> ReversedTrigger:
        """Reconstruct a trigger sending clean data to ``target_class``."""
        raise NotImplementedError

    def _mega_inits(self, model: Module, target_classes: List[int]):
        """Per-class starting points for the joint (work-item pool) modes.

        Subclasses return ``(inits, config, prescreen_norms)`` — the
        per-class ``(pattern, mask)`` starts, the trigger-optimization
        config, and optional per-class seed norms for cascade prescreening
        (``None`` when the detector has no seed-size signal).  The base
        implementation returns ``None``, meaning no joint path.
        """
        return None

    def reverse_engineer_batch(self, model: Module, target_classes: Sequence[int]
                               ) -> Optional[List[ReversedTrigger]]:
        """Jointly reconstruct triggers for all ``target_classes`` at once.

        Runs the :meth:`_mega_inits` starting points through the work-item
        pool with the cascade off
        (:class:`~repro.core.trigger_optimizer.BatchedTriggerMaskOptimizer`).
        Returns ``None`` when the detector provides no starting points, in
        which case :meth:`detect` falls back to the sequential per-class loop.
        """
        class_list = list(target_classes)
        prepared = self._mega_inits(model, class_list)
        if prepared is None:
            return None
        inits, config, _ = prepared
        results = BatchedTriggerMaskOptimizer(
            model, self.clean_data.images, class_list, config=config
        ).optimize(inits)
        return [_reversed(target, result)
                for target, result in zip(class_list, results)]

    # ------------------------------------------------------------------ #
    # Mega path: work-item pool + budget cascade
    # ------------------------------------------------------------------ #
    def _mega_task(self, model: Module, target_classes: Sequence[int],
                   selection_group: Optional[str] = None
                   ) -> Optional[MegaTask]:
        """Build this detector's :class:`~repro.core.mega.MegaTask`."""
        prepared = self._mega_inits(model, list(target_classes))
        if prepared is None:
            return None
        inits, config, prescreen_norms = prepared
        return MegaTask(
            model=model,
            images=self.clean_data.images,
            target_classes=target_classes,
            inits=inits,
            config=config,
            anomaly_threshold=self.anomaly_threshold,
            prescreen_norms=prescreen_norms,
            selection_group=selection_group,
            model_key=self.model_key,
            images_key=self._images_key(),
            label=self.name,
        )

    def _images_key(self) -> Optional[str]:
        """Activation-cache key of the current clean pool.

        ``None`` (no service-supplied ``clean_key``) lets the cache fall back
        to a live-object token.  Source-restricted pools (pair mode) get a
        distinct suffixed key so cached forwards never mix across sources.
        """
        if self.clean_key is None:
            return None
        if self._active_source is not None:
            return f"{self.clean_key}@src{self._active_source}"
        return self.clean_key

    def reverse_engineer_mega(self, model: Module,
                              target_classes: Sequence[int]
                              ) -> Optional[List[ReversedTrigger]]:
        """Invert all ``target_classes`` through the mega work-item pool.

        Returns ``None`` when the detector provides no mega starting points
        (:meth:`_mega_inits`), in which case :meth:`detect` falls back to the
        sequential per-class loop.
        """
        task = self._mega_task(model, target_classes)
        if task is None:
            return None
        self.last_mega_stats = {}
        [results] = run_mega_inversion(
            [task], cascade=self.mega_cascade, pool=self.mega_pool,
            cache=self.activation_cache, stats=self.last_mega_stats)
        return [_reversed(target, result)
                for target, result in zip(task.target_classes, results)]

    # ------------------------------------------------------------------ #
    # Scenario support: source-restricted clean data
    # ------------------------------------------------------------------ #
    @contextmanager
    def _restricted_clean(self, source: Optional[int]) -> Iterator[None]:
        """Temporarily restrict ``clean_data`` to one source class.

        Pair-mode scans optimize each (source, target) trigger over clean
        images of the source class only — a source-conditional backdoor is
        only a small-trigger shortcut from its own sources.  ``None`` (and a
        source absent from the clean pool, which is logged) leaves the full
        set in place.
        """
        if source is None:
            yield
            return
        indices = self.clean_data.class_indices(int(source))
        if len(indices) == 0:
            _LOG.warning("%s: clean pool has no samples of source class %d; "
                         "scanning unconditionally.", self.name, source)
            yield
            return
        original = self.clean_data
        self.clean_data = original.subset(
            indices, name=f"{original.name}@src{int(source)}")
        self._active_source = int(source)
        try:
            yield
        finally:
            self.clean_data = original
            self._active_source = None

    # ------------------------------------------------------------------ #
    # Outer detection loop
    # ------------------------------------------------------------------ #
    def detect(self, model: Module,
               classes: Optional[Sequence[int]] = None,
               pairs: Optional[Sequence[ScanPair]] = None,
               mode: str = "batched") -> DetectionResult:
        """Run reverse engineering for every class and apply the outlier test.

        ``mode`` selects the inversion engine (:data:`INVERSION_MODES`):
        ``"sequential"`` runs the per-class loop, ``"batched"`` (the default)
        one joint run on the work-item pool with the cascade off, ``"mega"``
        the pool with its budget cascade.  Modes degrade gracefully: a
        detector without the requested fast path falls back to the next one
        down.

        ``pairs`` switches to the scenario-aware pair mode: each ``(source,
        target)`` cell is reverse-engineered with the clean data restricted
        to the source class (``None`` = unconditional), the MAD outlier test
        runs over the pair norms, and the result carries per-pair anomaly
        indices and flagged pairs alongside the per-class aggregation.
        """
        if mode not in INVERSION_MODES:
            raise ValueError(f"Unknown inversion mode '{mode}'. "
                             f"Available: {', '.join(INVERSION_MODES)}")
        model.eval()
        was_grad = [p.requires_grad for p in model.parameters()]
        model.requires_grad_(False)
        try:
            if pairs is not None:
                return self._detect_pairs(model, pairs, mode)
            class_list = list(classes) if classes is not None else list(
                range(self.clean_data.num_classes))
            triggers: Optional[List[ReversedTrigger]] = None
            start = time.perf_counter()
            used_batched = False
            used_mega = False
            with _tspan("inversion", detector=self.name,
                        classes=len(class_list)) as inv_span:
                if mode == "mega" and len(class_list) > 1:
                    triggers = self.reverse_engineer_mega(model, class_list)
                    used_mega = triggers is not None
                if (triggers is None and mode != "sequential"
                        and len(class_list) > 1):
                    triggers = self.reverse_engineer_batch(model, class_list)
                    used_batched = triggers is not None
                if triggers is None:
                    triggers = []
                    for target in class_list:
                        t0 = time.perf_counter()
                        trigger = self.reverse_engineer(model, target)
                        trigger.seconds = time.perf_counter() - t0
                        triggers.append(trigger)
                        _LOG.debug("%s class %d: L1=%.3f success=%.2f (%.1fs)",
                                   self.name, target, trigger.l1_norm,
                                   trigger.success_rate, trigger.seconds)
                if inv_span is not None:
                    inv_span.attrs["engine"] = ("mega" if used_mega else
                                                "batched" if used_batched
                                                else "sequential")
            total_seconds = time.perf_counter() - start
            if used_batched or used_mega:
                # Joint optimization amortizes the wall clock across classes.
                per_class = total_seconds / max(len(triggers), 1)
                for trigger in triggers:
                    trigger.seconds = per_class

            metadata = {"batched": 1.0 if (used_batched or used_mega) else 0.0,
                        "mega": 1.0 if used_mega else 0.0}
            return _classic_result(self.name, class_list, triggers,
                                   self.anomaly_threshold, total_seconds,
                                   metadata)
        finally:
            for param, flag in zip(model.parameters(), was_grad):
                param.requires_grad = flag

    def _detect_pairs(self, model: Module, pairs: Sequence[ScanPair],
                      mode: str) -> DetectionResult:
        """Pair-mode outer loop (grad flags already disabled by ``detect``).

        Pairs are grouped by source so each group shares one clean-data
        restriction and, when the detector implements it, one mega-batch
        optimization across the group's targets.  In mega mode all source
        groups become tasks of *one* work-item pool sharing a single MAD
        selection group, so the cascade sees the full pair grid at once.
        """
        pair_list, groups = _normalize_pairs(pairs)

        start = time.perf_counter()
        used_batched = False
        used_mega = False
        by_pair: Dict[ScanPair, ReversedTrigger] = {}
        if mode == "mega":
            tasks: List[MegaTask] = []
            task_groups: List[Tuple[Optional[int], List[int]]] = []
            for source, targets in groups.items():
                with self._restricted_clean(source):
                    task = self._mega_task(model, targets,
                                           selection_group="pairs")
                if task is None:
                    tasks = []
                    break
                tasks.append(task)
                task_groups.append((source, targets))
            if tasks:
                used_mega = True
                self.last_mega_stats = {}
                results = run_mega_inversion(
                    tasks, cascade=self.mega_cascade, pool=self.mega_pool,
                    cache=self.activation_cache, stats=self.last_mega_stats)
                for (source, targets), task_results in zip(task_groups,
                                                           results):
                    for target, result in zip(targets, task_results):
                        by_pair[(source, target)] = _reversed(
                            target, result, source_class=source)
        if not by_pair:
            for source, targets in groups.items():
                group_start = time.perf_counter()
                with self._restricted_clean(source):
                    group_triggers: Optional[List[ReversedTrigger]] = None
                    if mode != "sequential" and len(targets) > 1:
                        group_triggers = self.reverse_engineer_batch(model,
                                                                     targets)
                        group_batched = group_triggers is not None
                        used_batched = used_batched or group_batched
                    if group_triggers is None:
                        group_batched = False
                        group_triggers = []
                        for target in targets:
                            t0 = time.perf_counter()
                            trigger = self.reverse_engineer(model, target)
                            trigger.seconds = time.perf_counter() - t0
                            group_triggers.append(trigger)
                if group_batched:
                    per_target = ((time.perf_counter() - group_start)
                                  / len(targets))
                    for trigger in group_triggers:
                        trigger.seconds = per_target
                for target, trigger in zip(targets, group_triggers):
                    trigger.source_class = source
                    by_pair[(source, target)] = trigger
                    _LOG.debug("%s pair (%s -> %d): L1=%.3f success=%.2f",
                               self.name, "*" if source is None else source,
                               target, trigger.l1_norm, trigger.success_rate)
        triggers = [by_pair[pair] for pair in pair_list]
        total_seconds = time.perf_counter() - start
        if used_mega:
            per_pair = total_seconds / max(len(triggers), 1)
            for trigger in triggers:
                trigger.seconds = per_pair

        return _pair_result(
            self.name, pair_list, triggers, self.anomaly_threshold,
            total_seconds,
            {"batched": 1.0 if (used_batched or used_mega) else 0.0,
             "mega": 1.0 if used_mega else 0.0,
             "pair_mode": 1.0,
             "pairs_scanned": float(len(pair_list))})


def _normalize_pairs(pairs: Sequence[ScanPair]
                     ) -> Tuple[List[ScanPair], Dict[Optional[int], List[int]]]:
    """Dedupe a pair list (order-preserving) and group targets by source.

    Returns:
        ``(pair_list, groups)`` where ``groups`` maps each source class
        (``None`` = unconditional) to its target classes in first-seen
        order.

    Raises:
        ValueError: ``pairs`` is empty.
    """
    pair_list: List[ScanPair] = []
    groups: Dict[Optional[int], List[int]] = {}
    for source, target in pairs:
        pair = (None if source is None else int(source), int(target))
        if pair in pair_list:
            continue
        pair_list.append(pair)
        groups.setdefault(pair[0], []).append(pair[1])
    if not pair_list:
        raise ValueError("Pair-mode detection needs at least one "
                         "(source, target) pair.")
    return pair_list, groups


def _pair_result(detector_name: str, pair_list: List[ScanPair],
                 triggers: List[ReversedTrigger], threshold: float,
                 seconds_total: float,
                 metadata: Dict[str, float]) -> DetectionResult:
    """Assemble the pair-mode verdict from per-pair triggers.

    The MAD outlier test runs over the pair norms; per-class anomaly
    indices aggregate each target's worst pair so classic consumers keep
    working on pair-mode results.
    """
    with _tspan("mad.decision", detector=detector_name, cells=len(triggers),
                pair_mode=True):
        norms = [t.l1_norm for t in triggers]
        position_indices = mad_anomaly_indices(norms)
    pair_anomaly = {pair_list[pos]: value
                    for pos, value in position_indices.items()}
    flagged_pairs = sorted(
        (pair for pair, value in pair_anomaly.items() if value > threshold),
        key=lambda pair: (pair[1], -1 if pair[0] is None else pair[0]))
    anomaly_indices: Dict[int, float] = {}
    for (source, target), value in pair_anomaly.items():
        anomaly_indices[target] = max(anomaly_indices.get(target, 0.0), value)
    flagged_classes = sorted({target for _, target in flagged_pairs})
    return DetectionResult(
        detector=detector_name,
        triggers=triggers,
        anomaly_indices=anomaly_indices,
        flagged_classes=flagged_classes,
        is_backdoored=bool(flagged_pairs),
        seconds_total=seconds_total,
        metadata=metadata,
        pair_anomaly_indices=pair_anomaly,
        flagged_pairs=flagged_pairs,
    )


def _classic_result(detector_name: str, class_list: List[int],
                    triggers: List[ReversedTrigger], threshold: float,
                    seconds_total: float,
                    metadata: Dict[str, float]) -> DetectionResult:
    """Assemble the classic (unconditional) verdict from per-class triggers."""
    with _tspan("mad.decision", detector=detector_name, cells=len(triggers)):
        norms = [t.l1_norm for t in triggers]
        position_indices = mad_anomaly_indices(norms)
        anomaly_indices = {
            class_list[pos]: value for pos, value in position_indices.items()
        }
        flagged = [cls for cls, value in anomaly_indices.items()
                   if value > threshold]
    return DetectionResult(
        detector=detector_name,
        triggers=triggers,
        anomaly_indices=anomaly_indices,
        flagged_classes=sorted(flagged),
        is_backdoored=bool(flagged),
        seconds_total=seconds_total,
        metadata=metadata,
    )


def detect_mega_fleet(jobs: Sequence[Sequence[Any]],
                      cascade: Optional[MegaCascadeConfig] = None,
                      pool: Optional[MegaPoolConfig] = None,
                      cache: Optional[CleanActivationCache] = None,
                      stats: Optional[dict] = None) -> List[DetectionResult]:
    """Run many scans — classic and pair-mode — through one work-item pool.

    ``jobs`` is a sequence of ``(detector, model, classes)`` triples
    (``classes=None`` scans every class of the detector's clean pool) or
    ``(detector, model, classes, pairs)`` quadruples; a non-``None``
    ``pairs`` makes that job a scenario-aware pair scan: every ``(source,
    target)`` cell is inverted with the clean pool restricted to its source
    class, and the job's verdict carries per-pair anomaly indices and
    flagged pairs exactly like ``detect(pairs=...)``.

    All cells across all jobs execute in a single
    :func:`~repro.core.mega.run_mega_inversion` call, so a multi-model or
    multi-detector scan — pair grids included — interleaves its model
    forwards in one pool instead of draining job by job; each job keeps its
    own MAD selection group and verdict.  Every detector must provide a
    mega path (:meth:`TriggerReverseEngineeringDetector._mega_inits`).

    Wall clock is attributed to jobs proportionally to their cell counts
    (the pool interleaves jobs, so per-job timing is not separable).
    """
    job_list = [tuple(job) for job in jobs]
    if not job_list:
        return []
    restore: List[Tuple[Module, List[bool]]] = []
    start = time.perf_counter()
    try:
        tasks: List[MegaTask] = []
        #: Per job: list of (task index, source, targets) task slots.
        job_slots: List[List[Tuple[int, Optional[int], List[int]]]] = []
        #: Per job: its cells — a class list, or a pair list (pair mode).
        job_cells: List[List[Any]] = []
        job_pair_mode: List[bool] = []
        for index, job in enumerate(job_list):
            detector, model, classes = job[0], job[1], job[2]
            pairs = job[3] if len(job) > 3 else None
            model.eval()
            restore.append((model, [p.requires_grad
                                    for p in model.parameters()]))
            model.requires_grad_(False)
            slots: List[Tuple[int, Optional[int], List[int]]] = []
            if pairs is None:
                class_list = list(classes) if classes is not None else list(
                    range(detector.clean_data.num_classes))
                groups: Dict[Optional[int], List[int]] = {None: class_list}
                cells: List[Any] = class_list
                job_pair_mode.append(False)
            else:
                pair_list, groups = _normalize_pairs(pairs)
                cells = pair_list
                job_pair_mode.append(True)
            for source, targets in groups.items():
                if pairs is None:
                    task = detector._mega_task(model, targets,
                                               selection_group=f"job{index}")
                else:
                    with detector._restricted_clean(source):
                        task = detector._mega_task(
                            model, targets, selection_group=f"job{index}")
                if task is None:
                    raise ValueError(
                        f"{detector.name} provides no mega inversion path; "
                        "detect_mega_fleet needs _mega_inits on every job.")
                slots.append((len(tasks), source, targets))
                tasks.append(task)
            job_slots.append(slots)
            job_cells.append(cells)

        run_stats: dict = {}
        all_results = run_mega_inversion(tasks, cascade=cascade, pool=pool,
                                         cache=cache, stats=run_stats)
        total_seconds = time.perf_counter() - start
        total_cells = sum(len(cells) for cells in job_cells) or 1

        detections: List[DetectionResult] = []
        for job, slots, cells, pair_mode in zip(job_list, job_slots,
                                                job_cells, job_pair_mode):
            detector = job[0]
            job_seconds = total_seconds * len(cells) / total_cells
            per_cell = job_seconds / max(len(cells), 1)
            detector.last_mega_stats = dict(run_stats)
            if not pair_mode:
                task_index, _, class_list = slots[0]
                triggers = [_reversed(target, result, seconds=per_cell)
                            for target, result in zip(class_list,
                                                      all_results[task_index])]
                detections.append(_classic_result(
                    detector.name, class_list, triggers,
                    detector.anomaly_threshold, job_seconds,
                    {"batched": 1.0, "mega": 1.0, "fleet": 1.0}))
                continue
            by_pair: Dict[ScanPair, ReversedTrigger] = {}
            for task_index, source, targets in slots:
                for target, result in zip(targets, all_results[task_index]):
                    by_pair[(source, target)] = _reversed(
                        target, result, seconds=per_cell, source_class=source)
            triggers = [by_pair[pair] for pair in cells]
            detections.append(_pair_result(
                detector.name, cells, triggers, detector.anomaly_threshold,
                job_seconds,
                {"batched": 1.0, "mega": 1.0, "fleet": 1.0, "pair_mode": 1.0,
                 "pairs_scanned": float(len(cells))}))
        if stats is not None:
            stats.update(run_stats)
        return detections
    finally:
        for model, flags in restore:
            for param, flag in zip(model.parameters(), flags):
                param.requires_grad = flag
