"""Shared trigger-reverse-engineering detection framework.

Every detector in the paper (Neural Cleanse, TABOR, USB) follows the same
outer loop:

1. For every candidate target class ``t``, reverse-engineer a trigger
   ``(pattern, mask)`` that sends clean inputs to ``t``.
2. Compare the sizes (L1 norms) of the per-class reversed triggers.
3. Flag classes whose trigger is an anomalously *small* outlier (the backdoor
   "shortcut"), using the median-absolute-deviation (MAD) anomaly index from
   the Neural Cleanse paper.

**One loop.**  A scan is a list of ``(source, target)`` cells — a classic
scan is the unconditional grid ``[(None, t) for t in classes]`` — and
:meth:`TriggerReverseEngineeringDetector.detect` inverts them one source
group at a time, over clean data restricted to the source class.  By
default (``mode="batched"``) a group of several targets runs as *one*
joint optimization on the work-item pool of :mod:`repro.core.mega` with the
budget cascade off, amortizing every model forward/backward across the
targets on a ``(K·B, C, H, W)`` mega-batch.  ``mode="mega"`` runs a scan of
several cells as a one-job :func:`detect_mega_fleet`, the same pool with the
cascade on.  ``mode="sequential"`` (per-class wall clock, or the reference
for A/B validation), a one-target group and a one-cell scan call
:meth:`TriggerReverseEngineeringDetector.reverse_engineer` per cell.  Each
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
Table 7 harness).

This module provides the data structures, the MAD outlier test, and the
:class:`TriggerReverseEngineeringDetector` base class implementing the outer
loop; concrete detectors implement
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
    """Base class: per-cell reverse engineering + MAD outlier decision."""

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

        Returns ``(inits, config, prescreen_norms)`` — the per-class
        ``(pattern, mask)`` starts, the trigger-optimization config, and
        optional per-class seed norms for cascade prescreening (``None``
        when the detector has no seed-size signal).  Every detector
        implements it: ``batched`` groups and :func:`detect_mega_fleet` take
        their starts from here.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Scan cells and the engines' building blocks
    # ------------------------------------------------------------------ #
    def _cells(self, classes: Optional[Sequence[int]],
               pairs: Optional[Sequence[ScanPair]]
               ) -> Tuple[List[ScanPair], Dict[Optional[int], List[int]]]:
        """A scan's cells and its targets grouped by source, in first-seen order.

        Without ``pairs`` the cells are ``(None, t)`` for every ``t`` in
        ``classes`` (default: every class).  Repeated cells are dropped; an
        empty scan or a class outside the clean pool raises ``ValueError``.
        """
        if pairs is None:
            if classes is None:
                classes = range(self.clean_data.num_classes)
            pairs = [(None, target) for target in classes]
        cells: List[ScanPair] = list(dict.fromkeys(
            (None if source is None else int(source), int(target))
            for source, target in pairs))
        if not cells:
            raise ValueError(f"{self.name}: a scan needs at least one class "
                             "or (source, target) pair.")
        num_classes = self.clean_data.num_classes
        groups: Dict[Optional[int], List[int]] = {}
        for source, target in cells:
            for cls in (source, target):
                if cls is not None and not 0 <= cls < num_classes:
                    raise ValueError(
                        f"{self.name}: class {cls} is outside the clean "
                        f"pool's {num_classes} classes.")
            groups.setdefault(source, []).append(target)
        return cells, groups

    def _mega_task(self, model: Module, source: Optional[int],
                   targets: List[int], selection_group: str) -> MegaTask:
        """One source group's :class:`~repro.core.mega.MegaTask`."""
        with self._restricted_clean(source):
            inits, config, prescreen_norms = self._mega_inits(model, targets)
            return MegaTask(
                model=model,
                images=self.clean_data.images,
                target_classes=targets,
                inits=inits,
                config=config,
                anomaly_threshold=self.anomaly_threshold,
                prescreen_norms=prescreen_norms,
                selection_group=selection_group,
                model_key=self.model_key,
                images_key=self._images_key(),
                label=self.name,
            )

    def _invert(self, model: Module, source: Optional[int],
                targets: List[int], joint: bool) -> List[ReversedTrigger]:
        """One source group's triggers, from one joint run or per target.

        A joint run optimizes the :meth:`_mega_inits` starts together and
        splits its wall clock evenly over them.
        """
        start = time.perf_counter()
        with self._restricted_clean(source):
            if joint:
                inits, config, _ = self._mega_inits(model, targets)
                results = BatchedTriggerMaskOptimizer(
                    model, self.clean_data.images, targets, config=config
                ).optimize(inits)
                seconds = (time.perf_counter() - start) / len(targets)
                return [_reversed(target, result, seconds=seconds,
                                  source_class=source)
                        for target, result in zip(targets, results)]
            triggers = []
            for target in targets:
                cell_start = time.perf_counter()
                trigger = self.reverse_engineer(model, target)
                trigger.seconds = time.perf_counter() - cell_start
                trigger.source_class = source
                triggers.append(trigger)
                _LOG.debug("%s cell %s: L1=%.3f success=%.2f (%.1fs)",
                           self.name, trigger.pair, trigger.l1_norm,
                           trigger.success_rate, trigger.seconds)
            return triggers

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
        """Reverse-engineer a trigger for every scan cell and apply the MAD test.

        ``classes`` (default: every class of the clean pool) scans the
        unconditional cells ``(None, t)``.  ``pairs`` scans ``(source,
        target)`` cells instead, each over clean data restricted to its
        source (``None`` = unconditional); the result then also carries
        per-pair anomaly indices and flagged pairs.  Repeated cells are
        scanned once.  ``mode`` selects the engine (:data:`INVERSION_MODES`,
        see the module docstring).

        Raises:
            ValueError: an unknown ``mode``, a scan with no cell, or a class
                outside ``[0, clean_data.num_classes)``.
        """
        if mode not in INVERSION_MODES:
            raise ValueError(f"Unknown inversion mode '{mode}'. "
                             f"Available: {', '.join(INVERSION_MODES)}")
        classes = None if classes is None else list(classes)
        pairs = None if pairs is None else list(pairs)
        cells, groups = self._cells(classes, pairs)
        if mode == "mega" and len(cells) > 1:
            engine = "mega"
        elif mode != "sequential" and any(len(targets) > 1
                                          for targets in groups.values()):
            engine = "batched"
        else:
            engine = "sequential"
        with _tspan("inversion", detector=self.name, classes=len(cells),
                    engine=engine):
            if engine == "mega":
                return detect_mega_fleet(
                    [(self, model, classes, pairs)], cascade=self.mega_cascade,
                    pool=self.mega_pool, cache=self.activation_cache)[0]
            start = time.perf_counter()
            by_cell: Dict[ScanPair, ReversedTrigger] = {}
            with _frozen([model]):
                for source, targets in groups.items():
                    joint = engine == "batched" and len(targets) > 1
                    for trigger in self._invert(model, source, targets, joint):
                        by_cell[trigger.pair] = trigger
            seconds = time.perf_counter() - start
        return _verdict(self, cells, by_cell, seconds,
                        {"batched": float(engine == "batched"), "mega": 0.0},
                        pair_mode=pairs is not None)


@contextmanager
def _frozen(models: Sequence[Module]) -> Iterator[None]:
    """Eval mode with parameter gradients off for ``models``, then restore.

    Flags come back in reverse order: a model listed twice keeps its own.
    """
    restore = []
    for model in models:
        model.eval()
        restore.append((model, [p.requires_grad for p in model.parameters()]))
        model.requires_grad_(False)
    try:
        yield
    finally:
        for model, flags in reversed(restore):
            for param, flag in zip(model.parameters(), flags):
                param.requires_grad = flag


def _verdict(detector: TriggerReverseEngineeringDetector,
             cells: List[ScanPair], by_cell: Dict[ScanPair, ReversedTrigger],
             seconds_total: float, metadata: Dict[str, float],
             pair_mode: bool) -> DetectionResult:
    """A scan's verdict: the MAD test over its cell norms.

    A class scores its worst cell's index.  Pair mode adds the per-cell
    indices, flagged cells and ``pair_mode``/``pairs_scanned`` metadata.
    """
    triggers = [by_cell[cell] for cell in cells]
    with _tspan("mad.decision", detector=detector.name, cells=len(triggers),
                pair_mode=pair_mode):
        position_indices = mad_anomaly_indices([t.l1_norm for t in triggers])
    cell_anomaly = {cells[pos]: value
                    for pos, value in position_indices.items()}
    flagged_cells = sorted(
        (cell for cell, value in cell_anomaly.items()
         if value > detector.anomaly_threshold),
        key=lambda cell: (cell[1], -1 if cell[0] is None else cell[0]))
    anomaly_indices: Dict[int, float] = {}
    for (_, target), value in cell_anomaly.items():
        anomaly_indices[target] = max(anomaly_indices.get(target, 0.0), value)
    if pair_mode:
        metadata = {**metadata, "pair_mode": 1.0,
                    "pairs_scanned": float(len(cells))}
    return DetectionResult(
        detector=detector.name,
        triggers=triggers,
        anomaly_indices=anomaly_indices,
        flagged_classes=sorted({target for _, target in flagged_cells}),
        is_backdoored=bool(flagged_cells),
        seconds_total=seconds_total,
        metadata=metadata,
        pair_anomaly_indices=cell_anomaly if pair_mode else {},
        flagged_pairs=flagged_cells if pair_mode else [],
    )


def detect_mega_fleet(jobs: Sequence[Sequence[Any]],
                      cascade: Optional[MegaCascadeConfig] = None,
                      pool: Optional[MegaPoolConfig] = None,
                      cache: Optional[CleanActivationCache] = None,
                      stats: Optional[dict] = None) -> List[DetectionResult]:
    """Run many scans — classic and pair-mode — through one work-item pool.

    ``jobs`` is a sequence of ``(detector, model, classes)`` triples or
    ``(detector, model, classes, pairs)`` quadruples, read exactly like the
    arguments of :meth:`TriggerReverseEngineeringDetector.detect`: a job's
    verdict has the shape ``detect`` gives it, pair-mode extras included.

    Every source group of every job is one task of a single
    :func:`~repro.core.mega.run_mega_inversion` call, so a multi-model or
    multi-detector scan — pair grids included — interleaves its model
    forwards in one pool instead of draining job by job; each job keeps its
    own MAD selection group and verdict.

    Wall clock is attributed to jobs proportionally to their cell counts
    (the pool interleaves jobs, so per-job timing is not separable).
    """
    job_list = [tuple(job) for job in jobs]
    if not job_list:
        return []
    start = time.perf_counter()
    tasks: List[MegaTask] = []
    #: Per job: (detector, cells, pair mode, [(task index, source, targets)]).
    plans = []
    with _frozen([job[1] for job in job_list]):
        for index, job in enumerate(job_list):
            detector, model, classes = job[:3]
            pairs = job[3] if len(job) > 3 else None
            cells, groups = detector._cells(classes, pairs)
            slots = []
            for source, targets in groups.items():
                slots.append((len(tasks), source, targets))
                tasks.append(detector._mega_task(
                    model, source, targets, selection_group=f"job{index}"))
            plans.append((detector, cells, pairs is not None, slots))
        run_stats: dict = {}
        all_results = run_mega_inversion(tasks, cascade=cascade, pool=pool,
                                         cache=cache, stats=run_stats)
    total_seconds = time.perf_counter() - start
    total_cells = sum(len(cells) for _, cells, _, _ in plans)

    detections: List[DetectionResult] = []
    for detector, cells, pair_mode, slots in plans:
        job_seconds = total_seconds * len(cells) / total_cells
        per_cell = job_seconds / len(cells)
        detector.last_mega_stats = dict(run_stats)
        by_cell = {
            (source, target): _reversed(target, result, seconds=per_cell,
                                        source_class=source)
            for task_index, source, targets in slots
            for target, result in zip(targets, all_results[task_index])}
        detections.append(_verdict(
            detector, cells, by_cell, job_seconds,
            {"batched": 1.0, "mega": 1.0, "fleet": 1.0}, pair_mode))
    if stats is not None:
        stats.update(run_stats)
    return detections
