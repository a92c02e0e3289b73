"""Timing harness for Table 7 and §4.4 (detection time per class).

The paper measures, per candidate class, the wall-clock time each detector
spends reverse engineering a trigger for an EfficientNet-B0 model, and reports
that USB is several-fold cheaper than NC and TABOR because (i) it runs far
fewer optimization iterations and (ii) the targeted-UAP seed can be reused
across models of the same architecture.

:func:`measure_detection_times` reproduces that measurement for any trained
model.  The sequential mode times ``reverse_engineer`` per class and reports
genuine per-class figures (Table 7).  The joint modes — ``batched`` (one
stacked optimization per model) and ``mega`` (the cross-model work-item pool
with the budget cascade) — interleave all classes in one tensor program, so
per-class wall clock is **not attributable**: those timings carry only the
joint-scan ``total`` (plus the class list it covered) and leave
``per_class_seconds`` empty rather than fabricating a uniform split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.detection import INVERSION_MODES, TriggerReverseEngineeringDetector
from ..data.dataset import Dataset
from ..nn.layers import Module
from ..obs.metrics import PROFILER

__all__ = ["ClassTiming", "TimingReport", "measure_detection_times"]


@dataclass
class ClassTiming:
    """Reverse-engineering wall-clock measurement for one detector.

    Sequential measurements populate ``per_class_seconds`` (one genuine
    timing per class).  Joint measurements (``mode`` of ``"batched"`` or
    ``"mega"``) populate ``total`` and ``classes_timed`` instead — the
    engine interleaves classes, so splitting the total across them would
    fabricate numbers that were never measured.
    """

    detector: str
    per_class_seconds: Dict[int, float] = field(default_factory=dict)
    #: Inversion engine that produced the timing (``INVERSION_MODES``).
    mode: str = "sequential"
    #: Joint-scan wall clock; ``None`` for sequential measurements.
    total: Optional[float] = None
    #: Classes the joint scan covered (keys of ``per_class_seconds``
    #: otherwise).
    classes_timed: Tuple[int, ...] = ()
    #: Per-phase wall clock of a joint scan (``uap_sweep``, ``sweep``,
    #: ``coarse_sweep``, ``finalist_resume``, ``mega.fused_step``...),
    #: recorded by the :data:`repro.obs.metrics.PROFILER`.  Unlike a per-class split, the
    #: phase split *is* measurable for joint engines — phases run back to
    #: back inside the tensor program.  Empty for sequential measurements.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def batched(self) -> bool:
        """Whether the measurement came from a joint (multi-class) scan."""
        return self.mode != "sequential"

    @property
    def total_seconds(self) -> float:
        """Wall clock over all scanned classes (joint total when present)."""
        if self.total is not None:
            return float(self.total)
        return float(sum(self.per_class_seconds.values()))

    @property
    def class_count(self) -> int:
        """Number of classes the measurement covered."""
        if self.per_class_seconds:
            return len(self.per_class_seconds)
        return len(self.classes_timed)

    @property
    def mean_seconds(self) -> float:
        """Mean per-class wall clock (0.0 when nothing was timed).

        For joint modes this is ``total / K`` — a bookkeeping average, not a
        per-class measurement.
        """
        count = self.class_count
        if not count:
            return 0.0
        return self.total_seconds / count


@dataclass
class TimingReport:
    """Timing results for all detectors on one model (a Table-7 row group)."""

    case_name: str
    timings: List[ClassTiming]

    def rows(self) -> List[Dict[str, object]]:
        """Table-7-style rows: one per (detector, mode) timing entry.

        Per-class columns appear only for sequential measurements — joint
        modes report ``total_s``/``mean_s`` alone.
        """
        out: List[Dict[str, object]] = []
        for timing in self.timings:
            row: Dict[str, object] = {"case": self.case_name,
                                      "method": timing.detector,
                                      "mode": timing.mode,
                                      "total_s": round(timing.total_seconds, 2),
                                      "mean_s": round(timing.mean_seconds, 2)}
            for cls, seconds in sorted(timing.per_class_seconds.items()):
                row[f"class_{cls}_s"] = round(seconds, 2)
            for phase, seconds in sorted(timing.phase_seconds.items()):
                column = phase.replace(".", "_")
                row[f"phase_{column}_s"] = round(seconds, 3)
            out.append(row)
        return out

    def speedup_over(self, baseline: str, target: str = "USB") -> float:
        """Paper-style headline: how many times faster ``target`` is than ``baseline``."""
        by_name = {t.detector: t for t in self.timings}
        if baseline not in by_name or target not in by_name:
            raise KeyError("Both detectors must be present in the report.")
        target_total = by_name[target].total_seconds
        if target_total <= 0:
            return float("inf")
        return by_name[baseline].total_seconds / target_total


def measure_detection_times(model: Module,
                            detectors: Dict[str, TriggerReverseEngineeringDetector],
                            classes: Optional[Sequence[int]] = None,
                            case_name: str = "timing",
                            mode: str = "sequential") -> TimingReport:
    """Time trigger reverse engineering of every detector on ``model``.

    Args:
        model: Trained model to scan (gradients are disabled for the run).
        detectors: Name -> detector mapping; one timing entry per detector.
        classes: Candidate classes (default: every class of the clean pool).
        case_name: Label stamped on the report.
        mode: ``"sequential"`` (per-class loop, genuine per-class times),
            ``"batched"`` (one stacked scan per detector), or ``"mega"``
            (the pooled engine with the budget cascade).  Joint modes time
            one ``detect()`` call and record only its total — their engines
            interleave classes, so per-class attribution would be
            fabricated.  A single class is always timed sequentially.
    """
    if mode not in INVERSION_MODES:
        raise ValueError(f"Unknown timing mode '{mode}'. "
                         f"Available: {', '.join(INVERSION_MODES)}")
    model.eval()
    was_grad = [p.requires_grad for p in model.parameters()]
    model.requires_grad_(False)
    try:
        timings: List[ClassTiming] = []
        for name, detector in detectors.items():
            class_list = list(classes) if classes is not None else list(
                range(detector.clean_data.num_classes))
            timing = ClassTiming(detector=name, classes_timed=tuple(class_list))
            if mode != "sequential" and len(class_list) > 1:
                # Joint engines report per-phase wall clock (coarse sweep vs
                # finalist resume vs UAP seeding) through the profiler — the
                # one split that *is* measurable when classes interleave.
                prior_profiling = PROFILER.enabled
                PROFILER.enable()
                PROFILER.reset()
                try:
                    result = detector.detect(model, classes=class_list,
                                             mode=mode)
                    snapshot = PROFILER.snapshot().get("phases", {})
                finally:
                    PROFILER.reset()
                    if not prior_profiling:
                        PROFILER.disable()
                timing.mode = "mega" if result.metadata["mega"] else "batched"
                timing.total = result.seconds_total
                timing.phase_seconds = {
                    phase: round(float(entry["seconds"]), 6)
                    for phase, entry in snapshot.items()}
            else:
                for target in class_list:
                    start = time.perf_counter()
                    detector.reverse_engineer(model, target)
                    timing.per_class_seconds[target] = (time.perf_counter()
                                                        - start)
            timings.append(timing)
        return TimingReport(case_name=case_name, timings=timings)
    finally:
        for param, flag in zip(model.parameters(), was_grad):
            param.requires_grad = flag
