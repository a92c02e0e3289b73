"""Detection results: what a scan finds, independent of how it ran.

:class:`ReversedTrigger` is one reverse-engineered trigger for a
``(source, target)`` cell; :class:`DetectionResult` is a detector's verdict
over every cell it scanned, with a compact JSON-safe round trip
(:meth:`DetectionResult.to_compact_dict` /
:meth:`DetectionResult.from_compact_dict`) that the scanning service
persists in its result store.  They need only NumPy, so rendering a cached
verdict does not import the detectors or the inversion engines;
:mod:`repro.core.detection`, which produces them, re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ScanPair", "ReversedTrigger", "DetectionResult"]

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
