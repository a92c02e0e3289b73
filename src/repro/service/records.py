"""Request/record dataclasses exchanged by the scanning service.

A :class:`ScanRequest` fully describes one scan job — which checkpoint,
which detector, and every budget knob that affects the outcome — so it can
be shipped to a worker process, digested into a cache key, and replayed
byte-for-byte later.  A :class:`ScanRecord` is the persisted outcome: the
verdict plus the compact detection summary
(:meth:`repro.core.results.DetectionResult.to_compact_dict`), JSON-safe by
construction so the result store can keep it as one JSONL line.

Repair jobs (``python -m repro repair``) persist a :class:`RepairRecord`
into the same store: its lines carry a ``"record": "repair"`` marker so
:func:`record_from_dict` — the store's line decoder — can tell the two
apart (scan lines predate the marker and decode as scans by default).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..attacks.base import SCENARIO_ALL_TO_ONE, SCENARIOS
from ..core.configs import INVERSION_MODES

if TYPE_CHECKING:
    from ..core.results import DetectionResult

__all__ = ["ScanRequest", "ScanRecord", "RepairRecord", "record_from_dict"]

#: Detectors the service knows how to build (see ``scheduler.build_detector``).
KNOWN_DETECTORS = ("usb", "nc", "tabor")


@dataclass(frozen=True)
class ScanRequest:
    """One scan job: a checkpoint, a detector, and the budgets that shape it.

    ``model`` / ``dataset`` / ``image_size`` may be omitted when the
    checkpoint carries metadata (written by ``repro.nn.save_model(...,
    metadata=...)``); explicit values always win over metadata.
    """

    checkpoint: str
    detector: str = "usb"
    model: Optional[str] = None
    dataset: Optional[str] = None
    image_size: Optional[int] = None
    #: Candidate target classes to scan; ``None`` scans every class.
    classes: Optional[Tuple[int, ...]] = None
    #: Size of the clean set X handed to the detector (paper: 300 images).
    clean_budget: int = 60
    #: Per-class sample count when synthesizing the clean pool.
    samples_per_class: int = 30
    #: Alg. 2 trigger-optimization iterations.
    iterations: int = 40
    #: Alg. 1 UAP sweeps (USB only).
    uap_passes: int = 1
    anomaly_threshold: float = 2.0
    seed: int = 0
    #: Scenario axis: non-all-to-one scans sweep the (source, target) pair
    #: grid (clean data restricted per source class).  Part of the cache key.
    scenario: str = SCENARIO_ALL_TO_ONE
    #: Suspected source classes for ``source_conditional`` scans; ``None``
    #: sweeps every candidate class as a source.
    source_classes: Optional[Tuple[int, ...]] = None
    #: Trigger-inversion engine: ``"sequential"`` (per-class loop),
    #: ``"batched"`` (stacked per-model optimization, the default), or
    #: ``"mega"`` (cross-model work-item pool with the budget cascade).
    #: Part of the cache key whenever it deviates from ``"batched"``.
    inversion_mode: str = "batched"

    def __post_init__(self) -> None:
        if self.detector.lower() not in KNOWN_DETECTORS:
            raise ValueError(f"Unknown detector '{self.detector}'. "
                             f"Available: {', '.join(KNOWN_DETECTORS)}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"Unknown scenario '{self.scenario}'. "
                             f"Available: {', '.join(SCENARIOS)}")
        if self.inversion_mode not in INVERSION_MODES:
            raise ValueError(
                f"Unknown inversion mode '{self.inversion_mode}'. "
                f"Available: {', '.join(INVERSION_MODES)}")
        if self.classes is not None:
            object.__setattr__(self, "classes",
                               tuple(int(c) for c in self.classes))
        if self.source_classes is not None:
            object.__setattr__(self, "source_classes",
                               tuple(int(c) for c in self.source_classes))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (class tuples become lists) for shipping/logging."""
        payload = dataclasses.asdict(self)
        for key in ("classes", "source_classes"):
            if payload[key] is not None:
                payload[key] = list(payload[key])
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScanRequest":
        """Rebuild a request from :meth:`to_dict` (unknown keys ignored)."""
        data = dict(payload)
        for key in ("classes", "source_classes"):
            if data.get(key) is not None:
                data[key] = tuple(int(c) for c in data[key])
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ScanRecord:
    """Persisted outcome of one scan, addressable by its cache ``key``."""

    key: str
    fingerprint: str
    config_digest: str
    checkpoint: str
    model: str
    dataset: str
    detector: str
    is_backdoored: bool
    flagged_classes: Tuple[int, ...]
    suspect_class: Optional[int]
    seconds: float
    #: Compact detection payload (``DetectionResult.to_compact_dict``).
    detection: Dict[str, Any] = field(default_factory=dict)
    #: Free-form numeric annotations (fleet runs store accuracy/ASR here).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Telemetry block: trace id, per-phase profiler breakdown, iteration
    #: counts, and (on mega runs) the pool/activation-cache stats.  Persisted
    #: so ``report`` / ``repro metrics`` can aggregate offline.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    created_at: str = ""
    worker_pid: int = 0
    #: Transient: True when this record was served from the store instead of
    #: being recomputed.  Always persisted as False.
    cache_hit: bool = False
    #: Transient transport for finished worker-side trace spans: serialized
    #: through :meth:`to_dict` so they survive the pipe/pickle hop back to
    #: the parent, which pops them into the span sink before ``store.add``
    #: (the store additionally strips them from persisted lines).
    spans: list = field(default_factory=list)

    @classmethod
    def from_detection(cls, *, key: str, fingerprint: str, config_digest: str,
                       checkpoint: str, model: str, dataset: str,
                       detection: DetectionResult, created_at: str = "",
                       worker_pid: int = 0,
                       extra: Optional[Dict[str, float]] = None,
                       telemetry: Optional[Dict[str, Any]] = None
                       ) -> "ScanRecord":
        """Build the persisted record for a freshly computed detection."""
        return cls(
            key=key,
            fingerprint=fingerprint,
            config_digest=config_digest,
            checkpoint=checkpoint,
            model=model,
            dataset=dataset,
            detector=detection.detector,
            is_backdoored=bool(detection.is_backdoored),
            flagged_classes=tuple(int(c) for c in detection.flagged_classes),
            suspect_class=detection.suspect_class,
            seconds=float(detection.seconds_total),
            detection=detection.to_compact_dict(),
            extra=dict(extra or {}),
            telemetry=dict(telemetry or {}),
            created_at=created_at,
            worker_pid=worker_pid,
        )

    def pop_spans(self) -> list:
        """Detach and return the transient worker-side span dicts."""
        spans, self.spans = self.spans, []
        return spans

    def to_detection_result(self) -> DetectionResult:
        """Rehydrate the (compact) :class:`DetectionResult` for this record."""
        from ..core.results import DetectionResult

        return DetectionResult.from_compact_dict(self.detection)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: what the result store persists as one line."""
        payload = dataclasses.asdict(self)
        payload["flagged_classes"] = [int(c) for c in self.flagged_classes]
        payload["cache_hit"] = False  # transient — never persisted as hit
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScanRecord":
        """Rebuild a record from :meth:`to_dict` (unknown keys ignored)."""
        data = dict(payload)
        data["flagged_classes"] = tuple(int(c) for c in data.get("flagged_classes", ()))
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def as_row(self) -> Dict[str, Any]:
        """Table row used by the CLI ``grid`` / ``report`` views."""
        return {
            "checkpoint": self.checkpoint,
            "model": self.model,
            "dataset": self.dataset,
            "method": self.detector,
            "verdict": "BACKDOORED" if self.is_backdoored else "clean",
            "flagged": ",".join(str(c) for c in self.flagged_classes) or "-",
            "suspect": self.suspect_class,
            "seconds": round(self.seconds, 2),
            "cached": "hit" if self.cache_hit else "miss",
        }


@dataclass
class RepairRecord:
    """Persisted outcome of one detect -> repair -> verify job.

    Shares the result store with :class:`ScanRecord` (same ``key``-addressed
    cache semantics, distinguished on disk by the ``"record": "repair"``
    marker).  ``report`` embeds the full
    :meth:`repro.mitigation.RepairReport.to_dict` payload; the headline
    fields are mirrored at the top level for tables and quick filters.
    """

    key: str
    #: Fingerprint of the *pre-repair* weights (the cache-key anchor).
    fingerprint: str
    config_digest: str
    checkpoint: str
    model: str
    dataset: str
    detector: str
    strategy: str
    #: Cache key of the underlying scan configuration (provenance link).
    scan_key: str = ""
    #: Pre-repair verdict of the repair job's own detection pass.
    was_backdoored: bool = False
    #: True when a repair was applied (something was flagged).
    repaired: bool = False
    #: Headline verdict: backdoor neutralized within the guardrail.
    success: bool = False
    accuracy_before: float = 0.0
    accuracy_after: float = 0.0
    #: Where the repaired weights were written (``None`` when nothing was
    #: repaired or the guardrail rolled the repair back).
    repaired_checkpoint: Optional[str] = None
    #: Fingerprint of the repaired weights (scan-cacheable as a new model).
    repaired_fingerprint: Optional[str] = None
    #: Full compact repair report (``RepairReport.to_dict()``).
    report: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0
    #: Telemetry block mirroring :attr:`ScanRecord.telemetry`.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    created_at: str = ""
    worker_pid: int = 0
    #: Transient: served from the store instead of recomputed.
    cache_hit: bool = False
    #: Transient worker-side trace spans (see :attr:`ScanRecord.spans`).
    spans: list = field(default_factory=list)

    #: Marker value stored under the ``"record"`` key of every line.
    RECORD_TYPE = "repair"

    def pop_spans(self) -> list:
        """Detach and return the transient worker-side span dicts."""
        spans, self.spans = self.spans, []
        return spans

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: one store line, ``"record": "repair"``-tagged."""
        payload = dataclasses.asdict(self)
        payload["record"] = self.RECORD_TYPE
        payload["cache_hit"] = False  # transient — never persisted as hit
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RepairRecord":
        """Rebuild a record from :meth:`to_dict` (unknown keys ignored)."""
        data = dict(payload)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def as_row(self) -> Dict[str, Any]:
        """Table row used by the CLI ``repair`` / ``report`` views."""
        verdict_after = self.report.get("verdict_after")
        return {
            "checkpoint": self.checkpoint,
            "method": self.detector,
            "strategy": self.strategy,
            "before": "BACKDOORED" if self.was_backdoored else "clean",
            "after": ("-" if verdict_after is None
                      else "BACKDOORED" if verdict_after else "clean"),
            "acc_before": round(100 * self.accuracy_before, 2),
            "acc_after": round(100 * self.accuracy_after, 2),
            "repaired": "yes" if self.repaired else "no",
            "success": "yes" if self.success else "NO",
            "seconds": round(self.seconds, 2),
            "cached": "hit" if self.cache_hit else "miss",
        }


def record_from_dict(payload: Dict[str, Any]):
    """Decode one store line into its record type.

    Lines tagged ``"record": "repair"`` become :class:`RepairRecord`;
    everything else (including pre-repair stores with no marker) decodes as
    :class:`ScanRecord`.
    """
    if payload.get("record") == RepairRecord.RECORD_TYPE:
        return RepairRecord.from_dict(payload)
    return ScanRecord.from_dict(payload)
