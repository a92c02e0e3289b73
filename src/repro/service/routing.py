"""Strategy-routed triage: resolve one request into a detector escalation plan.

BENCH_detection.json puts USB at roughly 3.5 s per 10-class scan (mega
path) against far costlier NC and TABOR passes, which makes the order in
which detectors run a first-class cost/latency decision.  This module
turns one scan request plus a ``--strategy fastest|cheapest|thorough``
knob into an explicit plan:

* the **probe** detector (USB by default, the cheapest and fastest) always
  runs first;
* **escalation** to the confirmation detectors (NC, TABOR) happens only
  when the probe *flags* the model or its strongest anomaly index lands
  inside the suspicion band below the MAD threshold
  (``threshold - suspicion_margin``) — a clean-with-margin probe verdict
  ends the plan immediately;
* ``fastest`` optimizes wall clock: on suspicion every remaining detector
  is dispatched as **one scheduler batch** (parallel across workers);
* ``cheapest`` optimizes detector-seconds: escalation detectors run one
  at a time and the plan **stops at the first confirmation** — remaining
  stages are skipped with an explicit reason;
* ``thorough`` runs every detector unconditionally (one batch).

Every stage executes through the existing :class:`ScanScheduler`, so
per-stage verdicts are store-cached: resubmitting the same request (or the
same request under a different strategy that shares stages) serves hits.
The returned :class:`TriageResult` carries a per-request ``cost_breakdown``
— per-detector wall seconds, cache hits, skipped stages with reasons, and
the escalation reason — which the HTTP API ships to clients, stamps into
record telemetry, and exports as ``repro_triage_*`` metric families.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.logging import get_logger
from .records import KNOWN_DETECTORS, STRATEGIES, ScanRecord, ScanRequest
from .scheduler import ScanScheduler

__all__ = ["STRATEGIES", "RoutingPolicy", "TriageResult", "route_scan",
           "record_max_anomaly", "escalation_reason"]


@dataclass(frozen=True)
class RoutingPolicy:
    """How one scan request is routed across the detector fleet.

    Args:
        strategy: ``fastest`` (probe, then one parallel escalation batch on
            suspicion), ``cheapest`` (probe, then sequential escalation with
            stop-at-first-confirmation), or ``thorough`` (every detector,
            unconditionally).
        detectors: Escalation order; the first entry is the probe.  The
            default (USB, NC, TABOR) is cheapest-first per
            ``BENCH_detection.json``.
        suspicion_margin: Width of the suspicion band below the request's
            MAD anomaly threshold: a probe whose strongest anomaly index
            reaches ``threshold - suspicion_margin`` escalates even when
            nothing was flagged outright.
    """

    strategy: str = "fastest"
    detectors: Tuple[str, ...] = ("usb", "nc", "tabor")
    suspicion_margin: float = 0.5

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"Unknown strategy '{self.strategy}'. "
                             f"Available: {', '.join(STRATEGIES)}")
        if not self.detectors:
            raise ValueError("RoutingPolicy needs at least one detector.")
        object.__setattr__(self, "detectors",
                           tuple(d.lower() for d in self.detectors))
        for detector in self.detectors:
            if detector not in KNOWN_DETECTORS:
                raise ValueError(f"Unknown detector '{detector}'. "
                                 f"Available: {', '.join(KNOWN_DETECTORS)}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("RoutingPolicy detectors must be distinct.")
        if self.suspicion_margin < 0:
            raise ValueError("suspicion_margin must be >= 0.")


def record_max_anomaly(record: ScanRecord) -> float:
    """The strongest anomaly index a scan record carries (0.0 when none).

    Covers both the per-class indices of classic scans and the per-pair
    indices of scenario-mode scans, so routing decisions work identically
    across the scenario matrix.
    """
    detection = record.detection or {}
    values = [float(v) for v in (detection.get("anomaly_indices")
                                 or {}).values()]
    values.extend(float(v) for v in (detection.get("pair_anomaly_indices")
                                     or {}).values())
    return max(values) if values else 0.0


def escalation_reason(record: ScanRecord, threshold: float,
                      suspicion_margin: float) -> Optional[str]:
    """Why a probe record warrants escalation, or ``None`` when it does not.

    Flags escalate outright; otherwise the strongest anomaly index must
    reach the suspicion band ``[threshold - suspicion_margin, threshold)``.
    """
    if record.is_backdoored:
        flagged = ",".join(str(c) for c in record.flagged_classes) or "?"
        return (f"{record.detector.lower()} flagged class(es) {flagged} "
                f"(anomaly {record_max_anomaly(record):.2f})")
    strongest = record_max_anomaly(record)
    if strongest >= threshold - suspicion_margin:
        return (f"{record.detector.lower()} max anomaly {strongest:.2f} "
                f"within {suspicion_margin:.2f} of threshold {threshold:.2f}")
    return None


@dataclass
class TriageResult:
    """Outcome of one strategy-routed triage: merged verdict + cost ledger.

    The merged verdict is the OR over every stage that ran (any detector
    flagging the model makes the triage verdict BACKDOORED), flagged
    classes are the union, and ``suspect_class`` is the flagged class with
    the strongest anomaly index across stages.
    """

    #: Strategy that produced this result.
    strategy: str
    #: Merged verdict across every stage that ran.
    is_backdoored: bool
    #: Union of flagged classes across stages (sorted).
    flagged_classes: Tuple[int, ...]
    #: Flagged class with the strongest anomaly index (None when clean).
    suspect_class: Optional[int]
    #: One record per stage that ran, in execution order.
    records: List[ScanRecord] = field(default_factory=list)
    #: Per-request cost ledger (see :func:`route_scan` for the schema).
    cost_breakdown: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: what the HTTP API returns as a scan result."""
        return {
            "strategy": self.strategy,
            "verdict": "BACKDOORED" if self.is_backdoored else "clean",
            "is_backdoored": self.is_backdoored,
            "flagged_classes": [int(c) for c in self.flagged_classes],
            "suspect_class": self.suspect_class,
            "cost_breakdown": dict(self.cost_breakdown),
            "records": [r.to_dict() | {"cache_hit": r.cache_hit}
                        for r in self.records],
        }


def _stage_entry(record: ScanRecord) -> Dict[str, Any]:
    """One ``stages`` row of the cost breakdown for a record that ran.

    Cache hits cost (essentially) zero fresh detector-seconds; their
    stored compute time is reported separately as ``cached_seconds`` so
    the accounting invariant *sum(stage seconds) == total_seconds* holds
    for what this request actually paid.
    """
    entry: Dict[str, Any] = {
        "detector": record.detector.lower(),
        "status": "ran",
        "seconds": 0.0 if record.cache_hit else round(float(record.seconds), 6),
        "cache_hit": bool(record.cache_hit),
        "verdict": "BACKDOORED" if record.is_backdoored else "clean",
        "max_anomaly": round(record_max_anomaly(record), 4),
    }
    if record.cache_hit:
        entry["cached_seconds"] = round(float(record.seconds), 6)
    return entry


def _merge(strategy: str, records: Sequence[ScanRecord],
           breakdown: Dict[str, Any]) -> TriageResult:
    """Fold per-stage records into the merged :class:`TriageResult`."""
    flagged: Dict[int, float] = {}
    for record in records:
        detection = record.detection or {}
        indices = detection.get("anomaly_indices") or {}
        for cls in record.flagged_classes:
            score = float(indices.get(str(cls), 0.0))
            flagged[cls] = max(flagged.get(cls, 0.0), score)
    suspect = (max(flagged, key=lambda c: flagged[c]) if flagged else None)
    result = TriageResult(
        strategy=strategy,
        is_backdoored=any(r.is_backdoored for r in records),
        flagged_classes=tuple(sorted(flagged)),
        suspect_class=suspect,
        records=list(records),
        cost_breakdown=breakdown,
    )
    # Stamp the ledger into each record's telemetry block so it travels
    # with the result over the API (store lines were written pre-stamp —
    # the breakdown is per-request, not part of the cached verdict).
    for record in result.records:
        record.telemetry = dict(record.telemetry or {})
        record.telemetry["cost_breakdown"] = breakdown
    return result


def route_scan(scheduler: ScanScheduler, request: ScanRequest,
               policy: Optional[RoutingPolicy] = None) -> TriageResult:
    """Execute one request's escalation plan through ``scheduler``.

    The request's own ``detector`` field is ignored — the policy's
    detector order decides what runs; everything else on the request
    (budgets, scenario, seed, inversion mode) applies to every stage, so
    each stage is exactly the scan the CLI would run serially with that
    detector and stays cache-compatible with it.

    Args:
        scheduler: Executes (and store-caches) every stage.
        request: The scan job to triage.
        policy: Routing policy (default: ``fastest`` with USB→NC→TABOR).

    Returns:
        The merged :class:`TriageResult`.  Its ``cost_breakdown`` dict has
        the schema::

            {"strategy": str,
             "probe_detector": str,
             "escalated": bool,
             "escalation_reason": str | None,
             "stages": [{"detector", "status": "ran", "seconds",
                         "cache_hit", "verdict", "max_anomaly"}, ...],
             "skipped": [{"detector", "status": "skipped", "reason"}, ...],
             "total_seconds": float}   # == sum of stage seconds

    """
    policy = policy or RoutingPolicy()
    probe_detector = policy.detectors[0]
    confirmers = policy.detectors[1:]
    stages: List[Dict[str, Any]] = []
    skipped: List[Dict[str, Any]] = []
    records: List[ScanRecord] = []
    escalated = False
    reason: Optional[str] = None

    def _run(detectors: Sequence[str]) -> List[ScanRecord]:
        batch = scheduler.scan([dataclass_replace(request, detector=d)
                                for d in detectors])
        for record in batch:
            records.append(record)
            stages.append(_stage_entry(record))
        return batch

    if policy.strategy == "thorough":
        escalated = bool(confirmers)
        reason = "thorough strategy runs every detector unconditionally"
        _run(policy.detectors)
    else:
        probe = _run([probe_detector])[0]
        reason = escalation_reason(probe, request.anomaly_threshold,
                                   policy.suspicion_margin)
        if reason is None:
            for detector in confirmers:
                skipped.append({
                    "detector": detector, "status": "skipped",
                    "reason": (f"{probe_detector} verdict clean with "
                               f"margin; strategy={policy.strategy} skips "
                               "escalation")})
        elif policy.strategy == "fastest":
            # Latency-optimal: every confirmation detector in one batch,
            # fanned across the scheduler's workers.
            escalated = bool(confirmers)
            if confirmers:
                _run(confirmers)
        else:  # cheapest: serial escalation, stop at first confirmation
            escalated = bool(confirmers)
            remaining = list(confirmers)
            while remaining:
                detector = remaining.pop(0)
                record = _run([detector])[0]
                if record.is_backdoored:
                    for left in remaining:
                        skipped.append({
                            "detector": left, "status": "skipped",
                            "reason": f"backdoor confirmed by {detector}; "
                                      "strategy=cheapest stops at first "
                                      "confirmation"})
                    break

    total = round(sum(stage["seconds"] for stage in stages), 6)
    breakdown: Dict[str, Any] = {
        "strategy": policy.strategy,
        "probe_detector": probe_detector,
        "escalated": escalated,
        "escalation_reason": reason if escalated or policy.strategy == "thorough"
        else None,
        "stages": stages,
        "skipped": skipped,
        "total_seconds": total,
    }
    result = _merge(policy.strategy, records, breakdown)
    get_logger(__name__).info(
        "triage[%s] %s -> %s (%d stage(s) ran, %d skipped, %.2fs)",
        policy.strategy, request.checkpoint,
        "BACKDOORED" if result.is_backdoored else "clean",
        len(stages), len(skipped), total)
    return result
