"""Request/record dataclasses exchanged by the scanning service.

A :class:`ScanRequest` fully describes one scan job — which checkpoint,
which detector, and every budget knob that affects the outcome — so it can
be shipped to a worker process, digested into a cache key, and replayed
byte-for-byte later; a :class:`RepairRequest` adds the repair strategy and
budgets.  Each request field is declared once — type, default, help — and
``python -m repro`` generates its flags from it, ``docs/api.md`` its body
reference; construction checks every value (:func:`coerce`), whoever
builds the request.  A :class:`ScanRecord` is the persisted outcome: the
verdict plus the compact detection summary
(:meth:`repro.core.results.DetectionResult.to_compact_dict`), JSON-safe by
construction so the result store can keep it as one JSONL line.

Repair jobs (``python -m repro repair``) persist a :class:`RepairRecord`
into the same store: its lines carry a ``"record": "repair"`` marker so
:func:`record_from_dict` — the store's line decoder — can tell the two
apart (scan lines predate the marker and decode as scans by default).
"""

import dataclasses
from contextlib import suppress
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Optional, Tuple, Union,
                    get_args, get_origin)

from ..attacks.scenarios import SCENARIO_ALL_TO_ONE, SCENARIOS
from ..core.configs import INVERSION_MODES
from ..data import DATASET_SPECS

if TYPE_CHECKING:
    from ..core.results import DetectionResult

__all__ = ["ScanRequest", "RepairRequest", "ScanRecord", "RepairRecord",
           "record_from_dict", "coerce"]

#: Detectors the service knows how to build (see ``scheduler.build_detector``).
KNOWN_DETECTORS = ("usb", "nc", "tabor")
#: Triage strategies the router understands (see
#: :mod:`repro.service.routing`).
STRATEGIES = ("fastest", "cheapest", "thorough")
#: ``repro.mitigation.STRATEGIES``, without importing the mitigation code.
REPAIR_STRATEGIES = ("unlearn", "prune", "both")


def _field(default: Any = dataclasses.MISSING, help: str = "",  # noqa: A002
           choices: Any = None, flag: Optional[str] = "",
           cli: Optional[str] = None) -> Any:
    """A request field: its default, help, allowed values and CLI flag.

    ``flag`` is the option name (``""``: ``--<field-name>``, ``None``: no
    flag); ``cli`` names how the flag spells the value, a key of
    ``repro.service.cli._SPELLINGS`` or ``"negate"`` (the flag sets False).
    """
    return field(default=default, metadata={
        "help": help, "choices": choices, "flag": flag, "cli": cli})


def coerce(hint: Any, value: Any) -> Any:
    """``value`` as the type ``hint``, converted only where nothing is lost.

    ``4.0`` passes as the int ``4``, ``2`` as the float ``2.0``, a NumPy
    number likewise; a list becomes a tuple without repeats (first kept)
    and a dict a nested request.  A bool is no number.

    Raises:
        TypeError: ``value`` is no ``hint`` and cannot become one exactly.
    """
    if get_origin(hint) is Union:  # Optional[X]: None or an X
        if value is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            item = get_args(hint)[0]
            return tuple(dict.fromkeys(coerce(item, v) for v in value))
    elif isinstance(value, dict) and issubclass(hint, _Request):
        return hint.from_dict(value)
    elif hint in (int, float):
        # int(inf), int(nan) and float(10**400) raise; a lossy conversion
        # or a string (int("3") != "3") compares unequal.
        with suppress(TypeError, ValueError, OverflowError):
            number = hint(value)
            if number == value and not isinstance(value, bool):
                return number
    elif isinstance(value, hint):
        return value
    expected = "a list" if get_origin(hint) is tuple else hint.__name__
    raise TypeError(f"expected {expected}, got {value!r}")


class _Request:
    """Construction-time checks and the JSON round trip of a request."""

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            try:
                value = coerce(spec.type, getattr(self, spec.name))
            except TypeError as error:
                raise TypeError(f"{type(self).__name__}.{spec.name}: "
                                f"{error}") from None
            choices = spec.metadata["choices"]
            if choices and value is not None and value not in choices:
                raise ValueError(
                    f"Unknown {spec.name.replace('_', ' ')} '{value}'. "
                    f"Available: {', '.join(map(str, choices))}")
            object.__setattr__(self, spec.name, value)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: class tuples become lists, a nested request a dict."""
        return dataclasses.asdict(self, dict_factory=lambda pairs: {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in pairs})

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> Any:
        """Rebuild a request from :meth:`to_dict` or a JSON body.

        Raises:
            ValueError / TypeError: an unknown key, or a value it refuses.
        """
        unknown = set(payload) - {spec.name for spec in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s): "
                             f"{', '.join(sorted(unknown))}")
        return cls(**payload)


@dataclass(frozen=True)
class ScanRequest(_Request):
    """One scan job: a checkpoint, a detector, and the budgets that shape it.

    ``model`` / ``dataset`` / ``image_size`` may be omitted when the
    checkpoint carries metadata (written by ``repro.nn.save_model(...,
    metadata=...)``); explicit values always win over metadata.  Detector
    names are case-insensitive and stored lower-case.
    """

    checkpoint: str = _field(help="Path to a .npz checkpoint.", flag=None)
    detector: str = _field("usb", "Detector to run.", KNOWN_DETECTORS)
    model: Optional[str] = _field(None, "Architecture, a name in repro.models."
                                  "MODEL_BUILDERS (default: metadata).",
                                  cli="model")
    dataset: Optional[str] = _field(None, "Dataset family for the clean set "
                                    "(default: metadata).",
                                    sorted(DATASET_SPECS))
    image_size: Optional[int] = _field(
        None, "Input resolution (default: metadata, then dataset spec).")
    classes: Optional[Tuple[int, ...]] = _field(
        None, "Candidate target classes, comma-separated on the command line "
        "(default: all); at least one, none negative.  A class beyond the "
        "dataset's is refused when the checkpoint is resolved.",
        cli="classes")
    clean_budget: int = _field(60, "Clean images handed to the detector "
                               "(paper: 300).")
    samples_per_class: int = _field(30, "Per-class size of the synthesized "
                                    "clean pool.")
    iterations: int = _field(40, "Trigger-optimization iterations (Alg. 2).")
    uap_passes: int = _field(1, "UAP sweeps over the clean set (Alg. 1, USB "
                             "only).")
    anomaly_threshold: float = _field(2.0, "MAD anomaly index above which a "
                                      "class is flagged.")
    seed: int = _field(0, "Seed of the clean sample and the detector.")
    scenario: str = _field(SCENARIO_ALL_TO_ONE, "Scan scenario; others than "
                           "all_to_one sweep the (source, target) pairs.",
                           SCENARIOS)
    source_classes: Optional[Tuple[int, ...]] = _field(
        None, "Suspected source classes of source_conditional scans, "
        "comma-separated on the command line (default: all candidates); at "
        "least one, none negative, and checked against the dataset like "
        "classes.", cli="classes")
    inversion_mode: str = _field(
        "batched", "Trigger-inversion engine: a work-item pool run per class "
        "(sequential) or per scan (batched), or cross-model with the budget "
        "cascade (mega).", INVERSION_MODES)

    def __post_init__(self) -> None:
        if isinstance(self.detector, str):
            object.__setattr__(self, "detector", self.detector.lower())
        super().__post_init__()
        for name in ("classes", "source_classes"):
            value = getattr(self, name)
            if value is not None and (not value or min(value) < 0):
                raise ValueError(f"ScanRequest.{name}: expected class ids "
                                 f">= 0, at least one, got {list(value)}")


@dataclass(frozen=True)
class RepairRequest(_Request):
    """One repair job: a scan request plus the repair strategy and budgets.

    Every field participates in the repair cache key, so two repairs of the
    same weights with different strategies (or guardrails) never collide in
    the store.  Construction runs the checks of :meth:`plan`.
    """

    scan: ScanRequest = _field(help="The scan of the detect stage.", flag=None)
    strategy: str = _field("both", "Repair strategy: trigger-informed "
                           "unlearning, activation-differential pruning, or "
                           "both.", REPAIR_STRATEGIES)
    unlearn_epochs: int = _field(3, "Unlearning fine-tune epochs.")
    learning_rate: float = _field(1e-3, "Unlearning fine-tune learning rate.")
    stamp_fraction: float = _field(0.5, "Fraction of each unlearning batch "
                                   "stamped with a reversed trigger.")
    prune_fraction: float = _field(0.1, "Max fraction of penultimate units "
                                   "pruned.")
    max_accuracy_drop: float = _field(
        0.03, "Clean-accuracy guardrail, a fraction (the flag takes "
        "percentage points); a worse repair is rolled back.", cli="percent")
    success_flip_rate: float = _field(0.2, "Post-repair flip rate below "
                                      "which a cell is neutralized.",
                                      flag=None)
    rescan: bool = _field(True, "Re-scan the repaired model.",
                          flag="--no-rescan", cli="negate")
    output: Optional[str] = _field(
        None, "Repaired checkpoint path, or a directory for it (the flag "
        "creates it; default: next to the input).", flag="--output-dir",
        cli="directory")

    def __post_init__(self) -> None:
        super().__post_init__()
        self.plan()

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
                       detection: "DetectionResult", created_at: str = "",
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

    def to_detection_result(self) -> "DetectionResult":
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
