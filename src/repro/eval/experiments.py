"""Experiment harness: fleet training + detection for every table in the paper.

An :class:`ExperimentConfig` describes one paper table: the dataset family,
the architecture, the list of cases (clean / BadNet-2x2 / Latent / IAD / ...),
the detectors to compare, and a :class:`ExperimentScale` that sets how large
the reproduction run is.  The paper trains 50 (CIFAR-10/MNIST) or 15
(ImageNet/VGG/GTSRB) models per case on a GPU; the reproduction defaults are
far smaller so the full suite runs on a CPU, and every knob can be raised to
paper scale by picking the ``paper`` preset.

:func:`run_experiment` runs a table on the scanning service in two steps:
training jobs save metadata-tagged checkpoints, then one
:meth:`repro.service.ScanScheduler.scan` batch scans them with one
:class:`repro.service.ScanRequest` per (checkpoint, detector)
(:func:`case_scan_requests`).  Its output contains one paper-style row per
(case, detector) pair — the same columns as Tables 1–6 — plus the per-case
mean clean accuracy and ASR.  The service layer sits above this one, so it
is imported lazily.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks import (
    BadNetAttack,
    BlendedAttack,
    InputAwareDynamicAttack,
    LatentBackdoorAttack,
)
from ..attacks.base import (
    SCENARIO_ALL_TO_ALL,
    SCENARIO_ALL_TO_ONE,
    SCENARIO_SOURCE_CONDITIONAL,
    SCENARIOS,
    BackdoorAttack,
    TargetSpec,
)
from ..data import DATASET_SPECS, load_dataset
from ..data.dataset import Dataset
from ..models import build_model
from ..nn.serialization import save_model
from ..utils.logging import get_logger
from .protocol import DetectionCaseSummary, ModelDetectionRecord, summarize_case
from .trainer import TrainedModel, Trainer, TrainingConfig

if TYPE_CHECKING:
    from ..service.records import ScanRecord, ScanRequest

__all__ = [
    "AttackSpec",
    "CaseSpec",
    "ExperimentScale",
    "SCALES",
    "ExperimentConfig",
    "CaseResult",
    "ExperimentResult",
    "CaseModelJob",
    "FleetModelSummary",
    "build_attack",
    "case_scan_requests",
    "case_scenario_id",
    "default_source_classes",
    "scenario_grid_config",
    "run_case_model_job",
    "run_experiment",
    "run_repair_sweep",
    "table1_config",
    "table2_config",
    "table3_config",
    "table4_config",
    "table5_config",
    "table6_config",
    "TABLE_CONFIGS",
]

_LOG = get_logger("repro.eval.experiments")


# ---------------------------------------------------------------------- #
# Specs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AttackSpec:
    """Declarative description of one attack used by a case."""

    kind: str  # "badnet" | "latent" | "iad" | "blended"
    patch_size: Optional[int] = None
    #: Patch size as a fraction of the image width (used by the ImageNet table,
    #: where the paper's 20x20 / 25x25 are relative to 224x224 inputs).
    patch_fraction: Optional[float] = None
    poison_rate: float = 0.1
    target_class: int = 0
    #: Scenario axis (see :data:`repro.attacks.SCENARIOS`).
    scenario: str = SCENARIO_ALL_TO_ONE
    #: Victim classes for ``source_conditional`` (defaulted per-dataset by
    #: :func:`default_source_classes` when left unset).
    source_classes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"Unknown scenario '{self.scenario}'. "
                             f"Available: {SCENARIOS}")
        if self.source_classes is not None:
            object.__setattr__(self, "source_classes",
                               tuple(int(c) for c in self.source_classes))

    def resolve_patch(self, image_size: int) -> int:
        """Concrete patch side length for an ``image_size`` input (default 3)."""
        if self.patch_fraction is not None:
            return max(2, int(round(self.patch_fraction * image_size)))
        if self.patch_size is not None:
            return self.patch_size
        return 3

    def resolve_scenario(self, num_classes: Optional[int]) -> TargetSpec:
        """The concrete :class:`TargetSpec` this attack trains under."""
        sources = self.source_classes
        if self.scenario == SCENARIO_SOURCE_CONDITIONAL and sources is None:
            if num_classes is None:
                raise ValueError("source_conditional without explicit "
                                 "source_classes needs num_classes.")
            sources = default_source_classes(self.target_class, num_classes)
        return TargetSpec(kind=self.scenario, target_class=self.target_class,
                          source_classes=sources, num_classes=num_classes)


def default_source_classes(target_class: int, num_classes: int,
                           count: int = 2) -> Tuple[int, ...]:
    """Default victim classes for source-conditional runs: the ``count``
    classes cyclically following the target."""
    if num_classes < 2:
        raise ValueError("source-conditional needs at least two classes.")
    count = min(count, num_classes - 1)
    return tuple(sorted((target_class + offset) % num_classes
                        for offset in range(1, count + 1)))


@dataclass(frozen=True)
class CaseSpec:
    """One table row group: either clean models or one attack configuration."""

    name: str
    attack: Optional[AttackSpec] = None

    @property
    def is_clean(self) -> bool:
        """True for the clean-model control case (no attack configured)."""
        return self.attack is None


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling preset: how big the fleets, datasets, and optimizations are."""

    models_per_case: int = 1
    samples_per_class: int = 40
    test_per_class: int = 12
    image_size: Optional[int] = None
    epochs: int = 7
    batch_size: int = 32
    learning_rate: float = 2e-3
    clean_budget: int = 100
    usb_iterations: int = 50
    baseline_iterations: int = 80
    uap_passes: int = 2
    #: Restrict detection to the first N classes (always including the true
    #: target); ``None`` means all classes.  Only the smallest presets use it.
    detection_class_limit: Optional[int] = None
    model_kwargs: Dict[str, object] = field(default_factory=dict)


SCALES: Dict[str, ExperimentScale] = {
    # "bench" is the pytest-benchmark default: one model per case, the smallest
    # budgets that still show the paper's qualitative shape — a couple of
    # minutes per table on a CPU.
    "bench": ExperimentScale(models_per_case=1, samples_per_class=30, test_per_class=10,
                             image_size=24, epochs=6, clean_budget=60,
                             usb_iterations=30, baseline_iterations=40, uap_passes=1,
                             detection_class_limit=4,
                             model_kwargs={}),
    # "tiny" is slightly larger: one model per case, reduced optimization
    # budgets — minutes per table on a CPU.
    "tiny": ExperimentScale(models_per_case=1, samples_per_class=40, test_per_class=10,
                            epochs=7, clean_budget=80, usb_iterations=40,
                            baseline_iterations=60, uap_passes=1,
                            detection_class_limit=6),
    # "small" gives meaningful per-case statistics in roughly an hour.
    "small": ExperimentScale(models_per_case=3, samples_per_class=60, test_per_class=15,
                             epochs=9, clean_budget=150, usb_iterations=80,
                             baseline_iterations=150, uap_passes=2),
    # "paper" mirrors the paper's fleet sizes and iteration budgets (50/15
    # models per case, 500 optimization steps); only practical on a large
    # machine or with a lot of patience.
    "paper": ExperimentScale(models_per_case=50, samples_per_class=400,
                             test_per_class=100, epochs=50, batch_size=96,
                             learning_rate=0.01, clean_budget=300,
                             usb_iterations=500, baseline_iterations=1000,
                             uap_passes=5),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one table's experiment."""

    name: str
    dataset: str
    model: str
    cases: Sequence[CaseSpec]
    detectors: Sequence[str] = ("nc", "tabor", "usb")
    scale: ExperimentScale = field(default_factory=lambda: SCALES["tiny"])
    description: str = ""
    #: Trigger-inversion engine for every scan in this experiment
    #: (``sequential`` / ``batched`` / ``mega``).
    inversion_mode: str = "batched"

    def with_scale(self, scale: ExperimentScale) -> "ExperimentConfig":
        """A copy of this config running at a different scale preset."""
        return replace(self, scale=scale)


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass
class CaseResult:
    """Everything measured for one case (fleet of models + all detectors).

    ``trained`` holds one :class:`FleetModelSummary` per model, in model
    order.
    """

    case: CaseSpec
    trained: Sequence[FleetModelSummary]
    summaries: Dict[str, DetectionCaseSummary]

    @property
    def mean_accuracy(self) -> float:
        """Mean clean test accuracy of the case's models (0.0 when empty)."""
        return float(np.mean([t.clean_accuracy for t in self.trained])) if self.trained else 0.0

    @property
    def mean_asr(self) -> Optional[float]:
        """Mean held-out attack success rate (``None`` for clean cases)."""
        rates = [t.attack_success_rate for t in self.trained
                 if t.attack_success_rate is not None]
        return float(np.mean(rates)) if rates else None


@dataclass
class ExperimentResult:
    """All cases of one experiment/table."""

    config: ExperimentConfig
    cases: List[CaseResult]

    def rows(self) -> List[Dict[str, object]]:
        """Paper-style rows: one per (case, detector)."""
        table: List[Dict[str, object]] = []
        for case_result in self.cases:
            for detector_name, summary in case_result.summaries.items():
                row = summary.as_row()
                row["scenario"] = case_scenario_id(case_result.case)
                row["accuracy"] = _percent(case_result.mean_accuracy)
                row["asr"] = _percent(case_result.mean_asr)
                table.append(row)
        return table

    def summary_for(self, case_name: str, detector: str) -> DetectionCaseSummary:
        """The per-(case, detector) summary (raises ``KeyError`` if absent)."""
        for case_result in self.cases:
            if case_result.case.name == case_name:
                return case_result.summaries[detector]
        raise KeyError(f"No case named '{case_name}'.")


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def build_attack(spec: AttackSpec, image_shape, rng: np.random.Generator,
                 num_classes: Optional[int] = None) -> BackdoorAttack:
    """Instantiate the attack described by ``spec`` for ``image_shape``.

    ``num_classes`` anchors the scenario (the all-to-all label shift wraps
    modulo K); it may stay ``None`` for plain all-to-one specs.
    """
    image_size = image_shape[1]
    patch = spec.resolve_patch(image_size)
    scenario = (spec.resolve_scenario(num_classes)
                if num_classes is not None or spec.scenario != SCENARIO_ALL_TO_ONE
                else None)
    if spec.kind == "badnet":
        return BadNetAttack(spec.target_class, image_shape, patch_size=patch,
                            poison_rate=spec.poison_rate, scenario=scenario,
                            rng=rng)
    if spec.kind == "latent":
        return LatentBackdoorAttack(spec.target_class, image_shape, patch_size=patch,
                                    poison_rate=spec.poison_rate,
                                    scenario=scenario, rng=rng)
    if spec.kind == "iad":
        return InputAwareDynamicAttack(spec.target_class, image_shape,
                                       backdoor_rate=max(spec.poison_rate, 0.1),
                                       scenario=scenario, rng=rng)
    if spec.kind == "blended":
        return BlendedAttack(spec.target_class, image_shape,
                             poison_rate=spec.poison_rate, scenario=scenario,
                             rng=rng)
    raise KeyError(f"Unknown attack kind '{spec.kind}'.")


def _detection_classes(num_classes: int, scale: ExperimentScale,
                       target_class: Optional[int],
                       extra: Sequence[int] = ()) -> Optional[List[int]]:
    """Class subset to scan, honouring ``detection_class_limit``.

    ``extra`` classes (e.g. a conditional scenario's source classes) are kept
    in the subset alongside the true target so pair-mode scans cover the
    ground-truth (source, target) cells.
    """
    limit = scale.detection_class_limit
    if limit is None or limit >= num_classes:
        return None
    required: List[int] = []
    for cls in ([target_class] if target_class is not None else []) + list(extra):
        if cls is not None and cls not in required:
            required.append(int(cls))
    fill = [c for c in range(num_classes) if c not in required]
    return sorted((required + fill)[:max(limit, len(required))])


def case_scenario_id(case: CaseSpec) -> str:
    """Short scenario label for one case (the table's ``scenario`` column)."""
    if case.is_clean:
        return "-"
    spec = case.attack
    if spec.scenario == SCENARIO_SOURCE_CONDITIONAL:
        sources = ",".join(str(c) for c in spec.source_classes or ())
        return f"source_conditional({sources or '?'}->{spec.target_class})"
    if spec.scenario == SCENARIO_ALL_TO_ALL:
        return "all_to_all"
    return f"{spec.scenario}(t={spec.target_class})"


def scenario_grid_config(config: ExperimentConfig,
                         scenarios: Sequence[str],
                         source_classes: Optional[Sequence[int]] = None,
                         cases: Optional[Sequence[str]] = None
                         ) -> ExperimentConfig:
    """Expand a table config along the scenario axis.

    Every non-clean case is replicated once per scenario in ``scenarios``
    (clean cases are kept as-is, once); ``cases`` optionally restricts the
    expansion to the named base cases.  Source classes for
    ``source_conditional`` default per-target via
    :func:`default_source_classes`.
    """
    for kind in scenarios:
        if kind not in SCENARIOS:
            raise KeyError(f"Unknown scenario '{kind}'. Available: {SCENARIOS}")
    spec = DATASET_SPECS[config.dataset]
    expanded: List[CaseSpec] = []
    for case in config.cases:
        if cases is not None and case.name not in cases:
            continue
        if case.is_clean:
            expanded.append(case)
            continue
        for kind in scenarios:
            sources = None
            if kind == SCENARIO_SOURCE_CONDITIONAL:
                sources = (tuple(int(c) for c in source_classes)
                           if source_classes is not None else
                           default_source_classes(case.attack.target_class,
                                                  spec.num_classes))
            attack = replace(case.attack, scenario=kind, source_classes=sources)
            name = (case.name if kind == SCENARIO_ALL_TO_ONE
                    else f"{case.name}@{kind}")
            expanded.append(CaseSpec(name, attack))
    if not expanded:
        raise ValueError("Scenario grid selected no cases.")
    return replace(config, cases=tuple(expanded))


# ---------------------------------------------------------------------- #
# Training jobs: one checkpoint per (case, model)
# ---------------------------------------------------------------------- #
def _train_case_model(config: ExperimentConfig, case: CaseSpec, case_seed: int,
                      model_index: int) -> Tuple[TrainedModel, int, Dataset]:
    """Train one model of one case; returns (trained, seed, test set)."""
    scale = config.scale
    spec = DATASET_SPECS[config.dataset]
    model_seed = case_seed * 1000 + model_index
    train_set, test_set = load_dataset(
        config.dataset, samples_per_class=scale.samples_per_class,
        test_per_class=scale.test_per_class, seed=model_seed,
        image_size=scale.image_size)
    image_shape = train_set.image_shape

    model = build_model(config.model, num_classes=spec.num_classes,
                        in_channels=spec.channels, image_size=image_shape[1],
                        rng=np.random.default_rng(model_seed + 1),
                        **scale.model_kwargs)
    trainer = Trainer(TrainingConfig(epochs=scale.epochs,
                                     batch_size=scale.batch_size,
                                     lr=scale.learning_rate),
                      rng=np.random.default_rng(model_seed + 2))

    if case.is_clean:
        trained = trainer.train_clean(model, train_set, test_set, seed=model_seed)
    else:
        attack = build_attack(case.attack, image_shape,
                              np.random.default_rng(model_seed + 3),
                              num_classes=spec.num_classes)
        trained = trainer.train_backdoored(model, train_set, test_set, attack,
                                           seed=model_seed)
    _LOG.info("%s/%s model %d: acc=%.3f asr=%s", config.name, case.name,
              model_index, trained.clean_accuracy,
              f"{trained.attack_success_rate:.3f}"
              if trained.attack_success_rate is not None else "n/a")
    return trained, model_seed, test_set


def _save_case_checkpoint(config: ExperimentConfig, case: CaseSpec,
                          model_index: int, model_seed: int,
                          trained: TrainedModel, directory: str) -> str:
    """Save one trained model as a metadata-tagged checkpoint; returns its path."""
    path = os.path.join(directory,
                        f"{config.name}_{case.name}_m{model_index}.npz")
    spec = DATASET_SPECS[config.dataset]
    save_model(trained.model, path, metadata={
        "model": config.model,
        "dataset": config.dataset,
        "image_size": config.scale.image_size or spec.image_size,
        "model_kwargs": dict(config.scale.model_kwargs),
        "experiment": config.name,
        "case": case.name,
        "model_index": model_index,
        "seed": model_seed,
        "clean_accuracy": trained.clean_accuracy,
        "attack_success_rate": trained.attack_success_rate,
        "is_backdoored": trained.is_backdoored,
    })
    return path


@dataclass(frozen=True)
class CaseModelJob:
    """Picklable unit of fleet work: train one model of one case."""

    config: ExperimentConfig
    case: CaseSpec
    case_seed: int
    model_index: int
    #: Directory the worker saves the trained model's checkpoint into.
    checkpoint_dir: str


@dataclass(frozen=True)
class FleetModelSummary:
    """What a training job returns instead of the trained weights.

    The weights stay in the saved ``checkpoint``, which the experiment's
    scan step reads; the summary carries everything :class:`CaseResult`
    aggregates.
    """

    clean_accuracy: float
    attack_success_rate: Optional[float]
    is_backdoored: bool
    seed: Optional[int] = None
    fingerprint: Optional[str] = None
    checkpoint: Optional[str] = None


def run_case_model_job(job: CaseModelJob) -> FleetModelSummary:
    """Worker entry point: train one (case, model) cell and save its checkpoint.

    Module-level, so it pickles under any multiprocessing start method.
    """
    from ..service.fingerprint import fingerprint_model

    trained, model_seed, _ = _train_case_model(
        job.config, job.case, job.case_seed, job.model_index)
    checkpoint = _save_case_checkpoint(job.config, job.case, job.model_index,
                                       model_seed, trained, job.checkpoint_dir)
    return FleetModelSummary(
        clean_accuracy=trained.clean_accuracy,
        attack_success_rate=trained.attack_success_rate,
        is_backdoored=trained.is_backdoored, seed=model_seed,
        fingerprint=fingerprint_model(trained.model), checkpoint=checkpoint)


# ---------------------------------------------------------------------- #
# Scanning: one service request per (checkpoint, detector)
# ---------------------------------------------------------------------- #
def _case_scenario(config: ExperimentConfig,
                   case: CaseSpec) -> Optional[TargetSpec]:
    """The scenario a case's models are trained under (``None`` when clean)."""
    if case.is_clean:
        return None
    return case.attack.resolve_scenario(
        DATASET_SPECS[config.dataset].num_classes)


def case_scan_requests(config: ExperimentConfig, case: CaseSpec,
                       checkpoint: str, seed: int) -> List[ScanRequest]:
    """The service scans of one trained model of ``case``, one per detector.

    The requests are plain :class:`repro.service.ScanRequest` values, so a
    ``python -m repro scan`` with the same fields hits the records an
    experiment stored.  ``seed`` is the model's training seed: the clean
    data comes from the world the model was trained in.  The scale sets the
    budgets (``usb_iterations`` for USB, ``baseline_iterations`` for NC and
    TABOR) and the class subset (``detection_class_limit``, always keeping
    the true target and a conditional scenario's source classes).
    """
    from ..service.records import ScanRequest

    scale = config.scale
    scenario = _case_scenario(config, case)
    kind = scenario.kind if scenario is not None else SCENARIO_ALL_TO_ONE
    classes = _detection_classes(
        DATASET_SPECS[config.dataset].num_classes, scale,
        scenario.target_class if scenario is not None else None,
        extra=(scenario.source_classes or ()) if scenario is not None else ())
    return [ScanRequest(
        checkpoint=checkpoint, detector=name.lower(), classes=classes,
        clean_budget=scale.clean_budget,
        samples_per_class=scale.samples_per_class,
        iterations=(scale.usb_iterations if name.lower() == "usb"
                    else scale.baseline_iterations),
        uap_passes=scale.uap_passes, seed=seed, scenario=kind,
        source_classes=(scenario.source_classes
                        if kind == SCENARIO_SOURCE_CONDITIONAL else None),
        inversion_mode=config.inversion_mode)
        for name in config.detectors]


def _score_case(config: ExperimentConfig, case: CaseSpec,
                trained: Sequence[FleetModelSummary],
                records: Sequence[ScanRecord]) -> CaseResult:
    """Score one case's scan records (model-major) against its ground truth."""
    scenario = _case_scenario(config, case)
    kind = scenario.kind if scenario is not None else SCENARIO_ALL_TO_ONE
    true_target = (scenario.target_class
                   if scenario is not None and kind != SCENARIO_ALL_TO_ALL
                   else None)
    width = len(config.detectors)
    by_detector: Dict[str, List[ModelDetectionRecord]] = {}
    for index, record in enumerate(records):
        by_detector.setdefault(record.detector, []).append(
            ModelDetectionRecord(
                model_index=index // width,
                is_backdoored_truth=not case.is_clean,
                true_target_class=true_target,
                detection=record.to_detection_result(), scenario=kind,
                true_target_classes=(scenario.expected_target_classes()
                                     if scenario is not None else None)))
    return CaseResult(case=case, trained=list(trained), summaries={
        name: summarize_case(case.name, name, recs)
        for name, recs in by_detector.items()})


def run_experiment(config: ExperimentConfig, seed: int = 0,
                   scheduler=None,
                   checkpoint_dir: Optional[str] = None,
                   job_timeout: Optional[float] = None,
                   job_retries: Optional[int] = None) -> ExperimentResult:
    """Train and scan every case of an experiment, and collect paper-style rows.

    Both steps run on one :class:`repro.service.ScanScheduler`:

    1. one training job per (case, model) runs :func:`run_case_model_job`
       through :meth:`~repro.service.ScanScheduler.run_jobs` on the
       scheduler's backend; each saves a metadata-tagged checkpoint and
       returns its :class:`FleetModelSummary`;
    2. one :meth:`~repro.service.ScanScheduler.scan` batch runs
       :func:`case_scan_requests` for every checkpoint.  These are ordinary
       service requests: with a store, the records are ordinary cache
       entries, and a rerun on the same backend is served from the store.
       In ``mega`` mode the whole table's scans are one pooled job.

    The rows are scored from the returned records against each case's
    ground truth.

    Args:
        config: Table description (cases, detectors, scale).
        seed: Base seed; each case uses ``seed + case_index``.
        scheduler: The :class:`repro.service.ScanScheduler` to run on
            (default: ``ScanScheduler(telemetry=False)``, inline with no
            store).
        checkpoint_dir: Where the trained checkpoints are saved (default: a
            temporary directory removed after the run).
        job_timeout: Per-training-job wall-clock budget forwarded to
            :meth:`~repro.service.ScanScheduler.run_jobs` (pool path only;
            default: the scheduler's own ``job_timeout``).
        job_retries: Retry budget per training job (default: the
            scheduler's own ``job_retries``).

    Returns:
        The :class:`ExperimentResult` with one row per (case, detector).
    """
    from ..service.scheduler import ScanScheduler

    scheduler = scheduler or ScanScheduler(telemetry=False)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    workspace = (nullcontext(checkpoint_dir) if checkpoint_dir
                 else tempfile.TemporaryDirectory(prefix="repro-experiment-"))
    models = config.scale.models_per_case
    with workspace as directory:
        jobs = [CaseModelJob(config=config, case=case,
                             case_seed=seed + case_index,
                             model_index=model_index,
                             checkpoint_dir=directory)
                for case_index, case in enumerate(config.cases)
                for model_index in range(models)]
        _LOG.info("Training %s: %d job(s) via the %s backend.", config.name,
                  len(jobs), scheduler.backend.name)
        trained: List[FleetModelSummary] = scheduler.run_jobs(
            run_case_model_job, jobs, timeout=job_timeout,
            retries=job_retries)
        records = scheduler.scan([
            request for job, summary in zip(jobs, trained)
            for request in case_scan_requests(config, job.case,
                                              summary.checkpoint,
                                              summary.seed)])

    width = models * len(config.detectors)
    return ExperimentResult(config=config, cases=[
        _score_case(config, case,
                    trained[case_index * models:(case_index + 1) * models],
                    records[case_index * width:(case_index + 1) * width])
        for case_index, case in enumerate(config.cases)])


# ---------------------------------------------------------------------- #
# Repair sweep: detect -> repair -> verify across cases x detectors
# ---------------------------------------------------------------------- #
def run_repair_sweep(config: ExperimentConfig, seed: int = 0,
                     strategies: Sequence[str] = ("unlearn",),
                     plan=None) -> List[Dict[str, object]]:
    """ASR-before/after repair table: attack x scenario x detector x strategy.

    For every non-clean case the fleet is trained and saved as in
    :func:`run_experiment`.  Each detector's detect stage runs the table's
    own request (:func:`case_scan_requests`) through the service's scan
    setup, so ``verdict_before`` is the table's verdict for that model,
    and the full reversed triggers stay in memory.  Each repair
    ``strategy`` is then applied to a fresh copy of the weights through
    :func:`repro.mitigation.repair_model` — so strategies are compared on
    identical starting points.  Repair runs in-process with the trained
    attack, so the rows carry *true* ASR before/after (the service's repair
    path can only report reversed-trigger flip rates).

    Args:
        config: Table description; clean cases are skipped.
        seed: Base seed, offset per case exactly like :func:`run_experiment`.
        strategies: Repair strategies to compare
            (:data:`repro.mitigation.STRATEGIES` members).
        plan: Base :class:`repro.mitigation.RepairPlan`; its ``strategy``
            field is replaced per sweep column.

    Returns:
        One row dict per (case, model, detector, strategy) in the column
        layout of :data:`repro.eval.reporting.repair_sweep_columns`
        (percentages for accuracy/ASR).
    """
    from ..mitigation import RepairPlan

    plan = plan or RepairPlan()
    with tempfile.TemporaryDirectory(prefix="repro-repair-sweep-") as directory:
        return [row for case_index, case in enumerate(config.cases)
                if not case.is_clean
                for model_index in range(config.scale.models_per_case)
                for row in _repair_sweep_rows(config, case, seed + case_index,
                                              model_index, strategies, plan,
                                              directory)]


def _repair_sweep_rows(config: ExperimentConfig, case: CaseSpec,
                       case_seed: int, model_index: int,
                       strategies: Sequence[str], plan,
                       directory: str) -> List[Dict[str, object]]:
    """Train one model of ``case``; one sweep row per detector x strategy."""
    from ..mitigation import repair_model
    from ..service.scheduler import _prepare_scan, resolve_request

    spec = DATASET_SPECS[config.dataset]
    trained, model_seed, test_set = _train_case_model(config, case, case_seed,
                                                      model_index)
    checkpoint = _save_case_checkpoint(config, case, model_index, model_seed,
                                       trained, directory)
    snapshot = trained.model.state_dict()  # already a copy per entry
    rows: List[Dict[str, object]] = []
    for request in case_scan_requests(config, case, checkpoint, model_seed):
        setup = _prepare_scan(resolve_request(request))
        detection = setup.detector.detect(setup.model, classes=setup.classes,
                                          pairs=setup.pairs,
                                          mode=request.inversion_mode)
        for strategy in strategies:
            model = build_model(config.model, num_classes=spec.num_classes,
                                in_channels=spec.channels,
                                image_size=test_set.image_shape[1],
                                rng=np.random.default_rng(model_seed + 1),
                                **config.scale.model_kwargs)
            model.load_state_dict(snapshot)
            report = repair_model(model, detection, setup.clean,
                                  plan=replace(plan, strategy=strategy),
                                  detector=setup.detector, eval_data=test_set,
                                  attack=trained.attack,
                                  rng=np.random.default_rng(model_seed + 6))
            rows.append({
                "case": case.name,
                "scenario": case_scenario_id(case),
                "method": detection.detector,
                "strategy": strategy,
                "model": model_index,
                "asr_before": _percent(report.asr_before),
                "asr_after": _percent(report.asr_after),
                "acc_before": _percent(report.accuracy_before),
                "acc_after": _percent(report.accuracy_after),
                "verdict_before": _verdict(report.verdict_before),
                "verdict_after": _verdict(report.verdict_after),
                "guardrail_ok": report.guardrail_ok,
                "success": report.success,
                "cells": ",".join(report.cells) or "-",
            })
            _LOG.info("%s/%s [%s/%s]: asr %.3f -> %.3f, acc %.3f -> %.3f",
                      config.name, case.name, detection.detector, strategy,
                      report.asr_before or 0.0, report.asr_after or 0.0,
                      report.accuracy_before, report.accuracy_after)
    return rows


def _percent(rate: Optional[float]) -> Optional[float]:
    """A rate as a percentage rounded to 2 places (``None`` stays ``None``)."""
    return round(rate * 100, 2) if rate is not None else None


def _verdict(flagged: Optional[bool]) -> str:
    """Table label for a verdict: BACKDOORED / clean, ``-`` when not run."""
    return "-" if flagged is None else "BACKDOORED" if flagged else "clean"


# ---------------------------------------------------------------------- #
# Table configurations (one per paper table)
# ---------------------------------------------------------------------- #
def table1_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 1: CIFAR-10 + ResNet-18, clean vs BadNet 2x2 / 3x3."""
    return ExperimentConfig(
        name="table1",
        dataset="cifar10",
        model="resnet18",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on CIFAR-10 (ResNet-18); paper: 50 models/case.",
    )


def table2_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 2: ImageNet-10 + EfficientNet-B0, BadNet with large triggers."""
    return ExperimentConfig(
        name="table2",
        dataset="imagenet10",
        model="efficientnet_b0",
        cases=(
            CaseSpec("badnet_20x20", AttackSpec("badnet", patch_fraction=20 / 224)),
            CaseSpec("badnet_25x25", AttackSpec("badnet", patch_fraction=25 / 224)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on the ImageNet subset (EfficientNet-B0); paper: 15 models/case.",
    )


def table3_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 3: stronger attacks (Latent, IAD) on VGG-16 + CIFAR-10."""
    return ExperimentConfig(
        name="table3",
        dataset="cifar10",
        model="vgg16",
        cases=(
            CaseSpec("clean"),
            CaseSpec("latent_4x4", AttackSpec("latent", patch_size=4)),
            CaseSpec("iad_full", AttackSpec("iad")),
        ),
        scale=_resolve_scale(scale),
        description="Stronger backdoor attacks on VGG-16 / CIFAR-10; paper: 15 models/case.",
    )


def table4_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 4 (appendix): VGG-16 + CIFAR-10 with BadNet triggers."""
    return ExperimentConfig(
        name="table4",
        dataset="cifar10",
        model="vgg16",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on VGG-16 / CIFAR-10; paper: 15 models/case.",
    )


def table5_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 5 (appendix): MNIST, clean vs BadNet 2x2 / 3x3."""
    return ExperimentConfig(
        name="table5",
        dataset="mnist",
        model="basic_cnn",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on MNIST; paper: 50 models/case.",
    )


def table6_config(scale: str | ExperimentScale = "tiny") -> ExperimentConfig:
    """Table 6 (appendix): GTSRB (43 classes), clean vs BadNet 2x2 / 3x3."""
    return ExperimentConfig(
        name="table6",
        dataset="gtsrb",
        model="resnet18",
        cases=(
            CaseSpec("clean"),
            CaseSpec("badnet_2x2", AttackSpec("badnet", patch_size=2)),
            CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),
        ),
        scale=_resolve_scale(scale),
        description="Detection evaluation on GTSRB; paper: 15 models/case.",
    )


def _resolve_scale(scale: str | ExperimentScale) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    if scale not in SCALES:
        raise KeyError(f"Unknown scale preset '{scale}'. Available: {sorted(SCALES)}")
    return SCALES[scale]


TABLE_CONFIGS = {
    "table1": table1_config,
    "table2": table2_config,
    "table3": table3_config,
    "table4": table4_config,
    "table5": table5_config,
    "table6": table6_config,
}
