"""Backdoor attack interface, scenario abstraction, and poisoning utilities.

Attacks come in two flavours:

* **Static** attacks (BadNet, Blended, Latent Backdoor) poison a fraction of
  the training set once, before training starts
  (:meth:`BackdoorAttack.poison_dataset`).
* **Dynamic** attacks (Input-Aware Dynamic) generate a different trigger per
  input and are trained jointly with the classifier; they poison every batch
  on the fly (:meth:`BackdoorAttack.poison_batch`) and update their own
  parameters via :meth:`BackdoorAttack.attack_step`.

Both expose :meth:`BackdoorAttack.apply_trigger`, used by the evaluation
harness to measure the attack success rate (ASR) on held-out data.

**Scenarios.**  The paper evaluates all-to-one backdoors (every poisoned
sample is relabelled to one target class), but the detection framing is only
trustworthy if the harness can also exercise the scenarios that stress it.
A :class:`TargetSpec` describes *which* samples an attack victimizes and
*where* it sends them:

* ``all_to_one`` — any non-target sample, relabelled to ``target_class``.
* ``source_conditional`` — only samples from ``source_classes`` are
  victims; the backdoor is expected to fire only for those sources.
* ``all_to_all`` — the label-shift attack ``t = (y + 1) mod K``: every
  class is a victim and every class is a target.
* ``clean_label`` — the trigger is stamped onto *target-class* samples
  whose labels are left untouched; at test time the trigger still sends
  non-target inputs to the target.

The spec owns the victim mask, the expected-label mapping used by the ASR
evaluation, the poisoning-candidate selection, and the per-``(source,
target)`` pair grid a scenario-aware detector scan should sweep.  The
scenario names and that grid (:func:`scan_pairs_for`) live in the
NumPy-free :mod:`repro.attacks.scenarios`, which the scanning service reads;
this module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Dataset
from .scenarios import (SCENARIO_ALL_TO_ALL, SCENARIO_ALL_TO_ONE,
                        SCENARIO_CLEAN_LABEL, SCENARIO_SOURCE_CONDITIONAL,
                        SCENARIOS, scan_pairs_for)

if TYPE_CHECKING:
    from ..nn.layers import Module

__all__ = [
    "SCENARIO_ALL_TO_ONE",
    "SCENARIO_SOURCE_CONDITIONAL",
    "SCENARIO_ALL_TO_ALL",
    "SCENARIO_CLEAN_LABEL",
    "SCENARIOS",
    "TargetSpec",
    "scan_pairs_for",
    "BackdoorAttack",
    "PoisonSummary",
    "poison_indices",
]


@dataclass(frozen=True)
class TargetSpec:
    """Scenario description: who the victims are and where they are sent.

    ``num_classes`` is required for ``all_to_all`` (the label shift wraps
    modulo K); ``source_classes`` is required for ``source_conditional``.
    """

    kind: str = SCENARIO_ALL_TO_ONE
    target_class: int = 0
    source_classes: Optional[Tuple[int, ...]] = None
    num_classes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIOS:
            raise ValueError(f"Unknown scenario '{self.kind}'. "
                             f"Available: {SCENARIOS}")
        if self.target_class < 0:
            raise ValueError("target_class must be non-negative.")
        if self.kind == SCENARIO_SOURCE_CONDITIONAL:
            if not self.source_classes:
                raise ValueError("source_conditional requires source_classes.")
            sources = tuple(sorted(int(c) for c in self.source_classes))
            if self.target_class in sources:
                raise ValueError("source_classes must not contain the target.")
            object.__setattr__(self, "source_classes", sources)
        elif self.source_classes is not None:
            object.__setattr__(self, "source_classes",
                               tuple(sorted(int(c) for c in self.source_classes)))
        if self.kind == SCENARIO_ALL_TO_ALL and not self.num_classes:
            raise ValueError("all_to_all requires num_classes (label shift is "
                             "computed modulo K).")

    # ------------------------------------------------------------------ #
    # Label mapping
    # ------------------------------------------------------------------ #
    def poisoned_labels(self, labels: np.ndarray) -> np.ndarray:
        """Label each victim sample is expected to be classified as."""
        labels = np.asarray(labels, dtype=np.int64)
        if self.kind == SCENARIO_ALL_TO_ALL:
            return (labels + 1) % int(self.num_classes)
        return np.full(labels.shape, self.target_class, dtype=np.int64)

    def victim_mask(self, labels: np.ndarray) -> np.ndarray:
        """Boolean mask of samples the backdoor is expected to redirect.

        This is the denominator of the ASR: for conditional attacks only
        source-class samples count, for all-to-all every sample shifts, and
        for (clean-label) all-to-one every non-target sample counts.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if self.kind == SCENARIO_ALL_TO_ALL:
            return np.ones(labels.shape, dtype=bool)
        if self.kind == SCENARIO_SOURCE_CONDITIONAL:
            return np.isin(labels, self.source_classes)
        return labels != self.target_class

    def poison_candidate_mask(self, labels: np.ndarray) -> np.ndarray:
        """Samples eligible for *training-time* poisoning.

        Clean-label attacks stamp the trigger onto target-class samples (the
        labels stay honest); every other scenario poisons its victims.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if self.kind == SCENARIO_CLEAN_LABEL:
            return labels == self.target_class
        return self.victim_mask(labels)

    @property
    def relabels(self) -> bool:
        """Whether training-time poisoning flips labels (clean-label does not)."""
        return self.kind != SCENARIO_CLEAN_LABEL

    # ------------------------------------------------------------------ #
    # Detection-side views
    # ------------------------------------------------------------------ #
    def expected_target_classes(self, num_classes: Optional[int] = None
                                ) -> Tuple[int, ...]:
        """Ground-truth target classes a perfect detector should name."""
        if self.kind == SCENARIO_ALL_TO_ALL:
            count = int(num_classes or self.num_classes)
            return tuple(range(count))
        return (self.target_class,)

    def scan_pairs(self, classes: Sequence[int]
                   ) -> List[Tuple[Optional[int], int]]:
        """The (source, target) grid a scenario-aware scan of this spec sweeps."""
        sources = self.source_classes if self.kind == SCENARIO_SOURCE_CONDITIONAL else None
        return scan_pairs_for(self.kind, classes, source_classes=sources)

    def describe(self) -> str:
        """Short stable identifier (used in case names and config digests)."""
        if self.kind == SCENARIO_SOURCE_CONDITIONAL:
            sources = ",".join(str(c) for c in self.source_classes)
            return f"{self.kind}(src={sources}->t={self.target_class})"
        if self.kind == SCENARIO_ALL_TO_ALL:
            return f"{self.kind}(K={self.num_classes})"
        return f"{self.kind}(t={self.target_class})"


@dataclass
class PoisonSummary:
    """Book-keeping returned by static poisoning."""

    poisoned_count: int
    total_count: int
    target_class: int
    scenario: str = SCENARIO_ALL_TO_ONE

    @property
    def poison_rate(self) -> float:
        """Realized fraction of samples poisoned (0.0 for an empty batch)."""
        if self.total_count == 0:
            return 0.0
        return self.poisoned_count / self.total_count


def poison_indices(labels: np.ndarray, target_class: int, poison_rate: float,
                   rng: np.random.Generator,
                   exclude_target: bool = True) -> np.ndarray:
    """Select indices of samples to poison (all-to-one helper).

    The paper poisons ``poison_rate`` of the whole training set; samples
    already belonging to the target class are excluded by default because
    relabelling them is a no-op.  Scenario-aware selection goes through
    :meth:`TargetSpec.poison_candidate_mask` instead.
    """
    if not 0.0 <= poison_rate <= 1.0:
        raise ValueError("poison_rate must be in [0, 1].")
    candidates = np.arange(len(labels))
    if exclude_target:
        candidates = candidates[labels != target_class]
    count = int(round(poison_rate * len(labels)))
    count = min(count, len(candidates))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(candidates, size=count, replace=False)


class BackdoorAttack:
    """Base class for backdoor attacks across the scenario matrix."""

    #: Whether the attack poisons batches dynamically during training.
    dynamic: bool = False

    def __init__(self, target_class: int, poison_rate: float = 0.01,
                 name: str = "backdoor",
                 scenario: Optional[TargetSpec] = None) -> None:
        if scenario is None:
            scenario = TargetSpec(target_class=target_class)
        elif scenario.target_class != target_class:
            raise ValueError(
                f"target_class={target_class} conflicts with "
                f"scenario.target_class={scenario.target_class}; pass "
                "matching values (or build the attack from the scenario's "
                "target).")
        if target_class < 0:
            raise ValueError("target_class must be non-negative.")
        if not 0.0 <= poison_rate <= 1.0:
            raise ValueError("poison_rate must be in [0, 1].")
        self.scenario = scenario
        #: Primary target class.  For ``all_to_all`` there is no single
        #: target; the attribute keeps the constructor argument for
        #: book-keeping (ASR and poisoning use the scenario's mapping).
        self.target_class = scenario.target_class
        self.poison_rate = poison_rate
        self.name = name

    # ------------------------------------------------------------------ #
    # Scenario delegation (used by the ASR evaluation and the detectors)
    # ------------------------------------------------------------------ #
    def victim_mask(self, labels: np.ndarray) -> np.ndarray:
        """Samples the trigger is expected to redirect (ASR denominator)."""
        return self.scenario.victim_mask(labels)

    def expected_labels(self, labels: np.ndarray) -> np.ndarray:
        """Per-victim label the trigger is expected to produce."""
        return self.scenario.poisoned_labels(labels)

    def scan_pairs(self, classes: Sequence[int]
                   ) -> List[Tuple[Optional[int], int]]:
        """(source, target) grid a scenario-aware scan of this attack sweeps."""
        return self.scenario.scan_pairs(classes)

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def prepare(self, model: Module, dataset: Dataset,
                rng: np.random.Generator) -> None:
        """Optional hook run before training (e.g. trigger pre-optimization)."""

    def poison_dataset(self, dataset: Dataset,
                       rng: np.random.Generator) -> Tuple[Dataset, PoisonSummary]:
        """Return a poisoned copy of ``dataset`` (static attacks only)."""
        raise NotImplementedError

    def poison_batch(self, images: np.ndarray, labels: np.ndarray,
                     rng: np.random.Generator
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Poison a batch on the fly (dynamic attacks only)."""
        raise NotImplementedError

    def attack_step(self, model: Module, images: np.ndarray, labels: np.ndarray,
                    rng: np.random.Generator) -> Optional[float]:
        """Update attack-owned parameters (dynamic attacks); returns a loss value."""
        return None

    def apply_trigger(self, images: np.ndarray,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Apply the backdoor trigger to a batch of clean images."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared static-poisoning helper
    # ------------------------------------------------------------------ #
    def _poison_static(self, dataset: Dataset, rng: np.random.Generator
                       ) -> Tuple[Dataset, PoisonSummary]:
        """Standard static poisoning: trigger + (scenario-mapped) relabel."""
        images = dataset.images.copy()
        labels = dataset.labels.copy()
        candidates = np.where(self.scenario.poison_candidate_mask(labels))[0]
        count = min(int(round(self.poison_rate * len(labels))), len(candidates))
        chosen = (rng.choice(candidates, size=count, replace=False)
                  if count else np.empty(0, dtype=np.int64))
        if len(chosen):
            images[chosen] = self.apply_trigger(images[chosen], rng)
            if self.scenario.relabels:
                labels[chosen] = self.scenario.poisoned_labels(labels[chosen])
        summary = PoisonSummary(poisoned_count=len(chosen), total_count=len(labels),
                                target_class=self.target_class,
                                scenario=self.scenario.kind)
        poisoned = Dataset(images, labels, dataset.num_classes,
                           name=f"{dataset.name}+{self.name}")
        return poisoned, summary
