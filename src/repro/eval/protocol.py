"""Detection-evaluation protocol: Model Detection and Target Class Detection.

The paper (following Dong et al., 2021) scores a detector on a fleet of
models with two metrics:

* **Model Detection** — is each model correctly identified as clean or
  backdoored?  Reported as the number of models the detector calls *Clean*
  and *Backdoored* within each case (so for a clean case the "Clean" column
  is the correct count, for an attack case the "Backdoored" column is).
* **Target Class Detection** — for models the detector flags as backdoored,
  does it name the right target class?
  * *Correct* — exactly the true target class is flagged;
  * *Correct Set* — several classes are flagged and the true target is among
    them;
  * *Wrong* — the model is flagged but the true target class is not among the
    flagged classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..attacks.base import SCENARIO_ALL_TO_ONE
from ..core.detection import DetectionResult

__all__ = ["TargetClassOutcome", "ModelDetectionRecord", "DetectionCaseSummary",
           "classify_target_detection", "summarize_case"]


#: The three target-class-detection categories used in the paper's tables.
TargetClassOutcome = str
OUTCOME_CORRECT: TargetClassOutcome = "correct"
OUTCOME_CORRECT_SET: TargetClassOutcome = "correct_set"
OUTCOME_WRONG: TargetClassOutcome = "wrong"


@dataclass
class ModelDetectionRecord:
    """Detection outcome for a single model.

    ``true_target_classes`` generalizes the single ``true_target_class`` for
    scenarios with more than one ground-truth target (all-to-all has K);
    when omitted it defaults to the singleton of ``true_target_class``.
    ``scenario`` records which attack scenario produced the model.
    """

    model_index: int
    is_backdoored_truth: bool
    true_target_class: Optional[int]
    detection: DetectionResult
    scenario: str = SCENARIO_ALL_TO_ONE
    true_target_classes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.true_target_classes is not None:
            self.true_target_classes = tuple(
                int(c) for c in self.true_target_classes)

    @property
    def expected_targets(self) -> Optional[Tuple[int, ...]]:
        """Ground-truth target set (``None`` for clean models)."""
        if self.true_target_classes is not None:
            return self.true_target_classes
        if self.true_target_class is not None:
            return (int(self.true_target_class),)
        return None

    @property
    def predicted_backdoored(self) -> bool:
        """The detector's verdict for this model."""
        return self.detection.is_backdoored

    @property
    def model_detection_correct(self) -> bool:
        """True when the verdict matches the ground truth."""
        return self.predicted_backdoored == self.is_backdoored_truth

    @property
    def target_class_outcome(self) -> Optional[TargetClassOutcome]:
        """Target-class category; ``None`` when the truth is a clean model or no flag."""
        if not self.is_backdoored_truth or not self.predicted_backdoored:
            return None
        return classify_target_detection(self.detection.flagged_classes,
                                         self.expected_targets)


def classify_target_detection(flagged_classes: List[int],
                              true_target: Union[int, Iterable[int], None]
                              ) -> TargetClassOutcome:
    """Map a set of flagged classes to Correct / Correct Set / Wrong.

    ``true_target`` may be a single class (all-to-one) or a collection of
    ground-truth targets (all-to-all backdoors every class).  *Correct* means
    every flagged class is a true target, *Correct Set* means the flags mix
    true targets with false ones, *Wrong* means no true target was flagged.
    """
    if true_target is None:
        raise ValueError("true_target must be provided for backdoored models.")
    expected = ({int(true_target)} if isinstance(true_target, (int, np.integer))
                else {int(c) for c in true_target})
    if not expected:
        raise ValueError("true_target must name at least one class.")
    flagged = set(flagged_classes)
    if not flagged:
        raise ValueError("classify_target_detection expects at least one flagged class.")
    if flagged <= expected:
        return OUTCOME_CORRECT
    if flagged & expected:
        return OUTCOME_CORRECT_SET
    return OUTCOME_WRONG


@dataclass
class DetectionCaseSummary:
    """Aggregated paper-style table row for one (case, detector) pair.

    The fields mirror the columns of Tables 1–6: mean reversed-trigger L1
    norm, Clean / Backdoored model-detection counts, and the Correct /
    Correct-Set / Wrong target-class counts.
    """

    case_name: str
    detector: str
    records: List[ModelDetectionRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Table columns
    # ------------------------------------------------------------------ #
    @property
    def num_models(self) -> int:
        """Number of models scanned in this case."""
        return len(self.records)

    @property
    def mean_trigger_l1(self) -> float:
        """Mean L1 of the reversed trigger for the flagged class (or the minimum class)."""
        values: List[float] = []
        for record in self.records:
            detection = record.detection
            suspect = detection.suspect_class
            if suspect is not None:
                values.append(detection.per_class_l1[suspect])
            else:
                values.append(detection.min_l1)
        return float(np.mean(values)) if values else 0.0

    @property
    def predicted_clean(self) -> int:
        """Models the detector declared clean (the paper's 'Clean' column)."""
        return sum(1 for r in self.records if not r.predicted_backdoored)

    @property
    def predicted_backdoored(self) -> int:
        """Models the detector flagged as backdoored."""
        return sum(1 for r in self.records if r.predicted_backdoored)

    @property
    def correct(self) -> int:
        """Flagged models whose single suspect class is the true target."""
        return sum(1 for r in self.records if r.target_class_outcome == OUTCOME_CORRECT)

    @property
    def correct_set(self) -> int:
        """Flagged models whose flagged *set* contains the true target."""
        return sum(1 for r in self.records
                   if r.target_class_outcome == OUTCOME_CORRECT_SET)

    @property
    def wrong(self) -> int:
        """Flagged models whose flagged classes miss the true target entirely."""
        return sum(1 for r in self.records if r.target_class_outcome == OUTCOME_WRONG)

    @property
    def model_detection_accuracy(self) -> float:
        """Fraction of models whose backdoored/clean verdict was correct."""
        if not self.records:
            return 0.0
        return sum(r.model_detection_correct for r in self.records) / len(self.records)

    def as_row(self) -> Dict[str, object]:
        """Row dictionary in the paper's column layout."""
        return {
            "case": self.case_name,
            "method": self.detector,
            "l1_norm": round(self.mean_trigger_l1, 2),
            "clean": self.predicted_clean,
            "backdoored": self.predicted_backdoored,
            "correct": self.correct,
            "correct_set": self.correct_set,
            "wrong": self.wrong,
        }


def summarize_case(case_name: str, detector: str,
                   records: List[ModelDetectionRecord]) -> DetectionCaseSummary:
    """Bundle per-model records into a table-row summary."""
    return DetectionCaseSummary(case_name=case_name, detector=detector,
                                records=list(records))
