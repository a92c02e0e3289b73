"""The scenario axis: scenario names and the pair grid a scan sweeps.

Plain Python with no NumPy, so the scanning service can validate a
request's scenario and plan its ``(source, target)`` cells without loading
the attack implementations; :mod:`repro.attacks.base` re-exports every name
here beside :class:`~repro.attacks.base.TargetSpec`, which describes the
same scenarios from the attack side.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "SCENARIO_ALL_TO_ONE",
    "SCENARIO_SOURCE_CONDITIONAL",
    "SCENARIO_ALL_TO_ALL",
    "SCENARIO_CLEAN_LABEL",
    "SCENARIOS",
    "scan_pairs_for",
]

SCENARIO_ALL_TO_ONE = "all_to_one"
SCENARIO_SOURCE_CONDITIONAL = "source_conditional"
SCENARIO_ALL_TO_ALL = "all_to_all"
SCENARIO_CLEAN_LABEL = "clean_label"

#: Every scenario kind the harness understands, in taxonomy order.
SCENARIOS: Tuple[str, ...] = (
    SCENARIO_ALL_TO_ONE,
    SCENARIO_SOURCE_CONDITIONAL,
    SCENARIO_ALL_TO_ALL,
    SCENARIO_CLEAN_LABEL,
)


def scan_pairs_for(kind: str, classes: Sequence[int],
                   source_classes: Optional[Sequence[int]] = None
                   ) -> List[Tuple[Optional[int], int]]:
    """Per-``(source, target)`` grid a detector should sweep for ``kind``.

    ``classes`` are the candidate target classes under scan.  A source of
    ``None`` means "optimize the trigger over clean data from all classes"
    (the classic unconditional scan).  Conditional scenarios expand to the
    full (source, target) grid over the candidate classes — restricted to
    ``source_classes`` when the caller knows (or suspects) the sources —
    because a source-conditional trigger is only small when reverse-engineered
    from its own source class.
    """
    if kind not in SCENARIOS:
        raise ValueError(f"Unknown scenario '{kind}'. Available: {SCENARIOS}")
    targets = list(classes)
    if kind in (SCENARIO_ALL_TO_ONE, SCENARIO_CLEAN_LABEL):
        return [(None, t) for t in targets]
    sources = list(source_classes) if source_classes else targets
    return [(s, t) for t in targets for s in sources if s != t]
