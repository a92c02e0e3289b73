"""Backdoor attacks: BadNet, Latent Backdoor, Input-Aware Dynamic, Blended.

:mod:`repro.attacks.base` holds the attack interface and the scenario
axis (:class:`TargetSpec`, ``SCENARIOS``), which the scanning service reads
for every request; the attack implementations only build backdoored
models (experiments, the benchmark zoo).  Importing the package loads none
of them: each name in ``__all__`` resolves from its submodule on first
access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "BackdoorAttack": "base", "PoisonSummary": "base", "TargetSpec": "base",
    "SCENARIOS": "base", "SCENARIO_ALL_TO_ONE": "base",
    "SCENARIO_SOURCE_CONDITIONAL": "base", "SCENARIO_ALL_TO_ALL": "base",
    "SCENARIO_CLEAN_LABEL": "base", "scan_pairs_for": "base",
    "poison_indices": "base", "BadNetAttack": "badnet",
    "BlendedAttack": "blended", "LatentBackdoorAttack": "latent",
    "InputAwareDynamicAttack": "iad", "TriggerGenerator": "iad",
    "Trigger": "triggers", "apply_trigger": "triggers",
    "make_patch_trigger": "triggers", "random_patch_location": "triggers",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
