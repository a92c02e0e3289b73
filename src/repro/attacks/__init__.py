"""Backdoor attacks: BadNet, Latent Backdoor, Input-Aware Dynamic, Blended.

:mod:`repro.attacks.scenarios` holds the scenario axis (``SCENARIOS``,
:func:`scan_pairs_for`), which the scanning service reads for every
request, and :mod:`repro.attacks.base` the attack interface
(:class:`TargetSpec`); the attack implementations only build backdoored
models (experiments, the benchmark zoo).  Importing the package loads none
of them: each name in ``__all__`` resolves from its submodule on first
access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "BackdoorAttack": "base", "PoisonSummary": "base", "TargetSpec": "base",
    "SCENARIOS": "scenarios", "SCENARIO_ALL_TO_ONE": "scenarios",
    "SCENARIO_SOURCE_CONDITIONAL": "scenarios",
    "SCENARIO_ALL_TO_ALL": "scenarios", "SCENARIO_CLEAN_LABEL": "scenarios",
    "scan_pairs_for": "scenarios",
    "poison_indices": "base", "BadNetAttack": "badnet",
    "BlendedAttack": "blended", "LatentBackdoorAttack": "latent",
    "InputAwareDynamicAttack": "iad", "TriggerGenerator": "iad",
    "Trigger": "triggers", "apply_trigger": "triggers",
    "make_patch_trigger": "triggers", "random_patch_location": "triggers",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
