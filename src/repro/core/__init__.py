"""Core contribution: targeted UAPs, trigger optimization, and the USB detector.

* :mod:`repro.core.configs` — the detector configurations a scan's cache
  key digests (and :data:`INVERSION_MODES`), free of NumPy;
* :mod:`repro.core.uap` and :mod:`repro.core.deepfool` — targeted UAPs
  (Alg. 1);
* :mod:`repro.core.trigger_optimizer` and :mod:`repro.core.mega` — trigger
  inversion (Alg. 2) on the joint work-item pool;
* :mod:`repro.core.detection` and :mod:`repro.core.usb` — the detection
  loop, MAD outlier test and the USB detector;
* :mod:`repro.core.results` — what a scan finds (:class:`DetectionResult`,
  :class:`ReversedTrigger`), free of the engines that compute it.

Importing the package loads none of these: each name in ``__all__``
resolves from its submodule on first access (:mod:`repro._lazy`), so a
cache hit digests a config and renders its verdict without compiling the
inversion engines.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "TargetedDeepFoolConfig": "deepfool", "targeted_deepfool": "deepfool",
    "targeted_deepfool_step": "deepfool", "INVERSION_MODES": "configs",
    "detect_mega_fleet": "detection", "CleanActivationCache": "mega",
    "MegaCascadeConfig": "mega", "MegaInversionPool": "mega",
    "MegaPoolConfig": "mega", "MegaTask": "mega",
    "run_mega_inversion": "mega", "DetectionResult": "results",
    "ReversedTrigger": "results",
    "TriggerReverseEngineeringDetector": "detection",
    "mad_anomaly_indices": "detection",
    "BatchedTriggerMaskOptimizer": "trigger_optimizer",
    "TriggerMaskOptimizer": "trigger_optimizer",
    "TriggerOptimizationConfig": "configs",
    "TriggerOptimizationResult": "trigger_optimizer",
    "blend_images": "trigger_optimizer", "TargetedUAPConfig": "configs",
    "UAPResult": "uap", "generate_targeted_uap": "uap",
    "generate_targeted_uaps": "uap", "project_perturbation": "uap",
    "targeted_error_rate": "uap", "USBConfig": "configs",
    "USBDetector": "usb",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
