"""Core contribution: targeted UAPs, trigger optimization, and the USB detector."""

from .deepfool import TargetedDeepFoolConfig, targeted_deepfool, targeted_deepfool_step
from .detection import (
    INVERSION_MODES,
    DetectionResult,
    ReversedTrigger,
    TriggerReverseEngineeringDetector,
    detect_mega_fleet,
    mad_anomaly_indices,
)
from .mega import (
    CleanActivationCache,
    MegaCascadeConfig,
    MegaInversionPool,
    MegaPoolConfig,
    MegaTask,
    run_mega_inversion,
)
from .trigger_optimizer import (
    BatchedTriggerMaskOptimizer,
    TriggerMaskOptimizer,
    TriggerOptimizationConfig,
    TriggerOptimizationResult,
    blend_images,
)
from .uap import (
    TargetedUAPConfig,
    UAPResult,
    generate_targeted_uap,
    generate_targeted_uaps,
    project_perturbation,
    targeted_error_rate,
)
from .usb import USBConfig, USBDetector

__all__ = [
    "TargetedDeepFoolConfig",
    "targeted_deepfool",
    "targeted_deepfool_step",
    "INVERSION_MODES",
    "detect_mega_fleet",
    "CleanActivationCache",
    "MegaCascadeConfig",
    "MegaInversionPool",
    "MegaPoolConfig",
    "MegaTask",
    "run_mega_inversion",
    "DetectionResult",
    "ReversedTrigger",
    "TriggerReverseEngineeringDetector",
    "mad_anomaly_indices",
    "BatchedTriggerMaskOptimizer",
    "TriggerMaskOptimizer",
    "TriggerOptimizationConfig",
    "TriggerOptimizationResult",
    "blend_images",
    "TargetedUAPConfig",
    "UAPResult",
    "generate_targeted_uap",
    "generate_targeted_uaps",
    "project_perturbation",
    "targeted_error_rate",
    "USBConfig",
    "USBDetector",
]
