"""Detector configurations: what a scan's cache key digests, without NumPy.

Every cached verdict is addressed by a digest of its detector's config
(:func:`repro.service.fingerprint.digest_config`), so resolving a scan
request builds one of these dataclasses.  They live here, apart from the
detectors they configure, so that a cache hit can compute its key without
importing the autograd kernels and inversion engines.  The digest covers
each class's name and field values, not its module, so every key computed
before the classes moved here still matches.

The defining modules of the detectors re-export them:
:mod:`repro.core.trigger_optimizer`, :mod:`repro.core.uap`,
:mod:`repro.core.usb`, :mod:`repro.defenses.neural_cleanse`,
:mod:`repro.defenses.tabor` and :mod:`repro.core.detection`
(:data:`INVERSION_MODES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["INVERSION_MODES", "TriggerOptimizationConfig",
           "TargetedUAPConfig", "USBConfig", "NeuralCleanseConfig",
           "TaborConfig"]

#: Inversion execution modes accepted by
#: ``TriggerReverseEngineeringDetector.detect`` (and the service's
#: ``--inversion-mode`` flag), all on the work-item pool: one one-cell run
#: per class, one joint run per scan with the cascade off, and the pool with
#: its budget cascade.
INVERSION_MODES = ("sequential", "batched", "mega")


@dataclass
class TriggerOptimizationConfig:
    """Weights and schedule of the trigger/mask optimization."""

    #: Number of optimization iterations (m = 500 in the paper; scaled down by
    #: the experiment presets).
    iterations: int = 200
    learning_rate: float = 0.1
    betas: Tuple[float, float] = (0.5, 0.9)
    batch_size: int = 32
    #: Weight of the SSIM similarity term (1.0 for USB, 0.0 for NC/TABOR).
    ssim_weight: float = 1.0
    #: Weight of the mask L1 term.
    mask_l1_weight: float = 0.01
    #: TABOR: weight of the total-variation smoothness penalty on the mask.
    mask_tv_weight: float = 0.0
    #: TABOR: weight of the penalty on pattern mass outside the mask.
    outside_pattern_weight: float = 0.0
    #: Freeze a class early once its trigger success rate reaches this
    #: threshold (``None`` disables early stop, so every class runs the full
    #: budget).  Every inversion mode honours it.  Success is tracked
    #: *incrementally* from the blended-batch logits every iteration already
    #: computes, so a converged class is frozen at its exact convergence
    #: iteration instead of burning steps until the next periodic full-set
    #: evaluation.
    early_stop_success: Optional[float] = None
    #: Read by nothing.  It stays only because it enters every
    #: detector-config digest: dropping it would change every cache key.
    early_stop_check_every: int = 25

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive.")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive.")
        if self.early_stop_success is not None and not (
                0.0 < self.early_stop_success <= 1.0):
            raise ValueError("early_stop_success must be in (0, 1].")
        if self.early_stop_check_every <= 0:
            raise ValueError("early_stop_check_every must be positive.")


@dataclass
class TargetedUAPConfig:
    """Hyperparameters of the targeted UAP search (paper's Alg. 1)."""

    #: Desired targeted error rate θ: stop once this fraction of X maps to t.
    desired_error_rate: float = 0.6
    #: Norm used for the projection of v ("l2" or "linf").
    norm: str = "linf"
    #: Radius δ of the projection ball.
    radius: float = 0.3
    #: Maximum number of sweeps over X.
    max_passes: int = 5
    #: DeepFool overshoot.
    overshoot: float = 0.02
    #: Mini-batch size for the batched DeepFool steps.
    batch_size: int = 64
    clip_min: float = 0.0
    clip_max: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.desired_error_rate <= 1.0:
            raise ValueError("desired_error_rate must be in (0, 1].")
        if self.norm not in ("l2", "linf"):
            raise ValueError("norm must be 'l2' or 'linf'.")
        if self.radius <= 0:
            raise ValueError("radius must be positive.")


@dataclass
class USBConfig:
    """End-to-end configuration of the USB detector."""

    uap: TargetedUAPConfig = field(default_factory=TargetedUAPConfig)
    optimization: TriggerOptimizationConfig = field(
        default_factory=lambda: TriggerOptimizationConfig(ssim_weight=1.0,
                                                          mask_l1_weight=0.01))
    #: MAD anomaly-index threshold above which a class is flagged.
    anomaly_threshold: float = 2.0
    #: If True, skip Alg. 1 and start Alg. 2 from a random point (ablation).
    random_init: bool = False


@dataclass
class NeuralCleanseConfig:
    """Configuration of the Neural Cleanse baseline."""

    optimization: TriggerOptimizationConfig = field(
        default_factory=lambda: TriggerOptimizationConfig(ssim_weight=0.0,
                                                          mask_l1_weight=0.01))
    anomaly_threshold: float = 2.0


@dataclass
class TaborConfig:
    """Configuration of the TABOR baseline."""

    optimization: TriggerOptimizationConfig = field(
        default_factory=lambda: TriggerOptimizationConfig(
            ssim_weight=0.0,
            mask_l1_weight=0.01,
            mask_tv_weight=0.002,
            outside_pattern_weight=0.002,
        ))
    anomaly_threshold: float = 2.0

