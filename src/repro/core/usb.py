"""USB — Universal Soldier for Backdoor detection (the paper's contribution).

For every candidate target class the detector:

1. generates a **targeted UAP** on a small clean set (Alg. 1,
   :mod:`repro.core.uap`), and
2. refines it into a ``(pattern, mask)`` trigger with the Alg. 2 optimization
   (:mod:`repro.core.trigger_optimizer`), whose loss is
   ``CE(f(x'), t) − SSIM(x, x') + ‖mask‖₁``.

The per-class reversed-trigger L1 norms then go through the shared MAD
outlier test (:mod:`repro.core.detection`): a backdoored model shows an
anomalously small trigger for its true target class because the UAP — and the
optimization seeded by it — latches onto the backdoor shortcut instead of a
class's natural features.

**Joint scan.**  ``detect()`` runs both stages for all K candidate classes
jointly by default.  Alg. 1 sweeps the K running perturbations against each
clean mini-batch as one mega-batch (:func:`~repro.core.uap.
generate_targeted_uaps`, called from ``_mega_inits``).  Alg. 2 then refines
the K seeded ``(pattern, mask)`` pairs on the work-item pool of
:mod:`repro.core.mega`.  Classes whose UAP reaches θ, or (with
``early_stop_success`` configured) whose trigger already flips the clean set,
drop out of the mega-batch early.  :meth:`USBDetector.reverse_engineer` runs
the two stages for one class; ``detect`` calls it per class under
``mode="sequential"`` and for a scan of a single class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.dataset import Dataset
from ..nn.layers import Module
from ..obs.metrics import PROFILER
from ..obs.trace import span as _span
from .detection import ReversedTrigger, TriggerReverseEngineeringDetector
from .mega import _forward_logits
from .trigger_optimizer import TriggerMaskOptimizer, TriggerOptimizationConfig
from .uap import (
    TargetedUAPConfig,
    UAPResult,
    generate_targeted_uap,
    generate_targeted_uaps,
)

__all__ = ["USBConfig", "USBDetector"]


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


class USBDetector(TriggerReverseEngineeringDetector):
    """UAP-seeded trigger reverse engineering + MAD outlier detection."""

    name = "USB"

    def __init__(self, clean_data: Dataset, config: Optional[USBConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        config = config or USBConfig()
        super().__init__(clean_data, anomaly_threshold=config.anomaly_threshold,
                         rng=rng)
        self.config = config
        #: Cached per-class UAPs from the last :meth:`detect` call.  The paper
        #: notes UAPs transfer across similar models, so callers may reuse them
        #: via :meth:`seed_uaps`.
        self.last_uaps: Dict[int, UAPResult] = {}
        self._seeded_uaps: Dict[int, UAPResult] = {}

    def seed_uaps(self, uaps: Dict[int, UAPResult]) -> None:
        """Provide precomputed UAPs (e.g. from a similar model) to skip Alg. 1.

        The paper's §4.4 amortization reuses UAPs across *similar* models —
        which at minimum means the same input geometry.  Every seeded
        perturbation is validated against this detector's clean-data
        ``image_shape``; a UAP recovered from a model with a different input
        shape raises :class:`ValueError` instead of being silently used as
        the Alg. 2 init (and recorded into ``last_uaps`` as if native).
        """
        expected = tuple(self.clean_data.image_shape)
        for target, result in uaps.items():
            shape = tuple(np.asarray(result.perturbation).shape)
            if shape != expected:
                raise ValueError(
                    f"seed_uaps: UAP for class {target} has shape {shape}, "
                    f"but this detector scans {expected} inputs — UAPs only "
                    "transfer between models sharing the input shape "
                    "(paper §4.4).")
        self._seeded_uaps = dict(uaps)

    def reverse_engineer(self, model: Module, target_class: int) -> ReversedTrigger:
        """Alg. 1 then Alg. 2 for one class: the sequential engine.

        The targeted UAP (a :meth:`seed_uaps` one when provided, recorded in
        ``last_uaps``) seeds the trigger/mask refinement; with
        ``random_init`` a random start replaces it.
        """
        images = self.clean_data.images
        optimizer = TriggerMaskOptimizer(model, images, target_class,
                                         config=self.config.optimization)

        if self.config.random_init:
            pattern_init, mask_init = TriggerMaskOptimizer.random_init(
                self.clean_data.image_shape, self._rng)
            uap_result = None
        else:
            uap_result = self._seeded_uaps.get(target_class)
            if uap_result is None:
                uap_result = generate_targeted_uap(model, images, target_class,
                                                   config=self.config.uap,
                                                   rng=self._rng)
            self.last_uaps[target_class] = uap_result
            pattern_init, mask_init = TriggerMaskOptimizer.init_from_uap(
                uap_result.perturbation)

        result = optimizer.optimize(pattern_init, mask_init)
        return ReversedTrigger(target_class=target_class, pattern=result.pattern,
                               mask=result.mask, success_rate=result.success_rate,
                               iterations=result.iterations)

    def _mega_inits(self, model: Module, target_classes: List[int]):
        """Alg. 1 seeds for the joint modes, with UAP norms as prescreen.

        The joint Alg. 1 sweep takes its first mini-batch's predictions from
        the clean logits (from the shared clean-activation cache when one is
        wired) and reports in-sweep error estimates (the UAPs only seed
        Alg. 2 here).  In ``mode="mega"`` the per-class UAP L1 norms feed the
        cascade's prescreen, so a seed that already latched onto a shortcut
        is guaranteed the full refinement budget.
        """
        class_list = list(target_classes)
        if self.config.random_init:
            inits = [TriggerMaskOptimizer.random_init(
                self.clean_data.image_shape, self._rng) for _ in class_list]
            return inits, self.config.optimization, None
        missing = [t for t in class_list if t not in self._seeded_uaps]
        uap_results = dict(self._seeded_uaps)
        if missing:
            with _span("usb.uap_sweep", classes=len(missing)):
                with PROFILER.phase("uap_sweep"):
                    images = self.clean_data.images
                    if self.activation_cache is not None:
                        clean_logits = self.activation_cache.clean_logits(
                            model, images, model_key=self.model_key,
                            images_key=self._images_key())
                    else:
                        clean_logits = _forward_logits(model, images)
                    uap_results.update(generate_targeted_uaps(
                        model, images, missing, config=self.config.uap,
                        rng=self._rng, clean_logits=clean_logits))
        for target in class_list:
            self.last_uaps[target] = uap_results[target]
        inits = [TriggerMaskOptimizer.init_from_uap(
            uap_results[t].perturbation) for t in class_list]
        prescreen = [uap_results[t].l1_norm for t in class_list]
        return inits, self.config.optimization, prescreen
