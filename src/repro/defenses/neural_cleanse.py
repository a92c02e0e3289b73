"""Neural Cleanse baseline (Wang et al., 2019).

For every candidate target class, optimize a ``(pattern, mask)`` trigger from
a *random* starting point with the loss ``CE(f(x'), t) + λ‖mask‖₁``, then flag
classes whose trigger size is an anomalously small MAD outlier.  The paper
uses NC as its primary baseline; its weakness — the pattern stays close to the
random start while only the mask is shaped (Fig. 1) — is what USB's UAP
initialization addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.detection import ReversedTrigger, TriggerReverseEngineeringDetector
from ..core.trigger_optimizer import TriggerMaskOptimizer, TriggerOptimizationConfig
from ..data.dataset import Dataset
from ..nn.layers import Module

__all__ = ["NeuralCleanseConfig", "NeuralCleanseDetector"]


@dataclass
class NeuralCleanseConfig:
    """Configuration of the Neural Cleanse baseline."""

    optimization: TriggerOptimizationConfig = field(
        default_factory=lambda: TriggerOptimizationConfig(ssim_weight=0.0,
                                                          mask_l1_weight=0.01))
    anomaly_threshold: float = 2.0


class NeuralCleanseDetector(TriggerReverseEngineeringDetector):
    """Random-start mask/pattern optimization + MAD outlier detection."""

    name = "NC"

    def __init__(self, clean_data: Dataset,
                 config: Optional[NeuralCleanseConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        config = config or NeuralCleanseConfig()
        super().__init__(clean_data, anomaly_threshold=config.anomaly_threshold,
                         rng=rng)
        self.config = config

    def reverse_engineer(self, model: Module, target_class: int) -> ReversedTrigger:
        """Optimize one class's trigger under the NC loss from a random start.

        The sequential engine; the random start is drawn from the
        detector's RNG in the order the joint modes draw theirs.
        """
        optimizer = TriggerMaskOptimizer(model, self.clean_data.images, target_class,
                                         config=self.config.optimization)
        pattern_init, mask_init = TriggerMaskOptimizer.random_init(
            self.clean_data.image_shape, self._rng)
        result = optimizer.optimize(pattern_init, mask_init)
        return ReversedTrigger(target_class=target_class, pattern=result.pattern,
                               mask=result.mask, success_rate=result.success_rate,
                               iterations=result.iterations)

    def _mega_inits(self, model: Module, target_classes: List[int]):
        """Random starts for the joint modes (sequential RNG order)."""
        inits = [TriggerMaskOptimizer.random_init(self.clean_data.image_shape,
                                                  self._rng)
                 for _ in target_classes]
        return inits, self.config.optimization, None
