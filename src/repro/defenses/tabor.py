"""TABOR baseline (Guo et al., 2020).

TABOR extends Neural Cleanse with additional regularizers designed to steer
the reverse-engineered trigger toward plausible backdoors: the mask should be
small *and smooth* (total-variation penalty) and the pattern should carry no
mass outside the mask.  Like NC it starts from a random point, which is why it
shares NC's failure mode on non-patch (IAD) triggers in the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.detection import ReversedTrigger, TriggerReverseEngineeringDetector
from ..core.trigger_optimizer import TriggerMaskOptimizer, TriggerOptimizationConfig
from ..data.dataset import Dataset
from ..nn.layers import Module

__all__ = ["TaborConfig", "TaborDetector"]


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


class TaborDetector(TriggerReverseEngineeringDetector):
    """NC plus smoothness / outside-mask regularizers."""

    name = "TABOR"

    def __init__(self, clean_data: Dataset, config: Optional[TaborConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        config = config or TaborConfig()
        super().__init__(clean_data, anomaly_threshold=config.anomaly_threshold,
                         rng=rng)
        self.config = config

    def reverse_engineer(self, model: Module, target_class: int) -> ReversedTrigger:
        """Optimize one class's trigger under the TABOR loss from a random start.

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
