"""TABOR baseline (Guo et al., 2020).

TABOR extends Neural Cleanse with additional regularizers designed to steer
the reverse-engineered trigger toward plausible backdoors: the mask should be
small *and smooth* (total-variation penalty) and the pattern should carry no
mass outside the mask.  Like NC it starts from a random point, which is why it
shares NC's failure mode on non-patch (IAD) triggers in the paper's Table 3.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.configs import TaborConfig
from ..core.detection import TriggerReverseEngineeringDetector
from ..core.trigger_optimizer import TriggerMaskOptimizer
from ..data.dataset import Dataset
from ..nn.layers import Module

__all__ = ["TaborConfig", "TaborDetector"]


class TaborDetector(TriggerReverseEngineeringDetector):
    """NC plus smoothness / outside-mask regularizers.

    TABOR states only its starting points (:meth:`_mega_inits`); the base
    class steps every trigger on the work-item pool under the TABOR loss.
    """

    name = "TABOR"

    def __init__(self, clean_data: Dataset, config: Optional[TaborConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        config = config or TaborConfig()
        super().__init__(clean_data, anomaly_threshold=config.anomaly_threshold,
                         rng=rng)
        self.config = config

    def _mega_inits(self, model: Module, target_classes: List[int]):
        """One random start per class, drawn in class order."""
        inits = [TriggerMaskOptimizer.random_init(self.clean_data.image_shape,
                                                  self._rng)
                 for _ in target_classes]
        return inits, self.config.optimization, None
