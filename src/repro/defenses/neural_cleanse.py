"""Neural Cleanse baseline (Wang et al., 2019).

For every candidate target class, optimize a ``(pattern, mask)`` trigger from
a *random* starting point with the loss ``CE(f(x'), t) + λ‖mask‖₁``, then flag
classes whose trigger size is an anomalously small MAD outlier.  The paper
uses NC as its primary baseline; its weakness — the pattern stays close to the
random start while only the mask is shaped (Fig. 1) — is what USB's UAP
initialization addresses.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.configs import NeuralCleanseConfig
from ..core.detection import TriggerReverseEngineeringDetector
from ..core.trigger_optimizer import TriggerMaskOptimizer
from ..data.dataset import Dataset
from ..nn.layers import Module

__all__ = ["NeuralCleanseConfig", "NeuralCleanseDetector"]


class NeuralCleanseDetector(TriggerReverseEngineeringDetector):
    """Random-start mask/pattern optimization + MAD outlier detection.

    NC states only its starting points (:meth:`_mega_inits`); the base
    class steps every trigger on the work-item pool under the NC loss.
    """

    name = "NC"

    def __init__(self, clean_data: Dataset,
                 config: Optional[NeuralCleanseConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        config = config or NeuralCleanseConfig()
        super().__init__(clean_data, anomaly_threshold=config.anomaly_threshold,
                         rng=rng)
        self.config = config

    def _mega_inits(self, model: Module, target_classes: List[int]):
        """One random start per class, drawn in class order."""
        inits = [TriggerMaskOptimizer.random_init(self.clean_data.image_shape,
                                                  self._rng)
                 for _ in target_classes]
        return inits, self.config.optimization, None
