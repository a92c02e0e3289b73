"""Reference Alg. 2 loop: one class at a time, one Adam step per iteration.

The work-item pool of ``repro.core.mega`` steps every trigger the detectors
invert.  This is the plain per-class loop the pool replaced, kept here as the
oracle that the parity tests compare the pool against: given the same
starting point, each pool cell must follow this trajectory up to
floating-point reduction order.
"""

from __future__ import annotations

import numpy as np

from repro.core.trigger_optimizer import (
    TriggerMaskOptimizer,
    TriggerOptimizationResult,
    _logit,
    blend_images,
)
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, enable_grad, no_grad
from repro.utils.ssim import ssim_tensor


class ReferenceTriggerOptimizer(TriggerMaskOptimizer):
    """:class:`TriggerMaskOptimizer` stepped by the per-class reference loop."""

    def optimize(self, init_pattern: np.ndarray,
                 init_mask: np.ndarray) -> TriggerOptimizationResult:
        """Run the optimization from the supplied starting point."""
        with enable_grad():  # the refinement needs the tape even under no_grad
            return self._optimize(init_pattern, init_mask)

    def _optimize(self, init_pattern: np.ndarray,
                  init_mask: np.ndarray) -> TriggerOptimizationResult:
        cfg = self.config
        raw_pattern = Tensor(_logit(init_pattern), requires_grad=True)
        raw_mask = Tensor(_logit(init_mask), requires_grad=True)
        optimizer = Adam([raw_pattern, raw_mask], lr=cfg.learning_rate, betas=cfg.betas)

        target_labels_full = np.full(len(self.images), self.target_class,
                                     dtype=np.int64)
        final_loss = 0.0
        for iteration in range(cfg.iterations):
            start = (iteration * cfg.batch_size) % len(self.images)
            batch = self.images[start:start + cfg.batch_size]
            if len(batch) == 0:
                batch = self.images[:cfg.batch_size]
            labels = target_labels_full[:len(batch)]

            x = Tensor(batch)
            pattern = raw_pattern.sigmoid()
            mask = raw_mask.sigmoid()
            blended = x * (1.0 - mask) + pattern * mask
            logits = self.model(blended)

            loss = F.cross_entropy(logits, labels)
            if cfg.ssim_weight:
                loss = loss - cfg.ssim_weight * ssim_tensor(x, blended)
            if cfg.mask_l1_weight:
                loss = loss + cfg.mask_l1_weight * mask.abs().sum()
            if cfg.mask_tv_weight:
                loss = loss + cfg.mask_tv_weight * self._total_variation(mask)
            if cfg.outside_pattern_weight:
                outside = (pattern * (1.0 - mask)).abs().sum()
                loss = loss + cfg.outside_pattern_weight * outside

            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            final_loss = loss.item()

        pattern_final = 1.0 / (1.0 + np.exp(-raw_pattern.data))
        mask_final = 1.0 / (1.0 + np.exp(-raw_mask.data))
        success = self._success_rate(pattern_final, mask_final)
        return TriggerOptimizationResult(pattern=pattern_final.astype(np.float32),
                                         mask=mask_final.astype(np.float32),
                                         success_rate=success,
                                         final_loss=final_loss,
                                         iterations=cfg.iterations)

    @staticmethod
    def _total_variation(mask: Tensor) -> Tensor:
        """Anisotropic total variation of the mask (TABOR smoothness term)."""
        dh = (mask[:, 1:, :] - mask[:, :-1, :]).abs().sum()
        dw = (mask[:, :, 1:] - mask[:, :, :-1]).abs().sum()
        return dh + dw

    def _success_rate(self, pattern: np.ndarray, mask: np.ndarray,
                      batch_size: int = 256) -> float:
        """Fraction of the clean set driven to the target by the final trigger."""
        hits = 0
        with no_grad():
            for start in range(0, len(self.images), batch_size):
                batch = self.images[start:start + batch_size]
                blended = blend_images(batch, pattern[None], mask[None])
                preds = self.model(Tensor(blended)).data.argmax(axis=1)
                hits += int((preds == self.target_class).sum())
        return hits / len(self.images)
