"""Trigger/mask optimization (Alg. 2 of the paper) and its NC/TABOR variants.

All three detectors in the evaluation refine a candidate trigger by gradient
descent on a blended input ``x' = x (1 - mask) + pattern · mask``:

* **USB** (Alg. 2) starts from the targeted UAP and minimizes
  ``CE(f(x'), t) − SSIM(x, x') + ‖mask‖₁``.
* **Neural Cleanse** starts from a random point and minimizes
  ``CE(f(x'), t) + λ‖mask‖₁``.
* **TABOR** adds further regularizers on top of NC (mask smoothness and a
  penalty on pattern mass outside the mask).

:class:`TriggerMaskOptimizer` implements the shared optimization with all of
these terms behind weights, so each detector (and each ablation benchmark) is
a thin configuration of the same machinery.  Optimization uses Adam with the
paper's ``lr = 0.1`` and ``betas = (0.5, 0.9)``.  It runs one class at a
time and is the paper-reference oracle for Table 7 and the parity tests.

:class:`BatchedTriggerMaskOptimizer` (``detect()``'s default) runs the same
optimization for K classes at once on the work-item pool of
:mod:`repro.core.mega`, the one joint inversion engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.layers import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, enable_grad, no_grad
from ..utils.ssim import ssim_tensor

__all__ = ["TriggerOptimizationConfig", "TriggerOptimizationResult",
           "TriggerMaskOptimizer", "BatchedTriggerMaskOptimizer",
           "blend_images"]

_EPS = 1e-6


def _logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid, used to initialize the unconstrained parameters."""
    clipped = np.clip(p, _EPS, 1.0 - _EPS)
    return np.log(clipped / (1.0 - clipped)).astype(np.float32)


def blend_images(images: np.ndarray, pattern: np.ndarray,
                 mask: np.ndarray) -> np.ndarray:
    """Blend a trigger into ``images``: ``x' = x (1 - mask) + pattern · mask``.

    Pure-NumPy helper for inference-time checks; clips to the valid pixel
    range.  ``pattern``/``mask`` may carry a leading class axis, in which case
    broadcasting against ``images[None]`` yields a ``(K, N, C, H, W)`` batch.
    """
    blended = images * (1.0 - mask) + pattern * mask
    return np.clip(blended, 0.0, 1.0).astype(np.float32)


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
    #: Joint (pool) engine only: freeze a class early once its trigger success
    #: rate reaches this threshold (``None`` disables early stop, keeping joint
    #: results aligned with the sequential per-class runs).  Success is
    #: tracked *incrementally* from the blended-batch logits every iteration
    #: already computes, so a converged class is frozen at its exact
    #: convergence iteration instead of burning steps until the next periodic
    #: full-set evaluation.
    early_stop_success: Optional[float] = None
    #: Retained for config compatibility: earlier revisions sampled the
    #: early-stop success check every this many iterations.  The incremental
    #: per-iteration tracking made the cadence knob a no-op.
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
class TriggerOptimizationResult:
    """Final trigger, mask and diagnostics of one optimization run."""

    pattern: np.ndarray
    mask: np.ndarray
    success_rate: float
    final_loss: float
    iterations: int

    @property
    def l1_norm(self) -> float:
        """L1 norm of the effective trigger ``pattern * mask``."""
        return float(np.abs(self.pattern * self.mask).sum())


class TriggerMaskOptimizer:
    """Gradient-based refinement of a (pattern, mask) trigger for one class."""

    def __init__(self, model: Module, images: np.ndarray, target_class: int,
                 config: Optional[TriggerOptimizationConfig] = None) -> None:
        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        if self.images.ndim != 4:
            raise ValueError("images must have shape (N, C, H, W).")
        self.target_class = target_class
        self.config = config or TriggerOptimizationConfig()

    # ------------------------------------------------------------------ #
    # Initialization helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def init_from_uap(perturbation: np.ndarray,
                      mask_gain: float = 4.0) -> Tuple[np.ndarray, np.ndarray]:
        """Decompose a UAP into an initial (pattern, mask) pair.

        Alg. 2 initializes ``trigger × mask = v``.  Since the blend formula
        replaces pixels rather than adding, we map the additive UAP into the
        blend parametrization: the mask starts where the UAP has energy
        (channel-mean magnitude, scaled), and the pattern starts at the UAP
        pushed around mid-grey so that ``pattern·mask`` reproduces the UAP's
        sign structure.
        """
        perturbation = np.asarray(perturbation, dtype=np.float32)
        magnitude = np.abs(perturbation).mean(axis=0, keepdims=True)
        peak = magnitude.max()
        if peak < _EPS:
            mask = np.full_like(magnitude, 0.05)
        else:
            mask = np.clip(mask_gain * magnitude / peak, 0.0, 1.0) * 0.5
        pattern = np.clip(0.5 + perturbation, 0.0, 1.0)
        return pattern, mask

    @staticmethod
    def random_init(image_shape: Tuple[int, int, int],
                    rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Random starting point (what NC-style methods use)."""
        channels, height, width = image_shape
        pattern = rng.uniform(0.0, 1.0, size=(channels, height, width)).astype(np.float32)
        mask = rng.uniform(0.05, 0.25, size=(1, height, width)).astype(np.float32)
        return pattern, mask

    # ------------------------------------------------------------------ #
    # Optimization (Alg. 2)
    # ------------------------------------------------------------------ #
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

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
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


class BatchedTriggerMaskOptimizer:
    """Joint Alg. 2 optimization of K per-class triggers (``mode="batched"``).

    A front end to the work-item pool of :mod:`repro.core.mega`: the K
    classes become one :class:`~repro.core.mega.MegaTask` run with the budget
    cascade off and a row cap of ``K × min(batch_size, N)``, so every class is
    admitted at once and all K cells step in lockstep through one stacked
    ``(K·B, C, H, W)`` mega-batch per iteration.  The loss is a sum of
    per-class terms and Adam is elementwise, so each class follows its
    sequential trajectory up to floating-point reduction order.  With
    ``config.early_stop_success`` set, a class whose blended batch reaches
    that success rate freezes at that iteration and leaves the mega-batch.
    """

    def __init__(self, model: Module, images: np.ndarray,
                 target_classes: Sequence[int],
                 config: Optional[TriggerOptimizationConfig] = None) -> None:
        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        self.target_classes = list(target_classes)
        self.config = config or TriggerOptimizationConfig()

    def optimize(self, inits: Sequence[Tuple[np.ndarray, np.ndarray]]
                 ) -> List[TriggerOptimizationResult]:
        """Run the joint optimization from per-class ``(pattern, mask)`` starts.

        Returns one :class:`TriggerOptimizationResult` per target class, in
        the order of ``self.target_classes``.
        """
        from .mega import (  # runtime: avoids module cycle
            MegaCascadeConfig, MegaPoolConfig, MegaTask, run_mega_inversion)

        task = MegaTask(self.model, self.images, self.target_classes, inits,
                        self.config)
        rows = len(task.target_classes) * min(self.config.batch_size,
                                              len(task.images))
        [results] = run_mega_inversion(
            [task], cascade=MegaCascadeConfig(enabled=False),
            pool=MegaPoolConfig(max_active_rows=rows))
        return results
