"""Targeted Universal Adversarial Perturbations (Alg. 1 of the paper).

A targeted UAP is a single perturbation ``v`` that pushes *most* inputs to the
chosen target class.  Following Moosavi-Dezfooli et al. (2017) adapted to the
targeted / all-to-one setting, the algorithm sweeps the small clean set ``X``
and, for every point not yet classified as the target, adds the minimal
targeted perturbation found by (targeted) DeepFool, projecting the running
``v`` back onto an Lp ball after every update.  The sweep repeats until the
targeted error rate ``Err(X + v)`` exceeds the threshold θ (0.6 in the paper)
or the pass budget is exhausted.

The central empirical observation the USB detector builds on: for a
*backdoored* model and the *true* target class, the UAP latches onto the
backdoor shortcut and is dramatically smaller than UAPs for clean classes
(§3.3 of the paper: L1 4.49 for the backdoored class vs 53.76 on average for
the others).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..nn.layers import Module
from ..nn.tensor import Tensor, no_grad
from .configs import TargetedUAPConfig
from .deepfool import targeted_deepfool_step

__all__ = ["TargetedUAPConfig", "UAPResult", "project_perturbation",
           "targeted_error_rate", "generate_targeted_uap",
           "generate_targeted_uaps"]


@dataclass
class UAPResult:
    """Outcome of the targeted UAP search for one candidate class."""

    target_class: int
    perturbation: np.ndarray
    error_rate: float
    passes: int

    @property
    def l1_norm(self) -> float:
        """L1 norm of the universal perturbation."""
        return float(np.abs(self.perturbation).sum())

    @property
    def l2_norm(self) -> float:
        """L2 norm of the universal perturbation."""
        return float(np.sqrt((self.perturbation.astype(np.float64) ** 2).sum()))


def project_perturbation(v: np.ndarray, radius: float, norm: str) -> np.ndarray:
    """Project ``v`` onto the Lp ball of the given ``radius``."""
    if norm == "linf":
        return np.clip(v, -radius, radius)
    flat_norm = np.sqrt((v.astype(np.float64) ** 2).sum())
    if flat_norm <= radius or flat_norm == 0.0:
        return v
    return (v * (radius / flat_norm)).astype(v.dtype)


def targeted_error_rate(model: Module, images: np.ndarray, perturbation: np.ndarray,
                        target_class: int, clip_min: float = 0.0,
                        clip_max: float = 1.0, batch_size: int = 256) -> float:
    """Fraction of ``images`` classified as ``target_class`` once ``perturbation`` is added."""
    if len(images) == 0:
        return 0.0
    hits = 0
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start:start + batch_size]
            perturbed = np.clip(batch + perturbation[None], clip_min, clip_max)
            preds = model(Tensor(perturbed)).data.argmax(axis=1)
            hits += int((preds == target_class).sum())
    return hits / len(images)


def generate_targeted_uap(model: Module, images: np.ndarray, target_class: int,
                          config: Optional[TargetedUAPConfig] = None,
                          rng: Optional[np.random.Generator] = None) -> UAPResult:
    """Compute a targeted UAP for ``target_class`` on the clean set ``images`` (Alg. 1).

    A one-class :func:`generate_targeted_uaps` sweep.  Its reported error
    rate is then measured on the full clean set with
    :func:`targeted_error_rate`, exactly once per call.
    """
    config = config or TargetedUAPConfig()
    result = generate_targeted_uaps(model, images, [target_class], config,
                                    rng)[int(target_class)]
    result.error_rate = targeted_error_rate(
        model, np.asarray(images, dtype=np.float32), result.perturbation,
        target_class, config.clip_min, config.clip_max)
    return result


def generate_targeted_uaps(model: Module, images: np.ndarray,
                           target_classes: Sequence[int],
                           config: Optional[TargetedUAPConfig] = None,
                           rng: Optional[np.random.Generator] = None,
                           clean_logits: Optional[np.ndarray] = None
                           ) -> Dict[int, UAPResult]:
    """Alg. 1 for K candidate classes jointly (K = 1 for a one-class sweep).

    Every sweep mini-batch is expanded against the K running perturbations
    into one ``(K·B, C, H, W)`` mega-batch, so the model forward (prediction
    check) and the targeted-DeepFool forward/backward are amortized across
    classes.  Classes whose in-sweep error estimate reaches θ drop out of the
    mega-batch after their pass (per-class early stop).  Each result's
    ``error_rate`` is that in-sweep estimate of ``Err(X + v)`` from the
    class's last pass, measured one mini-batch at a time on the evolving
    ``v``; unlike :func:`generate_targeted_uap`, no full-set evaluation of
    the final perturbations follows (the UAPs only seed Alg. 2).

    ``clean_logits`` (shape ``(N, num_classes)``, the model's logits over
    ``images`` in their original order — e.g. from the shared clean-activation
    cache) lets the very first mini-batch, where every running perturbation is
    still zero, reuse the cached clean predictions instead of a ``K·B``-row
    forward.
    """
    config = config or TargetedUAPConfig()
    rng = rng or np.random.default_rng()
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise ValueError("images must have shape (N, C, H, W).")
    model.eval()

    targets = np.asarray(list(target_classes), dtype=np.int64)
    num_classes = len(targets)
    v = np.zeros((num_classes,) + images.shape[1:], dtype=np.float32)
    passes = np.zeros(num_classes, dtype=np.int64)
    estimates_final = np.zeros(num_classes, dtype=np.float64)
    active_classes = np.arange(num_classes)
    order = np.arange(len(images))
    clean_predictions = (None if clean_logits is None
                         else np.asarray(clean_logits).argmax(axis=1))

    for _ in range(config.max_passes):
        if active_classes.size == 0:
            break
        k = len(active_classes)
        passes[active_classes] += 1
        rng.shuffle(order)
        hits = np.zeros(k, dtype=np.int64)
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            batch = images[batch_idx]
            batch_len = len(batch)
            if (clean_predictions is not None
                    and not v[active_classes].any()):
                # All running perturbations are still zero (first mini-batch
                # of the sweep): every class block sees the plain clean batch,
                # so the K·B-row prediction forward collapses to a lookup of
                # the cached clean predictions (class-major tiling).
                flat = np.tile(batch, (k, 1, 1, 1))
                flat_targets = np.repeat(targets[active_classes], batch_len)
                predictions = np.tile(clean_predictions[batch_idx], k)
            else:
                perturbed = np.clip(batch[None] + v[active_classes][:, None],
                                    config.clip_min, config.clip_max
                                    ).astype(np.float32)
                flat = perturbed.reshape((-1,) + batch.shape[1:])
                flat_targets = np.repeat(targets[active_classes], batch_len)
                with no_grad():
                    predictions = model(Tensor(flat)).data.argmax(axis=1)
            hits += (predictions == flat_targets).reshape(k, batch_len).sum(axis=1)
            active_mask = predictions != flat_targets
            if not np.any(active_mask):
                continue
            active_rows = flat[active_mask]
            active_targets = flat_targets[active_mask]
            # Chunk the DeepFool mega-batch: samples are independent, and
            # ~64-row forwards/backwards stay inside the LLC sweet spot.
            step = np.concatenate([
                targeted_deepfool_step(model, active_rows[row:row + 64],
                                       active_targets[row:row + 64],
                                       overshoot=config.overshoot)
                for row in range(0, len(active_rows), 64)
            ])
            # Per-class mean of the active samples' minimal perturbations
            # (matching the sequential sweep's step.mean(axis=0)).  The rows
            # of ``step`` are class-major, so each class is one contiguous
            # run — summed directly rather than via np.add.at, whose
            # unbuffered scatter is orders of magnitude slower here.
            class_ids = np.repeat(np.arange(k), batch_len)[active_mask]
            counts = np.bincount(class_ids, minlength=k)
            sums = np.zeros((k,) + images.shape[1:], dtype=np.float32)
            row = 0
            for local_idx in range(k):
                count = counts[local_idx]
                if count:
                    sums[local_idx] = step[row:row + count].mean(axis=0)
                    row += count
            v[active_classes] = _project_batch(v[active_classes] + sums,
                                               config.radius, config.norm)
        estimates = hits / len(images)
        estimates_final[active_classes] = estimates
        keep = estimates < config.desired_error_rate
        active_classes = active_classes[keep]

    return {
        int(targets[idx]): UAPResult(target_class=int(targets[idx]),
                                     perturbation=v[idx],
                                     error_rate=float(estimates_final[idx]),
                                     passes=int(passes[idx]))
        for idx in range(num_classes)
    }


def _project_batch(v: np.ndarray, radius: float, norm: str) -> np.ndarray:
    """Project each of the K stacked perturbations onto the Lp ball."""
    if norm == "linf":
        return np.clip(v, -radius, radius)
    flat = v.reshape(len(v), -1).astype(np.float64)
    norms = np.sqrt((flat ** 2).sum(axis=1))
    scales = np.ones(len(v))
    over = norms > radius
    scales[over] = radius / norms[over]
    return (v * scales[:, None, None, None].astype(v.dtype)).astype(v.dtype)
