"""Joint trigger inversion for K cells at once: work-item pool + cascade.

This is the one joint Alg. 2 engine.  ``detect(mode="batched")`` runs one
scan's K candidate classes through it with the cascade off (via
:class:`~repro.core.trigger_optimizer.BatchedTriggerMaskOptimizer`);
``mode="mega"`` runs it with the budget cascade on, and
:func:`~repro.core.detection.detect_mega_fleet` pools the cells of many
scans and models into one run.  Inversion is organised around a
**work-item pool**:

* Every (model x class x pair) inversion cell becomes an independent
  :class:`_WorkItem` carrying its own ``(pattern, mask)`` parameters, Adam
  moments and iteration counter.
* Items from one :class:`MegaTask` (same model / clean images / config) share
  a *lane*; each pool step advances every active item of a lane by one
  iteration, stacking items on the same batch offset into one dense
  ``(k*B, C, H, W)`` forward whose loss is the sum of the per-cell losses.
* The pool caps concurrently-active rows (``MegaPoolConfig.max_active_rows``)
  and **admits queued items in-flight** as early-stopped or exhausted items
  vacate slots (the ReaLHF in-flight batching pattern), so dense batches stay
  dense for the whole scan instead of draining with the slowest cell.

Two further layers ride on the pool:

* :class:`CleanActivationCache` — an LRU keyed by caller-supplied string keys
  (the scanning service uses ``service/fingerprint.py`` digests) memoizing
  clean-set forwards (logits) and SSIM batch statistics, which USB / NC /
  TABOR otherwise recompute per detector and per pair cell.
* :func:`run_mega_inversion` — a coarse-to-fine budget cascade: a cheap
  low-iteration sweep over *all* cells, then the full iteration budget only
  for cells whose coarse trigger norm lands near the MAD decision boundary
  (plus the smallest cell and any prescreen-flagged cells).  Non-finalist
  cells keep their coarse triggers, optionally rescaled by a shrinkage
  factor calibrated on borderline finalists so the MAD pool is not skewed by
  mixed coarse/full norms.

Per-item trajectories reproduce the sequential optimizer exactly (same batch
schedule, same loss, same elementwise Adam with per-item step counts), so
parity with the sequential oracle holds up to floating-point reduction
order.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import OrderedDict, deque
from time import perf_counter as _perf_counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.layers import Module
from ..nn.tensor import Tensor, enable_grad, no_grad
from ..obs.metrics import PROFILER
from ..obs.trace import span as _span
from ..utils.ssim import ssim, ssim_tensor, ssim_x_stats
from .trigger_optimizer import (
    TriggerOptimizationConfig,
    TriggerOptimizationResult,
    _logit,
    blend_images,
)

__all__ = [
    "CleanActivationCache",
    "MegaCascadeConfig",
    "MegaPoolConfig",
    "MegaTask",
    "MegaInversionPool",
    "run_mega_inversion",
    "default_object_key",
]

#: Live-object token registry backing :func:`default_object_key`.
_OBJECT_TOKENS: Dict[int, str] = {}
_TOKEN_COUNTER = itertools.count()


def default_object_key(obj: object, prefix: str = "obj") -> str:
    """Stable cache key for a live object, without hashing its contents.

    The scanning service keys the activation cache with model fingerprints
    and dataset digests; ad-hoc callers (tests, direct ``detect()`` use) get
    a token tied to the object's lifetime instead — two calls with the same
    live object agree, and the token is retired when the object is collected
    so a recycled ``id()`` can never alias a stale entry.
    """
    ident = id(obj)
    token = _OBJECT_TOKENS.get(ident)
    if token is None:
        token = f"{prefix}#{next(_TOKEN_COUNTER)}"
        _OBJECT_TOKENS[ident] = token
        weakref.finalize(obj, _OBJECT_TOKENS.pop, ident, None)
    return token


def _value_nbytes(value: object) -> int:
    """Approximate cache footprint of a cached value (arrays and tuples)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(item) for item in value)
    return 64


class CleanActivationCache:
    """LRU cache of clean-set forwards shared across detectors and cells.

    Entries are keyed by caller-supplied tuples (the service keys models by
    ``fingerprint_state_dict`` digest and clean pools by dataset/seed/budget;
    everything else falls back to :func:`default_object_key`).  The budget is
    in bytes (``max_bytes``, service knob ``REPRO_ACTIVATION_CACHE_MB``);
    least-recently-used entries are evicted first, but the newest entry is
    always retained so a single oversized value still caches.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive.")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compute(self, key: tuple, compute: Callable[[], object]) -> object:
        """Return the cached value for ``key``, computing and caching on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]
        self.misses += 1
        value = compute()
        nbytes = _value_nbytes(value)
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, (_, old_bytes) = self._entries.popitem(last=False)
            self._bytes -= old_bytes
            self.evictions += 1
        return value

    # ------------------------------------------------------------------ #
    # Typed helpers
    # ------------------------------------------------------------------ #
    def clean_logits(self, model: Module, images: np.ndarray,
                     model_key: Optional[str] = None,
                     images_key: Optional[str] = None,
                     batch_size: int = 128) -> np.ndarray:
        """Model logits over the full clean set, computed once per key pair."""
        model_key = model_key or default_object_key(model, "model")
        images_key = images_key or default_object_key(images, "images")

        def compute() -> np.ndarray:
            return _forward_logits(model, images, batch_size)

        return self.get_or_compute(("logits", model_key, images_key), compute)

    def ssim_stats(self, images_key: str, start: int,
                   batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """SSIM x-side statistics of one clean batch, shared across lanes."""
        key = ("ssim", images_key, int(start), len(batch))
        return self.get_or_compute(key, lambda: ssim_x_stats(batch))

    def stats(self) -> Dict[str, int]:
        """Counters for tests / ops introspection."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "bytes": self._bytes, "max_bytes": self.max_bytes}


def _forward_logits(model: Module, images: np.ndarray,
                    batch_size: int = 128) -> np.ndarray:
    """Plain chunked inference forward over ``images``."""
    outputs = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start:start + batch_size]
            outputs.append(model(Tensor(batch)).data.copy())
    if not outputs:
        return np.zeros((0, 1), dtype=np.float32)
    return np.concatenate(outputs)


@dataclass
class MegaCascadeConfig:
    """Knobs of the coarse-to-fine budget cascade."""

    #: Disable to run every cell at its full iteration budget (what
    #: ``detect(mode="batched")`` does).
    enabled: bool = True
    #: Fraction of the full iteration budget spent on the coarse sweep.
    coarse_fraction: float = 0.2
    #: Floor on coarse iterations (very small budgets skip the cascade).
    min_coarse_iterations: int = 4
    #: Cells whose coarse MAD index reaches ``threshold - margin`` get the
    #: full budget (the smallest-norm cell always does).
    finalist_margin: float = 1.0
    #: Rescale non-finalist coarse norms by the median full/coarse ratio of
    #: borderline finalists, so the MAD pool mixes comparable scales.
    shrinkage_calibration: bool = True
    #: Evaluate final success rates on the full clean set for every cell
    #: (default: full evaluation only for refined / full-budget cells,
    #: last-batch estimates for coarse cells).
    full_success_eval: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.coarse_fraction <= 1.0:
            raise ValueError("coarse_fraction must be in (0, 1].")
        if self.min_coarse_iterations < 1:
            raise ValueError("min_coarse_iterations must be >= 1.")
        if self.finalist_margin < 0:
            raise ValueError("finalist_margin must be >= 0.")


@dataclass
class MegaPoolConfig:
    """Concurrency shape of the work-item pool."""

    #: Cap on concurrently-active mega-batch rows across all lanes; items
    #: beyond it queue and are admitted in-flight as slots free up.
    max_active_rows: int = 256
    #: Target rows per model forward: lane subgroups run in LLC-sized class
    #: chunks of about this many rows, accumulating gradients.
    max_chunk_rows: int = 64

    def __post_init__(self) -> None:
        if self.max_active_rows < 1:
            raise ValueError("max_active_rows must be >= 1.")
        if self.max_chunk_rows < 1:
            raise ValueError("max_chunk_rows must be >= 1.")


class MegaTask:
    """One inversion job: K cells sharing a model, clean images and config."""

    def __init__(self, model: Module, images: np.ndarray,
                 target_classes: Sequence[int],
                 inits: Sequence[Tuple[np.ndarray, np.ndarray]],
                 config: TriggerOptimizationConfig,
                 anomaly_threshold: float = 2.0,
                 prescreen_norms: Optional[Sequence[float]] = None,
                 selection_group: Optional[str] = None,
                 model_key: Optional[str] = None,
                 images_key: Optional[str] = None,
                 label: str = "") -> None:
        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        if self.images.ndim != 4:
            raise ValueError("images must have shape (N, C, H, W).")
        self.target_classes = np.asarray(list(target_classes), dtype=np.int64)
        if self.target_classes.size == 0:
            raise ValueError("target_classes must be non-empty.")
        if len(inits) != len(self.target_classes):
            raise ValueError("Need one (pattern, mask) init per target class.")
        self.inits = list(inits)
        self.config = config
        self.anomaly_threshold = float(anomaly_threshold)
        if prescreen_norms is not None and len(prescreen_norms) != len(self.inits):
            raise ValueError("prescreen_norms must align with target_classes.")
        self.prescreen_norms = (None if prescreen_norms is None
                                else [float(v) for v in prescreen_norms])
        #: Cells sharing a ``selection_group`` share one MAD pool for
        #: finalist selection (pair-mode scans group their source tasks).
        self.selection_group = selection_group
        self.model_key = model_key or default_object_key(model, "model")
        self.images_key = images_key or default_object_key(self.images, "images")
        self.label = label


class _WorkItem:
    """One inversion cell: its parameters, Adam state and schedule position."""

    __slots__ = ("lane", "slot", "target_class", "raw_pattern", "raw_mask",
                 "m_pattern", "v_pattern", "m_mask", "v_mask", "step_count",
                 "iteration", "budget", "final_loss", "last_batch_success",
                 "done", "early_stopped", "shrink")

    def __init__(self, lane: "_Lane", slot: int, target_class: int,
                 init_pattern: np.ndarray, init_mask: np.ndarray,
                 budget: int) -> None:
        self.lane = lane
        self.slot = slot
        self.target_class = int(target_class)
        self.raw_pattern = _logit(np.asarray(init_pattern, dtype=np.float32))
        self.raw_mask = _logit(np.asarray(init_mask, dtype=np.float32))
        self.m_pattern = np.zeros_like(self.raw_pattern)
        self.v_pattern = np.zeros_like(self.raw_pattern)
        self.m_mask = np.zeros_like(self.raw_mask)
        self.v_mask = np.zeros_like(self.raw_mask)
        self.step_count = 0
        self.iteration = 0
        self.budget = max(1, int(budget))
        self.final_loss = 0.0
        self.last_batch_success = 0.0
        self.done = False
        self.early_stopped = False
        #: Shrinkage-calibration factor applied to the mask at assembly time.
        self.shrink = 1.0

    def l1_norm(self) -> float:
        """Current effective-trigger L1 norm ``|sigmoid(p) * sigmoid(m)|``."""
        return float(np.abs(_sigmoid(self.raw_pattern)
                            * _sigmoid(self.raw_mask)).sum())


class _Lane:
    """Per-task execution lane: active items plus the in-flight queue."""

    def __init__(self, task: MegaTask) -> None:
        self.task = task
        self.config = task.config
        self.images = task.images
        self.active: List[_WorkItem] = []
        self.queued: "deque[_WorkItem]" = deque()
        #: (start, size) -> tiled clean batch + SSIM stats (dies with the
        #: pool).
        self.tiled_ssim: dict = {}
        #: start -> un-tiled SSIM stats, used when no shared cache is wired.
        self.base_ssim: dict = {}


class MegaInversionPool:
    """Executes work items through dense per-lane mega-batches.

    Each :meth:`run` loop pass advances every lane by one iteration: active
    items are grouped by their batch offset (items admitted in-flight sit at
    earlier schedule positions than the founders), each subgroup is one
    stacked chunked forward/backward, and one elementwise Adam step with
    per-item bias correction follows.
    Early-stopped and budget-exhausted items leave their lane, and queued
    items are admitted into the vacated row budget between lane steps.
    """

    def __init__(self, config: Optional[MegaPoolConfig] = None,
                 cache: Optional[CleanActivationCache] = None) -> None:
        self.config = config or MegaPoolConfig()
        self.cache = cache
        self._lanes: List[_Lane] = []
        self._lane_by_task: Dict[int, _Lane] = {}
        self._started = False
        self.stats: Dict[str, int] = {
            "items": 0, "fused_steps": 0, "admissions": 0,
            "in_flight_admissions": 0, "resubmissions": 0,
        }

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, task: MegaTask,
               budget: Optional[int] = None) -> List[_WorkItem]:
        """Queue one work item per cell of ``task``; returns them in order."""
        lane = self._lane_by_task.get(id(task))
        if lane is None:
            lane = _Lane(task)
            self._lanes.append(lane)
            self._lane_by_task[id(task)] = lane
        item_budget = task.config.iterations if budget is None else int(budget)
        items = []
        for slot, (target, (pattern, mask)) in enumerate(
                zip(task.target_classes, task.inits)):
            item = _WorkItem(lane, slot, target, pattern, mask, item_budget)
            lane.queued.append(item)
            items.append(item)
        self.stats["items"] += len(items)
        return items

    def extend(self, item: _WorkItem, budget: int) -> None:
        """Re-queue a finished item with a larger budget (cascade phase 2).

        The item keeps its parameters, Adam moments and iteration counter, so
        the continued run is exactly the trajectory a single full-budget run
        would have produced.
        """
        if budget <= item.budget or not item.done:
            return
        item.budget = int(budget)
        item.done = False
        item.early_stopped = False
        item.lane.queued.append(item)
        self.stats["resubmissions"] += 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Drive all lanes until every submitted item has finished."""
        with enable_grad():  # the refinement needs the tape even under no_grad
            while True:
                self._admit()
                self._started = True
                stepped = False
                for lane in self._lanes:
                    if not lane.active:
                        continue
                    self._step_lane(lane)
                    stepped = True
                    self._admit()
                if not stepped:
                    break

    def _nominal_rows(self, lane: _Lane) -> int:
        return min(lane.config.batch_size, len(lane.images))

    def _admit(self) -> None:
        """Fill vacant row budget from the lane queues (in-flight admission)."""
        active_rows = sum(self._nominal_rows(lane) * len(lane.active)
                          for lane in self._lanes)
        any_active = active_rows > 0
        for lane in self._lanes:
            while lane.queued:
                rows = self._nominal_rows(lane)
                if any_active and active_rows + rows > self.config.max_active_rows:
                    return
                lane.active.append(lane.queued.popleft())
                active_rows += rows
                any_active = True
                self.stats["admissions"] += 1
                if self._started:
                    self.stats["in_flight_admissions"] += 1

    def _step_lane(self, lane: _Lane) -> None:
        """Advance every active item of ``lane`` by one iteration."""
        cfg = lane.config
        groups: "OrderedDict[int, List[_WorkItem]]" = OrderedDict()
        for item in lane.active:
            start = (item.iteration * cfg.batch_size) % len(lane.images)
            groups.setdefault(start, []).append(item)
        for start, items in groups.items():
            self._step_subgroup(lane, start, items)
        lane.active = [item for item in lane.active if not item.done]

    def _step_subgroup(self, lane: _Lane, start: int,
                       items: List[_WorkItem]) -> None:
        """One fused optimization step for items sharing a batch offset.

        The loss is the sum of the per-item sequential losses, so the
        stacked gradient is the concatenation of per-item gradients: chunked
        forward/backward with gradient accumulation, incremental early-stop
        tracking from the blended-batch logits, diagnostic losses for
        finishing cells, then a stacked per-item Adam step.
        """
        prof = PROFILER if PROFILER.enabled else None
        t_step = _perf_counter() if prof is not None else 0.0
        cfg = lane.config
        batch = lane.images[start:start + cfg.batch_size]
        k = len(items)
        batch_len = len(batch)
        channels, height, width = batch.shape[1:]
        x = Tensor(batch)
        targets = np.array([item.target_class for item in items], dtype=np.int64)
        iters = np.array([item.iteration for item in items], dtype=np.int64)
        budgets = np.array([item.budget for item in items], dtype=np.int64)
        last_iteration = iters + 1 == budgets
        stop_enabled = np.zeros(k, dtype=bool)
        if cfg.early_stop_success is not None:
            stop_enabled = iters + 1 < budgets
        batch_hits = np.zeros(k, dtype=np.float64)
        diag_loss = np.zeros(k, dtype=np.float64)

        raw_pattern = Tensor(np.stack([item.raw_pattern for item in items]),
                             requires_grad=True)
        raw_mask = Tensor(np.stack([item.raw_mask for item in items]),
                          requires_grad=True)

        group = max(1, min(k, self.config.max_chunk_rows // max(batch_len, 1)))
        for chunk_start in range(0, k, group):
            chunk = slice(chunk_start, min(chunk_start + group, k))
            size = chunk.stop - chunk.start
            pattern = raw_pattern[chunk].sigmoid()     # (g, C, H, W)
            mask = raw_mask[chunk].sigmoid()           # (g, 1, H, W)
            pattern_b = pattern.reshape(size, 1, channels, height, width)
            mask_b = mask.reshape(size, 1, 1, height, width)
            blended = x * (1.0 - mask_b) + pattern_b * mask_b
            flat = blended.reshape(size * batch_len, channels, height, width)
            logits = lane.task.model(flat)

            labels = np.repeat(targets[chunk], batch_len)
            loss = F.cross_entropy(logits, labels) * float(size)
            if cfg.ssim_weight:
                x_rep, mu_x, mu_xx = self._ssim_tiles(lane, start, batch, size)
                loss = loss - cfg.ssim_weight * (
                    ssim_tensor(Tensor(x_rep), flat,
                                x_stats=(mu_x, mu_xx)) * float(size))
            if cfg.mask_l1_weight:
                loss = loss + cfg.mask_l1_weight * mask.abs().sum()
            if cfg.mask_tv_weight:
                loss = loss + cfg.mask_tv_weight * _total_variation(mask)
            if cfg.outside_pattern_weight:
                outside = (pattern * (1.0 - mask)).abs().sum()
                loss = loss + cfg.outside_pattern_weight * outside

            preds = logits.data.argmax(axis=1).reshape(size, batch_len)
            batch_hits[chunk] = (preds == targets[chunk][:, None]).mean(axis=1)
            finishing = last_iteration[chunk].copy()
            if cfg.early_stop_success is not None:
                finishing |= (stop_enabled[chunk]
                              & (batch_hits[chunk] >= cfg.early_stop_success))
            if finishing.any():
                losses = _per_class_diagnostic_losses(
                    cfg, logits.data, labels, batch, flat.data,
                    pattern.data, mask.data)
                positions = np.arange(k)[chunk][finishing]
                diag_loss[positions] = losses[finishing]

            # Gradients accumulate across chunks into the stacked tensors.
            loss.backward()

        self._adam_step(items, raw_pattern, raw_mask, cfg)
        self.stats["fused_steps"] += 1
        if prof is not None:
            prof.add_phase("mega.fused_step", _perf_counter() - t_step)
            prof.add_count("mega_item_steps", k)

        for idx, item in enumerate(items):
            item.iteration += 1
            item.last_batch_success = float(batch_hits[idx])
            finished = item.iteration >= item.budget
            if (cfg.early_stop_success is not None and stop_enabled[idx]
                    and batch_hits[idx] >= cfg.early_stop_success):
                finished = True
                item.early_stopped = True
            if finished:
                item.done = True
                item.final_loss = float(diag_loss[idx])

    @staticmethod
    def _adam_step(items: List[_WorkItem], raw_pattern: Tensor,
                   raw_mask: Tensor, cfg: TriggerOptimizationConfig) -> None:
        """Stacked elementwise Adam step with per-item bias correction.

        Per-row scalar bias corrections keep the arithmetic (and dtype
        promotion) identical to ``repro.nn.optim.Adam`` applied to each item
        separately, so in-flight items at different step counts still follow
        their exact sequential trajectories.
        """
        beta1, beta2 = cfg.betas
        lr = cfg.learning_rate
        eps = 1e-8
        for tensor, m_name, v_name, raw_name in (
                (raw_pattern, "m_pattern", "v_pattern", "raw_pattern"),
                (raw_mask, "m_mask", "v_mask", "raw_mask")):
            grad = tensor.grad
            if grad is None:
                continue
            m = np.stack([getattr(item, m_name) for item in items])
            v = np.stack([getattr(item, v_name) for item in items])
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            data = tensor.data
            for idx, item in enumerate(items):
                step = item.step_count + 1
                bias1 = 1.0 - beta1 ** step
                bias2 = 1.0 - beta2 ** step
                m_hat = m[idx] / bias1
                v_hat = v[idx] / bias2
                new_row = data[idx] - lr * m_hat / (np.sqrt(v_hat) + eps)
                setattr(item, raw_name, new_row)
                setattr(item, m_name, m[idx])
                setattr(item, v_name, v[idx])
        for item in items:
            item.step_count += 1

    def _ssim_tiles(self, lane: _Lane, start: int, batch: np.ndarray,
                    size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tiled clean batch + SSIM x-stats for a (start, size) chunk shape."""
        key = (start, size)
        cached = lane.tiled_ssim.get(key)
        if cached is None:
            mu_x, mu_xx = self._ssim_base(lane, start, batch)
            cached = (np.tile(batch, (size, 1, 1, 1)),
                      np.tile(mu_x, (size, 1, 1, 1)),
                      np.tile(mu_xx, (size, 1, 1, 1)))
            lane.tiled_ssim[key] = cached
        return cached

    def _ssim_base(self, lane: _Lane, start: int,
                   batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.cache is not None:
            return self.cache.ssim_stats(lane.task.images_key, start, batch)
        base = lane.base_ssim.get(start)
        if base is None:
            base = ssim_x_stats(batch)
            lane.base_ssim[start] = base
        return base


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp overflow saturates to 0/1
        return 1.0 / (1.0 + np.exp(-x))


def _total_variation(mask: Tensor) -> Tensor:
    """Anisotropic total variation summed over stacked ``(k, 1, H, W)`` masks."""
    dh = (mask[:, :, 1:, :] - mask[:, :, :-1, :]).abs().sum()
    dw = (mask[:, :, :, 1:] - mask[:, :, :, :-1]).abs().sum()
    return dh + dw


def _per_class_diagnostic_losses(cfg: TriggerOptimizationConfig,
                                 logits: np.ndarray, labels: np.ndarray,
                                 batch: np.ndarray, blended: np.ndarray,
                                 patterns: np.ndarray,
                                 masks: np.ndarray) -> np.ndarray:
    """Diagnostic per-cell losses matching the sequential ``final_loss``.

    The forward is laid out as k cell blocks of ``batch_len`` rows, so the
    stacked loss decomposes into one sequential loss per cell.
    """
    k = len(patterns)
    batch_len = len(batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce = -log_probs[np.arange(len(labels)), labels].reshape(k, batch_len)
    losses = ce.mean(axis=1)
    if cfg.ssim_weight:
        blended_k = blended.reshape(k, batch_len, *batch.shape[1:])
        for idx in range(k):
            losses[idx] -= cfg.ssim_weight * ssim(batch, blended_k[idx])
    if cfg.mask_l1_weight:
        losses += cfg.mask_l1_weight * np.abs(masks).sum(axis=(1, 2, 3))
    if cfg.mask_tv_weight:
        dh = np.abs(np.diff(masks, axis=2)).sum(axis=(1, 2, 3))
        dw = np.abs(np.diff(masks, axis=3)).sum(axis=(1, 2, 3))
        losses += cfg.mask_tv_weight * (dh + dw)
    if cfg.outside_pattern_weight:
        outside = np.abs(patterns * (1.0 - masks)).sum(axis=(1, 2, 3))
        losses += cfg.outside_pattern_weight * outside
    return losses


# ---------------------------------------------------------------------- #
# Cascade driver
# ---------------------------------------------------------------------- #
def _full_success_rates(model: Module, images: np.ndarray,
                        patterns: np.ndarray, masks: np.ndarray,
                        target_classes: np.ndarray,
                        eval_batch_size: int = 128) -> np.ndarray:
    """Full-clean-set success rates: one forward per clean chunk for all k."""
    k = len(target_classes)
    chunk = max(1, eval_batch_size // k)
    hits = np.zeros(k, dtype=np.int64)
    targets = np.asarray(target_classes, dtype=np.int64)
    with no_grad():
        for start in range(0, len(images), chunk):
            batch = images[start:start + chunk]
            blended = blend_images(batch[None], patterns[:, None],
                                   masks[:, None])
            flat = blended.reshape((-1,) + batch.shape[1:])
            preds = model(Tensor(flat)).data.argmax(axis=1)
            preds = preds.reshape(k, len(batch))
            hits += (preds == targets[:, None]).sum(axis=1)
    return hits / len(images)


def run_mega_inversion(tasks: Sequence[MegaTask],
                       cascade: Optional[MegaCascadeConfig] = None,
                       pool: Optional[MegaPoolConfig] = None,
                       cache: Optional[CleanActivationCache] = None,
                       stats: Optional[dict] = None
                       ) -> List[List[TriggerOptimizationResult]]:
    """Invert every cell of every task through one shared work-item pool.

    Phase 1 runs all cells at the coarse budget; finalist selection (per
    ``selection_group``) then grants the full budget to cells whose coarse
    norm sits near the MAD decision boundary, the smallest-norm cell, and
    prescreen-flagged cells; phase 2 continues exactly those items in the
    same pool.  With the cascade off, phase 1 runs every cell at its full
    budget (recorded as span ``mega.sweep`` / phase ``sweep``) and phase 2
    is empty.  Returns one result list per task, in task / class order.
    """
    from .detection import mad_anomaly_indices  # runtime: avoids module cycle

    cascade = cascade or MegaCascadeConfig()
    engine = MegaInversionPool(pool, cache=cache)

    plans = []
    for task in tasks:
        total = max(1, int(task.config.iterations))
        coarse = total
        if cascade.enabled:
            coarse = max(int(cascade.min_coarse_iterations),
                         int(math.ceil(cascade.coarse_fraction * total)))
            coarse = min(total, max(1, coarse))
        items = engine.submit(task, budget=coarse)
        plans.append({"task": task, "items": items,
                      "coarse": coarse, "total": total})
    # Name the first sweep after what it is: a coarse pass only when some
    # cell's coarse budget is below its full budget.
    sweep = ("coarse_sweep" if any(plan["coarse"] < plan["total"]
                                   for plan in plans) else "sweep")
    with _span(f"mega.{sweep}", tasks=len(tasks),
               items=int(engine.stats["items"])):
        with PROFILER.phase(sweep):
            engine.run()

    # ------------------------------------------------------------------ #
    # Finalist selection per selection group
    # ------------------------------------------------------------------ #
    groups: "OrderedDict[object, list]" = OrderedDict()
    for plan in plans:
        key = plan["task"].selection_group
        if key is None:
            key = ("task", id(plan["task"]))
        groups.setdefault(key, []).append(plan)

    group_infos = []
    refined_items: set = set()
    for group_plans in groups.values():
        group_cells = [(plan, idx, item)
                       for plan in group_plans
                       for idx, item in enumerate(plan["items"])]
        pending = [cell for cell in group_cells
                   if cell[0]["coarse"] < cell[0]["total"]]
        if not pending:
            continue
        norms = [item.l1_norm() for _, _, item in group_cells]
        indices = mad_anomaly_indices(norms)
        threshold = group_plans[0]["task"].anomaly_threshold
        cut = threshold - cascade.finalist_margin
        finalists = {pos for pos, value in indices.items() if value >= cut}
        finalists.add(int(np.argmin(norms)))
        # Prescreen channel (USB: UAP seed norms) — a cell whose seed already
        # looks like a shortcut gets the full budget even if the coarse sweep
        # has not separated it yet.
        pres_positions = [pos for pos, (plan, idx, _) in enumerate(group_cells)
                          if plan["task"].prescreen_norms is not None]
        if pres_positions:
            pres_norms = [group_cells[pos][0]["task"]
                          .prescreen_norms[group_cells[pos][1]]
                          for pos in pres_positions]
            pres_indices = mad_anomaly_indices(pres_norms)
            for local, pos in enumerate(pres_positions):
                if pres_indices[local] >= cut:
                    finalists.add(pos)
        finalists = {pos for pos in finalists
                     if group_cells[pos][0]["coarse"]
                     < group_cells[pos][0]["total"]}
        for pos in sorted(finalists):
            plan, _, item = group_cells[pos]
            engine.extend(item, plan["total"])
            refined_items.add(id(item))
        group_infos.append({"cells": group_cells, "finalists": finalists,
                            "indices": indices, "threshold": threshold,
                            "coarse_norms": norms})

    if refined_items:
        with _span("mega.finalist_resume", finalists=len(refined_items)):
            with PROFILER.phase("finalist_resume"):
                engine.run()

    # ------------------------------------------------------------------ #
    # Shrinkage calibration: rescale non-finalist coarse norms by the median
    # full/coarse ratio of *borderline* finalists (coarse index below the
    # flag threshold) — blatant outliers shrink far more than typical cells
    # and would otherwise drag the estimate down.
    # ------------------------------------------------------------------ #
    if cascade.shrinkage_calibration:
        for info in group_infos:
            ratios = []
            for pos in sorted(info["finalists"]):
                if info["indices"].get(pos, 0.0) >= info["threshold"]:
                    continue
                coarse_norm = info["coarse_norms"][pos]
                if coarse_norm <= 0:
                    continue
                _, _, item = info["cells"][pos]
                ratios.append(item.l1_norm() / coarse_norm)
            if not ratios:
                continue
            shrink = min(1.0, float(np.median(ratios)))
            for pos, (plan, _, item) in enumerate(info["cells"]):
                if pos in info["finalists"]:
                    continue
                if plan["coarse"] < plan["total"]:
                    item.shrink = shrink

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    results: List[List[TriggerOptimizationResult]] = []
    for plan in plans:
        task = plan["task"]
        items = plan["items"]
        patterns = np.stack([_sigmoid(item.raw_pattern) for item in items])
        masks = np.stack([_sigmoid(item.raw_mask)
                          * np.float32(item.shrink) for item in items])
        need_full = np.array([
            cascade.full_success_eval
            or plan["coarse"] >= plan["total"]
            or id(item) in refined_items
            for item in items], dtype=bool)
        rates = np.array([item.last_batch_success for item in items],
                         dtype=np.float64)
        if need_full.any():
            rates[need_full] = _full_success_rates(
                task.model, task.images, patterns[need_full],
                masks[need_full], task.target_classes[need_full])
        results.append([
            TriggerOptimizationResult(
                pattern=patterns[idx].astype(np.float32),
                mask=masks[idx].astype(np.float32),
                success_rate=float(rates[idx]),
                final_loss=float(item.final_loss),
                iterations=int(item.iteration))
            for idx, item in enumerate(items)
        ])

    if stats is not None:
        stats.update(engine.stats)
        stats["finalists"] = len(refined_items)
        stats["tasks"] = len(tasks)
        stats["iterations"] = sum(int(item.iteration)
                                  for plan in plans for item in plan["items"])
        if cache is not None:
            stats["cache"] = cache.stats()
    return results
