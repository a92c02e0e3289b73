"""Shared utilities: SSIM, image helpers, RNG management, logging.

The logger lives in :mod:`repro.obs.logging`, beside the traces and
metrics, so the scanning service logs without importing this NumPy-backed
package; :func:`get_logger` and :func:`timed` are re-exported here.
"""

from .image import (
    clip01,
    l1_norm,
    l2_norm,
    linf_norm,
    resize_nearest,
    to_grid,
    trigger_iou,
)
from ..obs.logging import get_logger, timed
from .rng import derive_rng, seeded_rng, spawn_rngs
from .ssim import ssim, ssim_tensor

__all__ = [
    "clip01",
    "l1_norm",
    "l2_norm",
    "linf_norm",
    "resize_nearest",
    "to_grid",
    "trigger_iou",
    "get_logger",
    "timed",
    "derive_rng",
    "seeded_rng",
    "spawn_rngs",
    "ssim",
    "ssim_tensor",
]
