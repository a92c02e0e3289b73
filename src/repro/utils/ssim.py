"""Structural similarity index (SSIM), Wang et al. 2004.

Two flavours are provided:

* :func:`ssim` — plain NumPy, for evaluation and reporting.
* :func:`ssim_tensor` — differentiable version built on the ``repro.nn``
  autograd engine, used inside the USB trigger-optimization loss (Alg. 2 of
  the paper: ``L = CE - SSIM(x, x') + ||mask||_1``).

Both use a uniform (box) filter window, which is the common implementation
choice when a Gaussian window is not required; the paper does not specify the
window type and the detection behaviour is insensitive to it.

:mod:`repro.utils` re-exports both, and every service command imports
that package, so this module imports ``repro.nn`` only inside the
functions that run on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..nn.tensor import Tensor

__all__ = ["ssim", "ssim_tensor", "ssim_x_stats"]

_C1 = 0.01 ** 2
_C2 = 0.03 ** 2


def _box_filter(x: np.ndarray, window: int) -> np.ndarray:
    """Apply a per-channel box filter to an ``(N, C, H, W)`` array."""
    n, c, h, w = x.shape
    out_h, out_w = h - window + 1, w - window + 1
    # Integral-image approach keeps this O(N*C*H*W).
    padded = np.zeros((n, c, h + 1, w + 1), dtype=np.float64)
    padded[:, :, 1:, 1:] = np.cumsum(np.cumsum(x, axis=2), axis=3)
    total = (padded[:, :, window:, window:]
             - padded[:, :, :-window, window:]
             - padded[:, :, window:, :-window]
             + padded[:, :, :-window, :-window])
    return (total / (window * window))[:, :, :out_h, :out_w]


def ssim(x: np.ndarray, y: np.ndarray, window: int = 7,
         data_range: float = 1.0) -> float:
    """Mean SSIM between image batches ``x`` and ``y`` of shape ``(N, C, H, W)``.

    Returns a scalar in ``[-1, 1]`` (1 means identical images).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"SSIM inputs must share a shape, got {x.shape} vs {y.shape}.")
    if x.ndim != 4:
        raise ValueError("SSIM expects (N, C, H, W) batches.")
    window = min(window, x.shape[2], x.shape[3])

    c1 = _C1 * data_range ** 2
    c2 = _C2 * data_range ** 2

    mu_x = _box_filter(x, window)
    mu_y = _box_filter(y, window)
    mu_xx = _box_filter(x * x, window)
    mu_yy = _box_filter(y * y, window)
    mu_xy = _box_filter(x * y, window)

    sigma_x = mu_xx - mu_x ** 2
    sigma_y = mu_yy - mu_y ** 2
    sigma_xy = mu_xy - mu_x * mu_y

    numerator = (2 * mu_x * mu_y + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (sigma_x + sigma_y + c2)
    return float(np.mean(numerator / denominator))


def _box_transpose(z: np.ndarray, window: int) -> np.ndarray:
    """Adjoint of the mean box filter: scatter each window value back."""
    from ..nn import functional as F

    pad = window - 1
    padded = F._pad2d_zeros(z, pad, pad, pad, pad)
    return F._box_sum_valid(padded, window) / (window * window)


def ssim_x_stats(x: np.ndarray, window: int = 7
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute the x-side SSIM filter maps ``(mu_x, mu_xx)``.

    The reference-image statistics are independent of the optimized trigger,
    so callers looping over the same clean batch (the batched trigger engine)
    compute them once and pass them to :func:`ssim_tensor` via ``x_stats``.
    """
    from ..nn import functional as F

    window = min(window, x.shape[2], x.shape[3])
    area = window * window
    return (F._box_sum_valid(x, window) / area,
            F._box_sum_valid(x * x, window) / area)


def ssim_tensor(x: Tensor, y: Tensor, window: int = 7,
                data_range: float = 1.0,
                x_stats: Optional[Tuple[np.ndarray, np.ndarray]] = None
                ) -> Tensor:
    """Differentiable mean SSIM between ``(N, C, H, W)`` tensors.

    Gradients flow to both ``x`` and ``y``; in the USB loss only ``y`` (the
    perturbed image) carries gradients back to the trigger and mask.

    Fused into a single graph node: the forward runs on integral images and
    the backward applies the analytic SSIM gradient (three adjoint box filters
    per differentiated input) instead of unrolling ~70 elementwise tape ops —
    this keeps the USB loss cheap even on ``(K·B, C, H, W)`` mega-batches.
    """
    from ..nn import functional as F
    from ..nn.tensor import Tensor

    if x.data.shape != y.data.shape:
        raise ValueError("SSIM inputs must share a shape.")
    window = min(window, x.data.shape[2], x.data.shape[3])
    area = window * window

    c1 = _C1 * data_range ** 2
    c2 = _C2 * data_range ** 2

    x_data = x.data
    y_data = y.data
    if x_stats is not None:
        mu_x, mu_xx = x_stats
    else:
        mu_x = F._box_sum_valid(x_data, window) / area
        mu_xx = F._box_sum_valid(x_data * x_data, window) / area
    mu_y = F._box_sum_valid(y_data, window) / area
    mu_yy = F._box_sum_valid(y_data * y_data, window) / area
    mu_xy = F._box_sum_valid(x_data * y_data, window) / area

    sigma_x = mu_xx - mu_x ** 2
    sigma_y = mu_yy - mu_y ** 2
    sigma_xy = mu_xy - mu_x * mu_y

    a1 = 2.0 * mu_x * mu_y + c1
    a2 = 2.0 * sigma_xy + c2
    b1 = mu_x ** 2 + mu_y ** 2 + c1
    b2 = sigma_x + sigma_y + c2
    denom = b1 * b2
    ssim_map = (a1 * a2) / denom
    out = np.asarray(ssim_map.mean(), dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        # d mean(S) / d mu_* maps, with S = A1 A2 / (B1 B2) and
        # sigma terms re-expressed through mu_yy/mu_xy (resp. mu_xx).
        scale = float(grad) / ssim_map.size
        common = scale * (a2 - a1) * 2.0 / denom
        split = scale * ssim_map * 2.0 * (1.0 / b1 - 1.0 / b2)
        d_mu_xy = scale * 2.0 * a1 / denom
        d_mu_sq = -scale * ssim_map / b2  # coefficient of mu_xx / mu_yy
        if y.requires_grad:
            d_mu_y = mu_x * common - mu_y * split
            grad_y = (_box_transpose(d_mu_y, window)
                      + 2.0 * y_data * _box_transpose(d_mu_sq, window)
                      + x_data * _box_transpose(d_mu_xy, window))
            y._accumulate(grad_y.astype(y.data.dtype))
        if x.requires_grad:
            d_mu_x = mu_y * common - mu_x * split
            grad_x = (_box_transpose(d_mu_x, window)
                      + 2.0 * x_data * _box_transpose(d_mu_sq, window)
                      + y_data * _box_transpose(d_mu_xy, window))
            x._accumulate(grad_x.astype(x.data.dtype))

    return Tensor._make(out, (x, y), backward)
