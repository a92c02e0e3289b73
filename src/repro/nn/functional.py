"""Differentiable functional operations for the ``repro.nn`` substrate.

This module implements the convolutional / pooling / normalization primitives
used by the model zoo and by the defenses.  Every convolution puts its heavy
lifting into one large GEMM, the fastest approach available in pure NumPy:

* dense kernels larger than 1x1 gather tap-major, batch-innermost columns
  with one slice copy per kernel tap, so the forward is one GEMM and the
  input gradient is one GEMM whose per-tap slices scatter-add contiguously
  (:func:`_conv2d_dense`);
* unpadded 1x1 kernels are a channel-mixing GEMM on the input itself;
* grouped and depthwise kernels use :func:`im2col` and a per-group einsum.

Pooling over non-overlapping windows is a reshape; only overlapping or
ragged windows go through :func:`im2col` / :func:`col2im`.

All functions accept and return :class:`repro.nn.tensor.Tensor` instances and
participate in the autograd graph.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "linear",
    "batch_norm",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "dropout",
    "one_hot",
    "silu",
    "leaky_relu",
    "uniform_filter2d",
]


# ---------------------------------------------------------------------- #
# im2col / col2im
# ---------------------------------------------------------------------- #
def _pad2d_zeros(x: np.ndarray, pad_top: int, pad_bottom: int,
                 pad_left: int, pad_right: int) -> np.ndarray:
    """Zero-pad the two spatial dims of an ``(N, C, H, W)`` array.

    Direct zeros + assignment; ``np.pad``'s generic machinery costs several
    times more for this (hot-path) case.
    """
    batch, channels, height, width = x.shape
    out = np.zeros((batch, channels, height + pad_top + pad_bottom,
                    width + pad_left + pad_right), dtype=x.dtype)
    out[:, :, pad_top:pad_top + height, pad_left:pad_left + width] = x
    return out


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int,
           padding: int) -> Tuple[np.ndarray, int, int]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N, out_h, out_w, C * kernel_h * kernel_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1

    if padding > 0:
        x = _pad2d_zeros(x, padding, padding, padding, padding)

    strides = x.strides
    shape = (batch, channels, out_h, out_w, kernel_h, kernel_w)
    window_strides = (
        strides[0],
        strides[1],
        strides[2] * stride,
        strides[3] * stride,
        strides[2],
        strides[3],
    )
    windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=window_strides)
    # (N, out_h, out_w, C, kh, kw) -> (N, out_h, out_w, C*kh*kw).  The reshape
    # of the transposed view already materializes a contiguous copy, so no
    # extra ``ascontiguousarray`` pass is needed before handing it to a GEMM.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * kernel_h * kernel_w)
    return cols, out_h, out_w


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel_h: int,
           kernel_w: int, stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    batch, channels, height, width = x_shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1

    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=cols.dtype)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 1, 2, 4, 5)  # (N, C, out_h, out_w, kh, kw)

    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, :, :, i, j]

    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ---------------------------------------------------------------------- #
# Convolution
# ---------------------------------------------------------------------- #
def _conv2d_1x1(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                stride: int) -> Tensor:
    """1x1 convolution as a direct batched GEMM, skipping im2col entirely.

    A 1x1 kernel needs no patch extraction: the convolution is a channel-mixing
    matrix multiply on the (optionally strided) input, which avoids the im2col
    copy in both the forward and backward passes.
    """
    x_data = x.data
    if stride > 1:
        x_data = x_data[:, :, ::stride, ::stride]
    batch, channels, out_h, out_w = x_data.shape
    out_channels = weight.data.shape[0]
    w_mat = weight.data.reshape(out_channels, channels)
    # Contiguous inputs reshape to a view; only the strided slice copies.
    x_mat = x_data.reshape(batch, channels, out_h * out_w)
    out = np.matmul(w_mat, x_mat).reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # Keep the input activation for grad_w only when the weight can need it,
    # so frozen-model optimization loops don't pin the buffer.
    x_saved = x_mat if weight.requires_grad else None

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(batch, out_channels, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x_saved is not None:
            grad_w = np.einsum("nop,ncp->oc", grad_mat, x_saved)
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if x.requires_grad:
            grad_sub = np.matmul(w_mat.T, grad_mat).reshape(
                batch, channels, out_h, out_w)
            if stride == 1:
                x._accumulate(grad_sub)
            else:
                full = np.zeros_like(x.data)
                full[:, :, ::stride, ::stride] = grad_sub
                x._accumulate(full)

    return Tensor._make(out, parents, backward)


def _conv2d_dense(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                  stride: int, padding: int) -> Tensor:
    """Dense (``groups == 1``) convolution with tap-major, batch-innermost GEMMs.

    The input is copied once into a zero-padded ``(C, H+2p, W+2p, N)`` buffer
    and the columns ``cols[c, i, j, y, x, n] = xpad[n, c, y·s+i, x·s+j]`` are
    filled with one slice copy per kernel tap ``(i, j)``.  The forward is then
    one ``W (OC, C·kh·kw) @ cols`` GEMM, written into an ``(N, oh, ow, OC)``
    array whose NCHW view is returned, so the ops after the conv see the same
    memory order as every other conv output.

    The input gradient is one ``Wᵀ @ g`` GEMM whose rows come out tap-major,
    ``(kh, kw, C)``: each tap's ``(C, oh, ow, N)`` slice is contiguous and is
    scatter-added into a padded ``(C, H+2p, W+2p, N)`` buffer in ``(i, j)``
    order, whatever the padding.  The weight gradient (training only) reorders
    the columns to ``(C·kh·kw, N·oh·ow)`` so its GEMM reduces over
    ``(n, oh, ow)`` in the order an im2col GEMM does: a ``(oh, ow, n)`` order
    would train to different weights.
    """
    x_data = x.data
    batch, channels, height, width = x_data.shape
    out_channels, _, kernel_h, kernel_w = weight.data.shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    patch = channels * kernel_h * kernel_w
    span_h, span_w = stride * out_h, stride * out_w

    x_pad = np.zeros((channels, padded_h, padded_w, batch), dtype=x_data.dtype)
    x_pad[:, padding:padding + height, padding:padding + width] = \
        x_data.transpose(1, 2, 3, 0)
    cols = np.empty((channels, kernel_h, kernel_w, out_h, out_w, batch),
                    dtype=x_data.dtype)
    for i in range(kernel_h):
        for j in range(kernel_w):
            cols[:, i, j] = x_pad[:, i:i + span_h:stride, j:j + span_w:stride]
    cols = cols.reshape(patch, out_h * out_w * batch)

    out = weight.data.reshape(out_channels, patch) @ cols
    out = np.ascontiguousarray(
        out.reshape(out_channels, out_h, out_w, batch).transpose(3, 1, 2, 0))
    out = out.transpose(0, 3, 1, 2)  # NCHW view of (N, oh, ow, OC) memory
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # grad_w needs the columns; when the weight is frozen (trigger
    # optimization, DeepFool sweeps) drop them so the closure does not pin
    # the largest allocation of the layer.
    cols_saved = cols if weight.requires_grad else None

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if cols_saved is not None:
            grad_out_mat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
            cols_nhw = cols_saved.reshape(patch, out_h * out_w, batch).transpose(
                0, 2, 1).reshape(patch, -1)
            grad_w = grad_out_mat.T @ cols_nhw.T
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if x.requires_grad:
            grad_mat = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
            w_taps = weight.data.transpose(2, 3, 1, 0).reshape(-1, out_channels)
            grad_cols = (w_taps @ grad_mat).reshape(
                kernel_h, kernel_w, channels, out_h, out_w, batch)
            grad_pad = np.zeros((channels, padded_h, padded_w, batch),
                                dtype=grad_cols.dtype)
            for i in range(kernel_h):
                for j in range(kernel_w):
                    grad_pad[:, i:i + span_h:stride, j:j + span_w:stride] += \
                        grad_cols[i, j]
            grad_x = grad_pad[:, padding:padding + height,
                              padding:padding + width]
            x._accumulate(np.ascontiguousarray(grad_x.transpose(3, 0, 1, 2)))

    return Tensor._make(out, parents, backward)


def _conv2d_input_grad(grad_out: np.ndarray, weight: np.ndarray,
                       x_shape: Tuple[int, int, int, int], stride: int,
                       padding: int, groups: int) -> np.ndarray:
    """Input gradient of a grouped convolution, as a transposed convolution.

    Dense convolutions never come here: :func:`_conv2d_dense` computes theirs
    with one tap-major GEMM.  Spatial-heavy depthwise convolutions scatter
    each kernel tap of the output gradient straight into the input extent.
    Every other grouped convolution runs the identity
    ``grad_x = conv(dilate(grad_out), flip(W)ᵀ)`` through im2col and a
    per-group einsum, which requires ``padding <= kernel - 1``.
    """
    batch, in_channels, height, width = x_shape
    out_channels, in_per_group, kernel_h, kernel_w = weight.shape
    _, _, out_h, out_w = grad_out.shape

    if (groups == in_channels and in_per_group == 1 and out_channels == groups
            and out_h * out_w >= kernel_h * kernel_w):
        # Spatial-heavy depthwise: scatter each kernel tap of the output
        # gradient directly into the input extent.  The im2col route would
        # copy the gradient k² times (hundreds of MB for the 5x5 blocks on
        # mega-batches); the tap loop touches k² · |grad| instead.  Blocks
        # with tiny spatial maps fall through to the im2col/einsum transpose
        # below, where per-tap Python dispatch would dominate.
        grad_padded = np.zeros((batch, in_channels, height + 2 * padding,
                                width + 2 * padding), dtype=grad_out.dtype)
        w = weight
        tap = np.empty_like(grad_out)
        for u in range(kernel_h):
            u_end = u + out_h * stride
            for v in range(kernel_w):
                v_end = v + out_w * stride
                np.multiply(grad_out, w[None, :, 0, u, v, None, None], out=tap)
                grad_padded[:, :, u:u_end:stride, v:v_end:stride] += tap
        if padding > 0:
            return grad_padded[:, :, padding:-padding, padding:-padding]
        return grad_padded

    if stride > 1:
        dilated = np.zeros((batch, out_channels, (out_h - 1) * stride + 1,
                            (out_w - 1) * stride + 1), dtype=grad_out.dtype)
        dilated[:, :, ::stride, ::stride] = grad_out
    else:
        dilated = grad_out

    # Pad so that a stride-1 'valid' conv lands exactly on the input extent
    # (trailing pads absorb the rows the strided forward never reached).
    lead_h = kernel_h - 1 - padding
    lead_w = kernel_w - 1 - padding
    trail_h = height + kernel_h - 1 - dilated.shape[2] - lead_h
    trail_w = width + kernel_w - 1 - dilated.shape[3] - lead_w
    if min(lead_h, lead_w, trail_h, trail_w) < 0:
        raise ValueError("conv2d input-grad: padding exceeds kernel extent.")
    padded = _pad2d_zeros(dilated, lead_h, trail_h, lead_w, trail_w)

    # Spatially flipped, in/out-swapped weights: (C, OC//g, kh, kw) stacked
    # per group so the transposed conv is itself a grouped conv.
    flipped = weight[:, :, ::-1, ::-1]
    cols, gh, gw = im2col(padded, kernel_h, kernel_w, 1, 0)
    if (gh, gw) != (height, width):
        raise RuntimeError(
            f"conv2d input-grad: transposed-conv extent ({gh}, {gw}) does "
            f"not match the input ({height}, {width}).")
    opg = out_channels // groups
    cols_g = cols.reshape(batch, height, width, groups,
                          opg * kernel_h * kernel_w)
    w_g = flipped.reshape(groups, opg, in_per_group, kernel_h, kernel_w)
    w_g = w_g.transpose(0, 2, 1, 3, 4).reshape(groups, in_per_group, -1)
    grad_x = np.einsum("nhwgk,gik->nhwgi", cols_g, w_g)
    grad_x = grad_x.reshape(batch, height, width, in_channels)
    return grad_x.transpose(0, 3, 1, 2)


def _conv2d_grouped(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                    stride: int, padding: int, groups: int) -> Tensor:
    """Grouped / depthwise convolution: im2col and a per-group einsum."""
    batch = x.data.shape[0]
    out_channels, in_per_group, kernel_h, kernel_w = weight.data.shape
    cols, out_h, out_w = im2col(x.data, kernel_h, kernel_w, stride, padding)
    patch = in_per_group * kernel_h * kernel_w
    cols_g = cols.reshape(batch, out_h, out_w, groups, patch)
    w_g = weight.data.reshape(groups, out_channels // groups, -1)
    out = np.einsum("nhwgk,gok->nhwgo", cols_g, w_g)
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    cols_saved = cols_g if weight.requires_grad else None

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if cols_saved is not None:
            grad_out_g = grad.transpose(0, 2, 3, 1).reshape(
                batch, out_h, out_w, groups, out_channels // groups)
            grad_w = np.einsum("nhwgo,nhwgk->gok", grad_out_g, cols_saved)
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if x.requires_grad:
            x._accumulate(_conv2d_input_grad(grad, weight.data, x.data.shape,
                                             stride, padding, groups))

    return Tensor._make(out, parents, backward)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2D convolution over ``(N, C, H, W)`` inputs.

    ``groups > 1`` implements grouped / depthwise convolution (used by the
    EfficientNet-style model).  With ``groups == 1``, unpadded 1x1 kernels
    take a direct channel-mixing GEMM and every other kernel the tap-major
    GEMMs of :func:`_conv2d_dense`.  Except on the 1x1 path, the result is
    an NCHW view of ``(N, oh, ow, OC)`` memory.
    """
    in_channels = x.data.shape[1]
    out_channels, in_per_group, kernel_h, kernel_w = weight.data.shape
    if in_channels != in_per_group * groups:
        raise ValueError(
            f"conv2d channel mismatch: input has {in_channels} channels, "
            f"weight expects {in_per_group * groups} (groups={groups}).")

    if groups > 1:
        return _conv2d_grouped(x, weight, bias, stride, padding, groups)
    if kernel_h == 1 and kernel_w == 1 and padding == 0:
        return _conv2d_1x1(x, weight, bias, stride)
    return _conv2d_dense(x, weight, bias, stride, padding)


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #
def _max_pool2d_tiled(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping max pooling via a reshape, no im2col/col2im.

    Applies when ``stride == kernel_size`` and the spatial dims divide evenly.
    The windows are gathered into ``(N, oh, ow, C, k·k)`` by one reshape copy
    (a view of the input's own memory when it is NHWC-ordered, as conv
    outputs are), and each output is the window's first maximum in row-major
    ``(i, j)`` order.  The backward places every gradient at that maximum and
    rebuilds the NCHW input with one transpose instead of k² strided adds.
    """
    batch, channels, height, width = x.data.shape
    k = kernel_size
    out_h, out_w = height // k, width // k
    windows = x.data.transpose(0, 2, 3, 1).reshape(
        batch, out_h, k, out_w, k, channels).transpose(0, 1, 3, 5, 2, 4)
    windows = windows.reshape(batch, out_h, out_w, channels, k * k)
    argmax = windows.argmax(axis=-1)[..., None]
    out = np.take_along_axis(windows, argmax, axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_windows = np.zeros((batch, out_h, out_w, channels, k * k),
                                dtype=grad.dtype)
        np.put_along_axis(grad_windows, argmax,
                          grad.transpose(0, 2, 3, 1)[..., None], axis=-1)
        grad_x = grad_windows.reshape(batch, out_h, out_w, channels, k, k)
        x._accumulate(grad_x.transpose(0, 3, 1, 4, 2, 5).reshape(x.data.shape))

    return Tensor._make(out.transpose(0, 3, 1, 2), (x,), backward)


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel_size
    if (stride == kernel_size and x.data.shape[2] % kernel_size == 0
            and x.data.shape[3] % kernel_size == 0):
        return _max_pool2d_tiled(x, kernel_size)
    cols, out_h, out_w = im2col(x.data, kernel_size, kernel_size, stride, 0)
    batch, channels = x.data.shape[:2]
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_size * kernel_size)
    argmax = cols.argmax(axis=-1)
    out = np.take_along_axis(cols, argmax[..., None], axis=-1)[..., 0]
    out = out.transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_perm = grad.transpose(0, 2, 3, 1)  # (N, oh, ow, C)
        grad_cols = np.zeros(
            (batch, out_h, out_w, channels, kernel_size * kernel_size),
            dtype=grad.dtype)
        np.put_along_axis(grad_cols, argmax[..., None], grad_perm[..., None], axis=-1)
        grad_cols = grad_cols.reshape(batch, out_h, out_w,
                                      channels * kernel_size * kernel_size)
        grad_x = col2im(grad_cols, x.data.shape, kernel_size, kernel_size, stride, 0)
        x._accumulate(grad_x)

    return Tensor._make(out, (x,), backward)


def _avg_pool2d_tiled(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping average pooling via a reshape, no im2col.

    Applies when ``stride == kernel_size`` and the spatial dims divide evenly:
    the window mean is a reshape + mean, and the backward is a broadcast of
    ``grad / k²`` back over each window.
    """
    batch, channels, height, width = x.data.shape
    out_h, out_w = height // kernel_size, width // kernel_size
    tiles = x.data.reshape(batch, channels, out_h, kernel_size, out_w,
                           kernel_size)
    out = tiles.mean(axis=(3, 5))
    inv_area = 1.0 / (kernel_size * kernel_size)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        expanded = np.broadcast_to(
            grad[:, :, :, None, :, None] * inv_area,
            (batch, channels, out_h, kernel_size, out_w, kernel_size))
        x._accumulate(expanded.reshape(x.data.shape))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over (possibly strided) windows."""
    stride = stride or kernel_size
    if (stride == kernel_size and x.data.shape[2] % kernel_size == 0
            and x.data.shape[3] % kernel_size == 0):
        return _avg_pool2d_tiled(x, kernel_size)
    cols, out_h, out_w = im2col(x.data, kernel_size, kernel_size, stride, 0)
    batch, channels = x.data.shape[:2]
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_size * kernel_size)
    out = cols.mean(axis=-1).transpose(0, 3, 1, 2)
    window = kernel_size * kernel_size

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_perm = grad.transpose(0, 2, 3, 1) / window
        grad_cols = np.repeat(grad_perm[..., None], window, axis=-1)
        grad_cols = grad_cols.reshape(batch, out_h, out_w, channels * window)
        grad_x = col2im(grad_cols, x.data.shape, kernel_size, kernel_size, stride, 0)
        x._accumulate(grad_x)

    return Tensor._make(out, (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only ``output_size == 1`` (global) is supported."""
    if output_size != 1:
        raise NotImplementedError("Only global average pooling (output_size=1) is supported.")
    return x.mean(axis=(2, 3), keepdims=True)


# ---------------------------------------------------------------------- #
# Linear / normalization
# ---------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization over the channel dimension of ``(N, C, H, W)`` or ``(N, C)``.

    ``running_mean`` / ``running_var`` are plain NumPy buffers updated in place
    during training.
    """
    if x.data.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.data.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError("batch_norm expects 2D or 4D input.")

    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= (1 - momentum)
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= (1 - momentum)
        running_var += momentum * var.data.reshape(-1)
        x_hat = (x - mean) / (var + eps).sqrt()
    else:
        if not is_grad_enabled() or not (gamma.requires_grad or beta.requires_grad):
            # Eval-mode fast path: fold the normalization and the affine into a
            # single precomputed scale/shift applied as one fused graph node.
            # Valid whenever gamma/beta need no gradient (frozen model or
            # no_grad block); the gradient w.r.t. ``x`` (DeepFool, trigger
            # optimization) is just a rescale.
            scale = (gamma.data / np.sqrt(running_var + eps)).astype(x.data.dtype)
            shift = (beta.data - running_mean * scale).astype(x.data.dtype)
            scale = scale.reshape(shape)
            shift = shift.reshape(shape)
            out_data = x.data * scale
            out_data += shift

            def backward(grad: np.ndarray) -> None:
                x._accumulate(grad * scale)

            return Tensor._make(out_data, (x,), backward)
        mean_arr = running_mean.reshape(shape)
        var_arr = running_var.reshape(shape)
        x_hat = (x - Tensor(mean_arr)) / Tensor(np.sqrt(var_arr + eps))

    return x_hat * gamma.reshape(*shape) + beta.reshape(*shape)


# ---------------------------------------------------------------------- #
# Activations
# ---------------------------------------------------------------------- #
def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation: ``x * sigmoid(x)``.

    Fused into one graph node with an analytic backward
    (``σ(x)·(1 + x·(1 − σ(x)))``), replacing the three-node composition whose
    backward materialized several extra activation-sized temporaries.
    """
    with np.errstate(over="ignore"):  # exp overflow saturates to 0/1
        sig = 1.0 / (1.0 + np.exp(-x.data))
    out_data = x.data * sig

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (sig * (1.0 + x.data * (1.0 - sig))))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU activation."""
    mask = x.data > 0
    out_data = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(mask, 1.0, negative_slope))

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Softmax and losses
# ---------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert integer labels to a one-hot matrix."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood loss given log-probabilities."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    num_classes = log_probs.data.shape[-1]
    oh = one_hot(targets, num_classes)
    picked = (log_probs * Tensor(oh)).sum(axis=-1)
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  label_smoothing: float = 0.0) -> Tensor:
    """Cross-entropy loss from raw logits with optional label smoothing."""
    num_classes = logits.data.shape[-1]
    log_probs = log_softmax(logits, axis=-1)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    oh = one_hot(targets, num_classes)
    if label_smoothing > 0.0:
        oh = oh * (1.0 - label_smoothing) + label_smoothing / num_classes
    return -(log_probs * Tensor(oh)).sum(axis=-1).mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error loss."""
    diff = pred - target
    return (diff * diff).mean()


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout with keep-probability scaling."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


# ---------------------------------------------------------------------- #
# Fixed-kernel filtering (used by the differentiable SSIM)
# ---------------------------------------------------------------------- #
def _box_sum_valid(x: np.ndarray, window: int,
                   dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Sliding-window sum over the spatial dims ('valid' positions only).

    Integral-image implementation: O(N·C·H·W) regardless of window size,
    versus O(N·C·H·W·window²) for the im2col depthwise-conv formulation.
    ``dtype`` selects the accumulator (default: the input's own dtype —
    float32 cumsums over typical image extents stay within ~1e-6 relative
    error, and halving the memory traffic matters on mega-batches).
    """
    n, c, h, w = x.shape
    dtype = dtype or x.dtype
    padded = np.zeros((n, c, h + 1, w + 1), dtype=dtype)
    np.cumsum(np.cumsum(x, axis=2, dtype=dtype), axis=3,
              out=padded[:, :, 1:, 1:])
    total = (padded[:, :, window:, window:]
             - padded[:, :, :-window, window:]
             - padded[:, :, window:, :-window]
             + padded[:, :, :-window, :-window])
    out_h, out_w = h - window + 1, w - window + 1
    return total[:, :, :out_h, :out_w]


def uniform_filter2d(x: Tensor, window: int) -> Tensor:
    """Apply a uniform (box) filter per channel, differentiable w.r.t. ``x``.

    Forward and backward both run on integral images: the gradient of a box
    filter is a box filter of the zero-padded upstream gradient, so neither
    direction touches the conv/im2col machinery at all.
    """
    inv_area = 1.0 / (window * window)
    out_data = np.asarray(_box_sum_valid(x.data, window) * inv_area,
                          dtype=x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        pad = window - 1
        padded = _pad2d_zeros(grad, pad, pad, pad, pad)
        grad_x = (_box_sum_valid(padded, window) * inv_area).astype(grad.dtype)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)
