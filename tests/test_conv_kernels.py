"""Dense conv and tiled max-pool kernels against im2col/col2im references.

The reference below is the textbook formulation: patches gathered into
``(N·oh·ow, C·kh·kw)`` rows, one ``cols @ Wᵀ`` GEMM for the output,
``gradᵀ @ cols`` for the weight gradient, and ``grad @ W`` columns
scatter-added back tap by tap for the input gradient.  The kernels under
test compute the same sums with differently laid-out GEMM operands, and a
BLAS may pick a different summation order for those, so the comparison is
to a tolerance rather than bit-exact.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import Tensor
from repro.nn import functional as F


def reference_conv(x, w, b, stride, padding, grad_out):
    """Output, input gradient and weight gradient via im2col / col2im."""
    batch, channels, height, width = x.shape
    out_channels, _, kernel_h, kernel_w = w.shape
    pads = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    x_pad = np.pad(x, pads)
    windows = sliding_window_view(x_pad, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, oh, ow, kh, kw)
    out_h, out_w = windows.shape[2:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        -1, channels * kernel_h * kernel_w)
    w_mat = w.reshape(out_channels, -1)
    out = (cols @ w_mat.T).reshape(batch, out_h, out_w, out_channels)
    out = out.transpose(0, 3, 1, 2) + b.reshape(1, -1, 1, 1)

    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_w = (grad_mat.T @ cols).reshape(w.shape)
    grad_cols = (grad_mat @ w_mat).reshape(batch, out_h, out_w, channels,
                                           kernel_h, kernel_w)
    grad_pad = np.zeros_like(x_pad)
    for i in range(kernel_h):
        for j in range(kernel_w):
            grad_pad[:, :, i:i + stride * out_h:stride,
                     j:j + stride * out_w:stride] += \
                grad_cols[..., i, j].transpose(0, 3, 1, 2)
    grad_x = grad_pad[:, :, padding:padding + height, padding:padding + width]
    return out, grad_x, grad_w


CONV_CASES = [(kernel, padding) for kernel, paddings in
              ((1, [1]), (3, range(4)), (5, range(6))) for padding in paddings]
CHANNELS = {"expanding": (3, 5), "equal": (4, 4), "contracting": (6, 2)}


@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("channels", sorted(CHANNELS))
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel,padding", CONV_CASES)
def test_dense_conv_matches_im2col_reference(kernel, padding, stride, channels,
                                             batch):
    in_channels, out_channels = CHANNELS[channels]
    rng = np.random.default_rng([kernel, padding, stride, batch])
    # Tensors hold float32, so the reference runs in float32 too, on the
    # scales the library trains at: images in [0, 1), He-initialised
    # weights (as nn.Conv2d) and the gradient of a loss averaged over the
    # output positions.
    x = rng.random((batch, in_channels, 7, 6), dtype=np.float32)
    fan_in = in_channels * kernel * kernel
    w = (rng.standard_normal((out_channels, in_channels, kernel, kernel))
         * np.sqrt(2.0 / fan_in)).astype(np.float32)
    b = (0.1 * rng.standard_normal(out_channels)).astype(np.float32)

    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
    positions = out.data[:, 0].size
    grad_out = (rng.standard_normal(out.data.shape) / positions).astype(
        np.float32)
    out.backward(grad_out)

    ref_out, ref_grad_x, ref_grad_w = reference_conv(x, w, b, stride, padding,
                                                     grad_out)
    tol = {"rtol": 1e-5, "atol": 1e-6}
    np.testing.assert_allclose(out.data, ref_out, **tol)
    np.testing.assert_allclose(xt.grad, ref_grad_x, **tol)
    np.testing.assert_allclose(wt.grad, ref_grad_w, **tol)
    np.testing.assert_allclose(bt.grad, grad_out.sum(axis=(0, 2, 3)), **tol)


def test_dense_conv_output_is_nchw_view_of_nhwc_memory():
    """Conv outputs keep NHWC memory, so later reductions keep their order."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)))
    w = Tensor(rng.standard_normal((5, 3, 3, 3)))
    out = F.conv2d(x, w, stride=1, padding=1).data
    assert out.shape == (2, 5, 6, 6)
    assert out.transpose(0, 2, 3, 1).flags.c_contiguous


def _max_pool_reference(x, kernel):
    """First maximum of each window in row-major order, and its gradient."""
    batch, channels, height, width = x.shape
    out_h, out_w = height // kernel, width // kernel
    out = np.zeros((batch, channels, out_h, out_w))
    grad_x = np.zeros_like(x)
    for n in range(batch):
        for c in range(channels):
            for y in range(out_h):
                for z in range(out_w):
                    window = x[n, c, y * kernel:(y + 1) * kernel,
                               z * kernel:(z + 1) * kernel]
                    i, j = np.unravel_index(np.argmax(window), window.shape)
                    out[n, c, y, z] = window[i, j]
                    grad_x[n, c, y * kernel + i, z * kernel + j] = 1.0
    return out, grad_x


@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("nhwc_memory", [False, True])
def test_max_pool_tied_maxima_route_to_first_max(kernel, nhwc_memory):
    rng = np.random.default_rng(kernel)
    # Integers in a narrow range put several tied maxima in most windows.
    x = rng.integers(-1, 2, size=(3, 4, 2 * kernel, 3 * kernel)).astype(float)
    x[0, 0, :kernel, :kernel] = 1.0  # one window that is all ties
    if nhwc_memory:  # the memory order conv outputs arrive in
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    t = Tensor(x, requires_grad=True)
    out = F.max_pool2d(t, kernel)
    out.sum().backward()
    ref_out, ref_grad = _max_pool_reference(x, kernel)
    np.testing.assert_array_equal(out.data, ref_out)
    np.testing.assert_array_equal(t.grad, ref_grad)
    assert t.grad[0, 0, 0, 0] == 1.0 and t.grad[0, 0, :kernel, :kernel].sum() == 1


def test_max_pool_tiled_and_strided_paths_agree_on_ties():
    """An odd extent takes the im2col path; its covered part must agree."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, size=(2, 3, 9, 9)).astype(float)
    odd = Tensor(x, requires_grad=True)
    even = Tensor(x[:, :, :8, :8].copy(), requires_grad=True)
    out_odd, out_even = F.max_pool2d(odd, 2), F.max_pool2d(even, 2)
    np.testing.assert_array_equal(out_odd.data, out_even.data)
    grad = rng.standard_normal(out_odd.data.shape)
    out_odd.backward(grad)
    out_even.backward(grad)
    np.testing.assert_array_equal(odd.grad[:, :, :8, :8], even.grad)
    assert not odd.grad[:, :, 8].any() and not odd.grad[:, :, :, 8].any()
