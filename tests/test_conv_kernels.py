"""Dense conv, tiled pooling and box-sum kernels against plain references.

The conv reference below is the textbook formulation: patches gathered
into ``(N·oh·ow, C·kh·kw)`` rows, one ``cols @ Wᵀ`` GEMM for the output,
``gradᵀ @ cols`` for the weight gradient, and ``grad @ W`` columns
scatter-added back tap by tap for the input gradient.  The kernels under
test compute the same sums with differently laid-out GEMM operands, and a
BLAS may pick a different summation order for those, so the comparison is
to a tolerance rather than bit-exact.  Tiled average pooling must match
its reshape + ``mean`` reference bit for bit on the NHWC memory conv
outputs arrive in, and to a few ulp elsewhere; SSIM's box sums must sit
within a few float32 ulp of float64 sums.
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


def _avg_pool_reference(x, kernel, grad):
    """The reshape + ``mean`` forward and broadcast backward that tiled
    average pooling ran on before its strided adds, kept verbatim."""
    batch, channels, height, width = x.shape
    out_h, out_w = height // kernel, width // kernel
    tiles = x.reshape(batch, channels, out_h, kernel, out_w, kernel)
    out = tiles.mean(axis=(3, 5))
    inv_area = 1.0 / (kernel * kernel)
    expanded = np.broadcast_to(
        grad[:, :, :, None, :, None] * inv_area,
        (batch, channels, out_h, kernel, out_w, kernel))
    return out, expanded.reshape(x.shape)


def _pooled(x, kernel, grad):
    """Tiled average pooling's output and input gradient for ``x``."""
    t = Tensor(x, requires_grad=True)
    out = F.avg_pool2d(t, kernel)
    out.backward(grad)
    return out.data, t.grad


@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("kernel", [2, 3, 4])
def test_avg_pool_is_bit_identical_to_reshape_mean_on_nhwc(kernel, batch):
    # Conv outputs are NCHW views of NHWC memory, and on those NumPy's mean
    # adds a window tap by tap in row-major order, as the kernel does.
    rng = np.random.default_rng([kernel, batch])
    x = rng.standard_normal((batch, 5, 4 * kernel, 3 * kernel)).astype(
        np.float32)
    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    grad = rng.standard_normal((batch, 5, 4, 3)).astype(np.float32)
    out, grad_x = _pooled(x, kernel, grad)
    ref_out, ref_grad = _avg_pool_reference(x, kernel, grad)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(grad_x, ref_grad)
    # Same memory order too, so the reductions after the pool keep theirs.
    assert out.strides == ref_out.strides
    assert grad_x.strides == ref_grad.strides


@pytest.mark.parametrize("kernel", [2, 3, 4, 8])
@pytest.mark.parametrize("memory", ["nchw", "strided"])
def test_avg_pool_in_other_layouts_is_within_a_few_ulp(memory, kernel):
    # Elsewhere mean groups the window sum differently (row by row on
    # C-contiguous NCHW) while the kernel keeps its tap-by-tap order.  For
    # k² non-negative terms (post-ReLU activations) each order's relative
    # error is at most (k² − 1)·eps/2, and eps/2 more for the division, so
    # the two results differ by at most k²·eps relative.
    rng = np.random.default_rng([kernel, len(memory)])
    x = rng.random((3, 4, 4 * kernel, 6 * kernel), dtype=np.float32)
    if memory == "strided":
        x = np.repeat(x, 2, axis=3)[:, :, :, ::2]
    grad = rng.standard_normal((3, 4, 4, 6)).astype(np.float32)
    out, grad_x = _pooled(x, kernel, grad)
    ref_out, ref_grad = _avg_pool_reference(x, kernel, grad)
    eps = np.finfo(np.float32).eps
    assert np.all(np.abs(out - ref_out) <= kernel * kernel * eps * ref_out)
    assert out.strides == ref_out.strides
    np.testing.assert_array_equal(grad_x, ref_grad)


def _box_sum_float64(x, window):
    """Every window's direct sum, in float64."""
    windows = sliding_window_view(x.astype(np.float64), (window, window),
                                  axis=(2, 3))
    return windows.sum(axis=(-2, -1))


@pytest.mark.parametrize("shape", [(64, 1, 16, 16), (64, 1, 22, 22)])
def test_box_sum_is_within_four_float32_ulp(shape):
    # The shapes USB's SSIM filters at 16 px: the clean and blended images,
    # and the adjoint's padded extent.  The inputs are what SSIM sums:
    # images, their squares and their products.
    rng = np.random.default_rng(shape[2])
    x = rng.random(shape, dtype=np.float32)
    y = np.clip(x + rng.normal(0, 0.1, shape), 0, 1).astype(np.float32)
    for image in (x, x * x, x * y):
        got = F._box_sum_valid(image, 7)
        assert got.dtype == np.float32 and got.shape == (
            shape[0], 1, shape[2] - 6, shape[3] - 6)
        exact = _box_sum_float64(image, 7)
        ulp = np.spacing(exact.astype(np.float32)).astype(np.float64)
        assert np.max(np.abs(got - exact) / ulp) <= 4.0


def test_box_sum_adjoint_is_the_transpose():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2, 11, 9))
    z = rng.standard_normal((3, 2, 7, 5))
    forward = float(np.sum(F._box_sum_valid(x, 5) * z))
    adjoint = float(np.sum(x * F._box_sum_adjoint(z, 5)))
    assert forward == pytest.approx(adjoint, rel=1e-12)
    # The adjoint scatters each window back over its pixels: a full
    # ("same"-padded) box sum of the zero-padded map.
    padded = np.pad(z, ((0, 0), (0, 0), (4, 4), (4, 4)))
    np.testing.assert_allclose(F._box_sum_adjoint(z, 5),
                               _box_sum_float64(padded, 5), rtol=1e-12,
                               atol=1e-12)
