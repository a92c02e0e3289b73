"""Unit tests for the autograd engine: numeric gradient checks on core ops."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def numeric_grad(func, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference numerical gradient of a scalar-valued ``func``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = func(x)
        flat[i] = orig - eps
        minus = func(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestElementwise:
    def test_add_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)), rtol=1e-5)
        np.testing.assert_allclose(b.grad, np.ones((3, 4)), rtol=1e-5)

    def test_mul_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a.data, rtol=1e-5)

    def test_broadcast_add(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0), rtol=1e-5)

    def test_div_backward(self, rng):
        a = Tensor(np.abs(rng.standard_normal((2, 3))) + 1.0, requires_grad=True)
        b = Tensor(np.abs(rng.standard_normal((2, 3))) + 1.0, requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data, rtol=1e-5)
        np.testing.assert_allclose(b.grad, -a.data / b.data ** 2, rtol=1e-4)

    def test_pow_backward(self, rng):
        x = np.abs(rng.standard_normal((4,))) + 0.5
        t = Tensor(x, requires_grad=True)
        (t ** 3).sum().backward()
        np.testing.assert_allclose(t.grad, 3 * x ** 2, rtol=1e-4)

    def test_exp_log(self, rng):
        x = np.abs(rng.standard_normal((5,))) + 0.5
        t = Tensor(x, requires_grad=True)
        t.exp().sum().backward()
        np.testing.assert_allclose(t.grad, np.exp(x), rtol=1e-4)
        t2 = Tensor(x, requires_grad=True)
        t2.log().sum().backward()
        np.testing.assert_allclose(t2.grad, 1.0 / x, rtol=1e-3)

    def test_relu_backward(self):
        x = np.array([-1.0, 0.5, 2.0, -0.3], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0, 0.0])

    def test_sigmoid_backward(self, rng):
        x = rng.standard_normal((6,))
        t = Tensor(x, requires_grad=True)
        t.sigmoid().sum().backward()
        s = 1 / (1 + np.exp(-x))
        np.testing.assert_allclose(t.grad, s * (1 - s), rtol=1e-4)

    def test_abs_backward(self):
        t = Tensor(np.array([-2.0, 3.0, -0.5]), requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, 1.0, -1.0])

    def test_clamp_backward(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        t.clamp(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestMatmulAndReductions:
    def test_matmul_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T, rtol=1e-4)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)), rtol=1e-4)

    def test_mean_backward(self, rng):
        t = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 6), 1.0 / 12), rtol=1e-5)

    def test_sum_axis_backward(self, rng):
        t = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        t.sum(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)), rtol=1e-5)

    def test_var(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        t = Tensor(x)
        np.testing.assert_allclose(t.var(axis=0).data, x.var(axis=0), rtol=1e-4, atol=1e-5)

    def test_reshape_transpose_backward(self, rng):
        t = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        t.reshape(6, 4).transpose(1, 0).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)))

    def test_getitem_backward(self, rng):
        t = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        t[1:3].sum().backward()
        expected = np.zeros((5, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(t.grad, expected)


class TestConvPoolNumericGrad:
    def test_conv2d_input_grad(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float64)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)

        def forward_np(x_arr):
            xt = Tensor(x_arr.astype(np.float32))
            return float(F.conv2d(xt, Tensor(w), Tensor(b), stride=1, padding=1).sum().data)

        xt = Tensor(x.astype(np.float32), requires_grad=True)
        out = F.conv2d(xt, Tensor(w), Tensor(b), stride=1, padding=1).sum()
        out.backward()
        num = numeric_grad(forward_np, x.copy(), eps=1e-2)
        np.testing.assert_allclose(xt.grad, num, rtol=0.05, atol=0.05)

    def test_conv2d_weight_grad(self, rng):
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)

        def forward_np(w_arr):
            wt = Tensor(w_arr.astype(np.float32))
            return float(F.conv2d(Tensor(x), wt, stride=2, padding=1).sum().data)

        wt = Tensor(w.astype(np.float32), requires_grad=True)
        F.conv2d(Tensor(x), wt, stride=2, padding=1).sum().backward()
        num = numeric_grad(forward_np, w.copy(), eps=1e-2)
        np.testing.assert_allclose(wt.grad, num, rtol=0.05, atol=0.05)

    @pytest.mark.parametrize("in_channels,out_channels,kernel,padding",
                             [(8, 4, 1, 1), (8, 4, 3, 3), (4, 8, 3, 3)])
    def test_conv2d_input_grad_padding_at_least_kernel(
            self, rng, in_channels, out_channels, kernel, padding):
        x = rng.standard_normal((2, in_channels, 4, 4))
        w = rng.standard_normal((out_channels, in_channels, kernel, kernel))

        def forward_np(x_arr):
            return float(F.conv2d(Tensor(x_arr), Tensor(w),
                                  padding=padding).sum().data)

        xt = Tensor(x.copy(), requires_grad=True)
        F.conv2d(xt, Tensor(w), padding=padding).sum().backward()
        # The conv is linear in x: a wide step is exact up to float32 rounding.
        num = numeric_grad(forward_np, x.copy(), eps=0.1)
        np.testing.assert_allclose(xt.grad, num, rtol=1e-3, atol=1e-3)

    def test_grouped_conv_matches_manual(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1, groups=4)
        for c in range(4):
            single = F.conv2d(Tensor(x[:, c:c + 1]), Tensor(w[c:c + 1]),
                              stride=1, padding=1)
            np.testing.assert_allclose(out.data[:, c], single.data[:, 0], rtol=1e-4,
                                       atol=1e-5)

    def test_max_pool_forward_backward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        out = F.max_pool2d(t, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])
        out.sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_avg_pool_forward_backward(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        out = F.avg_pool2d(t, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 2, 2, 2)))
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full((1, 2, 4, 4), 0.25))

    def test_adaptive_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)


class TestLosses:
    def test_softmax_sums_to_one(self, rng):
        logits = Tensor(rng.standard_normal((4, 10)))
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(4), rtol=1e-5)

    def test_cross_entropy_matches_manual(self, rng):
        logits_np = rng.standard_normal((5, 3)).astype(np.float32)
        targets = np.array([0, 2, 1, 1, 0])
        logits = Tensor(logits_np, requires_grad=True)
        loss = F.cross_entropy(logits, targets)
        shifted = logits_np - logits_np.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-4)

    def test_cross_entropy_grad_is_softmax_minus_onehot(self, rng):
        logits_np = rng.standard_normal((6, 4)).astype(np.float32)
        targets = np.array([1, 0, 3, 2, 2, 1])
        logits = Tensor(logits_np, requires_grad=True)
        F.cross_entropy(logits, targets).backward()
        probs = np.exp(logits_np) / np.exp(logits_np).sum(axis=1, keepdims=True)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), targets] = 1.0
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 6, rtol=1e-3, atol=1e-5)

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        target = Tensor(np.array([1.0, 1.0, 1.0]))
        loss = F.mse_loss(pred, target)
        assert loss.item() == pytest.approx((0 + 1 + 4) / 3)

    def test_label_smoothing_reduces_confidence_penalty(self, rng):
        logits_np = rng.standard_normal((8, 5)).astype(np.float32) * 5
        targets = rng.integers(0, 5, size=8)
        plain = F.cross_entropy(Tensor(logits_np), targets).item()
        smoothed = F.cross_entropy(Tensor(logits_np), targets, label_smoothing=0.1).item()
        assert smoothed != pytest.approx(plain)


class TestBackwardMechanics:
    def test_backward_requires_grad_error(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_nonscalar_requires_grad_arg(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t * 3 + t * 4
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [7.0])

    def test_detach_stops_gradient(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        frozen = t.detach()
        assert not frozen.requires_grad

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(500):
            out = out * 1.001
        out.backward(np.array([1.0]))
        assert t.grad is not None
