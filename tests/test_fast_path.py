"""Tests for the fast-path execution layer: no_grad mode, conv fast paths,
and the batched multi-class trigger/UAP engines."""

import numpy as np
import pytest

from repro.core import (
    BatchedTriggerMaskOptimizer,
    TargetedUAPConfig,
    TriggerMaskOptimizer,
    TriggerOptimizationConfig,
    USBConfig,
    USBDetector,
    generate_targeted_uap,
    generate_targeted_uaps,
)
from repro.core import uap as uap_module
from repro.data import make_synthetic_dataset
from repro.defenses import NeuralCleanseConfig, NeuralCleanseDetector
from repro.eval import evaluate_accuracy, measure_detection_times
from repro.models import BasicCNN
from repro.nn import Linear, Module, Tensor, enable_grad, is_grad_enabled, no_grad
from repro.nn import functional as F
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def tiny_setup():
    """A tiny trained model + dataset shared across fast-path tests."""
    dataset = make_synthetic_dataset(4, 16, 3, 20, seed=3, name="fastpath-test")
    model = BasicCNN(in_channels=3, num_classes=4, image_size=16,
                     conv_channels=(6, 12), hidden_dim=32,
                     rng=np.random.default_rng(4))
    optimizer = Adam(model.parameters(), lr=3e-3)
    for _ in range(4):
        order = np.random.default_rng(5).permutation(len(dataset))
        for start in range(0, len(order), 16):
            idx = order[start:start + 16]
            loss = F.cross_entropy(model(Tensor(dataset.images[idx])),
                                   dataset.labels[idx])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    model.eval()
    model.requires_grad_(False)
    return model, dataset


class _GradModeSpy(Module):
    """Wraps a model and records the autograd mode seen by each forward."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner
        self.modes = []

    def forward(self, x):
        self.modes.append(is_grad_enabled())
        return self.inner(x)


class TestNoGrad:
    def test_restores_previous_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_ops_allocate_no_graph(self):
        a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        with no_grad():
            out = (a * b + a).relu().sum()
        assert out.requires_grad is False
        assert out._backward is None
        assert out._prev == ()

    def test_forward_logits_identical(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:8]
        with_graph = model(Tensor(images, requires_grad=True))
        with no_grad():
            without_graph = model(Tensor(images, requires_grad=True))
        np.testing.assert_allclose(without_graph.data, with_graph.data,
                                   rtol=1e-5, atol=1e-6)
        assert with_graph.requires_grad
        assert not without_graph.requires_grad
        assert without_graph._backward is None and without_graph._prev == ()

    def test_backward_inside_no_grad_raises(self):
        a = Tensor(np.ones(3, np.float32), requires_grad=True)
        with no_grad():
            out = (a * 2.0).sum()
        with pytest.raises(RuntimeError):
            out.backward()

    def test_leaf_creation_unaffected(self):
        with no_grad():
            leaf = Tensor(np.ones(2, np.float32), requires_grad=True)
        assert leaf.requires_grad
        out = (leaf * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(leaf.grad, [3.0, 3.0])


class TestEvalCallSitesUseNoGrad:
    def test_evaluate_accuracy_runs_without_grad(self, tiny_setup):
        model, dataset = tiny_setup
        spy = _GradModeSpy(model)
        evaluate_accuracy(spy, dataset.subset(range(16)))
        assert spy.modes and not any(spy.modes)

    def test_targeted_error_rate_runs_without_grad(self, tiny_setup):
        model, dataset = tiny_setup
        spy = _GradModeSpy(model)
        zero = np.zeros(dataset.image_shape, dtype=np.float32)
        uap_module.targeted_error_rate(spy, dataset.images[:16], zero, 0)
        assert spy.modes and not any(spy.modes)

    def test_success_rate_runs_without_grad(self, tiny_setup):
        model, dataset = tiny_setup
        spy = _GradModeSpy(model)
        optimizer = TriggerMaskOptimizer(spy, dataset.images[:16], 0)
        pattern, mask = TriggerMaskOptimizer.random_init(
            dataset.image_shape, np.random.default_rng(0))
        optimizer._success_rate(pattern, mask)
        assert spy.modes and not any(spy.modes)

    def test_uap_sweep_keeps_grad_for_deepfool_only(self, tiny_setup):
        model, dataset = tiny_setup
        spy = _GradModeSpy(model)
        generate_targeted_uap(spy, dataset.images[:16], 0,
                              TargetedUAPConfig(max_passes=1),
                              rng=np.random.default_rng(0))
        # Prediction checks run under no_grad; only the DeepFool
        # forward/backward (and nothing else) records the tape.
        assert spy.modes and not all(spy.modes)


class TestConvFastPaths:
    def _numeric_grad(self, fn, arr, eps=1e-3):
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up = fn()
            flat[i] = old - eps
            down = fn()
            flat[i] = old
            grad_flat[i] = (up - down) / (2 * eps)
        return grad

    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_conv_matches_im2col_reference(self, stride):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 3, 1, 1)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        cols, oh, ow = F.im2col(x, 1, 1, stride, 0)
        ref = (cols.reshape(-1, 3) @ w.reshape(4, 3).T).reshape(2, oh, ow, 4)
        ref = ref.transpose(0, 3, 1, 2) + b.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_conv_gradients(self, stride):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float64).astype(np.float32)
        w = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        F.conv2d(xt, wt, stride=stride).sum().backward()

        def loss_x():
            return float(F.conv2d(Tensor(x), Tensor(w), stride=stride).data.sum())

        np.testing.assert_allclose(xt.grad, self._numeric_grad(loss_x, x),
                                   rtol=1e-2, atol=1e-2)

        def loss_w():
            return float(F.conv2d(Tensor(x), Tensor(w), stride=stride).data.sum())

        np.testing.assert_allclose(wt.grad, self._numeric_grad(loss_w, w),
                                   rtol=1e-2, atol=1e-2)

    def test_frozen_weight_conv_still_gives_input_grad(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
                   requires_grad=False)
        out = F.conv2d(x, w, stride=1, padding=1)
        out.sum().backward()
        assert x.grad is not None and x.grad.shape == x.data.shape
        assert w.grad is None

    def test_eval_batchnorm_fused_path_matches_unfused(self):
        from repro.nn.layers import BatchNorm2d
        bn = BatchNorm2d(3)
        bn.running_mean[...] = np.array([0.1, -0.2, 0.3], np.float32)
        bn.running_var[...] = np.array([0.5, 1.5, 2.0], np.float32)
        bn.weight.data[...] = np.array([1.1, 0.9, 1.3], np.float32)
        bn.bias.data[...] = np.array([0.0, 0.2, -0.1], np.float32)
        bn.eval()
        x = np.random.default_rng(3).standard_normal((2, 3, 4, 4)).astype(np.float32)
        unfused = bn(Tensor(x))           # gamma requires grad -> slow path
        bn.weight.requires_grad = False
        bn.bias.requires_grad = False
        fused = bn(Tensor(x))             # frozen params -> fused path
        np.testing.assert_allclose(fused.data, unfused.data, rtol=1e-4, atol=1e-5)


class TestFusedOps:
    def test_ssim_tensor_matches_numpy_value(self):
        from repro.utils.ssim import ssim, ssim_tensor
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (2, 3, 12, 12)).astype(np.float32)
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1).astype(np.float32)
        assert ssim_tensor(Tensor(x), Tensor(y)).item() == pytest.approx(
            ssim(x, y), abs=1e-5)

    def test_ssim_tensor_analytic_gradient_matches_numeric(self):
        from repro.utils.ssim import ssim_tensor
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (1, 2, 10, 10)).astype(np.float32)
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        yt = Tensor(y.copy(), requires_grad=True)
        ssim_tensor(xt, yt).backward()
        eps = 1e-3
        for which, arr, grad in (("y", y, yt.grad), ("x", x, xt.grad)):
            for index in [(0, 0, 2, 3), (0, 1, 7, 7), (0, 0, 0, 0)]:
                probe = arr.copy()
                probe[index] += eps
                up = ssim_tensor(Tensor(x if which == "y" else probe),
                                 Tensor(probe if which == "y" else y)).item()
                probe[index] -= 2 * eps
                down = ssim_tensor(Tensor(x if which == "y" else probe),
                                   Tensor(probe if which == "y" else y)).item()
                numeric = (up - down) / (2 * eps)
                assert grad[index] == pytest.approx(numeric, abs=2e-3)

    def test_uniform_filter2d_matches_depthwise_conv(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        window = 3
        xt = Tensor(x.copy(), requires_grad=True)
        out = F.uniform_filter2d(xt, window)
        kernel = np.full((3, 1, window, window), 1.0 / window ** 2, np.float32)
        ref = F.conv2d(Tensor(x), Tensor(kernel), stride=1, padding=0, groups=3)
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-4, atol=1e-5)
        out.sum().backward()
        # Every input pixel's gradient is (#windows covering it) / window².
        assert xt.grad[0, 0, 4, 4] == pytest.approx(1.0, abs=1e-5)
        assert xt.grad[0, 0, 0, 0] == pytest.approx(1.0 / 9.0, abs=1e-6)

    def test_silu_fused_gradient(self):
        x = np.linspace(-3, 3, 13, dtype=np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        F.silu(xt).sum().backward()
        sig = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(xt.grad, sig * (1 + x * (1 - sig)),
                                   rtol=1e-5, atol=1e-6)


class TestBatchedTriggerOptimizer:
    def test_matches_sequential_within_tolerance(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:32]
        cfg = TriggerOptimizationConfig(iterations=12, batch_size=16)
        rng = np.random.default_rng(7)
        inits = [TriggerMaskOptimizer.random_init(dataset.image_shape, rng)
                 for _ in range(3)]
        sequential = [
            TriggerMaskOptimizer(model, images, target, cfg).optimize(*init)
            for target, init in enumerate(inits)
        ]
        batched = BatchedTriggerMaskOptimizer(
            model, images, [0, 1, 2], cfg).optimize(inits)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(bat.pattern, seq.pattern,
                                       rtol=1e-3, atol=1e-4)
            np.testing.assert_allclose(bat.mask, seq.mask, rtol=1e-3, atol=1e-4)
            assert bat.success_rate == pytest.approx(seq.success_rate, abs=1e-6)
            assert bat.final_loss == pytest.approx(seq.final_loss, abs=1e-3)

    def test_regularized_config_matches_sequential(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:32]
        cfg = TriggerOptimizationConfig(iterations=8, batch_size=16,
                                        ssim_weight=0.0, mask_l1_weight=0.01,
                                        mask_tv_weight=0.002,
                                        outside_pattern_weight=0.002)
        rng = np.random.default_rng(8)
        inits = [TriggerMaskOptimizer.random_init(dataset.image_shape, rng)
                 for _ in range(2)]
        sequential = [
            TriggerMaskOptimizer(model, images, target, cfg).optimize(*init)
            for target, init in enumerate(inits)
        ]
        batched = BatchedTriggerMaskOptimizer(
            model, images, [0, 1], cfg).optimize(inits)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(bat.pattern, seq.pattern,
                                       rtol=1e-3, atol=1e-4)
            np.testing.assert_allclose(bat.mask, seq.mask, rtol=1e-3, atol=1e-4)

    def test_rejects_mismatched_inits(self, tiny_setup):
        model, dataset = tiny_setup
        engine = BatchedTriggerMaskOptimizer(
            model, dataset.images[:8], [0, 1],
            TriggerOptimizationConfig(iterations=2))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            engine.optimize([TriggerMaskOptimizer.random_init(
                dataset.image_shape, rng)])

    def test_early_stop_freezes_converged_classes(self, dataset_early=None):
        # A model that always predicts class 0: its trigger succeeds
        # immediately, so class 0 must freeze after the very first iteration
        # (incremental tracking) while class 1 keeps optimizing to the full
        # budget.
        class AlwaysZero(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(3 * 8 * 8, 3)
                self.proj.weight.data[...] = 0.0
                self.proj.bias.data[...] = np.array([5.0, 0.0, -5.0], np.float32)
                self.requires_grad_(False)

            def forward(self, x):
                return self.proj(x.flatten(1))

        model = AlwaysZero()
        images = np.random.default_rng(9).uniform(
            0, 1, size=(16, 3, 8, 8)).astype(np.float32)
        cfg = TriggerOptimizationConfig(iterations=10, batch_size=8,
                                        ssim_weight=0.0,
                                        early_stop_success=0.99,
                                        early_stop_check_every=2)
        rng = np.random.default_rng(10)
        inits = [TriggerMaskOptimizer.random_init((3, 8, 8), rng)
                 for _ in range(2)]
        results = BatchedTriggerMaskOptimizer(
            model, images, [0, 1], cfg).optimize(inits)
        assert results[0].iterations == 1
        assert results[0].success_rate == 1.0
        assert results[1].iterations == 10


class TestBatchedUAP:
    def test_batched_uaps_structure_and_radius(self, tiny_setup):
        model, dataset = tiny_setup
        config = TargetedUAPConfig(max_passes=2, radius=0.2, norm="linf")
        uaps = generate_targeted_uaps(model, dataset.images[:24], [0, 2],
                                      config, rng=np.random.default_rng(0))
        assert set(uaps) == {0, 2}
        for target, result in uaps.items():
            assert result.target_class == target
            assert result.perturbation.shape == dataset.image_shape
            assert np.abs(result.perturbation).max() <= 0.2 + 1e-5
            assert 0.0 <= result.error_rate <= 1.0
            assert 1 <= result.passes <= 2

    def test_batched_l2_projection(self, tiny_setup):
        model, dataset = tiny_setup
        config = TargetedUAPConfig(max_passes=1, radius=1.0, norm="l2")
        uaps = generate_targeted_uaps(model, dataset.images[:16], [0, 1],
                                      config, rng=np.random.default_rng(0))
        for result in uaps.values():
            assert result.l2_norm <= 1.0 + 1e-4

    def test_sequential_uap_single_full_evaluation(self, tiny_setup, monkeypatch):
        model, dataset = tiny_setup
        calls = []
        real = uap_module.targeted_error_rate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(uap_module, "targeted_error_rate", counting)
        generate_targeted_uap(model, dataset.images[:16], 0,
                              TargetedUAPConfig(max_passes=3),
                              rng=np.random.default_rng(0))
        assert len(calls) == 1


class TestBatchedDetect:
    def test_batched_detect_matches_sequential_nc(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(24))
        config = NeuralCleanseConfig(
            optimization=TriggerOptimizationConfig(iterations=8, ssim_weight=0.0))
        sequential = NeuralCleanseDetector(
            clean, config, rng=np.random.default_rng(11)).detect(
                model, classes=[0, 1, 2], mode="sequential")
        batched = NeuralCleanseDetector(
            clean, config, rng=np.random.default_rng(11)).detect(
                model, classes=[0, 1, 2], mode="batched")
        assert sequential.metadata["batched"] == 0.0
        assert batched.metadata["batched"] == 1.0
        assert batched.flagged_classes == sequential.flagged_classes
        for cls in [0, 1, 2]:
            assert batched.per_class_l1[cls] == pytest.approx(
                sequential.per_class_l1[cls], rel=1e-2, abs=1e-3)
            assert batched.anomaly_indices[cls] == pytest.approx(
                sequential.anomaly_indices[cls], rel=1e-2, abs=1e-2)

    def test_usb_batched_detect_records_uaps(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(24))
        usb = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=5)),
            rng=np.random.default_rng(0))
        result = usb.detect(model, classes=[0, 1, 2])
        assert result.metadata["batched"] == 1.0
        assert set(usb.last_uaps) == {0, 1, 2}
        assert len(result.triggers) == 3
        assert all(t.seconds > 0 for t in result.triggers)

    def test_single_class_detect_falls_back_to_sequential(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        usb = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=3)),
            rng=np.random.default_rng(0))
        result = usb.detect(model, classes=[1])
        assert result.metadata["batched"] == 0.0
        assert len(result.triggers) == 1

    def test_detect_inside_ambient_no_grad(self, tiny_setup):
        # The detection optimizations re-enable the tape internally, so a
        # caller wrapping everything in no_grad() still gets a result.
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        usb = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=3)),
            rng=np.random.default_rng(0))
        with no_grad():
            result = usb.detect(model, classes=[0, 1])
        assert len(result.triggers) == 2

    def test_measure_detection_times_batched_mode(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        detectors = {"USB": USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=3)),
            rng=np.random.default_rng(0))}
        report = measure_detection_times(model, detectors, classes=[0, 1],
                                         case_name="t", mode="batched")
        timing = report.timings[0]
        assert timing.batched and timing.mode == "batched"
        # Joint scans interleave classes: only the total is a real
        # measurement, so no per-class figures are fabricated.
        assert timing.per_class_seconds == {}
        assert timing.total is not None and timing.total > 0
        assert timing.classes_timed == (0, 1)
        assert timing.total_seconds == pytest.approx(timing.total)
        row = report.rows()[0]
        assert row["mode"] == "batched"
        assert "class_0_s" not in row and "class_1_s" not in row
