"""Tests for the core contribution: DeepFool, targeted UAP, Alg. 2, USB, MAD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TargetedUAPConfig,
    TriggerMaskOptimizer,
    TriggerOptimizationConfig,
    USBConfig,
    USBDetector,
    generate_targeted_uap,
    mad_anomaly_indices,
    project_perturbation,
    targeted_deepfool,
    targeted_deepfool_step,
    targeted_error_rate,
)
from repro.core.detection import DetectionResult, ReversedTrigger
from repro.core.mega import _full_success_rates
from repro.core.uap import UAPResult
from repro.data import make_synthetic_dataset
from repro.models import BasicCNN
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def tiny_setup():
    """A tiny trained model + dataset shared across core tests (module-scoped)."""
    dataset = make_synthetic_dataset(4, 16, 3, 20, seed=0, name="core-test")
    model = BasicCNN(in_channels=3, num_classes=4, image_size=16,
                     conv_channels=(6, 12), hidden_dim=32,
                     rng=np.random.default_rng(1))
    optimizer = Adam(model.parameters(), lr=3e-3)
    for _ in range(6):
        order = np.random.default_rng(2).permutation(len(dataset))
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


class TestDeepFool:
    def test_step_zero_for_already_target(self, tiny_setup):
        model, dataset = tiny_setup
        target_images = dataset.images[dataset.labels == 0][:4]
        preds = model(Tensor(target_images)).data.argmax(1)
        step = targeted_deepfool_step(model, target_images, 0)
        for i, pred in enumerate(preds):
            if pred == 0:
                assert np.allclose(step[i], 0.0)

    def test_step_moves_toward_target(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[dataset.labels != 0][:8]
        logits_before = model(Tensor(images)).data
        step = targeted_deepfool_step(model, images, 0)
        logits_after = model(Tensor(np.clip(images + step, 0, 1))).data
        gap_before = logits_before[:, 0] - logits_before.max(axis=1)
        gap_after = logits_after[:, 0] - logits_after.max(axis=1)
        assert gap_after.mean() > gap_before.mean()

    def test_full_deepfool_reaches_target_for_most(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[dataset.labels != 1][:10]
        perturbation = targeted_deepfool(model, images, 1)
        preds = model(Tensor(np.clip(images + perturbation, 0, 1))).data.argmax(1)
        assert (preds == 1).mean() >= 0.5

    def test_perturbation_shape_matches_input(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:3]
        assert targeted_deepfool(model, images, 2).shape == images.shape


class TestProjectionAndErrorRate:
    def test_linf_projection(self):
        v = np.array([0.5, -0.9, 0.1], dtype=np.float32)
        out = project_perturbation(v, 0.3, "linf")
        assert np.abs(out).max() <= 0.3 + 1e-6

    def test_l2_projection(self):
        v = np.ones(16, dtype=np.float32)
        out = project_perturbation(v, 1.0, "l2")
        assert np.linalg.norm(out) <= 1.0 + 1e-5

    def test_l2_projection_noop_inside_ball(self):
        v = np.array([0.1, 0.1], dtype=np.float32)
        np.testing.assert_array_equal(project_perturbation(v, 10.0, "l2"), v)

    @given(radius=st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_projection_idempotent(self, radius):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(32).astype(np.float32)
        once = project_perturbation(v, radius, "l2")
        twice = project_perturbation(once, radius, "l2")
        np.testing.assert_allclose(once, twice, rtol=1e-5)

    def test_error_rate_bounds(self, tiny_setup):
        model, dataset = tiny_setup
        zero = np.zeros(dataset.image_shape, dtype=np.float32)
        rate = targeted_error_rate(model, dataset.images[:20], zero, 0)
        assert 0.0 <= rate <= 1.0

    def test_error_rate_empty_images(self, tiny_setup):
        model, dataset = tiny_setup
        zero = np.zeros(dataset.image_shape, dtype=np.float32)
        assert targeted_error_rate(model, dataset.images[:0], zero, 0) == 0.0


class TestTargetedUAP:
    def test_uap_increases_targeted_error_rate(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:40]
        baseline = targeted_error_rate(model, images,
                                       np.zeros(dataset.image_shape, np.float32), 2)
        result = generate_targeted_uap(model, images, 2,
                                       TargetedUAPConfig(max_passes=3, radius=0.4),
                                       rng=np.random.default_rng(0))
        assert result.error_rate >= baseline
        assert result.perturbation.shape == dataset.image_shape

    def test_uap_respects_linf_radius(self, tiny_setup):
        model, dataset = tiny_setup
        config = TargetedUAPConfig(max_passes=2, radius=0.2, norm="linf")
        result = generate_targeted_uap(model, dataset.images[:30], 1, config,
                                       rng=np.random.default_rng(0))
        assert np.abs(result.perturbation).max() <= 0.2 + 1e-5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TargetedUAPConfig(desired_error_rate=0.0)
        with pytest.raises(ValueError):
            TargetedUAPConfig(norm="l1")
        with pytest.raises(ValueError):
            TargetedUAPConfig(radius=-1.0)

    def test_rejects_non_batched_input(self, tiny_setup):
        model, dataset = tiny_setup
        with pytest.raises(ValueError):
            generate_targeted_uap(model, dataset.images[0], 0)


class TestTriggerMaskOptimizer:
    def test_init_from_uap_ranges(self):
        uap = np.random.default_rng(0).uniform(-0.3, 0.3, size=(3, 16, 16)).astype(np.float32)
        pattern, mask = TriggerMaskOptimizer.init_from_uap(uap)
        assert pattern.shape == (3, 16, 16) and mask.shape == (1, 16, 16)
        assert pattern.min() >= 0 and pattern.max() <= 1
        assert mask.min() >= 0 and mask.max() <= 1

    def test_init_from_zero_uap(self):
        pattern, mask = TriggerMaskOptimizer.init_from_uap(np.zeros((3, 8, 8), np.float32))
        assert np.all(mask > 0)

    def test_random_init_shapes(self):
        pattern, mask = TriggerMaskOptimizer.random_init((1, 12, 12),
                                                         np.random.default_rng(0))
        assert pattern.shape == (1, 12, 12) and mask.shape == (1, 12, 12)

    def test_optimization_increases_success_rate(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:32]
        optimizer = TriggerMaskOptimizer(
            model, images, 3, TriggerOptimizationConfig(iterations=40))
        pattern, mask = TriggerMaskOptimizer.random_init(dataset.image_shape,
                                                         np.random.default_rng(0))
        [before] = _full_success_rates(model, images, pattern[None],
                                       mask[None], np.array([3]))
        result = optimizer.optimize(pattern, mask)
        assert result.success_rate >= before
        assert result.pattern.shape == dataset.image_shape

    def test_mask_l1_weight_shrinks_mask(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:32]
        pattern, mask = TriggerMaskOptimizer.random_init(dataset.image_shape,
                                                         np.random.default_rng(1))
        small = TriggerMaskOptimizer(model, images, 0, TriggerOptimizationConfig(
            iterations=40, mask_l1_weight=0.05)).optimize(pattern, mask)
        large = TriggerMaskOptimizer(model, images, 0, TriggerOptimizationConfig(
            iterations=40, mask_l1_weight=0.0)).optimize(pattern, mask)
        assert np.abs(small.mask).sum() < np.abs(large.mask).sum()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TriggerOptimizationConfig(iterations=0)
        with pytest.raises(ValueError):
            TriggerOptimizationConfig(learning_rate=0.0)


class TestMADAnomaly:
    def test_small_outlier_flagged(self):
        indices = mad_anomaly_indices([1.0, 50.0, 52.0, 49.0, 51.0, 48.0])
        assert indices[0] > 2.0
        assert all(indices[i] < 2.0 for i in range(1, 6))

    def test_no_outlier_in_uniform_values(self):
        indices = mad_anomaly_indices([10.0, 10.5, 9.8, 10.2, 9.9])
        assert all(value < 2.0 for value in indices.values())

    def test_large_values_never_flagged(self):
        indices = mad_anomaly_indices([10.0, 10.0, 10.0, 500.0])
        assert indices[3] == 0.0

    def test_empty_input(self):
        assert mad_anomaly_indices([]) == {}

    def test_constant_values_no_division_error(self):
        indices = mad_anomaly_indices([5.0, 5.0, 5.0, 5.0])
        assert all(value == 0.0 for value in indices.values())

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=3, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_indices_are_nonnegative_and_finite(self, values):
        indices = mad_anomaly_indices(values)
        assert all(np.isfinite(v) and v >= 0.0 for v in indices.values())


class TestDetectionResultStructures:
    def _trigger(self, cls, scale):
        pattern = np.full((1, 4, 4), 0.5, dtype=np.float32)
        mask = np.full((1, 4, 4), scale, dtype=np.float32)
        return ReversedTrigger(target_class=cls, pattern=pattern, mask=mask,
                               success_rate=1.0)

    def test_l1_and_mask_norms(self):
        trigger = self._trigger(0, 0.5)
        assert trigger.l1_norm == pytest.approx(0.25 * 16)
        assert trigger.mask_l1 == pytest.approx(0.5 * 16)

    def test_detection_result_properties(self):
        triggers = [self._trigger(0, 0.01), self._trigger(1, 0.5), self._trigger(2, 0.6)]
        result = DetectionResult(detector="test", triggers=triggers,
                                 anomaly_indices={0: 5.0, 1: 0.0, 2: 0.0},
                                 flagged_classes=[0], is_backdoored=True)
        assert result.suspect_class == 0
        assert result.min_l1 == pytest.approx(triggers[0].l1_norm)
        assert result.per_class_l1[1] == pytest.approx(triggers[1].l1_norm)

    def test_suspect_none_when_clean(self):
        result = DetectionResult(detector="test", triggers=[], anomaly_indices={},
                                 flagged_classes=[], is_backdoored=False)
        assert result.suspect_class is None


class TestUSBDetector:
    def test_detect_on_clean_model_structure(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(32))
        usb = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=10)),
            rng=np.random.default_rng(0))
        result = usb.detect(model, classes=[0, 1, 2])
        assert result.detector == "USB"
        assert len(result.triggers) == 3
        assert set(result.anomaly_indices) == {0, 1, 2}
        assert all(p.requires_grad is False for p in model.parameters())

    def test_seeded_uaps_are_reused(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(32))
        usb = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=5)),
            rng=np.random.default_rng(0))
        first = usb.detect(model, classes=[0, 1])
        assert set(usb.last_uaps) == {0, 1}
        usb.seed_uaps(usb.last_uaps)
        second = usb.detect(model, classes=[0, 1])
        assert len(second.triggers) == len(first.triggers)

    def test_cross_model_uap_reuse_end_to_end(self, tiny_setup):
        # Paper §4.4 amortization: UAPs recovered on model A seed model B's
        # Alg. 2 directly, skipping Alg. 1 on B entirely.
        model_a, dataset = tiny_setup
        clean = dataset.subset(range(32))
        model_b = BasicCNN(in_channels=dataset.image_shape[0], num_classes=4,
                           image_size=dataset.image_shape[1],
                           conv_channels=(6, 12), hidden_dim=32,
                           rng=np.random.default_rng(99))
        detector_a = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=5)),
            rng=np.random.default_rng(0))
        detector_a.detect(model_a, classes=[0, 1])
        assert set(detector_a.last_uaps) == {0, 1}

        detector_b = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=5)),
            rng=np.random.default_rng(1))
        detector_b.seed_uaps(detector_a.last_uaps)
        result = detector_b.detect(model_b, classes=[0, 1])
        assert len(result.triggers) == 2
        # B skipped Alg. 1: its recorded UAPs are exactly A's, not fresh ones.
        for target in (0, 1):
            np.testing.assert_array_equal(
                detector_b.last_uaps[target].perturbation,
                detector_a.last_uaps[target].perturbation)

    def test_seed_uaps_rejects_mismatched_shape(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        usb = USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=5)),
            rng=np.random.default_rng(0))
        usb.detect(model, classes=[0])
        foreign = UAPResult(target_class=0,
                            perturbation=np.zeros((3, 32, 32),
                                                  dtype=np.float32),
                            error_rate=0.9, passes=1)
        with pytest.raises(ValueError, match="input shape"):
            usb.seed_uaps({0: foreign})
        # the valid seeds were not partially installed
        usb.seed_uaps(usb.last_uaps)  # same-shape reseed still accepted

    def test_random_init_ablation_flag(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        usb = USBDetector(clean, USBConfig(
            random_init=True,
            optimization=TriggerOptimizationConfig(iterations=5)),
            rng=np.random.default_rng(0))
        result = usb.detect(model, classes=[0])
        assert not usb.last_uaps  # Alg. 1 skipped entirely
        assert len(result.triggers) == 1

    def test_empty_clean_data_raises(self, tiny_setup):
        _, dataset = tiny_setup
        with pytest.raises(ValueError):
            USBDetector(dataset.subset([]))
