"""The one detection loop: scan cells and exact parity between its entry points.

A classic scan is the unconditional pair grid ``[(None, t) for t in
classes]``, and ``detect(mode="mega")`` is a one-job ``detect_mega_fleet``.
Each pair of calls must agree exactly — norms, success rates, iterations and
anomaly indices — not just in verdict.
"""

import numpy as np
import pytest

from repro.attacks.base import SCENARIO_SOURCE_CONDITIONAL, scan_pairs_for
from repro.core import (
    TargetedUAPConfig,
    TriggerOptimizationConfig,
    USBConfig,
    USBDetector,
    detect_mega_fleet,
)
from repro.core.detection import INVERSION_MODES
from repro.data import make_synthetic_dataset
from repro.defenses import (
    NeuralCleanseConfig,
    NeuralCleanseDetector,
    TaborConfig,
    TaborDetector,
)
from repro.eval import measure_detection_times
from repro.models import BasicCNN

DETECTOR_KINDS = ("usb", "nc", "tabor")
CLASSES = [0, 1, 2, 3]


@pytest.fixture(scope="module")
def probe():
    """An untrained 4-class model and a 16-image clean pool."""
    clean = make_synthetic_dataset(4, 16, 3, 4, seed=3, name="probe")
    model = BasicCNN(in_channels=3, num_classes=4, image_size=16,
                     conv_channels=(6, 12), hidden_dim=32,
                     rng=np.random.default_rng(4))
    model.eval()
    model.requires_grad_(False)
    return model, clean


def _detector(kind, clean, seed=7):
    rng = np.random.default_rng(seed)
    optimization = TriggerOptimizationConfig(iterations=3)
    if kind == "usb":
        return USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1), optimization=optimization),
            rng=rng)
    if kind == "nc":
        return NeuralCleanseDetector(
            clean, NeuralCleanseConfig(optimization=optimization), rng=rng)
    return TaborDetector(clean, TaborConfig(optimization=optimization),
                         rng=rng)


def _cell_outputs(result):
    return [(t.pair, t.l1_norm, t.success_rate, t.iterations)
            for t in result.triggers]


class TestScanCells:
    @pytest.mark.parametrize("classes, message", [
        ([], "at least one"),
        ([-1, 0, 1], "outside"),
        ([0, 7], "outside"),
    ], ids=["empty", "negative", "past_the_end"])
    @pytest.mark.parametrize("kind", ["usb", "nc"])
    def test_unscannable_class_list_raises(self, probe, kind, classes,
                                           message):
        model, clean = probe
        with pytest.raises(ValueError, match=message):
            _detector(kind, clean).detect(model, classes=classes)

    @pytest.mark.parametrize("kind", ["usb", "nc"])
    def test_repeated_class_is_scanned_once(self, probe, kind):
        model, clean = probe
        result = _detector(kind, clean).detect(model, classes=[1, 1, 2])
        assert [t.target_class for t in result.triggers] == [1, 2]
        assert list(result.anomaly_indices) == [1, 2]

    def test_out_of_range_source_raises(self, probe):
        model, clean = probe
        with pytest.raises(ValueError, match="outside"):
            _detector("nc", clean).detect(model, pairs=[(1, 0), (4, 0)])


class TestOneLoop:
    @pytest.mark.parametrize("mode", INVERSION_MODES)
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_classic_scan_is_the_unconditional_pair_grid(self, probe, kind,
                                                          mode):
        model, clean = probe
        classic = _detector(kind, clean).detect(model, classes=CLASSES,
                                                mode=mode)
        grid = _detector(kind, clean).detect(
            model, pairs=[(None, c) for c in CLASSES], mode=mode)
        assert _cell_outputs(classic) == _cell_outputs(grid)
        assert classic.anomaly_indices == grid.anomaly_indices
        assert classic.flagged_classes == grid.flagged_classes

    @pytest.mark.parametrize("scan", ["classic", "pairs"])
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_mega_mode_is_a_one_job_fleet(self, probe, kind, scan):
        model, clean = probe
        classes, pairs = CLASSES, None
        if scan == "pairs":
            classes, pairs = None, scan_pairs_for(
                SCENARIO_SOURCE_CONDITIONAL, CLASSES, source_classes=(1, 2))
        direct = _detector(kind, clean).detect(model, classes=classes,
                                               pairs=pairs, mode="mega")
        [pooled] = detect_mega_fleet(
            [(_detector(kind, clean), model, classes, pairs)])
        assert _cell_outputs(direct) == _cell_outputs(pooled)
        assert direct.anomaly_indices == pooled.anomaly_indices
        assert direct.pair_anomaly_indices == pooled.pair_anomaly_indices
        assert direct.flagged_pairs == pooled.flagged_pairs

    def test_fleet_restores_grad_flags_of_a_shared_model(self, probe):
        _, clean = probe
        model = BasicCNN(in_channels=3, num_classes=4, image_size=16,
                         conv_channels=(6, 12), hidden_dim=32,
                         rng=np.random.default_rng(5))
        detect_mega_fleet([(_detector("nc", clean), model, CLASSES),
                           (_detector("tabor", clean), model, CLASSES)])
        assert all(p.requires_grad for p in model.parameters())

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_reverse_engineer_freezes_a_trainable_model(self, probe, kind):
        # Like detect: no gradient reaches the caller's weights, the flags
        # come back, and the trigger is sequential detect's cell.
        _, clean = probe
        model = BasicCNN(in_channels=3, num_classes=4, image_size=16,
                         conv_channels=(6, 12), hidden_dim=32,
                         rng=np.random.default_rng(5))
        trigger = _detector(kind, clean).reverse_engineer(model, 2)
        assert all(p.requires_grad for p in model.parameters())
        assert [p for p in model.parameters() if p.grad is not None] == []
        [cell] = _detector(kind, clean).detect(
            model, classes=[2], mode="sequential").triggers
        assert cell.pair == trigger.pair == (None, 2)
        assert (trigger.success_rate, trigger.iterations) == \
            (cell.success_rate, cell.iterations)
        np.testing.assert_array_equal(trigger.pattern, cell.pattern)
        np.testing.assert_array_equal(trigger.mask, cell.mask)

    @pytest.mark.parametrize("mode", ["batched", "mega"])
    def test_timing_harness_times_one_detect_call(self, probe, mode):
        model, clean = probe
        report = measure_detection_times(
            model, {"NC": _detector("nc", clean)}, classes=CLASSES, mode=mode)
        timing = report.timings[0]
        assert timing.mode == mode
        assert timing.total is not None and timing.total > 0
        assert timing.per_class_seconds == {}
        assert timing.classes_timed == tuple(CLASSES)


def _trainable_model():
    """The probe architecture in training mode with trainable weights."""
    return BasicCNN(in_channels=3, num_classes=4, image_size=16,
                    conv_channels=(6, 12), hidden_dim=32,
                    rng=np.random.default_rng(5)).train()


#: Every entry point that runs a caller's model frozen.
FREEZING_CALLS = {
    **{f"detect_{mode}": (lambda model, clean, mode=mode: _detector(
        "nc", clean).detect(model, classes=CLASSES, mode=mode))
       for mode in INVERSION_MODES},
    "reverse_engineer": lambda model, clean: _detector(
        "nc", clean).reverse_engineer(model, 2),
    "detect_mega_fleet": lambda model, clean: detect_mega_fleet(
        [(_detector("nc", clean), model, CLASSES)]),
    "measure_detection_times": lambda model, clean: measure_detection_times(
        model, {"NC": _detector("nc", clean)}, classes=[1, 2]),
}


class TestCallerModelState:
    """A scan runs the caller's model in eval mode and hands it back as it was."""

    @pytest.mark.parametrize("call", sorted(FREEZING_CALLS))
    def test_training_model_comes_back_training(self, probe, call):
        _, clean = probe
        model = _trainable_model()
        FREEZING_CALLS[call](model, clean)
        assert all(module.training for module in model.modules())
        assert all(p.requires_grad for p in model.parameters())

    def test_submodule_in_eval_mode_stays_in_eval_mode(self, probe):
        # Listed twice in one fleet: each listing restores the same flags.
        _, clean = probe
        model = _trainable_model()
        model.fc1.eval()
        detect_mega_fleet([(_detector("nc", clean), model, CLASSES),
                           (_detector("tabor", clean), model, CLASSES)])
        assert [module.training for module in model.modules()] == \
            [module is not model.fc1 for module in model.modules()]
