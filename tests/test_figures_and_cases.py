"""Tests for the figure-reproduction helpers and a miniature run_experiment integration."""

from dataclasses import replace

import numpy as np
import pytest

from repro.attacks import BadNetAttack, InputAwareDynamicAttack
from repro.core import TargetedUAPConfig, TriggerOptimizationConfig, USBConfig, USBDetector
from repro.data import make_synthetic_dataset, stratified_sample
from repro.defenses import NeuralCleanseConfig, NeuralCleanseDetector
from repro.eval import (
    SCALES,
    Trainer,
    TrainingConfig,
    figure1_uap_vs_random,
    figure5_per_class_triggers,
    run_experiment,
    table5_config,
    trigger_recovery_figure,
)
from repro.eval.experiments import CaseSpec
from repro.models import BasicCNN


@pytest.fixture(scope="module")
def figure_setup():
    """A backdoored and a clean tiny model over the same 4-class dataset."""
    train = make_synthetic_dataset(4, 16, 3, 35, seed=21, sample_seed=1)
    test = make_synthetic_dataset(4, 16, 3, 10, seed=21, sample_seed=2)

    def new_model(seed):
        return BasicCNN(in_channels=3, num_classes=4, image_size=16,
                        conv_channels=(6, 12), hidden_dim=32,
                        rng=np.random.default_rng(seed))

    attack = BadNetAttack(0, train.image_shape, patch_size=3, poison_rate=0.15,
                          rng=np.random.default_rng(2))
    backdoored = Trainer(TrainingConfig(epochs=7, batch_size=16),
                         rng=np.random.default_rng(3)).train_backdoored(
        new_model(4), train, test, attack)
    clean_model = Trainer(TrainingConfig(epochs=5, batch_size=16),
                          rng=np.random.default_rng(5)).train_clean(
        new_model(6), train, test)
    clean_data = stratified_sample(test, 32, np.random.default_rng(7))
    return backdoored, clean_model, attack, clean_data


class TestFigure1:
    def test_comparison_fields(self, figure_setup):
        backdoored, clean_model, attack, clean_data = figure_setup
        comparison = figure1_uap_vs_random(
            backdoored.model, clean_model.model, clean_data, attack.target_class,
            uap_config=TargetedUAPConfig(max_passes=1), nc_iterations=10,
            rng=np.random.default_rng(0))
        assert comparison.random_start_l1 > 0
        assert comparison.uap_backdoored_l1 >= 0
        assert set(comparison.arrays) == {"random_start", "nc_pattern",
                                          "uap_backdoored", "uap_clean"}

    def test_nc_pattern_barely_moves_from_random_start(self, figure_setup):
        # The paper's Fig. 1 point: the NC-optimized pattern stays close to its
        # random start (the optimization mostly shapes the mask).
        backdoored, clean_model, attack, clean_data = figure_setup
        comparison = figure1_uap_vs_random(
            backdoored.model, clean_model.model, clean_data, attack.target_class,
            uap_config=TargetedUAPConfig(max_passes=1), nc_iterations=10,
            rng=np.random.default_rng(1))
        assert comparison.nc_pattern_shift_l1 < comparison.random_start_l1


class TestTriggerRecovery:
    def test_recovery_outputs(self, figure_setup):
        backdoored, _, attack, clean_data = figure_setup
        detectors = {
            "NC": NeuralCleanseDetector(clean_data, NeuralCleanseConfig(
                optimization=TriggerOptimizationConfig(iterations=10, ssim_weight=0.0)),
                rng=np.random.default_rng(0)),
            "USB": USBDetector(clean_data, USBConfig(
                uap=TargetedUAPConfig(max_passes=1),
                optimization=TriggerOptimizationConfig(iterations=10)),
                rng=np.random.default_rng(1)),
        }
        recovery = trigger_recovery_figure(backdoored.model, attack, clean_data,
                                           detectors)
        assert set(recovery.reversed_triggers) == {"NC", "USB"}
        assert all(0.0 <= v <= 1.0 for v in recovery.iou.values())
        assert recovery.grid is not None and recovery.grid.ndim == 3

    def test_requires_static_trigger_attack(self, figure_setup):
        backdoored, _, _, clean_data = figure_setup
        dynamic = InputAwareDynamicAttack(0, clean_data.image_shape,
                                          rng=np.random.default_rng(0))
        del dynamic.generator  # leave attack without a usable trigger attribute
        with pytest.raises(ValueError):
            trigger_recovery_figure(backdoored.model, object(), clean_data, {})


class TestFigure5:
    def test_per_class_triggers_cover_all_classes(self, figure_setup):
        backdoored, _, _, clean_data = figure_setup
        triggers = figure5_per_class_triggers(backdoored.model, clean_data,
                                              iterations=8,
                                              rng=np.random.default_rng(0))
        assert set(triggers) == set(range(clean_data.num_classes))
        assert all(arr.shape == clean_data.image_shape for arr in triggers.values())


class TestRunExperimentIntegration:
    def test_clean_and_backdoored_rows(self):
        scale = replace(SCALES["bench"], samples_per_class=10, test_per_class=5,
                        epochs=2, clean_budget=20, usb_iterations=4,
                        baseline_iterations=4, uap_passes=1,
                        detection_class_limit=3, image_size=16)
        config = table5_config(scale)
        # The clean case trains at seed 1 and badnet_2x2 at seed 2.
        result = run_experiment(replace(config, cases=config.cases[:2]), seed=1)
        clean_case, badnet_case = result.cases
        assert clean_case.case == CaseSpec("clean")
        assert set(clean_case.summaries) == {"NC", "TABOR", "USB"}
        assert clean_case.mean_asr is None
        assert 0.0 <= clean_case.mean_accuracy <= 1.0

        assert badnet_case.mean_asr is not None
        for summary in badnet_case.summaries.values():
            assert summary.num_models == 1
        assert len(result.rows()) == 2 * 3
