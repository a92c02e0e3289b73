"""Scenario-matrix tests: TargetSpec, scenario-correct ASR, pair-mode
detection, scheduler parity, and the regression fixes that rode along
(degenerate MAD, IAD rate 0, transform RNG seeding)."""

import json

import numpy as np
import pytest

from repro.attacks import (
    SCENARIO_ALL_TO_ALL,
    SCENARIO_ALL_TO_ONE,
    SCENARIO_CLEAN_LABEL,
    SCENARIO_SOURCE_CONDITIONAL,
    BadNetAttack,
    BackdoorAttack,
    InputAwareDynamicAttack,
    TargetSpec,
    scan_pairs_for,
)
from repro.core.detection import (
    DetectionResult,
    mad_anomaly_indices,
)
from repro.core.trigger_optimizer import TriggerOptimizationConfig
from repro.data import Dataset, RandomCrop, RandomNoise, make_synthetic_dataset
from repro.defenses import NeuralCleanseConfig, NeuralCleanseDetector
from repro.eval import (
    AttackSpec,
    CaseSpec,
    ExperimentConfig,
    ExperimentScale,
    build_attack,
    case_scenario_id,
    classify_target_detection,
    default_source_classes,
    evaluate_asr,
    run_experiment,
    scenario_grid_config,
    table5_config,
)
from repro.eval.protocol import (
    OUTCOME_CORRECT,
    OUTCOME_CORRECT_SET,
    OUTCOME_WRONG,
)
from repro.models import build_model
from repro.nn import Tensor
from repro.nn.layers import Module
from repro.nn.serialization import save_model
from repro.service import ResultStore, ScanScheduler
from repro.service.records import ScanRequest
from repro.service.scheduler import resolve_request


# ---------------------------------------------------------------------- #
# TargetSpec
# ---------------------------------------------------------------------- #
class TestTargetSpec:
    def test_all_to_one_defaults(self):
        spec = TargetSpec(target_class=3)
        labels = np.array([0, 1, 2, 3, 4])
        np.testing.assert_array_equal(spec.victim_mask(labels),
                                      [True, True, True, False, True])
        np.testing.assert_array_equal(spec.poisoned_labels(labels),
                                      [3, 3, 3, 3, 3])
        assert spec.relabels
        assert spec.expected_target_classes() == (3,)

    def test_source_conditional_masks(self):
        spec = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                          source_classes=(1, 2))
        labels = np.array([0, 1, 2, 3, 4])
        np.testing.assert_array_equal(spec.victim_mask(labels),
                                      [False, True, True, False, False])
        np.testing.assert_array_equal(
            spec.poison_candidate_mask(labels), spec.victim_mask(labels))
        assert spec.expected_target_classes() == (0,)

    def test_all_to_all_label_shift(self):
        spec = TargetSpec(SCENARIO_ALL_TO_ALL, num_classes=5)
        labels = np.array([0, 1, 2, 3, 4])
        assert spec.victim_mask(labels).all()
        np.testing.assert_array_equal(spec.poisoned_labels(labels),
                                      [1, 2, 3, 4, 0])
        assert spec.expected_target_classes() == (0, 1, 2, 3, 4)

    def test_clean_label_poisons_target_without_relabel(self):
        spec = TargetSpec(SCENARIO_CLEAN_LABEL, target_class=2)
        labels = np.array([0, 1, 2, 3])
        np.testing.assert_array_equal(spec.poison_candidate_mask(labels),
                                      [False, False, True, False])
        np.testing.assert_array_equal(spec.victim_mask(labels),
                                      [True, True, False, True])
        assert not spec.relabels

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetSpec("no_such_scenario")
        with pytest.raises(ValueError):
            TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0)
        with pytest.raises(ValueError):
            TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                       source_classes=(0, 1))
        with pytest.raises(ValueError):
            TargetSpec(SCENARIO_ALL_TO_ALL)

    def test_scan_pairs(self):
        spec = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                          source_classes=(1, 2))
        assert spec.scan_pairs([0, 1, 2]) == [(1, 0), (2, 0), (2, 1), (1, 2)]
        assert scan_pairs_for(SCENARIO_ALL_TO_ONE, [0, 1]) == [(None, 0), (None, 1)]
        a2a = scan_pairs_for(SCENARIO_ALL_TO_ALL, [0, 1, 2])
        assert (1, 0) in a2a and (0, 1) in a2a and len(a2a) == 6
        with pytest.raises(ValueError):
            scan_pairs_for("bogus", [0, 1])


# ---------------------------------------------------------------------- #
# Scenario-correct ASR (regression: evaluate_asr hardcoded all-to-one)
# ---------------------------------------------------------------------- #
class _MarkerAttack(BackdoorAttack):
    """Stamps a marker pixel; scenario semantics come from TargetSpec."""

    def __init__(self, scenario):
        super().__init__(scenario.target_class, poison_rate=0.5,
                         name="marker", scenario=scenario)

    def apply_trigger(self, images, rng=None):
        out = np.array(images, dtype=np.float32, copy=True)
        out[:, 0, 0, 1] = 1.0
        return out

    def poison_dataset(self, dataset, rng):
        return self._poison_static(dataset, rng)


class _OracleBackdooredModel(Module):
    """Classifies by the class code at pixel (0, 0); honours the marker.

    With the marker set, samples are redirected exactly as a perfectly
    backdoored model under ``scenario`` would: conditional models redirect
    only source classes, all-to-all models shift every class by one.
    """

    def __init__(self, num_classes, scenario):
        super().__init__()
        self.num_classes = num_classes
        self.scenario = scenario

    def forward(self, x):
        codes = np.rint(x.data[:, 0, 0, 0] * (self.num_classes - 1))
        codes = np.clip(codes, 0, self.num_classes - 1).astype(np.int64)
        marker = x.data[:, 0, 0, 1] > 0.5
        redirected = np.where(self.scenario.victim_mask(codes),
                              self.scenario.poisoned_labels(codes), codes)
        preds = np.where(marker, redirected, codes)
        logits = np.zeros((len(preds), self.num_classes), dtype=np.float32)
        logits[np.arange(len(preds)), preds] = 10.0
        return Tensor(logits)


def _coded_dataset(num_classes=5, per_class=4):
    labels = np.repeat(np.arange(num_classes), per_class)
    images = np.zeros((len(labels), 1, 4, 4), dtype=np.float32)
    images[:, 0, 0, 0] = labels / (num_classes - 1)
    return Dataset(images, labels, num_classes, name="coded")


class TestScenarioASR:
    def test_source_conditional_counts_only_source_victims(self):
        scenario = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                              source_classes=(1, 2), num_classes=5)
        data = _coded_dataset()
        model = _OracleBackdooredModel(5, scenario)
        attack = _MarkerAttack(scenario)
        # The model redirects exactly the source classes; a victim-aware ASR
        # is therefore 1.0.  The old hardcoded computation divided the same
        # hits by every non-target sample (8/16 = 0.5).
        assert evaluate_asr(model, data, attack) == pytest.approx(1.0)

    def test_all_to_all_uses_shifted_labels(self):
        scenario = TargetSpec(SCENARIO_ALL_TO_ALL, num_classes=5)
        data = _coded_dataset()
        model = _OracleBackdooredModel(5, scenario)
        attack = _MarkerAttack(scenario)
        # Every triggered sample lands on (y+1) mod K; scoring against a
        # single target class would report ~1/K instead of 1.0.
        assert evaluate_asr(model, data, attack) == pytest.approx(1.0)

    def test_all_to_one_unchanged(self):
        scenario = TargetSpec(target_class=0)
        data = _coded_dataset()
        model = _OracleBackdooredModel(5, scenario)
        attack = _MarkerAttack(scenario)
        assert evaluate_asr(model, data, attack) == pytest.approx(1.0)

    def test_partial_conditional_asr(self):
        # Model only redirects class 1 (not 2): conditional ASR = 1/2.
        train = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                           source_classes=(1, 2), num_classes=5)
        learned = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                             source_classes=(1,), num_classes=5)
        model = _OracleBackdooredModel(5, learned)
        assert evaluate_asr(model, _coded_dataset(), _MarkerAttack(train)) \
            == pytest.approx(0.5)


# ---------------------------------------------------------------------- #
# Scenario-aware static + dynamic poisoning
# ---------------------------------------------------------------------- #
class TestScenarioPoisoning:
    def test_source_conditional_poisons_only_sources(self):
        rng = np.random.default_rng(0)
        data = make_synthetic_dataset(5, 8, 1, 20, seed=0)
        scenario = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                              source_classes=(1, 2), num_classes=5)
        attack = BadNetAttack(0, data.image_shape, patch_size=2,
                              poison_rate=0.2, scenario=scenario, rng=rng)
        poisoned, summary = attack.poison_dataset(data, rng)
        changed = np.where(poisoned.labels != data.labels)[0]
        assert len(changed) == summary.poisoned_count > 0
        assert set(data.labels[changed]) <= {1, 2}
        assert (poisoned.labels[changed] == 0).all()
        assert summary.scenario == SCENARIO_SOURCE_CONDITIONAL

    def test_all_to_all_shifts_labels(self):
        rng = np.random.default_rng(1)
        data = make_synthetic_dataset(4, 8, 1, 20, seed=1)
        scenario = TargetSpec(SCENARIO_ALL_TO_ALL, num_classes=4)
        attack = BadNetAttack(0, data.image_shape, patch_size=2,
                              poison_rate=0.25, scenario=scenario, rng=rng)
        poisoned, summary = attack.poison_dataset(data, rng)
        changed = np.where(poisoned.labels != data.labels)[0]
        assert len(changed) == summary.poisoned_count > 0
        np.testing.assert_array_equal(poisoned.labels[changed],
                                      (data.labels[changed] + 1) % 4)

    def test_clean_label_keeps_labels_poisons_target_images(self):
        rng = np.random.default_rng(2)
        data = make_synthetic_dataset(4, 8, 1, 20, seed=2)
        scenario = TargetSpec(SCENARIO_CLEAN_LABEL, target_class=1)
        attack = BadNetAttack(1, data.image_shape, patch_size=2,
                              poison_rate=0.1, scenario=scenario, rng=rng)
        poisoned, summary = attack.poison_dataset(data, rng)
        np.testing.assert_array_equal(poisoned.labels, data.labels)
        stamped = np.where(
            np.abs(poisoned.images - data.images).reshape(len(data), -1)
            .sum(axis=1) > 0)[0]
        assert len(stamped) == summary.poisoned_count > 0
        assert (data.labels[stamped] == 1).all()

    def test_iad_clean_label_stamps_target_without_relabel(self):
        rng = np.random.default_rng(5)
        scenario = TargetSpec(SCENARIO_CLEAN_LABEL, target_class=1)
        attack = InputAwareDynamicAttack(1, (1, 8, 8), backdoor_rate=0.5,
                                         cross_rate=0.0, scenario=scenario,
                                         rng=rng)
        images = np.random.default_rng(6).random((16, 1, 8, 8)).astype(np.float32)
        labels = np.repeat(np.arange(4), 4)
        mixed, mixed_labels = attack.poison_batch(images, labels, rng)
        np.testing.assert_array_equal(mixed_labels, labels)
        stamped = np.where(np.abs(mixed - images).reshape(16, -1)
                           .sum(axis=1) > 0)[0]
        assert len(stamped) > 0
        assert set(labels[stamped]) <= {1}

    def test_conflicting_scenario_target_rejected(self):
        scenario = TargetSpec(target_class=0)
        with pytest.raises(ValueError):
            BadNetAttack(3, (1, 8, 8), scenario=scenario)

    def test_poison_rate_validated_at_construction(self):
        with pytest.raises(ValueError):
            BadNetAttack(0, (1, 8, 8), poison_rate=1.5)
        with pytest.raises(ValueError):
            BadNetAttack(0, (1, 8, 8), poison_rate=-0.1)

    def test_iad_batch_respects_scenario(self):
        rng = np.random.default_rng(3)
        scenario = TargetSpec(SCENARIO_SOURCE_CONDITIONAL, target_class=0,
                              source_classes=(1,), num_classes=4)
        attack = InputAwareDynamicAttack(0, (1, 8, 8), backdoor_rate=0.5,
                                         cross_rate=0.0, scenario=scenario,
                                         rng=rng)
        images = np.random.default_rng(4).random((16, 1, 8, 8)).astype(np.float32)
        labels = np.repeat(np.arange(4), 4)
        _, mixed_labels = attack.poison_batch(images, labels, rng)
        changed = np.where(mixed_labels != labels)[0]
        assert len(changed) > 0
        assert set(labels[changed]) <= {1}
        assert (mixed_labels[changed] == 0).all()


# ---------------------------------------------------------------------- #
# Regression: degenerate MAD
# ---------------------------------------------------------------------- #
class TestMadDegenerate:
    def test_blatant_outlier_flagged_when_mad_collapses(self):
        # All-but-one identical norms: MAD = 0, and the old code returned
        # index 0 for every class, never flagging the obvious outlier.
        indices = mad_anomaly_indices([100.0] * 9 + [1.0])
        assert indices[9] > 2.0
        assert all(indices[i] == 0.0 for i in range(9))

    def test_small_pool_outlier_flagged(self):
        # The bench scale scans only 4 classes; the relative fallback must
        # flag the outlier there too (an absolute std-based scale cannot:
        # the std-normalized gap is < 2 for any pool of <= 7).
        indices = mad_anomaly_indices([10.0, 10.0, 10.0, 0.1])
        assert indices[3] > 2.0

    def test_degenerate_near_identical_not_flagged(self):
        indices = mad_anomaly_indices([10.0, 10.0, 10.0, 9.9])
        assert all(v < 2.0 for v in indices.values())

    def test_all_identical_values_flag_nothing(self):
        assert all(v == 0.0 for v in mad_anomaly_indices([7.0] * 6).values())

    def test_healthy_mad_path_unchanged(self):
        values = [10.0, 11.0, 9.0, 12.0, 1.0]
        indices = mad_anomaly_indices(values)
        median = np.median(values)
        mad = np.median(np.abs(np.asarray(values) - median))
        expected = (median - 1.0) / (1.4826 * mad)
        assert indices[4] == pytest.approx(expected)


# ---------------------------------------------------------------------- #
# Regression: IAD poisoning at rate 0 + transform RNG seeding
# ---------------------------------------------------------------------- #
class TestIadRateZero:
    def test_rate_zero_keeps_batch_clean(self):
        rng = np.random.default_rng(0)
        attack = InputAwareDynamicAttack(0, (1, 8, 8), backdoor_rate=0.0,
                                         cross_rate=0.0, rng=rng)
        images = np.random.default_rng(1).random((8, 1, 8, 8)).astype(np.float32)
        labels = np.arange(8) % 4
        mixed, mixed_labels = attack.poison_batch(images, labels, rng)
        np.testing.assert_array_equal(mixed, images)
        np.testing.assert_array_equal(mixed_labels, labels)

    def test_positive_rate_still_rounds_up_to_one(self):
        rng = np.random.default_rng(0)
        attack = InputAwareDynamicAttack(0, (1, 8, 8), backdoor_rate=0.01,
                                         cross_rate=0.0, rng=rng)
        images = np.random.default_rng(1).random((8, 1, 8, 8)).astype(np.float32)
        labels = np.ones(8, dtype=np.int64)
        _, mixed_labels = attack.poison_batch(images, labels, rng)
        assert (mixed_labels == 0).sum() == 1


class TestTransformSeeding:
    def test_int_seed_accepted_and_reproducible(self):
        images = np.random.default_rng(0).random((4, 1, 8, 8)).astype(np.float32)
        a = RandomNoise(std=0.3, rng=123)(images)
        b = RandomNoise(std=0.3, rng=123)(images)
        np.testing.assert_array_equal(a, b)

    def test_default_rng_is_deterministic(self):
        images = np.random.default_rng(0).random((4, 1, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(RandomCrop()(images), RandomCrop()(images))

    def test_random_crop_default_matches_docstring(self):
        assert RandomCrop().padding == 4


# ---------------------------------------------------------------------- #
# Pair-mode detection
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pair_detection():
    data = make_synthetic_dataset(4, 12, 1, 6, seed=0)
    model = build_model("basic_cnn", num_classes=4, in_channels=1,
                        image_size=12, rng=np.random.default_rng(0))
    detector = NeuralCleanseDetector(
        data, NeuralCleanseConfig(
            optimization=TriggerOptimizationConfig(iterations=2)),
        rng=np.random.default_rng(0))
    pairs = [(s, t) for t in range(3) for s in range(3) if s != t]
    return detector.detect(model, pairs=pairs), pairs


class TestPairModeDetection:
    def test_one_record_per_pair(self, pair_detection):
        result, pairs = pair_detection
        assert [t.pair for t in result.triggers] == pairs
        assert set(result.pair_anomaly_indices) == set(pairs)
        assert result.metadata["pair_mode"] == 1.0
        assert result.metadata["pairs_scanned"] == float(len(pairs))

    def test_per_class_aggregation_is_min_over_sources(self, pair_detection):
        result, _ = pair_detection
        for target, norm in result.per_class_l1.items():
            group = [t.l1_norm for t in result.triggers
                     if t.target_class == target]
            assert norm == pytest.approx(min(group))

    def test_compact_round_trip_preserves_pairs(self, pair_detection):
        result, _ = pair_detection
        clone = DetectionResult.from_compact_dict(
            json.loads(json.dumps(result.to_compact_dict())))
        assert clone.per_pair_l1.keys() == result.per_pair_l1.keys()
        for pair, norm in result.per_pair_l1.items():
            assert clone.per_pair_l1[pair] == pytest.approx(norm)
        assert clone.flagged_pairs == result.flagged_pairs
        assert clone.pair_anomaly_indices == pytest.approx(
            result.pair_anomaly_indices)
        assert clone.flagged_classes == result.flagged_classes
        assert clone.is_backdoored == result.is_backdoored

    def test_duplicate_pairs_deduped(self, pair_detection):
        _, pairs = pair_detection
        data = make_synthetic_dataset(3, 8, 1, 4, seed=1)
        model = build_model("basic_cnn", num_classes=3, in_channels=1,
                            image_size=8, rng=np.random.default_rng(1))
        detector = NeuralCleanseDetector(
            data, NeuralCleanseConfig(
                optimization=TriggerOptimizationConfig(iterations=1)),
            rng=np.random.default_rng(1))
        result = detector.detect(model, pairs=[(0, 1), (0, 1), (None, 2)])
        assert [t.pair for t in result.triggers] == [(0, 1), (None, 2)]

    @pytest.mark.parametrize("detector_name", ["usb", "nc", "tabor"])
    def test_all_detectors_complete_pair_mode(self, detector_name):
        from repro.core.uap import TargetedUAPConfig
        from repro.core.usb import USBConfig, USBDetector
        from repro.defenses import TaborConfig, TaborDetector

        data = make_synthetic_dataset(3, 8, 1, 4, seed=3)
        model = build_model("basic_cnn", num_classes=3, in_channels=1,
                            image_size=8, rng=np.random.default_rng(3))
        optimization = TriggerOptimizationConfig(iterations=2)
        rng = np.random.default_rng(3)
        if detector_name == "usb":
            detector = USBDetector(
                data, USBConfig(uap=TargetedUAPConfig(max_passes=1),
                                optimization=optimization), rng=rng)
        elif detector_name == "nc":
            detector = NeuralCleanseDetector(
                data, NeuralCleanseConfig(optimization=optimization), rng=rng)
        else:
            detector = TaborDetector(
                data, TaborConfig(optimization=optimization), rng=rng)
        pairs = [(s, t) for t in range(3) for s in range(3) if s != t]
        result = detector.detect(model, pairs=pairs)
        assert [t.pair for t in result.triggers] == pairs
        assert set(result.pair_anomaly_indices) == set(pairs)

    def test_restricted_clean_data_restored(self, pair_detection):
        data = make_synthetic_dataset(3, 8, 1, 4, seed=2)
        model = build_model("basic_cnn", num_classes=3, in_channels=1,
                            image_size=8, rng=np.random.default_rng(2))
        detector = NeuralCleanseDetector(
            data, NeuralCleanseConfig(
                optimization=TriggerOptimizationConfig(iterations=1)),
            rng=np.random.default_rng(2))
        detector.detect(model, pairs=[(0, 1), (2, 0)])
        assert detector.clean_data is data


# ---------------------------------------------------------------------- #
# Protocol: multi-target scoring
# ---------------------------------------------------------------------- #
class TestMultiTargetProtocol:
    def test_classify_with_target_set(self):
        assert classify_target_detection([1, 2], {0, 1, 2, 3}) == OUTCOME_CORRECT
        assert classify_target_detection([1, 9], {0, 1, 2}) == OUTCOME_CORRECT_SET
        assert classify_target_detection([9], {0, 1, 2}) == OUTCOME_WRONG
        # single-target semantics unchanged
        assert classify_target_detection([3], 3) == OUTCOME_CORRECT
        assert classify_target_detection([1, 3], 3) == OUTCOME_CORRECT_SET


# ---------------------------------------------------------------------- #
# Experiment harness: scenario grid, serial vs scheduler parity
# ---------------------------------------------------------------------- #
def _micro_scenario_config():
    scale = ExperimentScale(models_per_case=1, samples_per_class=6,
                            test_per_class=4, image_size=12, epochs=1,
                            clean_budget=10, usb_iterations=2,
                            baseline_iterations=2, uap_passes=1,
                            detection_class_limit=3)
    base = ExperimentConfig(
        name="micro_scn", dataset="mnist", model="basic_cnn",
        cases=(CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3)),),
        detectors=("usb",), scale=scale)
    return scenario_grid_config(
        base, [SCENARIO_SOURCE_CONDITIONAL, SCENARIO_ALL_TO_ALL])


class TestScenarioGrid:
    def test_grid_expands_cases(self):
        config = table5_config("bench")
        grid = scenario_grid_config(
            config, [SCENARIO_ALL_TO_ONE, SCENARIO_ALL_TO_ALL])
        names = [case.name for case in grid.cases]
        assert "clean" in names
        assert "badnet_2x2" in names and "badnet_2x2@all_to_all" in names
        assert len(grid.cases) == 1 + 2 * 2

    def test_grid_case_filter_and_unknown_scenario(self):
        config = table5_config("bench")
        grid = scenario_grid_config(config, [SCENARIO_ALL_TO_ALL],
                                    cases=["badnet_3x3"])
        assert [case.name for case in grid.cases] == ["badnet_3x3@all_to_all"]
        with pytest.raises(KeyError):
            scenario_grid_config(config, ["bogus"])

    def test_default_source_classes_wrap(self):
        assert default_source_classes(0, 10) == (1, 2)
        assert default_source_classes(9, 10) == (0, 1)
        assert default_source_classes(0, 2) == (1,)

    def test_case_scenario_ids(self):
        grid = _micro_scenario_config()
        ids = [case_scenario_id(case) for case in grid.cases]
        assert ids == ["source_conditional(1,2->0)", "all_to_all"]
        assert case_scenario_id(CaseSpec("clean")) == "-"

    def test_build_attack_resolves_scenario(self):
        spec = AttackSpec("badnet", patch_size=2,
                          scenario=SCENARIO_ALL_TO_ALL)
        attack = build_attack(spec, (1, 12, 12), np.random.default_rng(0),
                              num_classes=10)
        assert attack.scenario.kind == SCENARIO_ALL_TO_ALL
        assert attack.scenario.num_classes == 10

    def test_serial_run_produces_pair_records(self):
        config = _micro_scenario_config()
        result = run_experiment(config, seed=3)
        rows = result.rows()
        assert [row["scenario"] for row in rows] == \
            ["source_conditional(1,2->0)", "all_to_all"]
        for case_result in result.cases:
            for summary in case_result.summaries.values():
                for record in summary.records:
                    assert record.detection.metadata.get("pair_mode") == 1.0
                    assert record.detection.pair_anomaly_indices
        # all-to-all records carry the full target set
        a2a = result.cases[-1].summaries["USB"].records[0]
        assert a2a.scenario == SCENARIO_ALL_TO_ALL
        assert a2a.true_target_classes == tuple(range(10))
        assert a2a.expected_targets == tuple(range(10))

    def test_scheduler_parity_and_distinct_store_digests(self, tmp_path):
        config = _micro_scenario_config()
        serial = run_experiment(config, seed=3)
        store = ResultStore(str(tmp_path / "scn.jsonl"))
        parallel = run_experiment(
            config, seed=3, scheduler=ScanScheduler(store=store, workers=2))
        assert serial.rows() == parallel.rows()
        # one store record per (case, model, detector), and the two scenario
        # cases never share a config digest (no cross-scenario cache reuse)
        records = list(store)
        assert len(records) == 2
        assert records[0].config_digest != records[1].config_digest
        assert records[0].key != records[1].key

    def test_inline_scheduler_matches_serial(self):
        config = _micro_scenario_config()
        inline = run_experiment(config, seed=3,
                                scheduler=ScanScheduler(workers=0))
        assert inline.rows() == run_experiment(config, seed=3).rows()


# ---------------------------------------------------------------------- #
# Service: scenario is part of the cache key
# ---------------------------------------------------------------------- #
class TestServiceScenarioKeys:
    def _save(self, path):
        model = build_model("basic_cnn", num_classes=10, in_channels=1,
                            image_size=12, rng=np.random.default_rng(7))
        save_model(model, str(path),
                   metadata={"model": "basic_cnn", "dataset": "mnist",
                             "image_size": 12})

    def test_scenario_changes_cache_key(self, tmp_path):
        path = tmp_path / "m.npz"
        self._save(path)
        base = dict(checkpoint=str(path), detector="nc", classes=(0, 1, 2),
                    clean_budget=8, samples_per_class=3, iterations=2, seed=0)
        keys = {
            kind: resolve_request(ScanRequest(scenario=kind, **base)).key
            for kind in (SCENARIO_ALL_TO_ONE, SCENARIO_SOURCE_CONDITIONAL,
                         SCENARIO_ALL_TO_ALL)
        }
        assert len(set(keys.values())) == 3
        # source hints are part of the key too
        hinted = resolve_request(ScanRequest(
            scenario=SCENARIO_SOURCE_CONDITIONAL, source_classes=(1,),
            **base)).key
        assert hinted != keys[SCENARIO_SOURCE_CONDITIONAL]

    def test_scenario_scan_caches_within_but_not_across(self, tmp_path):
        path = tmp_path / "m.npz"
        self._save(path)
        store = ResultStore(str(tmp_path / "scenario.jsonl"))
        scheduler = ScanScheduler(store=store, workers=0)
        base = dict(checkpoint=str(path), detector="nc", classes=(0, 1, 2),
                    clean_budget=8, samples_per_class=3, iterations=2, seed=0)
        conditional = ScanRequest(scenario=SCENARIO_SOURCE_CONDITIONAL, **base)
        first = scheduler.scan_one(conditional)
        assert not first.cache_hit
        detection = first.to_detection_result()
        assert detection.pair_anomaly_indices  # pair sweep persisted
        again = scheduler.scan_one(conditional)
        assert again.cache_hit
        other = scheduler.scan_one(ScanRequest(scenario=SCENARIO_ALL_TO_ONE,
                                               **base))
        assert not other.cache_hit
        assert not other.to_detection_result().pair_anomaly_indices

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScanRequest(checkpoint="x.npz", scenario="bogus")
