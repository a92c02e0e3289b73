"""Tests for the detect -> repair -> verify mitigation subsystem.

Covers the unlearning/pruning primitives on a genuinely backdoored bench
model (ground-truth trigger as the reversed trigger — deterministic and
fast), the repair pipeline's guardrail/rollback, the service layer
(RepairRecord store round trips, CLI cache hits, serial-vs-scheduler
parity), and the daemon's auto-repair queueing.
"""

import fnmatch
import json
import os

import numpy as np
import pytest

from repro.attacks import BadNetAttack
from repro.core.detection import DetectionResult, ReversedTrigger
from repro.data import load_dataset, stratified_sample
from repro.defenses import NeuralCleanseConfig, NeuralCleanseDetector
from repro.core.trigger_optimizer import TriggerOptimizationConfig
from repro.eval.trainer import Trainer, TrainingConfig, evaluate_accuracy, evaluate_asr
from repro.mitigation import (
    PruningConfig,
    RepairPlan,
    RepairReport,
    UnlearningConfig,
    activation_differential_prune,
    find_classifier_head,
    flagged_triggers,
    repair_model,
    reversed_trigger_success,
    trigger_unlearn,
)
from repro.models import build_model
from repro.nn.serialization import load_model, save_model
from repro.service import (
    RepairRecord,
    RepairRequest,
    ResultStore,
    ScanRecord,
    ScanRequest,
    ScanScheduler,
    record_from_dict,
    resolve_repair,
    run_repairs,
)
from repro.service.cli import _request_fields, build_parser
from repro.service.cli import main as cli_main


# ---------------------------------------------------------------------- #
# Shared badnet'd bench model (module-scoped: trained once)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def badnet_setup():
    """A genuinely backdoored bench model with its ground-truth detection."""
    train_set, test_set = load_dataset("mnist", samples_per_class=40,
                                       test_per_class=20, seed=3,
                                       image_size=16)
    model = build_model("basic_cnn", num_classes=10, in_channels=1,
                        image_size=16, rng=np.random.default_rng(12))
    attack = BadNetAttack(0, train_set.image_shape, patch_size=4,
                          poison_rate=0.25, location=(1, 1),
                          rng=np.random.default_rng(13))
    trained = Trainer(TrainingConfig(epochs=6, batch_size=32, lr=2e-3),
                      rng=np.random.default_rng(14)).train_backdoored(
        model, train_set, test_set, attack, seed=3)
    assert trained.attack_success_rate > 0.9  # the fixture's premise
    trigger = ReversedTrigger(target_class=0,
                              pattern=attack.trigger.pattern,
                              mask=attack.trigger.mask.copy(),
                              success_rate=1.0)
    detection = DetectionResult(detector="truth", triggers=[trigger],
                                anomaly_indices={0: 9.0}, flagged_classes=[0],
                                is_backdoored=True)
    return {
        "snapshot": {k: v.copy() for k, v in model.state_dict().items()},
        "attack": attack,
        "detection": detection,
        "test_set": test_set,
        "clean": stratified_sample(test_set, 100, np.random.default_rng(9)),
        "accuracy": trained.clean_accuracy,
        "asr": trained.attack_success_rate,
    }


def _fresh_model(setup):
    model = build_model("basic_cnn", num_classes=10, in_channels=1,
                        image_size=16, rng=np.random.default_rng(0))
    model.load_state_dict(setup["snapshot"])
    return model


# ---------------------------------------------------------------------- #
# Unlearning
# ---------------------------------------------------------------------- #
class TestUnlearning:
    def test_unlearning_drops_asr_within_guardrail(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        report = repair_model(
            model, badnet_setup["detection"], badnet_setup["clean"],
            plan=RepairPlan(strategy="unlearn",
                            unlearning=UnlearningConfig(epochs=2,
                                                        learning_rate=5e-4),
                            max_accuracy_drop=0.03, rescan=False),
            eval_data=badnet_setup["test_set"], attack=badnet_setup["attack"],
            rng=np.random.default_rng(10))
        assert report.repaired and report.guardrail_ok
        assert report.asr_before > 0.9
        assert report.asr_after < 0.2
        assert report.accuracy_before - report.accuracy_after <= 0.03
        assert report.trigger_success_after["*->0"] < 0.2
        assert report.success

    def test_unlearning_requires_triggers_and_full_arrays(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        with pytest.raises(ValueError, match="at least one"):
            trigger_unlearn(model, badnet_setup["clean"], [])
        compact = DetectionResult.from_compact_dict(
            badnet_setup["detection"].to_compact_dict())
        with pytest.raises(ValueError, match="compact|full"):
            repair_model(model, compact, badnet_setup["clean"],
                         plan=RepairPlan(rescan=False))

    def test_conditional_trigger_stamps_source_class_only(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        base = badnet_setup["detection"].triggers[0]
        conditional = ReversedTrigger(target_class=0, pattern=base.pattern,
                                      mask=base.mask, success_rate=1.0,
                                      source_class=1)
        clean = badnet_setup["clean"]
        report = trigger_unlearn(model, clean, [conditional],
                                 config=UnlearningConfig(epochs=1),
                                 rng=np.random.default_rng(0))
        source_samples = int((clean.labels == 1).sum())
        assert report.cells == ["1->0"]
        assert 0 < report.stamped["1->0"] <= source_samples


# ---------------------------------------------------------------------- #
# Pruning
# ---------------------------------------------------------------------- #
class TestPruning:
    def test_pruning_only_reduces_asr_and_persists(self, badnet_setup,
                                                   tmp_path):
        model = _fresh_model(badnet_setup)
        report = repair_model(
            model, badnet_setup["detection"], badnet_setup["clean"],
            plan=RepairPlan(strategy="prune", max_accuracy_drop=0.05,
                            rescan=False),
            eval_data=badnet_setup["test_set"], attack=badnet_setup["attack"],
            rng=np.random.default_rng(10))
        assert report.pruning is not None and report.unlearning is None
        assert report.pruning.units_pruned > 0
        assert report.guardrail_ok
        # Pruning alone weakens the shortcut substantially (unlearning is
        # what removes it entirely).
        assert report.asr_after <= 0.5 * report.asr_before

        # The prune is weight-level, so it survives a checkpoint round trip.
        path = tmp_path / "pruned.npz"
        save_model(model, str(path))
        clone = build_model("basic_cnn", num_classes=10, in_channels=1,
                            image_size=16, rng=np.random.default_rng(1))
        load_model(clone, str(path))
        _, head = find_classifier_head(clone)
        assert np.all(head.weight.data[:, report.pruning.pruned_units] == 0.0)
        asr_clone = evaluate_asr(clone, badnet_setup["test_set"],
                                 badnet_setup["attack"],
                                 rng=np.random.default_rng(2))
        assert asr_clone == pytest.approx(report.asr_after, abs=0.05)

    def test_finds_last_linear_as_head(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        name, head = find_classifier_head(model)
        assert name == "fc2"
        assert head.out_features == 10

    def test_prune_budget_is_respected(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        config = PruningConfig(max_prune_fraction=0.01, z_threshold=0.0)
        report = activation_differential_prune(
            model, badnet_setup["clean"],
            badnet_setup["detection"].triggers, config=config)
        _, head = find_classifier_head(model)
        assert 0 < report.units_pruned <= max(
            1, round(0.01 * head.in_features))


# ---------------------------------------------------------------------- #
# Pipeline: guardrail, rollback, reports
# ---------------------------------------------------------------------- #
class TestRepairPipeline:
    def test_guardrail_rolls_back_destructive_repair(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        plan = RepairPlan(strategy="unlearn",
                          unlearning=UnlearningConfig(epochs=2,
                                                      learning_rate=0.2),
                          max_accuracy_drop=0.0)
        report = repair_model(model, badnet_setup["detection"],
                              badnet_setup["clean"], plan=plan,
                              eval_data=badnet_setup["test_set"],
                              rng=np.random.default_rng(3))
        assert not report.guardrail_ok
        assert report.rolled_back
        assert not report.success
        for key, value in badnet_setup["snapshot"].items():
            np.testing.assert_array_equal(model.state_dict()[key], value)

    def test_nothing_flagged_is_a_successful_noop(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        clean_result = DetectionResult(detector="nc", triggers=[],
                                       anomaly_indices={}, flagged_classes=[],
                                       is_backdoored=False)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        report = repair_model(model, clean_result, badnet_setup["clean"])
        assert not report.repaired and report.success
        for key, value in before.items():
            np.testing.assert_array_equal(model.state_dict()[key], value)

    def test_flagged_triggers_pair_mode_selection(self):
        def trig(target, source):
            return ReversedTrigger(target_class=target,
                                   pattern=np.zeros((1, 4, 4)),
                                   mask=np.zeros((1, 4, 4)),
                                   success_rate=0.0, source_class=source)
        result = DetectionResult(
            detector="nc",
            triggers=[trig(0, 1), trig(0, 2), trig(1, 2)],
            anomaly_indices={0: 5.0}, flagged_classes=[0],
            is_backdoored=True,
            pair_anomaly_indices={(1, 0): 5.0, (2, 0): 0.1, (2, 1): 0.0},
            flagged_pairs=[(1, 0)])
        selected = flagged_triggers(result)
        assert [(t.source_class, t.target_class) for t in selected] == [(1, 0)]

    def test_report_json_round_trip(self, badnet_setup):
        model = _fresh_model(badnet_setup)
        report = repair_model(
            model, badnet_setup["detection"], badnet_setup["clean"],
            plan=RepairPlan(strategy="both",
                            unlearning=UnlearningConfig(epochs=1),
                            rescan=False),
            eval_data=badnet_setup["test_set"], attack=badnet_setup["attack"],
            rng=np.random.default_rng(5))
        clone = RepairReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.strategy == "both"
        assert clone.success == report.success
        assert clone.accuracy_after == pytest.approx(report.accuracy_after)
        assert clone.asr_after == pytest.approx(report.asr_after)
        assert clone.trigger_success_after == pytest.approx(
            report.trigger_success_after)
        assert clone.unlearning.epochs == 1
        assert clone.pruning.pruned_units == report.pruning.pruned_units

    def test_real_detection_to_repair_path(self, badnet_setup):
        # The un-mocked pipeline: NC reverse-engineers the trigger itself,
        # then the recovered (not ground-truth) pattern drives the repair.
        # Bench-scale budgets put the true target's anomaly index around the
        # default threshold, so the test scans with a slightly lower one.
        model = _fresh_model(badnet_setup)
        detector = NeuralCleanseDetector(
            badnet_setup["clean"],
            NeuralCleanseConfig(optimization=TriggerOptimizationConfig(
                iterations=30), anomaly_threshold=1.5),
            rng=np.random.default_rng(0))
        detection = detector.detect(model)
        assert 0 in detection.flagged_classes  # NC finds the true target
        report = repair_model(
            model, detection, badnet_setup["clean"],
            plan=RepairPlan(strategy="both",
                            unlearning=UnlearningConfig(epochs=2,
                                                        learning_rate=5e-4,
                                                        stamp_fraction=0.3),
                            max_accuracy_drop=0.03, rescan=False),
            eval_data=badnet_setup["test_set"], attack=badnet_setup["attack"],
            rng=np.random.default_rng(10))
        assert report.asr_before > 0.9
        assert report.asr_after < 0.2
        assert report.guardrail_ok


# ---------------------------------------------------------------------- #
# Service layer: records, store, CLI, parity
# ---------------------------------------------------------------------- #
def _save_untrained(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path), metadata={"model": "basic_cnn",
                                           "dataset": "cifar10",
                                           "image_size": 12})


def _tiny_repair_request(path, **overrides):
    scan = ScanRequest(checkpoint=str(path), detector="nc",
                       classes=(0, 1, 2), clean_budget=10,
                       samples_per_class=3, iterations=2, seed=0)
    defaults = dict(scan=scan, strategy="unlearn", unlearn_epochs=1,
                    rescan=False)
    defaults.update(overrides)
    return RepairRequest(**defaults)


class TestRepairService:
    def test_repair_record_round_trip_and_dispatch(self):
        record = RepairRecord(
            key="f" * 64 + ":repair+nc:abc", fingerprint="f" * 64,
            config_digest="abc", checkpoint="m.npz", model="basic_cnn",
            dataset="mnist", detector="nc", strategy="both",
            was_backdoored=True, repaired=True, success=True,
            accuracy_before=0.9, accuracy_after=0.89,
            repaired_checkpoint="m.repaired.npz",
            report={"strategy": "both", "verdict_after": False})
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["record"] == "repair"
        clone = record_from_dict(payload)
        assert isinstance(clone, RepairRecord)
        assert clone.key == record.key and clone.success
        assert not clone.cache_hit  # transient flag never persisted
        # untagged payloads still decode as scans
        scan_payload = {"key": "k", "fingerprint": "f", "config_digest": "d",
                        "checkpoint": "c", "model": "m", "dataset": "ds",
                        "detector": "usb", "is_backdoored": False,
                        "flagged_classes": [], "suspect_class": None,
                        "seconds": 0.0}
        assert isinstance(record_from_dict(scan_payload), ScanRecord)

    def test_store_mixes_scan_and_repair_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "mixed.jsonl"))
        scan = ScanRecord(key="k1", fingerprint="f1", config_digest="d",
                          checkpoint="a.npz", model="m", dataset="ds",
                          detector="usb", is_backdoored=True,
                          flagged_classes=(0,), suspect_class=0, seconds=1.0)
        repair = RepairRecord(key="k2", fingerprint="f1", config_digest="d2",
                              checkpoint="a.npz", model="m", dataset="ds",
                              detector="usb", strategy="unlearn",
                              was_backdoored=True, repaired=True,
                              success=True)
        store.add(scan)
        store.add(repair)
        reloaded = ResultStore(str(tmp_path / "mixed.jsonl"))
        assert len(reloaded) == 2
        assert [r.key for r in reloaded.scan_records()] == ["k1"]
        assert [r.key for r in reloaded.repair_records()] == ["k2"]
        assert isinstance(reloaded.lookup("k2"), RepairRecord)

    def test_repair_key_distinct_from_scan_and_config_sensitive(self,
                                                                tmp_path):
        path = tmp_path / "m.npz"
        _save_untrained(path, seed=4)
        request = _tiny_repair_request(path)
        resolved = resolve_repair(request)
        assert ":repair+nc:" in resolved.key
        assert resolved.key != resolved.scan.key
        other = resolve_repair(_tiny_repair_request(path, strategy="both"))
        assert other.key != resolved.key
        assert other.output != resolved.output  # digest-suffixed paths

    def test_output_dir_keeps_one_file_per_repair_config(self, tmp_path):
        path = tmp_path / "m.npz"
        _save_untrained(path, seed=4)
        out = tmp_path / "out"
        outputs = []
        for strategy in ("unlearn", "prune"):
            args = build_parser().parse_args(
                ["repair", str(path), "--detector", "nc", "--classes", "0,1,2",
                 "--strategy", strategy, "--output-dir", str(out)])
            request = RepairRequest(
                scan=ScanRequest(checkpoint=str(path),
                                 **_request_fields(args, ScanRequest)),
                **_request_fields(args, RepairRequest))
            outputs.append(resolve_repair(request).output)
        assert out.is_dir()  # the CLI creates --output-dir
        assert outputs[0] != outputs[1]
        for output in outputs:
            assert os.path.dirname(output) == str(out)
            assert fnmatch.fnmatch(os.path.basename(output), "*.repaired-*.npz")
        # An explicit file path is still used as given.
        explicit = str(tmp_path / "fixed.npz")
        assert resolve_repair(_tiny_repair_request(
            path, output=explicit)).output == explicit

    def test_run_repairs_cache_hits_second_batch(self, tmp_path):
        path = tmp_path / "m.npz"
        _save_untrained(path, seed=5)
        store = ResultStore(str(tmp_path / "repairs.jsonl"))
        scheduler = ScanScheduler(store=store, workers=0)
        first = run_repairs(scheduler, [_tiny_repair_request(path)])
        assert not first[0].cache_hit
        again = run_repairs(scheduler, [_tiny_repair_request(path)])
        assert again[0].cache_hit
        assert again[0].key == first[0].key
        assert scheduler.cache_hits == 1 and scheduler.cache_misses == 1

    def test_serial_vs_scheduler_repair_parity(self, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"m{index}.npz"
            _save_untrained(path, seed=10 + index)
            paths.append(path)

        def _run(store_name, workers):
            store = ResultStore(str(tmp_path / store_name))
            scheduler = ScanScheduler(store=store, workers=workers)
            return run_repairs(scheduler,
                               [_tiny_repair_request(p) for p in paths])

        def _normalize(record):
            payload = record.to_dict()
            payload.pop("created_at")
            payload.pop("worker_pid")
            payload.pop("seconds")
            # Telemetry is per-run by design (trace ids, wall-clock phases).
            payload.pop("telemetry", None)
            payload["report"] = {k: v for k, v in payload["report"].items()
                                 if k != "seconds"}
            return payload

        serial = [_normalize(r) for r in _run("serial.jsonl", 0)]
        pooled = [_normalize(r) for r in _run("pooled.jsonl", 2)]
        assert serial == pooled

    def test_repair_cli_second_run_is_cache_hit(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "m.npz"
        _save_untrained(path, seed=6)
        argv = ["repair", str(path), "--detector", "nc", "--classes", "0,1,2",
                "--clean-budget", "10", "--samples-per-class", "3",
                "--iterations", "2", "--strategy", "unlearn",
                "--unlearn-epochs", "1", "--no-rescan",
                "--store", "repairs.jsonl"]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["cache_hit"] is True
        # the store holds exactly one repair record
        store = ResultStore(str(tmp_path / "repairs.jsonl"))
        assert len(store.repair_records()) == 1

    def test_report_renders_mixed_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "m.npz"
        _save_untrained(path, seed=7)
        assert cli_main(["repair", str(path), "--detector", "nc",
                         "--classes", "0,1", "--clean-budget", "10",
                         "--samples-per-class", "3", "--iterations", "2",
                         "--strategy", "prune", "--no-rescan",
                         "--store", "mixed.jsonl"]) == 0
        assert cli_main(["scan", str(path), "--detector", "nc",
                         "--classes", "0,1", "--clean-budget", "10",
                         "--samples-per-class", "3", "--iterations", "2",
                         "--store", "mixed.jsonl"]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--store", "mixed.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out
        assert "1 repair record(s)" in out
        assert "strategy" in out
