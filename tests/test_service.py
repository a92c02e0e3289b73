"""Tests for the scanning service: fingerprints, checkpoints, store, scheduler, CLI."""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.attacks.base import SCENARIO_SOURCE_CONDITIONAL
from repro.core.detection import DetectionResult, ReversedTrigger
from repro.eval import (
    AttackSpec,
    CaseSpec,
    ExperimentConfig,
    ExperimentScale,
    FleetModelSummary,
    case_scan_requests,
    format_scan_records,
    run_case_model_job,
    run_experiment,
    run_repair_sweep,
)
from repro.mitigation import RepairPlan, UnlearningConfig
from repro.models import build_model
from repro.nn.serialization import (
    CheckpointMismatchError,
    load_checkpoint,
    load_model,
    load_state_dict,
    save_model,
    save_state_dict,
)
from repro.service import (
    InlineBackend,
    ResultStore,
    ScanRecord,
    ScanRequest,
    ScanScheduler,
    digest_config,
    fingerprint_checkpoint,
    fingerprint_model,
    fingerprint_state_dict,
    resolve_request,
    scan_key,
)
from repro.service.cli import main as cli_main
from repro.service.scheduler import execute_mega_group


def _tiny_model(seed=0):
    return build_model("basic_cnn", num_classes=10, in_channels=3, image_size=12,
                       rng=np.random.default_rng(seed))


def _save_tiny(path, seed=0, metadata=True):
    model = _tiny_model(seed)
    meta = ({"model": "basic_cnn", "dataset": "cifar10", "image_size": 12}
            if metadata else None)
    save_model(model, str(path), metadata=meta)
    return model


def _tiny_request(path, detector="usb", **overrides):
    defaults = dict(checkpoint=str(path), detector=detector,
                    classes=(0, 1, 2), clean_budget=10, samples_per_class=3,
                    iterations=2, uap_passes=1, seed=0)
    defaults.update(overrides)
    return ScanRequest(**defaults)


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #
class TestFingerprint:
    def test_same_weights_same_fingerprint(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        _save_tiny(a, seed=1)
        _save_tiny(b, seed=1)
        assert fingerprint_checkpoint(str(a)) == fingerprint_checkpoint(str(b))

    def test_fingerprint_stable_across_processes(self, tmp_path):
        path = tmp_path / "m.npz"
        _save_tiny(path, seed=2)
        local = fingerprint_checkpoint(str(path))
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(fingerprint_checkpoint, str(path)).result()
        assert local == remote
        assert len(local) == 64  # full SHA-256 hex

    def test_perturbed_weights_change_fingerprint(self, tmp_path):
        path = tmp_path / "m.npz"
        model = _save_tiny(path, seed=3)
        state = model.state_dict()
        key = sorted(state)[0]
        state[key] = state[key] + 1e-6
        assert fingerprint_state_dict(state) != fingerprint_checkpoint(str(path))

    def test_metadata_does_not_affect_fingerprint(self, tmp_path):
        bare = tmp_path / "bare.npz"
        tagged = tmp_path / "tagged.npz"
        _save_tiny(bare, seed=4, metadata=False)
        _save_tiny(tagged, seed=4, metadata=True)
        assert fingerprint_checkpoint(str(bare)) == fingerprint_checkpoint(str(tagged))

    def test_fingerprint_matches_live_model(self, tmp_path):
        path = tmp_path / "m.npz"
        model = _save_tiny(path, seed=5)
        assert fingerprint_model(model) == fingerprint_checkpoint(str(path))

    def test_config_digest_distinguishes_configs(self):
        base = {"detector": "usb", "iterations": 40}
        assert digest_config(base) == digest_config(dict(base))
        assert digest_config(base) != digest_config({**base, "iterations": 500})

    def test_scan_key_composition(self):
        key = scan_key("f" * 64, "USB", "abc")
        assert key == "f" * 64 + ":usb:abc"


# ---------------------------------------------------------------------- #
# Checkpoint round trip + hardened loading
# ---------------------------------------------------------------------- #
class TestSerialization:
    def test_round_trip_preserves_outputs(self, tmp_path):
        path = tmp_path / "m.npz"
        model = _save_tiny(path, seed=6)
        clone = _tiny_model(seed=99)  # different init, same architecture
        load_model(clone, str(path))
        x = np.random.default_rng(0).random((2, 3, 12, 12)).astype(np.float32)
        from repro.nn.tensor import Tensor, no_grad
        model.eval(), clone.eval()
        with no_grad():
            np.testing.assert_allclose(model(Tensor(x)).data,
                                       clone(Tensor(x)).data)

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "m.npz"
        _save_tiny(path, seed=7)
        state, meta = load_checkpoint(str(path))
        assert meta["model"] == "basic_cnn" and meta["dataset"] == "cifar10"
        assert all(isinstance(v, np.ndarray) for v in state.values())
        # load_state_dict strips the metadata entry
        assert set(load_state_dict(str(path))) == set(state)

    def test_load_model_rejects_wrong_architecture(self, tmp_path):
        path = tmp_path / "m.npz"
        _save_tiny(path, seed=8)
        other = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=16, rng=np.random.default_rng(0))
        with pytest.raises(CheckpointMismatchError, match="shape mismatch"):
            load_model(other, str(path))

    def test_load_model_reports_missing_and_unexpected(self, tmp_path):
        model = _tiny_model(seed=9)
        state = model.state_dict()
        first = sorted(state)[0]
        del state[first]
        state["bogus.weight"] = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "broken.npz"
        save_state_dict(state, str(path))
        with pytest.raises(CheckpointMismatchError) as excinfo:
            load_model(_tiny_model(seed=10), str(path))
        message = str(excinfo.value)
        assert "missing keys" in message and first in message
        assert "unexpected keys" in message and "bogus.weight" in message

    def test_metadata_key_is_reserved(self, tmp_path):
        from repro.nn.serialization import METADATA_KEY
        with pytest.raises(ValueError, match="reserved"):
            save_state_dict({METADATA_KEY: np.zeros(1)}, str(tmp_path / "x.npz"))


# ---------------------------------------------------------------------- #
# Result store
# ---------------------------------------------------------------------- #
def _dummy_record(key="k1", backdoored=False):
    detection = DetectionResult(
        detector="USB",
        triggers=[ReversedTrigger(0, np.full((1, 1, 1), 2.5), np.ones((1, 1, 1)), 0.9),
                  ReversedTrigger(1, np.full((1, 1, 1), 9.0), np.ones((1, 1, 1)), 0.4)],
        anomaly_indices={0: 3.0 if backdoored else 0.0, 1: 0.0},
        flagged_classes=[0] if backdoored else [],
        is_backdoored=backdoored, seconds_total=1.25)
    return ScanRecord.from_detection(
        key=key, fingerprint="f" * 64, config_digest="d" * 16,
        checkpoint="m.npz", model="basic_cnn", dataset="cifar10",
        detection=detection, created_at="2026-07-27T00:00:00+00:00")


class TestResultStore:
    def test_add_lookup_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        assert len(store) == 0 and store.lookup("k1") is None
        store.add(_dummy_record("k1", backdoored=True))
        assert "k1" in store
        reloaded = ResultStore(str(path))
        record = reloaded.lookup("k1")
        assert record is not None and record.is_backdoored
        assert record.flagged_classes == (0,)
        detection = record.to_detection_result()
        assert detection.per_class_l1 == {0: 2.5, 1: 9.0}
        assert detection.suspect_class == 0

    def test_latest_record_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        store.add(_dummy_record("k", backdoored=False))
        store.add(_dummy_record("k", backdoored=True))
        assert len(store) == 1
        assert ResultStore(store.path).lookup("k").is_backdoored

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(str(path))
        store.add(_dummy_record("k1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "trunc')
        reloaded = ResultStore(str(path))
        assert len(reloaded) == 1 and "k2" not in reloaded

    def test_cache_hit_flag_never_persisted(self, tmp_path):
        record = _dummy_record()
        record.cache_hit = True
        assert record.to_dict()["cache_hit"] is False


# ---------------------------------------------------------------------- #
# Scheduler: caching + serial/parallel parity
# ---------------------------------------------------------------------- #
class TestScheduler:
    def test_repeat_scan_is_cache_hit(self, tmp_path):
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=11)
        store = ResultStore(str(tmp_path / "s.jsonl"))
        scheduler = ScanScheduler(store=store, workers=0)
        first = scheduler.scan_one(_tiny_request(ckpt))
        second = scheduler.scan_one(_tiny_request(ckpt))
        assert not first.cache_hit and second.cache_hit
        assert first.key == second.key and len(store) == 1
        assert scheduler.cache_hits == 1 and scheduler.cache_misses == 1
        assert (second.to_detection_result().per_class_l1
                == first.to_detection_result().per_class_l1)

    def test_config_change_misses_cache(self, tmp_path):
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=12)
        store = ResultStore(str(tmp_path / "s.jsonl"))
        scheduler = ScanScheduler(store=store, workers=0)
        scheduler.scan_one(_tiny_request(ckpt, iterations=2))
        scheduler.scan_one(_tiny_request(ckpt, iterations=3))
        assert len(store) == 2 and scheduler.cache_hits == 0

    def test_duplicates_in_one_batch_computed_once(self, tmp_path):
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=13)
        store = ResultStore(str(tmp_path / "s.jsonl"))
        scheduler = ScanScheduler(store=store, workers=0)
        records = scheduler.scan([_tiny_request(ckpt), _tiny_request(ckpt)])
        assert len(records) == 2 and len(store) == 1
        assert not records[0].cache_hit and records[1].cache_hit
        # counters agree with the per-record cached labels
        assert scheduler.cache_misses == 1 and scheduler.cache_hits == 1

    def test_cache_hit_reports_current_checkpoint_path(self, tmp_path):
        original = tmp_path / "original.npz"
        _save_tiny(original, seed=15)
        renamed = tmp_path / "renamed.npz"
        import shutil
        shutil.copy(original, renamed)  # identical weights, different path
        store = ResultStore(str(tmp_path / "s.jsonl"))
        scheduler = ScanScheduler(store=store, workers=0)
        scheduler.scan_one(_tiny_request(original))
        hit = scheduler.scan_one(_tiny_request(renamed))
        assert hit.cache_hit
        assert hit.checkpoint == str(renamed)  # relabelled for this request
        assert store.lookup(hit.key).checkpoint == str(original)  # log untouched

    def test_parallel_matches_serial(self, tmp_path):
        checkpoints = []
        for seed in (21, 22):
            path = tmp_path / f"m{seed}.npz"
            _save_tiny(path, seed=seed)
            checkpoints.append(path)
        requests = [_tiny_request(ckpt, detector=det)
                    for ckpt in checkpoints for det in ("usb", "nc")]
        serial = ScanScheduler(workers=0).scan(requests)
        parallel = ScanScheduler(workers=2).scan(requests)
        assert len(serial) == len(parallel) == 4
        for left, right in zip(serial, parallel):
            assert left.key == right.key
            assert left.is_backdoored == right.is_backdoored
            assert left.flagged_classes == right.flagged_classes
            assert (left.to_detection_result().per_class_l1
                    == right.to_detection_result().per_class_l1)

    def test_pool_runs_a_mega_group_in_a_child(self, tmp_path):
        # The whole mega group is one job, and on the pool it runs in a
        # forked child (killable under the job timeout), not in the caller.
        requests = []
        for seed in (23, 24):
            _save_tiny(tmp_path / f"m{seed}.npz", seed=seed)
            requests.append(_tiny_request(tmp_path / f"m{seed}.npz",
                                          inversion_mode="mega"))
        inline = ScanScheduler(backend="inline", telemetry=False).scan(requests)
        pooled = ScanScheduler(backend="pool", telemetry=False).scan(requests)
        assert len(pooled) == 2
        assert all(record.worker_pid != os.getpid() for record in pooled)

        def verdict(record):
            detection = {k: v for k, v in record.detection.items()
                         if k != "seconds_total"}
            return (record.key, record.is_backdoored,
                    tuple(record.flagged_classes),
                    json.dumps(detection, sort_keys=True))

        assert [verdict(r) for r in pooled] == [verdict(r) for r in inline]

    def test_resolution_uses_metadata_and_validates(self, tmp_path):
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=14)
        resolved = resolve_request(ScanRequest(checkpoint=str(ckpt)))
        assert resolved.model == "basic_cnn" and resolved.dataset == "cifar10"
        assert resolved.image_size == 12 and resolved.key.endswith(
            ":usb:" + resolved.config_digest)

        bare = tmp_path / "bare.npz"
        _save_tiny(bare, seed=14, metadata=False)
        with pytest.raises(ValueError, match="metadata"):
            resolve_request(ScanRequest(checkpoint=str(bare)))

    def test_unknown_detector_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="Unknown detector"):
            ScanRequest(checkpoint="x.npz", detector="strip")

    def test_model_kwargs_metadata_rebuilds_nondefault_architecture(self, tmp_path):
        # A checkpoint of a non-default-width model is only scannable when
        # its metadata records the build kwargs (the fleet path writes them).
        kwargs = {"conv_channels": [4, 8], "hidden_dim": 16}
        model = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=12, rng=np.random.default_rng(41),
                            conv_channels=(4, 8), hidden_dim=16)
        ckpt = tmp_path / "narrow.npz"
        save_model(model, str(ckpt),
                   metadata={"model": "basic_cnn", "dataset": "cifar10",
                             "image_size": 12, "model_kwargs": kwargs})
        record = ScanScheduler(workers=0).scan_one(_tiny_request(ckpt))
        assert record.fingerprint == fingerprint_model(model)

        # Without the kwargs the rebuild fails loudly, not half-restored.
        bare = tmp_path / "bare.npz"
        save_model(model, str(bare),
                   metadata={"model": "basic_cnn", "dataset": "cifar10",
                             "image_size": 12})
        with pytest.raises(CheckpointMismatchError):
            ScanScheduler(workers=0).scan_one(_tiny_request(bare))


    def test_failed_miss_is_a_failure_not_a_served_scan(self, tmp_path):
        # Narrow weights under metadata naming the default architecture:
        # resolution succeeds, the worker raises CheckpointMismatchError.
        model = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=12, rng=np.random.default_rng(42),
                            conv_channels=(4, 8), hidden_dim=16)
        ckpt = tmp_path / "mismatch.npz"
        save_model(model, str(ckpt),
                   metadata={"model": "basic_cnn", "dataset": "cifar10",
                             "image_size": 12})
        scheduler = ScanScheduler(workers=0, telemetry=False)
        with pytest.raises(CheckpointMismatchError):
            scheduler.scan_one(_tiny_request(ckpt))
        snapshot = scheduler.metrics.snapshot()
        assert (snapshot["scans_served"], snapshot["cache_misses"],
                snapshot["failures"]) == (0, 0, 1)

    def test_unresolvable_request_counts_one_failure(self, tmp_path):
        bare = tmp_path / "bare.npz"
        _save_tiny(bare, seed=16, metadata=False)
        scheduler = ScanScheduler(workers=0, telemetry=False)
        with pytest.raises(ValueError, match="metadata"):
            scheduler.scan_one(_tiny_request(bare))
        snapshot = scheduler.metrics.snapshot()
        assert (snapshot["scans_served"], snapshot["cache_misses"],
                snapshot["failures"]) == (0, 0, 1)

    @pytest.mark.parametrize("overrides", [
        {"classes": ()},
        {"classes": (0, 10)},
        {"classes": (-1, 0, 1)},
        {"scenario": SCENARIO_SOURCE_CONDITIONAL, "source_classes": (12,)},
    ], ids=["empty", "past_the_end", "negative", "source"])
    def test_bad_class_list_fails_at_resolution(self, tmp_path, overrides):
        # cifar10 has 10 classes; a list the detector cannot scan must fail
        # once while resolving, before any job is dispatched or retried.
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=17)
        scheduler = ScanScheduler(workers=0, telemetry=False)
        with pytest.raises(ValueError, match="classes"):
            scheduler.scan([_tiny_request(ckpt, **overrides)])
        assert scheduler.cache_misses == 0
        snapshot = scheduler.metrics.snapshot()
        assert (snapshot["scans_served"], snapshot["failures"]) == (0, 1)


# ---------------------------------------------------------------------- #
# Fleet dispatch through the scheduler
# ---------------------------------------------------------------------- #
def _micro_config():
    scale = ExperimentScale(models_per_case=1, samples_per_class=6, test_per_class=4,
                            image_size=12, epochs=1, clean_budget=10,
                            usb_iterations=2, baseline_iterations=2, uap_passes=1,
                            detection_class_limit=3)
    return ExperimentConfig(
        name="micro", dataset="mnist", model="basic_cnn",
        cases=(CaseSpec("clean"),
               CaseSpec("badnet_3x3", AttackSpec("badnet", patch_size=3))),
        detectors=("usb",), scale=scale)


class TestFleetDispatch:
    def test_scheduler_fleet_matches_serial(self, tmp_path):
        config = _micro_config()
        serial = run_experiment(config, seed=3)
        store = ResultStore(str(tmp_path / "fleet.jsonl"))
        parallel = run_experiment(
            config, seed=3, scheduler=ScanScheduler(store=store, workers=2),
            checkpoint_dir=str(tmp_path / "ckpts"))
        assert serial.rows() == parallel.rows()
        # one store record per (model, detector), fingerprinted
        assert len(store) == 2
        assert all(len(r.fingerprint) == 64 for r in store)
        # workers persisted scannable, metadata-tagged checkpoints
        saved = sorted(os.listdir(tmp_path / "ckpts"))
        assert saved == ["micro_badnet_3x3_m0.npz", "micro_clean_m0.npz"]
        _, meta = load_checkpoint(str(tmp_path / "ckpts" / saved[1]))
        assert meta["model"] == "basic_cnn" and meta["dataset"] == "mnist"
        # parallel path returns light summaries, not whole models
        assert all(isinstance(t, FleetModelSummary)
                   for case in parallel.cases for t in case.trained)

    def test_serial_scheduler_fallback(self):
        config = _micro_config()
        inline = run_experiment(config, seed=3, scheduler=ScanScheduler(workers=0))
        assert inline.rows() == run_experiment(config, seed=3).rows()


class TestOneScanDefinition:
    """Experiments scan their checkpoints with ordinary service requests."""

    def test_plain_scan_of_an_experiment_checkpoint_is_a_hit(self, tmp_path):
        config = _micro_config()
        store = ResultStore(str(tmp_path / "exp.jsonl"))
        result = run_experiment(
            config, seed=3, scheduler=ScanScheduler(store=store, telemetry=False),
            checkpoint_dir=str(tmp_path / "ckpts"))
        summary = result.cases[1].trained[0]
        # The request a user would write by hand for this checkpoint.
        request = ScanRequest(checkpoint=summary.checkpoint, detector="usb",
                              classes=(0, 1, 2), clean_budget=10,
                              samples_per_class=6, iterations=2, uap_passes=1,
                              seed=summary.seed)
        assert case_scan_requests(config, config.cases[1], summary.checkpoint,
                                  summary.seed) == [request]
        scheduler = ScanScheduler(store=store, telemetry=False)
        [record] = scheduler.scan([request])
        assert record.cache_hit
        assert scheduler.cache_hits == 1 and scheduler.cache_misses == 0
        assert record.fingerprint == summary.fingerprint

    def test_rerun_serves_every_scan_from_the_store(self, tmp_path):
        config = replace(_micro_config(), detectors=("usb", "nc"))
        store = ResultStore(str(tmp_path / "exp.jsonl"))
        first = run_experiment(
            config, seed=3, scheduler=ScanScheduler(store=store, telemetry=False))
        scheduler = ScanScheduler(store=store, telemetry=False)
        second = run_experiment(config, seed=3, scheduler=scheduler)
        scans = (len(config.cases) * config.scale.models_per_case
                 * len(config.detectors))
        assert scheduler.cache_hits == scans and scheduler.cache_misses == 0
        assert len(store) == scans
        assert second.rows() == first.rows()

    def test_mega_table_is_one_pooled_job(self):
        config = replace(_micro_config(), inversion_mode="mega",
                         detectors=("usb", "nc"))
        calls = []

        class RecordingBackend(InlineBackend):
            def run(self, fn, payloads, **kwargs):
                calls.append((fn, list(payloads)))
                return super().run(fn, payloads, **kwargs)

        result = run_experiment(config, seed=3, scheduler=ScanScheduler(
            backend=RecordingBackend(), telemetry=False))
        scan_calls = [(fn, payloads) for fn, payloads in calls
                      if fn is not run_case_model_job]
        assert [fn for fn, _ in scan_calls] == [execute_mega_group]
        [[group]] = [payloads for _, payloads in scan_calls]
        assert len(group) == len(result.rows())
        checkpoints = {summary.checkpoint for case in result.cases
                       for summary in case.trained}
        assert {item.request.checkpoint for item in group} == checkpoints
        assert len(checkpoints) == len(config.cases)

    def test_repair_sweep_verdict_before_is_the_table_verdict(self):
        config = replace(_micro_config(), detectors=("usb", "nc"))
        table = run_experiment(config, seed=3)
        rows = run_repair_sweep(config, seed=3, plan=RepairPlan(
            unlearning=UnlearningConfig(epochs=1), rescan=False))
        expected = [
            (name, "BACKDOORED" if summary.records[0].detection.is_backdoored
             else "clean")
            for name, summary in table.cases[1].summaries.items()]
        assert [(row["method"], row["verdict_before"]) for row in rows] \
            == expected
        # Both verdicts occur, so the comparison is not vacuous.
        assert {verdict for _, verdict in expected} == {"BACKDOORED", "clean"}


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCLI:
    def test_scan_then_cache_hit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "m.npz", seed=31)
        args = ["scan", "m.npz", "--detector", "usb", "--classes", "0,1,2",
                "--iterations", "2", "--clean-budget", "10",
                "--samples-per-class", "3"]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "computed in" in first
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert (tmp_path / "scan_results" / "store.json").exists()

    def test_grid_and_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "a.npz", seed=32)
        _save_tiny(tmp_path / "b.npz", seed=33)
        assert cli_main(["grid", "a.npz", "b.npz", "--detectors", "usb,nc",
                         "--classes", "0,1,2", "--iterations", "2",
                         "--clean-budget", "10", "--samples-per-class", "3",
                         "--store", "g.jsonl"]) == 0
        out = capsys.readouterr().out
        assert sum(line.rstrip().endswith("miss") for line in out.splitlines()) == 4
        assert "misses=4" in out
        assert cli_main(["report", "--store", "g.jsonl"]) == 0
        report = capsys.readouterr().out
        assert "4 record(s)" in report
        assert cli_main(["report", "--store", "g.jsonl", "--detector", "nc"]) == 0
        assert "2 record(s)" in capsys.readouterr().out

    def test_scan_json_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _save_tiny(tmp_path / "m.npz", seed=34)
        assert cli_main(["scan", "m.npz", "--classes", "0,1", "--iterations", "2",
                         "--clean-budget", "10", "--samples-per-class", "3",
                         "--no-store", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1 and payload[0]["detector"] == "USB"

    def test_pool_grid_keeps_the_worker_error_type(self, tmp_path, capsys,
                                                   monkeypatch):
        # Narrow weights under metadata naming the default architecture:
        # each pool child raises CheckpointMismatchError, which must come
        # back as that ValueError (the CLI's clean-error path), not a
        # generic RuntimeError.
        monkeypatch.chdir(tmp_path)
        model = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=12, rng=np.random.default_rng(43),
                            conv_channels=(4, 8), hidden_dim=16)
        save_model(model, "mismatch.npz",
                   metadata={"model": "basic_cnn", "dataset": "cifar10",
                             "image_size": 12})
        assert cli_main(["grid", "mismatch.npz", "--detectors", "usb,nc",
                         "--workers", "2", "--no-store", "--classes", "0,1,2",
                         "--iterations", "2", "--clean-budget", "10",
                         "--samples-per-class", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_checkpoint_is_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["scan", "missing.npz", "--no-store"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_empty_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["report", "--store", "none.jsonl"]) == 0
        assert "no records" in capsys.readouterr().out

    def test_format_scan_records_empty(self):
        assert format_scan_records([]) == "(no scan records)"
