"""Mega-batch parity suite: sequential vs batched vs mega trigger inversion.

The mega engine (``repro.core.mega``) must reach the same verdicts as the
per-model paths: identical flagged classes / flagged pairs on every detector,
anomaly indices within a cascade tolerance (non-finalist cells stop at the
coarse budget, so their norms drift slightly), and — with the cascade
disabled — numerically identical results, because ``mode="batched"`` is the
same work-item pool with the cascade off.  Batched-mode results are pinned
to values recorded with the class-batched optimizer that mode used to run.
"""

import dataclasses

import numpy as np
import pytest

from repro.attacks.base import SCENARIO_SOURCE_CONDITIONAL, scan_pairs_for
from repro.core import (
    CleanActivationCache,
    MegaCascadeConfig,
    MegaPoolConfig,
    MegaTask,
    MegaInversionPool,
    TargetedUAPConfig,
    TriggerMaskOptimizer,
    TriggerOptimizationConfig,
    USBConfig,
    USBDetector,
    detect_mega_fleet,
    run_mega_inversion,
)
from repro.data import make_synthetic_dataset
from repro.defenses import (
    NeuralCleanseConfig,
    NeuralCleanseDetector,
    TaborConfig,
    TaborDetector,
)
from repro.models import BasicCNN
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.optim import Adam

ITERATIONS = 6
#: Non-finalist cells stop at the coarse budget, so their (shrinkage-scaled)
#: norms drift from the full-budget run; verdicts must still agree.
CASCADE_INDEX_TOLERANCE = 2.0


@pytest.fixture(scope="module")
def tiny_setup():
    """A tiny trained model + dataset shared across mega-batch tests."""
    dataset = make_synthetic_dataset(4, 16, 3, 20, seed=3, name="mega-test")
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


def _make_detector(kind, clean, iterations=ITERATIONS, seed=7):
    rng = np.random.default_rng(seed)
    if kind == "usb":
        return USBDetector(clean, USBConfig(
            uap=TargetedUAPConfig(max_passes=1),
            optimization=TriggerOptimizationConfig(iterations=iterations)),
            rng=rng)
    if kind == "nc":
        return NeuralCleanseDetector(clean, NeuralCleanseConfig(
            optimization=TriggerOptimizationConfig(iterations=iterations,
                                                   ssim_weight=0.0)), rng=rng)
    return TaborDetector(clean, TaborConfig(
        optimization=TriggerOptimizationConfig(
            iterations=iterations, ssim_weight=0.0, mask_tv_weight=0.002,
            outside_pattern_weight=0.002)), rng=rng)


DETECTOR_KINDS = ("usb", "nc", "tabor")


class TestModeParity:
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_flagged_classes_identical_across_modes(self, tiny_setup, kind):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        results = {}
        for mode in ("sequential", "batched", "mega"):
            detector = _make_detector(kind, clean)
            results[mode] = detector.detect(model, classes=range(4), mode=mode)
        for mode in ("batched", "mega"):
            assert (results[mode].flagged_classes
                    == results["sequential"].flagged_classes)
            diffs = [abs(results[mode].anomaly_indices[c]
                         - results["sequential"].anomaly_indices[c])
                     for c in results["sequential"].anomaly_indices]
            assert max(diffs) <= CASCADE_INDEX_TOLERANCE
        assert results["mega"].metadata.get("mega") == 1.0
        assert results["batched"].metadata.get("mega") == 0.0

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_mega_matches_batched_exactly_without_cascade(self, tiny_setup,
                                                          kind):
        # With the cascade disabled every cell runs its full budget in the
        # pool, which is what batched mode runs — the anomaly indices must
        # agree to float tolerance, not just in verdict.
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        batched = _make_detector(kind, clean).detect(model, classes=range(4),
                                                     mode="batched")
        detector = _make_detector(kind, clean)
        detector.mega_cascade = MegaCascadeConfig(enabled=False)
        mega = detector.detect(model, classes=range(4), mode="mega")
        assert mega.flagged_classes == batched.flagged_classes
        for cls in batched.anomaly_indices:
            assert mega.anomaly_indices[cls] == pytest.approx(
                batched.anomaly_indices[cls], abs=1e-5)

    def test_single_class_falls_back_to_sequential(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        detector = _make_detector("usb", clean)
        result = detector.detect(model, classes=[1], mode="mega")
        assert len(result.triggers) == 1
        assert result.metadata.get("mega") == 0.0


class TestPairModeParity:
    def test_flagged_pairs_identical_across_modes(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        pairs = scan_pairs_for(SCENARIO_SOURCE_CONDITIONAL, [0, 1, 2, 3],
                               source_classes=(1, 2))
        results = {}
        for mode in ("sequential", "batched", "mega"):
            detector = _make_detector("usb", clean)
            results[mode] = detector.detect(model, pairs=pairs, mode=mode)
        for mode in ("batched", "mega"):
            assert (results[mode].flagged_pairs
                    == results["sequential"].flagged_pairs)
            assert (set(results[mode].pair_anomaly_indices)
                    == set(results["sequential"].pair_anomaly_indices))
        assert results["mega"].metadata.get("mega") == 1.0


class TestFleet:
    def _models(self):
        models = []
        for seed in (11, 12):
            model = BasicCNN(in_channels=3, num_classes=4, image_size=16,
                             conv_channels=(6, 12), hidden_dim=32,
                             rng=np.random.default_rng(seed))
            model.eval()
            model.requires_grad_(False)
            models.append(model)
        return models

    def test_fleet_matches_per_model_mega(self, tiny_setup):
        _, dataset = tiny_setup
        clean = dataset.subset(range(16))
        models = self._models()
        jobs = [(_make_detector("usb", clean), m, list(range(4)))
                for m in models]
        cache = CleanActivationCache()
        fleet = detect_mega_fleet(jobs, cache=cache)
        assert len(fleet) == len(models)
        for model, pooled in zip(models, fleet):
            solo = _make_detector("usb", clean).detect(model,
                                                       classes=range(4),
                                                       mode="mega")
            assert pooled.flagged_classes == solo.flagged_classes
            assert pooled.metadata.get("fleet") == 1.0
        # The clean forward of the shared image pool is computed once per
        # model and reused by the UAP stage across jobs.
        stats = cache.stats()
        assert stats["hits"] >= 1

    def test_fleet_pools_pair_scans_across_models(self, tiny_setup):
        _, dataset = tiny_setup
        clean = dataset.subset(range(16))
        models = self._models()
        pairs = scan_pairs_for(SCENARIO_SOURCE_CONDITIONAL, [0, 1, 2, 3],
                               source_classes=(1, 2))
        jobs = [(_make_detector("usb", clean), model, None, pairs)
                for model in models]
        fleet = detect_mega_fleet(jobs)
        assert len(fleet) == len(models)
        for model, pooled in zip(models, fleet):
            solo = _make_detector("usb", clean).detect(model, pairs=pairs,
                                                       mode="mega")
            assert pooled.flagged_pairs == solo.flagged_pairs
            assert (set(pooled.pair_anomaly_indices)
                    == set(solo.pair_anomaly_indices))
            assert pooled.metadata.get("fleet") == 1.0
            assert pooled.metadata.get("pair_mode") == 1.0

    def test_fleet_mixes_detectors(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        jobs = [(_make_detector("usb", clean), model, list(range(4))),
                (_make_detector("nc", clean), model, list(range(4)))]
        stats = {}
        results = detect_mega_fleet(jobs, stats=stats)
        assert [r.detector for r in results] == ["USB", "NC"]
        assert stats["tasks"] == 2
        for result, kind in zip(results, ("usb", "nc")):
            solo = _make_detector(kind, clean).detect(model, classes=range(4),
                                                      mode="mega")
            assert result.flagged_classes == solo.flagged_classes


class TestPoolMechanics:
    def test_pool_matches_sequential_oracle_on_every_loss_term(self,
                                                               tiny_setup):
        # SSIM, mask L1, mask TV and outside-pattern terms all switched on:
        # every pool cell must follow its own sequential trajectory.
        model, dataset = tiny_setup
        images = dataset.images[:16]
        config = TriggerOptimizationConfig(
            iterations=5, ssim_weight=1.0, mask_l1_weight=0.01,
            mask_tv_weight=0.002, outside_pattern_weight=0.002)
        rng = np.random.default_rng(3)
        inits = [TriggerMaskOptimizer.random_init(images.shape[1:], rng)
                 for _ in range(4)]
        reference = [
            TriggerMaskOptimizer(model, images, target, config).optimize(*init)
            for target, init in enumerate(inits)]
        task = MegaTask(model, images, [0, 1, 2, 3], inits, config)
        [results] = run_mega_inversion(
            [task], cascade=MegaCascadeConfig(enabled=False))
        for ref, got in zip(reference, results):
            np.testing.assert_allclose(got.pattern, ref.pattern, atol=1e-5)
            np.testing.assert_allclose(got.mask, ref.mask, atol=1e-5)
            assert got.iterations == ref.iterations
            assert got.success_rate == pytest.approx(ref.success_rate)
            assert got.final_loss == pytest.approx(ref.final_loss, abs=1e-5)

    def test_in_flight_admission_under_row_cap(self, tiny_setup):
        # Capping active rows below the task's demand forces queued cells to
        # wait; they must be admitted as running cells finish, not dropped.
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        detector = _make_detector("usb", clean)
        detector.mega_pool = MegaPoolConfig(max_active_rows=16)
        result = detector.detect(model, classes=range(4), mode="mega")
        assert len(result.triggers) == 4
        stats = detector.last_mega_stats
        assert stats["items"] == 4
        assert stats["in_flight_admissions"] >= 1

    def test_cascade_extends_finalists(self, tiny_setup):
        model, dataset = tiny_setup
        clean = dataset.subset(range(16))
        detector = _make_detector("usb", clean, iterations=12)
        result = detector.detect(model, classes=range(4), mode="mega")
        stats = detector.last_mega_stats
        assert stats["finalists"] >= 1
        assert stats["resubmissions"] == stats["finalists"]
        # Finalists reach the full budget; non-finalists stop at the coarse
        # budget (20% of 12, floored at 4 -> 4 iterations).
        iteration_counts = sorted(t.iterations for t in result.triggers)
        assert iteration_counts[0] == 4
        assert iteration_counts[-1] == 12


#: ``mode="batched"`` scans recorded with the class-batched optimizer this
#: mode ran on before it moved onto the work-item pool: per scan, the anomaly
#: index of every cell (classes in order, pairs in ``scan_pairs_for`` order)
#: and every cell's success rate.  ``ten`` is a 10-class scan whose K·B rows
#: exceed the pool's default row cap.
CLASS_BATCHED_PINS = {
    ("usb", "classic"): (
        [0.0, 0.48942291, 0.85955861, 0.0],
        [0.9375, 0.75, 0.4375, 1.0]),
    ("usb", "pairs"): (
        [0.0, 1.09192732, 0.2475779, 0.0, 4.91828992, 0.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    ("nc", "classic"): (
        [0.0, 0.67939879, 0.0, 0.66958273],
        [0.25, 0.25, 0.1875, 0.375]),
    ("nc", "pairs"): (
        [0.0, 0.99418805, 1.05292308, 0.03487261, 0.0, 0.0],
        [0.0, 0.0, 0.33333333, 0.33333333, 0.0, 0.0]),
    ("tabor", "classic"): (
        [0.0, 0.51723444, 0.0, 1.1754888],
        [0.25, 0.25, 0.1875, 0.375]),
    ("tabor", "pairs"): (
        [0.04740827, 1.08553563, 0.98129428, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.33333333, 0.33333333, 0.0, 0.0]),
    ("usb", "ten"): (
        [0.92024304, 0.0, 0.67966059, 0.66932093, 0.36602593, 0.0, 1.38311534,
         0.0, 0.0, 0.0],
        [0.95, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 0.0, 0.225]),
    ("nc", "ten"): (
        [0.99671595, 0.0, 0.0, 1.26208765, 0.79301515, 0.18126166, 0.0, 0.0,
         0.0, 0.04112865],
        [0.65, 0.0, 0.0, 0.0, 0.0, 0.0, 0.55, 0.0, 0.0, 0.0]),
    ("tabor", "ten"): (
        [1.3452155, 0.0, 0.0, 1.28289661, 0.58636424, 0.29883558, 0.0,
         0.16375289, 0.0, 0.0],
        [0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]),
}

#: Pinned values hold up to BLAS reduction-order drift across platforms.
PIN_TOLERANCE = 1e-5


def _ten_class_setup():
    """An untrained 10-class model on 40 clean images (K·B = 10 x 32 rows)."""
    dataset = make_synthetic_dataset(10, 16, 3, 4, seed=5, name="ten")
    model = BasicCNN(in_channels=3, num_classes=10, image_size=16,
                     conv_channels=(4, 8), hidden_dim=16,
                     rng=np.random.default_rng(6))
    model.eval()
    model.requires_grad_(False)
    return model, dataset


class TestBatchedModePinned:
    def _assert_pinned(self, key, result, iterations):
        anomaly, success = CLASS_BATCHED_PINS[key]
        if result.pair_anomaly_indices:
            got = list(result.pair_anomaly_indices.values())
        else:
            got = [result.anomaly_indices[c]
                   for c in sorted(result.anomaly_indices)]
        np.testing.assert_allclose(got, anomaly, atol=PIN_TOLERANCE)
        np.testing.assert_allclose([t.success_rate for t in result.triggers],
                                   success, atol=PIN_TOLERANCE)
        assert ([t.iterations for t in result.triggers]
                == [iterations] * len(success))

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    @pytest.mark.parametrize("scan", ("classic", "pairs"))
    def test_matches_recorded_class_batched_engine(self, tiny_setup, kind,
                                                   scan):
        model, dataset = tiny_setup
        detector = _make_detector(kind, dataset.subset(range(16)))
        if scan == "classic":
            result = detector.detect(model, classes=range(4), mode="batched")
        else:
            pairs = scan_pairs_for(SCENARIO_SOURCE_CONDITIONAL, [0, 1, 2, 3],
                                   source_classes=(1, 2))
            result = detector.detect(model, pairs=pairs, mode="batched")
        assert result.metadata["batched"] == 1.0
        self._assert_pinned((kind, scan), result, ITERATIONS)

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_ten_classes_admitted_at_once(self, monkeypatch, kind):
        # The service's shape: 10 classes x 32-row batches exceed the pool's
        # default row cap, which would split the scan 8 + 2 and shift its
        # floats.  Batched mode caps rows so every class starts together.
        model, dataset = _ten_class_setup()
        assert 10 * min(32, len(dataset)) > MegaPoolConfig().max_active_rows
        runs = []
        original = MegaInversionPool.run

        def spy(pool):
            original(pool)
            runs.append(dict(pool.stats))

        monkeypatch.setattr(MegaInversionPool, "run", spy)
        result = _make_detector(kind, dataset, iterations=3).detect(model)
        assert [(stats["admissions"], stats["in_flight_admissions"])
                for stats in runs] == [(10, 0)]
        self._assert_pinned((kind, "ten"), result, 3)


class TestCleanActivationCache:
    def test_hit_miss_and_lru_eviction(self):
        calls = []

        def compute(tag, nbytes=100):
            def _inner():
                calls.append(tag)
                return np.zeros(nbytes, dtype=np.uint8)
            return _inner

        cache = CleanActivationCache(max_bytes=250)
        cache.get_or_compute("a", compute("a"))
        cache.get_or_compute("b", compute("b"))
        cache.get_or_compute("a", compute("a"))  # hit, refreshes "a"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        # Inserting a third 100-byte entry exceeds 250: the least recently
        # used entry ("b") is evicted, "a" survives.
        cache.get_or_compute("c", compute("c"))
        assert cache.stats()["evictions"] == 1
        cache.get_or_compute("a", compute("a"))
        assert calls == ["a", "b", "c"]
        cache.get_or_compute("b", compute("b"))
        assert calls == ["a", "b", "c", "b"]

    def test_clean_logits_keyed_by_model_and_images(self, tiny_setup):
        model, dataset = tiny_setup
        images = dataset.images[:8]
        cache = CleanActivationCache()
        first = cache.clean_logits(model, images, model_key="m1",
                                   images_key="x1")
        second = cache.clean_logits(model, images, model_key="m1",
                                    images_key="x1")
        assert second is first
        other = cache.clean_logits(model, images, model_key="m2",
                                   images_key="x1")
        assert other is not first
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_oversized_entry_does_not_wedge_cache(self):
        cache = CleanActivationCache(max_bytes=10)
        value = cache.get_or_compute(
            "big", lambda: np.zeros(1000, dtype=np.uint8))
        assert value.nbytes == 1000
        # The newest entry is kept even when alone over budget; a following
        # insert evicts it rather than growing without bound.
        cache.get_or_compute("next", lambda: np.zeros(8, dtype=np.uint8))
        assert cache.stats()["bytes"] <= 1008


class TestServiceDigest:
    def _checkpoint(self, tmp_path):
        from repro.models import build_model
        from repro.nn.serialization import save_model
        model = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=12, rng=np.random.default_rng(0))
        path = tmp_path / "m.npz"
        save_model(model, str(path), metadata={
            "model": "basic_cnn", "dataset": "cifar10", "image_size": 12})
        return str(path)

    def test_inversion_mode_in_digest_only_when_non_default(self, tmp_path):
        from repro.service.records import ScanRequest
        from repro.service.scheduler import resolve_request

        path = self._checkpoint(tmp_path)
        base = ScanRequest(checkpoint=path, classes=(0, 1, 2),
                           clean_budget=10, samples_per_class=3, iterations=2)
        digests = {}
        for mode in ("batched", "sequential", "mega"):
            request = dataclasses.replace(base, inversion_mode=mode)
            digests[mode] = resolve_request(request).config_digest
        # Three distinct digests: cached verdicts never collide across modes.
        assert len(set(digests.values())) == 3
        # Deterministic: resolving again reproduces the digest.
        again = resolve_request(
            dataclasses.replace(base, inversion_mode="mega")).config_digest
        assert again == digests["mega"]

    def test_request_round_trip_and_validation(self):
        from repro.service.records import ScanRequest

        request = ScanRequest(checkpoint="x.npz", inversion_mode="mega")
        rebuilt = ScanRequest.from_dict(request.to_dict())
        assert rebuilt.inversion_mode == "mega"
        # Payloads written before the field existed default to batched.
        legacy = {k: v for k, v in request.to_dict().items()
                  if k != "inversion_mode"}
        assert ScanRequest.from_dict(legacy).inversion_mode == "batched"
        with pytest.raises(ValueError):
            ScanRequest(checkpoint="x.npz", inversion_mode="bogus")
