"""The benchmark's model zoo: trained once, gated on its implants, varied per seed.

Six bench-scale models in three shapes, so checkpoint sizes differ: in
each of ``basic_cnn``, ``vgg11`` and a narrow ``basic_cnn``, one model is
BadNet-implanted (at distinct target classes) and one is trained clean.  The
narrow pair exists so that fresh scans are cheap enough for the HTTP
workload to compute eight of them per run.  The zoo is trained once per
checkout and cached under ``.bench_build/``; the
build refuses to finish if any implanted model's held-out attack success
rate is below :data:`MIN_ASR`, and it records the program's own verdicts
for each model (``python -m repro grid``) so the cache-hit workload can
check every served answer against them.

Each run then derives its inputs from the workload seed: the order of
requests, the padding records of its stores, and *variants* of the zoo
models whose weights carry a seeded relative perturbation of ~1e-6 (new
fingerprints, so they miss the cache, with the implant re-checked on every
variant).

The detection settings every request uses are the service defaults plus
``seed=DATA_SEED``: the synthetic dataset family the models were trained
on, which a scan must name to draw its clean images from the same classes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.attacks import BadNetAttack
from repro.data import load_dataset
from repro.eval.trainer import Trainer, TrainingConfig, evaluate_asr
from repro.models import build_model
from repro.nn.serialization import load_checkpoint, save_state_dict
from repro.service.fingerprint import scan_key

#: Dataset family seed shared by training and every scan request.
DATA_SEED = 3
DATASET = "mnist"
IMAGE_SIZE = 16
#: Held-out attack success rate an implanted model must reach.
MIN_ASR = 0.9
#: Relative weight perturbation of a seeded variant.
VARIANT_SCALE = 1e-6
DETECTORS = ("usb", "nc")

#: Narrow ``basic_cnn``: a USB scan takes ~0.6x the full model's.
TINY = {"conv_channels": [4, 8], "hidden_dim": 64}
#: name, architecture, extra model kwargs, BadNet target (None = clean),
#: and the seeds of model init / trainer / trigger pattern.
ZOO_SPEC = (
    ("bd_cnn_t0", "basic_cnn", {}, 0, 12, 14, 13),
    ("bd_vgg_t6", "vgg11", {"base_width": 8}, 6, 13, 15, 14),
    ("clean_cnn", "basic_cnn", {}, None, 14, 16, None),
    ("clean_vgg", "vgg11", {"base_width": 8}, None, 14, 16, None),
    ("bd_tiny_t3", "basic_cnn", TINY, 3, 20, 22, 23),
    ("clean_tiny", "basic_cnn", TINY, None, 24, 26, None),
)
TRAINING = dict(epochs=6, batch_size=32, lr=2e-3)
DATA = dict(samples_per_class=40, test_per_class=30)
BADNET = dict(patch_size=4, poison_rate=0.25, location=(1, 1))


@dataclass(frozen=True)
class Base:
    """One zoo model and its recorded ground truth and verdicts."""

    name: str
    arch: str
    model_kwargs: Dict[str, int]
    target: Optional[int]
    attack_seed: Optional[int]
    path: str
    asr: Optional[float]
    accuracy: float
    #: detector -> the ScanRecord dict the program produced at build time.
    records: Dict[str, dict]

    @property
    def backdoored(self) -> bool:
        return self.target is not None


class ImplantError(RuntimeError):
    """A backdoored checkpoint's held-out ASR is below :data:`MIN_ASR`."""


def _datasets():
    return load_dataset(DATASET, seed=DATA_SEED, image_size=IMAGE_SIZE, **DATA)


def _attack(target: int, attack_seed: int, image_shape) -> BadNetAttack:
    return BadNetAttack(target, image_shape,
                        rng=np.random.default_rng(attack_seed), **BADNET)


def _spec_digest() -> str:
    text = json.dumps([ZOO_SPEC, TRAINING, DATA, BADNET, DATA_SEED, DATASET,
                       IMAGE_SIZE, DETECTORS], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _build(directory: str, env: Dict[str, str]) -> None:
    """Train, gate and scan the zoo into ``directory``."""
    os.makedirs(directory)
    train, test = _datasets()
    manifest = []
    for name, arch, kwargs, target, model_seed, train_seed, attack_seed \
            in ZOO_SPEC:
        model = build_model(arch, num_classes=10, in_channels=1,
                            image_size=IMAGE_SIZE,
                            rng=np.random.default_rng(model_seed), **kwargs)
        trainer = Trainer(TrainingConfig(**TRAINING),
                          rng=np.random.default_rng(train_seed))
        if target is None:
            trained = trainer.train_clean(model, train, test)
        else:
            trained = trainer.train_backdoored(
                model, train, test, _attack(target, attack_seed,
                                            train.image_shape))
        asr = trained.attack_success_rate
        if target is not None and asr < MIN_ASR:
            raise ImplantError(f"zoo model {name}: held-out ASR {asr:.3f} < "
                               f"{MIN_ASR} — the backdoor did not take.")
        path = os.path.join(directory, f"{name}.npz")
        save_state_dict(model.state_dict(), path, metadata={
            "model": arch, "dataset": DATASET, "image_size": IMAGE_SIZE,
            "model_kwargs": kwargs})
        manifest.append({"name": name, "arch": arch, "model_kwargs": kwargs,
                         "target": target, "attack_seed": attack_seed,
                         "file": f"{name}.npz", "asr": asr,
                         "accuracy": trained.clean_accuracy})
    paths = [os.path.join(directory, entry["file"]) for entry in manifest]
    out = subprocess.run(
        [sys.executable, "-m", "repro", "grid", *paths,
         "--detectors", ",".join(DETECTORS), "--seed", str(DATA_SEED),
         "--no-store", "--json"],
        env=env, check=True, capture_output=True, text=True).stdout
    by_path: Dict[str, Dict[str, dict]] = {}
    for record in json.loads(out):
        by_path.setdefault(record["checkpoint"], {})[
            record["detector"].lower()] = record
    for entry, path in zip(manifest, paths):
        entry["records"] = by_path[path]
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)


def load_zoo(cache_root: str, env: Dict[str, str]) -> List[Base]:
    """The cached zoo under ``cache_root``, building it on first use."""
    directory = os.path.join(cache_root, f"zoo-{_spec_digest()}")
    if not os.path.exists(os.path.join(directory, "manifest.json")):
        staging = directory + f".tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        _build(staging, env)
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(staging, directory)
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return [Base(name=e["name"], arch=e["arch"], model_kwargs=e["model_kwargs"],
                 target=e["target"], attack_seed=e["attack_seed"],
                 path=os.path.join(directory, e["file"]), asr=e["asr"],
                 accuracy=e["accuracy"], records=e["records"])
            for e in manifest]


class Materializer:
    """Writes a run's seeded checkpoints and gates every implanted one."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._test = None

    def variant(self, base: Base, path: str) -> str:
        """A seeded near-copy of ``base`` with a fresh fingerprint."""
        state, metadata = load_checkpoint(base.path)
        for key, value in state.items():
            if np.issubdtype(value.dtype, np.floating):
                noise = self.rng.standard_normal(value.shape)
                state[key] = (value * (1.0 + VARIANT_SCALE * noise)
                              ).astype(value.dtype)
        save_state_dict(state, path, metadata=metadata)
        if base.backdoored:
            self.check_implant(base, path)
        return path

    def check_implant(self, base: Base, path: str) -> float:
        """Held-out ASR of the checkpoint at ``path``; raises below the gate."""
        if self._test is None:
            self._test = _datasets()[1]
        model = build_model(base.arch, num_classes=10, in_channels=1,
                            image_size=IMAGE_SIZE, rng=np.random.default_rng(0),
                            **base.model_kwargs)
        state, _ = load_checkpoint(path)
        model.load_state_dict(state)
        asr = evaluate_asr(model, self._test,
                           _attack(base.target, base.attack_seed,
                                   self._test.image_shape))
        if asr < MIN_ASR:
            raise ImplantError(f"{path}: held-out ASR {asr:.3f} < {MIN_ASR}")
        return asr


def filler_records(bases: List[Base], count: int, seed: int) -> List[dict]:
    """``count`` realistic store lines for unrelated models (seeded keys)."""
    rng = np.random.default_rng(seed)
    templates = [record for base in bases for record in base.records.values()]
    rows = []
    for index in range(count):
        row = json.loads(json.dumps(templates[index % len(templates)]))
        fingerprint = rng.bytes(32).hex()
        row.update(fingerprint=fingerprint,
                   key=scan_key(fingerprint, row["detector"],
                                row["config_digest"]),
                   checkpoint=f"fleet/model-{index:05d}.npz")
        rows.append(row)
    return rows
