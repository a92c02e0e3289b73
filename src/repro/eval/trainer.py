"""Training and evaluation loops for clean and backdoored models.

The trainer supports both static attacks (poison once, then train normally)
and dynamic attacks (IAD: per-batch poisoning plus a generator update).  It
reports the two headline numbers every table in the paper lists per model:
clean accuracy and attack success rate (ASR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..attacks.base import BackdoorAttack
from ..data.dataset import DataLoader, Dataset
from ..data.transforms import Compose, RandomCrop, RandomHorizontalFlip, RandomNoise
from ..nn import functional as F
from ..nn.layers import Module
from ..nn.optim import SGD, Adam
from ..nn.tensor import Tensor, no_grad
from ..obs.logging import get_logger

__all__ = ["TrainingConfig", "TrainedModel", "Trainer",
           "evaluate_accuracy", "evaluate_asr"]

_LOG = get_logger("repro.eval.trainer")


@dataclass
class TrainingConfig:
    """Hyperparameters for model training.

    The paper's TrojanZoo defaults are batch_size=96, lr=0.01, epochs=50; the
    reproduction defaults are scaled down for CPU but overridable per
    experiment.
    """

    epochs: int = 8
    batch_size: int = 32
    lr: float = 2e-3
    momentum: float = 0.9
    weight_decay: float = 0.0
    optimizer: str = "adam"
    augment: bool = False
    noise_std: float = 0.05
    label_smoothing: float = 0.0

    def __post_init__(self) -> None:
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'.")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive.")


@dataclass
class TrainedModel:
    """A trained model together with its evaluation summary."""

    model: Module
    clean_accuracy: float
    attack_success_rate: Optional[float]
    attack: Optional[BackdoorAttack]
    is_backdoored: bool
    history: List[float] = field(default_factory=list)
    seed: Optional[int] = None


def evaluate_accuracy(model: Module, dataset: Dataset, batch_size: int = 128) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``."""
    if len(dataset) == 0:
        return 0.0
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start:start + batch_size]
            labels = dataset.labels[start:start + batch_size]
            preds = model(Tensor(images)).data.argmax(axis=1)
            correct += int((preds == labels).sum())
    return correct / len(dataset)


def evaluate_asr(model: Module, dataset: Dataset, attack: BackdoorAttack,
                 batch_size: int = 128,
                 rng: Optional[np.random.Generator] = None) -> float:
    """Attack success rate: fraction of triggered victims sent where the attack maps them.

    Victim selection and the expected poisoned label are delegated to the
    attack's scenario: all-to-one counts non-target samples landing on the
    target, source-conditional counts only source-class victims, and
    all-to-all scores each sample against its shifted label ``(y+1) mod K``.
    """
    rng = rng or np.random.default_rng()
    mask = attack.victim_mask(dataset.labels)
    images = dataset.images[mask]
    expected = attack.expected_labels(dataset.labels[mask])
    if len(images) == 0:
        return 0.0
    model.eval()
    hits = 0
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start:start + batch_size]
            triggered = attack.apply_trigger(batch, rng)
            preds = model(Tensor(triggered)).data.argmax(axis=1)
            hits += int((preds == expected[start:start + batch_size]).sum())
    return hits / len(images)


class Trainer:
    """Trains clean or backdoored models according to a :class:`TrainingConfig`."""

    def __init__(self, config: TrainingConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self._rng = rng or np.random.default_rng()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def train_clean(self, model: Module, train_set: Dataset, test_set: Dataset,
                    seed: Optional[int] = None) -> TrainedModel:
        """Train ``model`` on clean data and evaluate clean accuracy."""
        history = self._fit(model, train_set, attack=None)
        accuracy = evaluate_accuracy(model, test_set)
        return TrainedModel(model=model, clean_accuracy=accuracy,
                            attack_success_rate=None, attack=None,
                            is_backdoored=False, history=history, seed=seed)

    def train_backdoored(self, model: Module, train_set: Dataset, test_set: Dataset,
                         attack: BackdoorAttack,
                         seed: Optional[int] = None) -> TrainedModel:
        """Run the attack's hooks, train, and evaluate clean accuracy + ASR."""
        attack.prepare(model, train_set, self._rng)
        if attack.dynamic:
            history = self._fit(model, train_set, attack=attack)
        else:
            poisoned, summary = attack.poison_dataset(train_set, self._rng)
            _LOG.debug("%s poisoned %d/%d samples", attack.name,
                       summary.poisoned_count, summary.total_count)
            history = self._fit(model, poisoned, attack=None)
        accuracy = evaluate_accuracy(model, test_set)
        asr = evaluate_asr(model, test_set, attack, rng=self._rng)
        return TrainedModel(model=model, clean_accuracy=accuracy,
                            attack_success_rate=asr, attack=attack,
                            is_backdoored=True, history=history, seed=seed)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _build_optimizer(self, model: Module):
        cfg = self.config
        if cfg.optimizer == "adam":
            return Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        return SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum,
                   weight_decay=cfg.weight_decay)

    def _build_augmentation(self) -> Optional[Compose]:
        transforms: list = []
        if self.config.augment:
            transforms.extend([
                RandomCrop(padding=2, rng=self._rng),
                RandomHorizontalFlip(p=0.5, rng=self._rng),
            ])
        if self.config.noise_std > 0:
            # Additive noise prevents per-sample memorization of the poisoned
            # images, forcing the model to learn the trigger shortcut — the
            # regime the paper's GPU-scale training reaches through sheer data
            # volume (see DESIGN.md §2).
            transforms.append(RandomNoise(std=self.config.noise_std, rng=self._rng))
        if not transforms:
            return None
        return Compose(transforms)

    def _fit(self, model: Module, train_set: Dataset,
             attack: Optional[BackdoorAttack]) -> List[float]:
        cfg = self.config
        optimizer = self._build_optimizer(model)
        augment = self._build_augmentation()
        loader = DataLoader(train_set, batch_size=cfg.batch_size, shuffle=True,
                            rng=self._rng)
        history: List[float] = []
        model.train()
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            batches = 0
            for images, labels in loader:
                if augment is not None:
                    images = augment(images)
                if attack is not None and attack.dynamic:
                    attack.attack_step(model, images, labels, self._rng)
                    images, labels = attack.poison_batch(images, labels, self._rng)
                    model.train()
                logits = model(Tensor(images))
                loss = F.cross_entropy(logits, labels,
                                       label_smoothing=cfg.label_smoothing)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            history.append(epoch_loss / max(batches, 1))
        return history
