"""Content-addressed fingerprints for checkpoints and detector configs.

A model fingerprint is a SHA-256 over its state dict: every entry's name,
dtype, shape, and raw bytes, folded in sorted-key order.  Two models with
identical weights therefore fingerprint identically in any process on any
machine, while a single perturbed weight changes the digest — exactly the
property the result store needs to treat "scan this model again" as a cache
hit.  Checkpoint metadata (:data:`repro.nn.serialization.METADATA_KEY`) is
*not* part of the state dict and never affects the fingerprint.

Detector configuration is digested separately (:func:`digest_config`) so the
cache key distinguishes, say, a 40-iteration USB scan from a 500-iteration
one: a scan result is addressed by ``(fingerprint, detector, config_digest)``
via :func:`scan_key`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from ..nn.serialization import load_state_dict

if TYPE_CHECKING:
    from ..nn.layers import Module

__all__ = [
    "fingerprint_state_dict",
    "fingerprint_model",
    "fingerprint_checkpoint",
    "digest_config",
    "scan_key",
]

#: Length of the (hex) detector-config digest kept in scan keys.  16 hex
#: chars = 64 bits, far beyond collision risk for the handful of configs a
#: deployment ever uses, and short enough to keep keys readable.
CONFIG_DIGEST_CHARS = 16


def fingerprint_state_dict(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 hex digest of a state dict's names, dtypes, shapes, and bytes."""
    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(tuple(array.shape)).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def fingerprint_model(model: Module) -> str:
    """Fingerprint a live module via its ``state_dict()``."""
    return fingerprint_state_dict(model.state_dict())


def fingerprint_checkpoint(path: str) -> str:
    """Fingerprint a saved ``.npz`` checkpoint (metadata entry excluded)."""
    return fingerprint_state_dict(load_state_dict(path))


def _canonical(value: Any) -> Any:
    """Reduce configs to a deterministic JSON-able structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def digest_config(config: Any) -> str:
    """Short stable digest of any (nested) dataclass / dict / scalar config."""
    canonical = json.dumps(_canonical(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:CONFIG_DIGEST_CHARS]


def scan_key(fingerprint: str, detector: str, config_digest: str) -> str:
    """Result-store key for one (model, detector, config) scan."""
    return f"{fingerprint}:{detector.lower()}:{config_digest}"
