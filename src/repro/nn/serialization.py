"""Saving and loading model state dictionaries as ``.npz`` archives.

Checkpoints are plain ``.npz`` files mapping parameter/buffer names to
arrays.  A checkpoint may additionally carry a JSON metadata record (model
name, dataset family, image size, provenance) under the reserved
:data:`METADATA_KEY` entry; the scanning service (:mod:`repro.service`) uses
it so ``python -m repro scan checkpoint.npz`` can rebuild the right
architecture from the file alone.  Metadata is never part of the model state:
:func:`load_state_dict` strips it, and the service's content-addressed
fingerprint covers only the tensors.

:func:`load_model` validates the checkpoint against the target module before
touching any parameter — missing keys, unexpected keys, and shape mismatches
all raise a single :class:`CheckpointMismatchError` listing every problem.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from .layers import Module

__all__ = [
    "METADATA_KEY",
    "CheckpointMismatchError",
    "save_state_dict",
    "load_state_dict",
    "load_checkpoint",
    "save_model",
    "load_model",
    "validate_state_dict",
]

#: Reserved archive entry holding the checkpoint's JSON metadata record.
METADATA_KEY = "__repro_meta__"


class CheckpointMismatchError(ValueError):
    """A checkpoint's keys or shapes do not match the target module."""


def save_state_dict(state: Dict[str, np.ndarray], path: str,
                    metadata: Optional[Dict[str, Any]] = None) -> None:
    """Serialize a state dict to ``path`` (``.npz``), with optional metadata."""
    if METADATA_KEY in state:
        raise ValueError(f"'{METADATA_KEY}' is reserved for checkpoint metadata.")
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    arrays = dict(state)
    if metadata is not None:
        arrays[METADATA_KEY] = np.array(json.dumps(metadata, sort_keys=True))
    np.savez_compressed(path, **arrays)


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state_dict`."""
    state, _ = load_checkpoint(path)
    return state


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load ``(state_dict, metadata)`` from ``path``.

    Metadata is ``{}`` for checkpoints written without one (including every
    pre-metadata checkpoint, which this loader still reads unchanged).
    """
    metadata: Dict[str, Any] = {}
    state: Dict[str, np.ndarray] = {}
    with np.load(path, allow_pickle=False) as archive:
        for key in archive.files:
            if key == METADATA_KEY:
                metadata = json.loads(str(archive[key]))
            else:
                state[key] = archive[key]
    return state, metadata


def validate_state_dict(model: Module, state: Dict[str, np.ndarray],
                        source: str = "checkpoint") -> None:
    """Check ``state`` against ``model.state_dict()`` and raise on mismatch.

    Collects *all* problems — missing keys, unexpected keys, and shape
    mismatches — into one :class:`CheckpointMismatchError` so a wrong
    architecture is diagnosed in a single pass.
    """
    expected = model.state_dict()
    missing = sorted(set(expected) - set(state))
    unexpected = sorted(set(state) - set(expected))
    mismatched = [
        f"{key}: {source} has {state[key].shape}, model expects {expected[key].shape}"
        for key in sorted(set(expected) & set(state))
        if tuple(state[key].shape) != tuple(expected[key].shape)
    ]
    if not (missing or unexpected or mismatched):
        return
    lines = [f"State dict from {source} does not match "
             f"{type(model).__name__} ({len(expected)} entries expected)."]
    if missing:
        lines.append(f"  missing keys ({len(missing)}): {', '.join(missing[:8])}"
                     + (" ..." if len(missing) > 8 else ""))
    if unexpected:
        lines.append(f"  unexpected keys ({len(unexpected)}): {', '.join(unexpected[:8])}"
                     + (" ..." if len(unexpected) > 8 else ""))
    if mismatched:
        lines.append(f"  shape mismatches ({len(mismatched)}):")
        lines.extend(f"    {entry}" for entry in mismatched[:8])
        if len(mismatched) > 8:
            lines.append("    ...")
    raise CheckpointMismatchError("\n".join(lines))


def save_model(model: Module, path: str,
               metadata: Optional[Dict[str, Any]] = None) -> None:
    """Save ``model.state_dict()`` (plus optional metadata) to ``path``."""
    save_state_dict(model.state_dict(), path, metadata=metadata)


def load_model(model: Module, path: str) -> Module:
    """Load parameters from ``path`` into ``model`` (in place) and return it.

    The checkpoint is validated against the module *before* any parameter is
    written, so a mismatched architecture fails cleanly instead of leaving
    the model half-restored.
    """
    state = load_state_dict(path)
    validate_state_dict(model, state, source=path)
    model.load_state_dict(state)
    return model
