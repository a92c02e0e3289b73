"""``repro.nn`` — a NumPy-based neural-network substrate with autograd.

This package replaces PyTorch for the reproduction: it provides tensors with
reverse-mode automatic differentiation, convolutional/pooling/normalization
layers, losses, optimizers and serialization.  See ``DESIGN.md`` for the
substitution rationale.

On import the package raises glibc's mmap/trim thresholds so that the large
activation temporaries produced by mega-batch forwards are served from the
reusable heap instead of being mmap'd and returned to the kernel on every
free — without this, batches beyond ~1 MB per intermediate hit a page-fault
cliff that makes per-sample cost ~5x worse.  Set ``REPRO_NO_MALLOC_TUNING=1``
to disable.

Thread tuning is not done on import: :mod:`repro.nn.blas` exposes
``share_cores(n)``, which executors running side by side on one host
(``pool`` children, fleet workers) call to shrink their OpenBLAS pool to
one ``n``-th of the cores.  Single-process paths keep the full pool.
"""

import ctypes as _ctypes
import os as _os


def _tune_allocator() -> bool:
    """Raise glibc malloc thresholds so big NumPy temporaries recycle pages."""
    if _os.environ.get("REPRO_NO_MALLOC_TUNING"):
        return False
    try:
        libc = _ctypes.CDLL("libc.so.6")
        threshold = 512 * 1024 * 1024
        m_mmap_threshold, m_trim_threshold = -3, -1
        return bool(libc.mallopt(m_mmap_threshold, threshold)
                    and libc.mallopt(m_trim_threshold, threshold))
    except (OSError, AttributeError):  # non-glibc platform: nothing to tune
        return False


_ALLOCATOR_TUNED = _tune_allocator()

from . import functional
from . import init
from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    SiLU,
    Tanh,
)
from .losses import CrossEntropyLoss, MSELoss, NLLLoss
from .optim import SGD, Adam, Optimizer
from .serialization import (
    CheckpointMismatchError,
    load_checkpoint,
    load_model,
    load_state_dict,
    save_model,
    save_state_dict,
    validate_state_dict,
)
from .tensor import (
    Tensor,
    concatenate,
    enable_grad,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)

__all__ = [
    "functional",
    "init",
    "Tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "SiLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "CrossEntropyLoss",
    "MSELoss",
    "NLLLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "save_model",
    "load_model",
    "load_checkpoint",
    "validate_state_dict",
    "CheckpointMismatchError",
    "save_state_dict",
    "load_state_dict",
]
