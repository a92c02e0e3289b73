"""``repro.nn`` — a NumPy-based neural-network substrate with autograd.

This package replaces PyTorch for the reproduction: it provides tensors with
reverse-mode automatic differentiation, convolutional/pooling/normalization
layers, losses, optimizers and serialization.  See ``DESIGN.md`` for the
substitution rationale.

When :mod:`repro.nn.tensor` loads, it raises glibc's mmap/trim thresholds
so that the large activation temporaries produced by mega-batch forwards
are served from the reusable heap instead of being mmap'd and returned to
the kernel on every free — without this, batches beyond ~1 MB per
intermediate hit a page-fault cliff that makes per-sample cost ~5x worse.
Every autograd path imports the tensor module first, so the tuning is in
place before the first forward; reading a checkpoint alone
(:mod:`repro.nn.serialization`, what a cache hit runs) neither tunes nor
loads :mod:`ctypes`.  Set ``REPRO_NO_MALLOC_TUNING=1`` to disable.

Thread tuning is not done on import: :mod:`repro.nn.blas` exposes
``share_cores(n)``, which executors running side by side on one host
(``pool`` children, fleet workers) call to shrink their OpenBLAS pool to
one ``n``-th of the cores.  Single-process paths keep the full pool.

Importing the package loads none of its submodules: each name in
``__all__`` resolves from the submodule that defines it on first access
(:mod:`repro._lazy`), so reading a checkpoint
(:mod:`repro.nn.serialization`) does not compile the autograd kernels.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "functional": "functional", "init": "init",
    "Tensor": "tensor", "concatenate": "tensor", "stack": "tensor",
    "where": "tensor", "no_grad": "tensor", "enable_grad": "tensor",
    "is_grad_enabled": "tensor",
    "Module": "layers", "Parameter": "layers", "Sequential": "layers",
    "Linear": "layers", "Conv2d": "layers", "BatchNorm1d": "layers",
    "BatchNorm2d": "layers", "ReLU": "layers", "LeakyReLU": "layers",
    "SiLU": "layers", "Sigmoid": "layers", "Tanh": "layers",
    "MaxPool2d": "layers", "AvgPool2d": "layers",
    "AdaptiveAvgPool2d": "layers", "Flatten": "layers", "Dropout": "layers",
    "Identity": "layers",
    "CrossEntropyLoss": "losses", "MSELoss": "losses", "NLLLoss": "losses",
    "Optimizer": "optim", "SGD": "optim", "Adam": "optim",
    "save_model": "serialization", "load_model": "serialization",
    "load_checkpoint": "serialization",
    "validate_state_dict": "serialization",
    "CheckpointMismatchError": "serialization",
    "save_state_dict": "serialization", "load_state_dict": "serialization",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
