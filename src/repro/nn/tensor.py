"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` neural-network substrate.  A ``Tensor`` wraps a NumPy array and
records the operations applied to it so that gradients can be computed with a
single call to :meth:`Tensor.backward`.

The design follows the classic "define-by-run" tape approach used by PyTorch:
every differentiable operation returns a new ``Tensor`` whose ``_backward``
closure knows how to push the upstream gradient to its parents.  Gradients are
accumulated into ``Tensor.grad`` as plain NumPy arrays.

Only the operations required by the reproduction (CNN forward/backward,
mask/trigger optimization, SSIM, DeepFool input gradients) are implemented,
but the set is general enough to express arbitrary feed-forward networks.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np


def _tune_allocator() -> bool:
    """Raise glibc malloc thresholds so big NumPy temporaries recycle pages.

    Runs once, when this module loads (see :mod:`repro.nn`);
    ``REPRO_NO_MALLOC_TUNING=1`` turns it off.
    """
    if os.environ.get("REPRO_NO_MALLOC_TUNING"):
        return False
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        threshold = 512 * 1024 * 1024
        m_mmap_threshold, m_trim_threshold = -3, -1
        return bool(libc.mallopt(m_mmap_threshold, threshold)
                    and libc.mallopt(m_trim_threshold, threshold))
    except (OSError, AttributeError):  # non-glibc platform: nothing to tune
        return False


_ALLOCATOR_TUNED = _tune_allocator()

ArrayLike = Union[np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.float32

#: Global autograd switch.  When ``False`` (inside a :func:`no_grad` block),
#: operations do not record the tape: no backward closures are constructed and
#: no parent references are kept, so eval-only forwards run at minimal cost.
_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd tape."""
    return _GRAD_ENABLED


class _GradMode:
    """Context manager toggling global gradient recording (reentrant)."""

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._previous: Optional[bool] = None

    def __enter__(self) -> "_GradMode":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = self._enabled
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def no_grad() -> _GradMode:
    """Disable autograd recording inside a ``with`` block.

    Used by every inference-only call site (accuracy / ASR / success-rate /
    targeted-error-rate evaluation): forwards inside the block build no
    ``_backward`` closures and track no parents, which both skips allocation
    and lets intermediate activations be freed as soon as possible.
    """
    return _GradMode(False)


def enable_grad() -> _GradMode:
    """Re-enable autograd recording inside a ``with`` block (inverse of :func:`no_grad`)."""
    return _GradMode(True)


def _as_array(data: ArrayLike, dtype=_DEFAULT_DTYPE) -> np.ndarray:
    """Coerce ``data`` to a NumPy array of the default floating dtype."""
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting expands operands during the forward pass; the backward
    pass must sum gradients over the broadcast dimensions to recover the
    gradient of the original (smaller) operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float32`` by default.
    requires_grad:
        If ``True``, operations involving this tensor are recorded and
        :meth:`backward` will populate :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the single scalar value held by this tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a new tensor with copied data, outside the autograd graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a graph node from ``data`` produced by ``parents``.

        Inside a :func:`no_grad` block the node is detached: no parents and no
        backward closure are retained regardless of the parents' flags.
        """
        requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Gradient arrays are treated as immutable once handed over (no code in
        the engine mutates a received gradient in place), so the first
        accumulation stores the array without a defensive copy — one full
        pass saved per graph node — and later fan-in accumulations combine
        out-of-place.
        """
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("Called backward() on a tensor that does not require grad.")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors.")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological ordering of the graph reachable from ``self``.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    # NOTE: binary-op backwards below only *compute* a side's product when that
    # side requires a gradient — with frozen models (detection loops) half of
    # these full-size temporaries would otherwise be built and thrown away.

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Only scalar exponents are supported.")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * (self.data ** (exponent - 1)))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self, eps: float = 1e-12) -> "Tensor":
        out_data = np.log(self.data + eps)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (self.data + eps))

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self, eps: float = 1e-12) -> "Tensor":
        out_data = np.sqrt(self.data + eps)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / (out_data + eps))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        with np.errstate(over="ignore"):  # exp overflow saturates to 0/1
            out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def clamp(self, min_value: Optional[float] = None,
              max_value: Optional[float] = None) -> "Tensor":
        """Clamp values to ``[min_value, max_value]`` (straight-through inside range)."""
        lo = -np.inf if min_value is None else min_value
        hi = np.inf if max_value is None else max_value
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def maximum(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = np.maximum(self.data, other.data)
        self_wins = self.data >= other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * self_wins)
            if other.requires_grad:
                other._accumulate(grad * (~self_wins))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            else:
                if not keepdims:
                    grad_arr = np.expand_dims(grad_arr, axis=axis)
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            self._accumulate(expanded)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.data.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions by ``padding`` on each side."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(padding, padding), (padding, padding)]
        out_data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            slices = tuple(
                slice(None) for _ in range(self.data.ndim - 2)
            ) + (slice(padding, -padding), slice(padding, -padding))
            self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # Basic indexing (ints/slices) selects disjoint elements, so the
        # backward scatter is a plain strided assignment; only fancy (array)
        # indexing can repeat elements and needs the unbuffered np.add.at.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(p, (int, slice, type(None), type(Ellipsis)))
                    for p in parts)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if basic:
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None,
              requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(_DEFAULT_DTYPE),
                      requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate ``tensors`` along ``axis`` with gradient support."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slices = [slice(None)] * grad.ndim
            slices[axis] = slice(start, end)
            tensor._accumulate(grad[tuple(slices)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack ``tensors`` along a new ``axis`` with gradient support."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        split = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, split):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * condition)
        if b.requires_grad:
            b._accumulate(grad * (~condition))

    return Tensor._make(out_data, (a, b), backward)
