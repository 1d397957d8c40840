"""Core reverse-mode autodiff :class:`Tensor`.

The implementation keeps the graph implicitly through parent references and
per-node backward closures.  Gradients are accumulated into ``Tensor.grad``
as plain ``numpy.ndarray`` objects (never Tensors), which keeps the backward
pass allocation-light.

Only ``float32``/``float64`` tensors participate in differentiation; integer
tensors (token ids, masks) flow through the graph as constants.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.tensor import kernels

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Grad mode is per-thread (like torch's): the async serving layer runs
# inference under ``no_grad`` on a background stepping thread while the
# main thread may be training.  A process-global flag would let the two
# threads' enter/exit interleavings corrupt each other (classic lost-update:
# A enters, B enters, A exits, B restores False forever); thread-local
# state makes each thread's inference mode invisible to the others.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode).

    Scoped to the current thread: other threads' gradient recording is
    unaffected.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on this thread currently record gradients."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum the leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype.kind in "fc":
        return arr.astype(dtype, copy=False)
    return arr


class Tensor:
    """A NumPy array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype == np.float64:
            arr = arr.astype(np.float32)
        elif arr.dtype.kind == "i" and arr.dtype != np.int64:
            arr = arr.astype(np.int64)
        elif arr.dtype.kind == "b":
            arr = arr.astype(np.bool_)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward = backward
        self._parents = parents if self.requires_grad or parents else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
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

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python scalar."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error():
        raise ValueError("item() only valid on tensors with exactly one element")

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        name: str = "",
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return cls(data, requires_grad=False)
        return cls(data, requires_grad=True, parents=tuple(parents), backward=backward, name=name)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data, dtype=np.float32)
        else:
            grad = np.asarray(grad, dtype=np.float32)
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float32)

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
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.data.shape))

        return Tensor._from_op(out_data, (self, other_t), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(-grad, other_t.data.shape))

        return Tensor._from_op(out_data, (self, other_t), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._from_op(out_data, (self, other_t), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data**2), other_t.data.shape)
                )

        return Tensor._from_op(out_data, (self, other_t), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(out_data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self.matmul(other_t)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Batched matrix multiplication with broadcasting over leading dims."""
        a, b = self.data, other.data
        out_data = a @ b

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.multiply.outer(grad, b) if a.ndim > 1 else grad * b
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(grad_a), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, grad) if b.ndim > 1 else a * grad
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

        return Tensor._from_op(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._from_op(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward, "relu")

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as used by BERT/GPT)."""
        x = self.data
        out_data, t = kernels.gelu(x)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dinner = kernels.GELU_C * (1.0 + 3 * 0.044715 * x**2)
                d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
                self._accumulate(grad * d)

        return Tensor._from_op(out_data, (self,), backward, "gelu")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._from_op(out_data, (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(a % self.data.ndim for a in axes))
            self._accumulate(np.broadcast_to(g, self.data.shape).astype(np.float32))

        return Tensor._from_op(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad) / count
            if axis is not None and not keepdims:
                axes_ = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(a % self.data.ndim for a in axes_))
            self._accumulate(np.broadcast_to(g, self.data.shape).astype(np.float32))

        return Tensor._from_op(out_data, (self,), backward, "mean")

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, tuple(a % self.data.ndim for a in axes))
                expanded = np.expand_dims(out_data, tuple(a % self.data.ndim for a in axes))
            mask = (self.data == expanded).astype(np.float32)
            # Split the gradient evenly among ties to keep the operation well defined.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / np.maximum(denom, 1.0))

        return Tensor._from_op(out_data, (self,), backward, "max")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original))

        return Tensor._from_op(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).transpose(np.argsort(axes)))

        return Tensor._from_op(out_data, (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(np.asarray(grad), a, b))

        return Tensor._from_op(out_data, (self,), backward, "swapaxes")

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data, dtype=np.float32)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward, "getitem")

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style gather: ``out[..., :] = self[indices, :]``.

        ``indices`` may have any shape; the trailing feature dimension of
        ``self`` is preserved.  Gradient scatters with ``np.add.at``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data, dtype=np.float32)
            np.add.at(full, idx.reshape(-1), np.asarray(grad).reshape(-1, self.data.shape[-1]))
            self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward, "take_rows")

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor where positions with ``mask`` True are set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, np.float32(value), self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.where(mask, 0.0, grad))

        return Tensor._from_op(out_data, (self,), backward, "masked_fill")

    @staticmethod
    def cat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` (differentiable)."""
        tensors = list(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * g.ndim
                    slicer[axis] = slice(int(start), int(stop))
                    tensor._accumulate(g[tuple(slicer)])

        return Tensor._from_op(out_data, tuple(tensors), backward, "cat")

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis (differentiable)."""
        tensors = list(tensors)
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(np.take(g, i, axis=axis))

        return Tensor._from_op(out_data, tuple(tensors), backward, "stack")
