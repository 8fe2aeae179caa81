"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the foundation of the :mod:`repro.nn` framework: a
:class:`Tensor` wraps an ``np.ndarray`` and records the operations applied
to it so that :meth:`Tensor.backward` can propagate gradients through the
computation graph with a single topological sweep.

The implementation follows the vectorization idioms of the scientific-Python
optimization guide: every backward rule is expressed as whole-array NumPy
operations (broadcast-aware reductions, ``einsum``/``matmul`` contractions,
``np.add.at`` scatter-adds) — there are no per-element Python loops on the
hot path.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_policy",
]

# ---------------------------------------------------------------------------
# global autograd switch (mirrors torch.no_grad semantics)
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction.

    Inside the context every new :class:`Tensor` op produces a constant
    (``requires_grad=False``) result, which keeps inference cheap and
    allocation-free beyond the raw NumPy work.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether autograd graph recording is currently active."""
    return _GRAD_ENABLED


# ---------------------------------------------------------------------------
# dtype policy
# ---------------------------------------------------------------------------

# float64 is the training default (tight finite-difference gradient checks);
# serving paths can opt into float32 for half the memory traffic.
_DEFAULT_DTYPE = np.dtype(np.float64)
_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> None:
    """Set the dtype new Tensors are materialized in (float32 or float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _ALLOWED_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dt}")
    _DEFAULT_DTYPE = dt


def get_default_dtype() -> np.dtype:
    """The dtype used when coercing raw data into Tensors."""
    return _DEFAULT_DTYPE


class dtype_policy:
    """Context manager that temporarily switches the default Tensor dtype.

    ``with dtype_policy(np.float32): ...`` is the serving configuration:
    inputs are materialized in single precision, halving memory bandwidth
    on the inference fast paths (pair with :meth:`Module.to_dtype`).
    """

    def __init__(self, dtype) -> None:
        self._dtype = dtype

    def __enter__(self) -> "dtype_policy":
        self._prev = get_default_dtype()
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._prev)


# ---------------------------------------------------------------------------
# broadcasting helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape``.

    NumPy broadcasting may have expanded an operand along leading axes or
    along singleton dimensions; the adjoint of broadcasting is summation
    over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # sum over extra leading axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over broadcast singleton axes
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=_DEFAULT_DTYPE)
    return arr


_BASIC_INDEX_TYPES = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic_index(idx) -> bool:
    """True when ``idx`` is pure basic indexing (ints/slices/None/Ellipsis).

    Basic indexing selects each source element at most once, so the adjoint
    is plain slice assignment — no ``np.add.at`` scatter needed.
    """
    if isinstance(idx, tuple):
        return all(isinstance(i, _BASIC_INDEX_TYPES) for i in idx)
    return isinstance(idx, _BASIC_INDEX_TYPES)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray`` (float64 is used throughout —
        forecasting workloads are tiny compared to vision, and double
        precision makes the finite-difference gradient checks tight).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = "") -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build the result Tensor of an op, wiring the graph if needed."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce ``value`` to a Tensor (constants get ``requires_grad=False``)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- basic introspection ---------------------------------------------------

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    # -- gradient accumulation -------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # always copy: the incoming buffer may be a view of (or alias)
            # another node's gradient, and we mutate self.grad in place below
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (a scalar loss passes ``None``). Gradients
        accumulate into ``.grad`` of every reachable leaf with
        ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # iterative topological order (avoids recursion limits on long BPTT chains)
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
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # interior nodes don't need to retain grad; free memory eagerly
                if node._parents and node is not self:
                    node.grad = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __sub__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) - self

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                )

        return Tensor._from_op(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(log(x) * y)")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data

        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            # handle the 1-D corner cases of np.matmul explicitly
            ad, bd = a.data, b.data
            if a.requires_grad:
                if ad.ndim == 1 and bd.ndim == 1:
                    ga = grad * bd
                elif ad.ndim == 1:
                    ga = (np.expand_dims(grad, -2) @ np.swapaxes(bd, -1, -2)).reshape(ad.shape)
                elif bd.ndim == 1:
                    ga = np.expand_dims(grad, -1) @ np.expand_dims(bd, 0)
                else:
                    ga = grad @ np.swapaxes(bd, -1, -2)
                a._accumulate(_unbroadcast(ga, ad.shape))
            if b.requires_grad:
                if ad.ndim == 1 and bd.ndim == 1:
                    gb = grad * ad
                elif bd.ndim == 1:
                    gb = (np.swapaxes(ad, -1, -2) @ np.expand_dims(grad, -1)).reshape(bd.shape)
                elif ad.ndim == 1:
                    gb = np.expand_dims(ad, -1) @ np.expand_dims(grad, -2)
                else:
                    gb = np.swapaxes(ad, -1, -2) @ grad
                b._accumulate(_unbroadcast(gb, bd.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor.ensure(other) @ self

    # -- comparisons (produce plain bool arrays; not differentiable) ---------

    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # -- elementwise nonlinearities -----------------------------------------

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return Tensor._from_op(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return Tensor._from_op(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # numerically stable logistic: exp(-|x|) never overflows, and the
        # where-branches are the exact piecewise expressions (no fancy
        # indexing, which costs more than the arithmetic at these sizes)
        x = self.data
        ex = np.exp(-np.abs(x))
        data = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._from_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(in_shape) for a in axes)
                shape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
                g = g.reshape(shape)
            self._accumulate(np.broadcast_to(g, in_shape).copy())

        return Tensor._from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(in_shape))

        return Tensor._from_op(data, (self,), backward)

    def flatten_from(self, start_axis: int = 1) -> "Tensor":
        """Flatten all axes from ``start_axis`` onward (Keras Flatten)."""
        shape = self.data.shape
        new_shape = shape[:start_axis] + (math.prod(shape[start_axis:]),)
        return self.reshape(*new_shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._from_op(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]
        basic = _is_basic_index(idx)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    full[idx] = grad
                else:
                    np.add.at(full, idx, grad)
                self._accumulate(full)

        return Tensor._from_op(data, (self,), backward)

    # -- static combinators ----------------------------------------------------

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * grad.ndim
                    idx[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(idx)])

        return Tensor._from_op(data, tensors, backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            moved = np.moveaxis(grad, axis, 0)
            for t, g in zip(tensors, moved):
                if t.requires_grad:
                    t._accumulate(g)

        return Tensor._from_op(data, tensors, backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a, b = Tensor.ensure(a), Tensor.ensure(b)
        cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
        data = np.where(cond, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.where(cond, grad, 0.0), a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.where(cond, 0.0, grad), b.data.shape))

        return Tensor._from_op(data, (a, b), backward)
