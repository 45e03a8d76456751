"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 for gradient
checking). Every differentiable op records a closure that routes the
incoming gradient to its parents; ``Tensor.backward`` walks the recorded
graph once in reverse topological order. Ops that receive only
non-gradient inputs skip the tape entirely, so inference builds no graph
state beyond the output arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.ndarray) and dtype is None:
            arr = data if data.dtype in _FLOAT_DTYPES else data.astype(DEFAULT_DTYPE)
        else:
            arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    # -- introspection -------------------------------------------------

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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- autodiff ------------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        """Populate gradients of every reachable tensor that requires them.

        Only a scalar (size-1) tensor may seed a backward pass.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() needs a scalar root, got shape {self.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._grad_fn is not None and node.grad is not None:
                node._grad_fn(node.grad)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other, self.dtype)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other, self.dtype), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_scalar(self, p)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else DEFAULT_DTYPE))


def _result(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Rebind rather than mutate: incoming arrays may alias a child's grad.
    t.grad = g if t.grad is None else t.grad + g


def fused(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Record one tape node whose backward pass is written by hand.

    ``backward(g)`` returns one gradient per parent, shaped like that
    parent, or None for a parent that needs none. Gradients for parents
    that do not require them are dropped, so ``backward`` may skip work
    by checking ``requires_grad`` itself.
    """

    def grad_fn(g):
        for p, gp in zip(parents, backward(g)):
            if gp is not None and p.requires_grad:
                _accum(p, gp)

    return _result(data, parents, grad_fn)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic --------------------------------------------------------


def add(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        data = a.data + b

        def grad_fn(g):
            _accum(a, g)

        return _result(data, (a,), grad_fn)
    a = as_tensor(a)
    b = as_tensor(b, a.dtype)
    data = a.data + b.data

    def grad_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _result(data, (a, b), grad_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)
    data = -a.data

    def grad_fn(g):
        _accum(a, -g)

    return _result(data, (a,), grad_fn)


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        data = a.data * b

        def grad_fn(g):
            _accum(a, g * b)

        return _result(data, (a,), grad_fn)
    a = as_tensor(a)
    b = as_tensor(b, a.dtype)
    data = a.data * b.data

    def grad_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        return mul(a, 1.0 / b)
    b = as_tensor(b, a.dtype)
    data = a.data / b.data

    def grad_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _result(data, (a, b), grad_fn)


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    a = as_tensor(a)
    b = as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError("matmul operands must have at least 2 dimensions")
    data = a.data @ b.data

    def grad_fn(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accum(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accum(b, _unbroadcast(gb, b.shape))

    return _result(data, (a, b), grad_fn)


def pow_scalar(a, p: float) -> Tensor:
    a = as_tensor(a)
    data = a.data ** p

    def grad_fn(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return _result(data, (a,), grad_fn)


# -- elementwise nonlinearities ---------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def grad_fn(g):
        _accum(a, g * data)

    return _result(data, (a,), grad_fn)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def grad_fn(g):
        _accum(a, g / a.data)

    return _result(data, (a,), grad_fn)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function of a plain array.

    ``exp(min(x, 0)) / (1 + exp(-|x|))`` is ``1 / (1 + e^-x)`` for
    x >= 0 and ``e^x / (1 + e^x)`` below: neither exponent is positive.
    It avoids ``np.where``, whose data-dependent select costs more than
    the arithmetic on random signs.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = sigmoid_array(a.data)

    def grad_fn(g):
        _accum(a, g * data * (1.0 - data))

    return _result(data, (a,), grad_fn)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def grad_fn(g):
        _accum(a, g * (1.0 - data * data))

    return _result(data, (a,), grad_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def grad_fn(g):
        _accum(a, g * (a.data > 0))

    return _result(data, (a,), grad_fn)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through inside the range."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)

    def grad_fn(g):
        _accum(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _result(data, (a,), grad_fn)


# -- shape manipulation ------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def grad_fn(g):
        _accum(a, g.reshape(a.shape))

    return _result(data, (a,), grad_fn)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        _accum(a, np.transpose(g, inverse))

    return _result(data, (a,), grad_fn)


def swap_axes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    axes = list(range(a.ndim))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return transpose(a, axes)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape)

    def grad_fn(g):
        _accum(a, _unbroadcast(g, a.shape))

    return _result(data, (a,), grad_fn)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def grad_fn(g):
        start = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, start + n)
                _accum(p, g[tuple(idx)])
            start += n

    return _result(data, tuple(parts), grad_fn)


def pad_axis(a, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad one axis."""
    a = as_tensor(a)
    if before == 0 and after == 0:
        return a
    width = [(0, 0)] * a.ndim
    width[axis] = (before, after)
    data = np.pad(a.data, width)

    def grad_fn(g):
        idx = [slice(None)] * g.ndim
        stop = g.shape[axis] - after if after else None
        idx[axis] = slice(before, stop)
        _accum(a, g[tuple(idx)])

    return _result(data, (a,), grad_fn)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = a.data[idx]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _result(data, (a,), grad_fn)


# -- reductions --------------------------------------------------------


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.shape))

    return _result(np.asarray(data), (a,), grad_fn)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.shape[i] for i in axis]))
    else:
        n = a.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)
