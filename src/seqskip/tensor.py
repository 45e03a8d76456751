"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 for gradient
checking). Every differentiable op records a closure that routes the
incoming gradient to its parents; ``Tensor.backward`` walks the recorded
graph once in reverse topological order, dropping each closure once it
has run: a second backward through the same graph raises. Ops that
receive only non-gradient inputs skip the tape entirely, and so does
every op inside ``no_grad()``: inference builds no graph state beyond
the output arrays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    __slots__ = ("data", "grad", "grad_buffer", "requires_grad", "_parents", "_grad_fn",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None, grad_buffer=None):
        """A leaf's gradients accumulate in ``grad_buffer``, shaped and typed like the
        data, which ``grad`` then is: the first is written, later ones are added."""
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
        self.grad_buffer = grad_buffer

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- autodiff ------------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate gradients of every reachable tensor that requires them.

        Only a scalar (size-1) tensor may seed a backward pass, once per graph.
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
                node._grad_fn = _spent  # frees what the closure held


def _spent(g):  # a node's backward once it has run: a second would add its gradient again
    raise ContractError("backward has run through this graph")


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else DEFAULT_DTYPE))


_grad_enabled = True


@contextmanager
def no_grad():
    """Record nothing inside: every op returns a leaf, parameters included.

    Usable as a decorator. The previous setting comes back on exit, also
    when the block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.grad_buffer = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    buf = t.grad_buffer
    if buf is not None and g.shape == buf.shape and g.dtype == buf.dtype:
        if t.grad is None:  # written, not added to zeros: a -0.0 keeps its sign
            np.copyto(buf, g)
            t.grad = buf
            return
        if t.grad is buf:
            buf += g
            return
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
    """Batched matrix product with numpy broadcasting over leading axes.

    A 2-d right operand (a weight matrix) against a deeper left one is
    one GEMM over the left operand's flattened leading axes, forward and
    backward: its gradient is ``a2.T @ g2``, never a per-batch
    ``[..., K, M]`` stack summed away.
    """
    a = as_tensor(a)
    b = as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError("matmul operands must have at least 2 dimensions")
    if b.ndim == 2 and a.ndim > 2:
        return _matmul_rows(a, b)
    data = a.data @ b.data

    def grad_fn(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accum(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accum(b, _unbroadcast(gb, b.shape))

    return _result(data, (a, b), grad_fn)


def _matmul_rows(a: Tensor, b: Tensor) -> Tensor:
    """``[..., K] @ [K, M]`` as one ``[N, K] @ [K, M]`` GEMM."""
    k, m = b.shape
    if a.shape[-1] != k:
        raise ConfigurationError(f"matmul shapes {a.shape} and {b.shape} do not align")
    lead = a.shape[:-1]
    a2 = a.data.reshape(math.prod(lead), k)
    data = (a2 @ b.data).reshape(lead + (m,))

    def grad_fn(g):
        g2 = g.reshape(-1, m)
        if a.requires_grad:
            _accum(a, (g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accum(b, a2.T @ g2)

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


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function of a plain array.

    With ``e = exp(-|x|)``, ``max(e, x >= 0) / (1 + e)`` is ``1 / (1 + e^-x)``
    for x >= 0 and ``e^x / (1 + e^x)`` below: the exponent is never positive,
    and one exponential serves both numerator and denominator. Its bytes are
    those of ``exp(min(x, 0)) / (1 + exp(-|x|))``, whose numerator is that
    same ``e`` for x < 0 and 1 otherwise. It avoids ``np.where``, whose
    data-dependent select costs more than the arithmetic on random signs.
    """
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = sigmoid_array(a.data)

    def grad_fn(g):
        _accum(a, g * data * (1.0 - data))

    return _result(data, (a,), grad_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def grad_fn(g):
        _accum(a, g * (a.data > 0))

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
