"""Layer primitives: convolutions, normalizations, gating, attention, losses.

All functions are pure: parameters arrive as tensors, nothing is stored.
The causal stacks run channels-last, ``[T, C]`` or ``[batch, T, C]``
(:func:`conv1d_cl`, ``channel_norm(axis=-1)``), like attention inputs
``[..., positions, features]``; :func:`conv1d` and :func:`instance_norm`
take channels-first ``[C, T]`` or ``[batch, C, T]``. Convolutions, norms
and gates each record one tape node with a hand-written backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, EvaluationError, MaskingError, ValidationError
from .tensor import Tensor

CAUSAL = "causal"
NONCAUSAL = "noncausal"

_MASK_FILL = -1e9


@dataclass(frozen=True)
class Conv1dSpec:
    """Static description of a 1-d convolution."""

    in_channels: int
    out_channels: int
    kernel_size: int
    dilation: int = 1
    padding_mode: str = CAUSAL

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_size, self.dilation) < 1:
            raise ConfigurationError(f"conv spec fields must be positive: {self}")
        if self.padding_mode not in (CAUSAL, NONCAUSAL):
            raise ConfigurationError(f"unknown padding_mode {self.padding_mode!r}")

    @property
    def receptive_field(self) -> int:
        return 1 + self.dilation * (self.kernel_size - 1)


def _conv_taps(spec: Conv1dSpec, t_len: int) -> list[tuple[int, int, int, int]]:
    """(tap, first row, stop row, input offset) for every tap that reads inside [0, T).

    Output row t of tap j reads input row t + offset; rows whose input
    falls in the zero padding are left out, and so are taps that read
    padding only (wide dilations on short timelines).
    """
    total = spec.dilation * (spec.kernel_size - 1)
    left = total if spec.padding_mode == CAUSAL else total // 2
    taps = []
    for j in range(spec.kernel_size):
        off = j * spec.dilation - left
        lo, hi = max(0, -off), min(t_len, t_len - off)
        if lo < hi:
            taps.append((j, lo, hi, off))
    return taps


def conv1d_cl(x: Tensor, spec: Conv1dSpec, weights: Tensor, bias: Tensor | None = None) -> Tensor:
    """Channels-last dilated 1-d convolution preserving the temporal length.

    ``x`` is ``[T, C_in]`` or ``[B, T, C_in]``; the output is
    ``[..., T, C_out]``. Causal mode pads ``dilation * (kernel_size - 1)``
    zeros on the past side only, so output row t reads input rows <= t.
    Noncausal mode splits the same amount of padding across both sides
    (symmetric for odd kernels).

    The k shifted taps of every position are written into one zeroed
    ``[B*T, k*C_in]`` buffer (im2col), so the conv is a single GEMM
    against the ``[k*C_in, C_out]`` weight matrix and its backward two.
    It records one tape node.
    """
    expected = (spec.out_channels, spec.in_channels, spec.kernel_size)
    if tuple(weights.shape) != expected:
        raise ConfigurationError(
            f"conv weights shape {tuple(weights.shape)} does not match spec {expected}"
        )
    if x.ndim not in (2, 3) or x.shape[-1] != spec.in_channels:
        raise ConfigurationError(
            f"channels-last conv input shape {tuple(x.shape)} incompatible with "
            f"{spec.in_channels} input channels"
        )
    t_len = x.shape[-2]
    if t_len == 0:
        raise ValidationError("conv1d input has temporal length 0")
    if bias is not None and tuple(bias.shape) != (spec.out_channels,):
        raise ConfigurationError(f"conv bias shape {tuple(bias.shape)} != ({spec.out_channels},)")

    k, c_in, c_out = spec.kernel_size, spec.in_channels, spec.out_channels
    lead = x.shape[:-2]
    xd = x.data
    if k == 1:
        taps = []
        cols = xd.reshape(-1, c_in)
    else:
        taps = _conv_taps(spec, t_len)
        buf = np.zeros(lead + (t_len, k, c_in), dtype=xd.dtype)
        for j, lo, hi, off in taps:
            buf[..., lo:hi, j, :] = xd[..., lo + off : hi + off, :]
        cols = buf.reshape(-1, k * c_in)
    # wmat[j*C_in + c, o] = weights[o, c, j], matching the buffer's column order
    wmat = weights.data.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out = cols @ wmat
    if bias is not None:
        out = out + bias.data
    out = out.reshape(lead + (t_len, c_out))

    def backward(g):
        g2 = g.reshape(-1, c_out)
        gx = gw = gb = None
        if x.requires_grad:
            gcols = g2 @ wmat.T
            if k == 1:
                gx = gcols.reshape(x.shape)
            else:
                gcols = gcols.reshape(lead + (t_len, k, c_in))
                gx = np.zeros_like(xd, dtype=gcols.dtype)
                for j, lo, hi, off in taps:
                    gx[..., lo + off : hi + off, :] += gcols[..., lo:hi, j, :]
        if weights.requires_grad:
            gw = (cols.T @ g2).reshape(k, c_in, c_out).transpose(2, 1, 0)
        if bias is not None and bias.requires_grad:
            gb = g2.sum(axis=0)
        return gx, gw, gb

    parents = (x, weights) if bias is None else (x, weights, bias)
    return T.fused(out, parents, backward)


def conv1d(x: Tensor, spec: Conv1dSpec, weights: Tensor, bias: Tensor | None = None) -> Tensor:
    """Channels-first :func:`conv1d_cl`: ``[C, T]`` or ``[B, C, T]`` in and out.

    Transposes around the channels-last kernel, so both layouts share one
    convolution and one set of shape checks.
    """
    if x.ndim not in (2, 3):
        raise ConfigurationError(
            f"conv input shape {tuple(x.shape)} incompatible with {spec.in_channels} input channels"
        )
    out = conv1d_cl(T.swap_axes(x, -1, -2), spec, weights, bias)
    return T.swap_axes(out, -1, -2)


def activation(kind: str, x: Tensor) -> Tensor:
    if kind == "sigmoid":
        return T.sigmoid(x)
    if kind == "relu":
        return T.relu(x)
    if kind == "tanh":
        return T.tanh(x)
    raise ConfigurationError(f"unknown activation {kind!r}")


def _axis_sum(a: np.ndarray, axis: int, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (times ``b``, broadcast) over one axis, kept as size 1.

    einsum runs several times faster than ``ufunc.reduce`` over the short
    channel and time axes of these stacks, and fuses the product.
    """
    keep = list(a.shape)
    keep[axis] = 1
    if axis % a.ndim != a.ndim - 1:
        a = np.moveaxis(a, axis, -1)
        b = None if b is None else np.moveaxis(b, axis, -1)
    total = np.einsum("...i->...", a) if b is None else np.einsum("...i,...i->...", a, b)
    return total.reshape(keep)


def _column_sum(a: np.ndarray, axis: int, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (times ``b``, same shape) over every axis but ``axis``."""
    n = a.shape[axis]
    if axis % a.ndim != a.ndim - 1:
        a = np.moveaxis(a, axis, -1)
        b = None if b is None else np.moveaxis(b, axis, -1)
    a = a.reshape(-1, n)
    return np.einsum("ni->i", a) if b is None else np.einsum("ni,ni->i", a, b.reshape(-1, n))


def _norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    epsilon: float,
    axis: int,
    param_axis: int,
    mask: np.ndarray | None,
) -> Tensor:
    """Normalize over ``axis``, then scale and shift along ``param_axis``.

    One tape node with the closed-form backward
    ``dx = inv * (gh - m/n * (sum(gh) + xhat * sum(gh * xhat)))``, where
    ``gh`` is the gradient reaching the normalized values, ``m`` the mask
    (1 everywhere when absent) and ``n`` the number of valid positions.
    The sums run over every position, masked ones included, because
    masked positions still produce output from the shared statistics.
    """
    xd = x.data
    shape = [1] * xd.ndim
    shape[param_axis] = gamma.shape[0]
    g = gamma.data.reshape(shape)
    b = beta.data.reshape(shape)
    if mask is None:
        weight = 1.0 / xd.shape[axis]
        mu = _axis_sum(xd, axis) * weight
        xc = xd - mu
        var = _axis_sum(xc, axis, xc) * weight
    else:
        m = np.asarray(mask, dtype=xd.dtype.type)
        # Binary masks leave sum(m * xc) at zero, which the backward assumes.
        weight = m / np.maximum(m.sum(axis=axis, keepdims=True), 1.0)
        mu = _axis_sum(xd, axis, weight)
        xc = xd - mu
        var = _axis_sum(xc * xc, axis, weight)
    inv = (var + float(epsilon)) ** -0.5
    xhat = xc * inv
    out = xhat * g + b

    def backward(gy):
        gx = gg = gb = None
        if x.requires_grad:
            gh = gy * g
            gx = inv * (gh - weight * (_axis_sum(gh, axis) + xhat * _axis_sum(gh, axis, xhat)))
        if gamma.requires_grad:
            gg = _column_sum(gy, param_axis, xhat)
        if beta.requires_grad:
            gb = _column_sum(gy, param_axis)
        return gx, gg, gb

    return T.fused(out, (x, gamma, beta), backward)


def instance_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    epsilon: float = 1e-5,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Normalize each channel over the temporal axis, then apply gamma/beta.

    Input is channels-first, ``[C, T]`` or ``[B, C, T]``. Statistics use
    the population variance. ``mask`` (1 = valid position, 0 = padding,
    broadcastable to x) restricts statistics to valid positions so padded
    tails do not contaminate them; masked positions still produce output.
    """
    if x.ndim not in (2, 3):
        raise ConfigurationError(f"instance_norm expects [C,T] or [B,C,T], got {tuple(x.shape)}")
    return _norm(x, gamma, beta, epsilon, axis=-1, param_axis=-2, mask=mask)


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor, epsilon: float = 1e-5, axis: int = -2) -> Tensor:
    """Normalize over the channel axis independently at every position.

    Unlike :func:`instance_norm` this mixes no information across time,
    so it is safe inside strictly causal stacks. Channels-last stacks
    pass ``axis=-1``, which reduces over the contiguous axis.
    """
    return _norm(x, gamma, beta, epsilon, axis=axis, param_axis=axis, mask=None)


def gated_block(kind: str, x: Tensor, transform_pre: Tensor, gate_pre: Tensor) -> Tensor:
    """Combine pre-activations of the transform and gate paths in one tape node.

    highway: sigmoid(gate) * relu(transform) + (1 - sigmoid(gate)) * x
    glu:     transform * sigmoid(gate)
    """
    if tuple(transform_pre.shape) != tuple(gate_pre.shape):
        raise ConfigurationError(
            f"transform/gate shapes differ: {tuple(transform_pre.shape)} vs {tuple(gate_pre.shape)}"
        )
    tp = transform_pre.data
    s = T.sigmoid_array(gate_pre.data)
    if kind == "highway":
        if tuple(x.shape) != tuple(transform_pre.shape):
            raise ConfigurationError(
                f"highway carry shape {tuple(x.shape)} != path shape {tuple(transform_pre.shape)}"
            )
        r = np.maximum(tp, 0.0)
        carry = 1.0 - s
        out = s * r + carry * x.data

        def backward(g):
            gs = g * s
            gx = g * carry if x.requires_grad else None
            gt = gs * (tp > 0) if transform_pre.requires_grad else None
            gg = gs * carry * (r - x.data) if gate_pre.requires_grad else None
            return gx, gt, gg

        return T.fused(out, (x, transform_pre, gate_pre), backward)
    if kind == "glu":

        def backward(g):
            gt = g * s if transform_pre.requires_grad else None
            gg = g * tp * s * (1.0 - s) if gate_pre.requires_grad else None
            return gt, gg

        return T.fused(tp * s, (transform_pre, gate_pre), backward)
    raise ConfigurationError(f"unknown gated block kind {kind!r}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # Max subtraction leaves the function (and its gradient) unchanged.
    shift = np.max(x.data, axis=axis, keepdims=True)
    e = T.exp(T.add(x, Tensor(-shift)))
    return T.div(e, T.reduce_sum(e, axis=axis, keepdims=True))


def _split_heads(x: Tensor, heads: int) -> Tensor:
    *lead, n, d = x.shape
    x = T.reshape(x, (*lead, n, heads, d // heads))
    return T.swap_axes(x, -3, -2)


def _merge_heads(x: Tensor) -> Tensor:
    x = T.swap_axes(x, -3, -2)
    *lead, n, h, dh = x.shape
    return T.reshape(x, (*lead, n, h * dh))


def _attention_weights(q: Tensor, k: Tensor, mask: np.ndarray | None, heads: int) -> Tensor:
    """Masked softmax of the scaled scores, ``[..., heads, n, m]`` when heads > 1."""
    mask_arr = None
    if mask is not None:
        mask_arr = np.asarray(mask)
        if not mask_arr.any(axis=-1).all():
            raise MaskingError("attention mask blocks every key for some query row")
        mask_arr = mask_arr.astype(q.dtype.type)
    scale = 1.0 / float(np.sqrt(q.shape[-1] // heads))
    if heads > 1:
        q, k = _split_heads(q, heads), _split_heads(k, heads)
        if mask_arr is not None:
            mask_arr = np.expand_dims(mask_arr, -3)
    scores = T.mul(T.matmul(q, T.swap_axes(k, -1, -2)), scale)
    if mask_arr is not None:
        scores = T.add(T.mul(scores, Tensor(mask_arr)), Tensor(_MASK_FILL * (1.0 - mask_arr)))
    return softmax(scores, axis=-1)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None = None,
    heads: int = 1,
) -> Tensor:
    """Scaled dot-product attention with optional masking and heads.

    ``mask[..., n, m]`` truthy means query row n may attend to key m.
    Rows with no attendable key are rejected. With ``heads > 1`` the key
    and value widths are split per head and outputs re-concatenated.
    """
    dk, dv = q.shape[-1], v.shape[-1]
    if k.shape[-1] != dk or k.shape[-2] != v.shape[-2]:
        raise ConfigurationError("key shape must match query width and value count")
    if heads < 1:
        raise ConfigurationError("heads must be >= 1")
    if heads > 1 and (dk % heads or dv % heads):
        raise ConfigurationError(f"heads={heads} must divide d_k={dk} and d_v={dv}")
    weights = _attention_weights(q, k, mask, heads)
    if heads == 1:
        return T.matmul(weights, v)
    return _merge_heads(T.matmul(weights, _split_heads(v, heads)))


def attention_weights(q: Tensor, k: Tensor, mask: np.ndarray | None = None) -> np.ndarray:
    """Single-head attention weight matrix, for inspection and tests."""
    return _attention_weights(q, k, mask, heads=1).data


# -- losses ------------------------------------------------------------

BCE_EPS = 1e-7


def _masked_mean(values: Tensor, mask: np.ndarray | None) -> Tensor:
    if mask is None:
        if values.size == 0:
            raise EvaluationError("loss over zero elements")
        return T.reduce_mean(values)
    m = np.asarray(mask, dtype=values.dtype.type)
    total = float(m.sum())
    if total <= 0:
        raise EvaluationError("loss mask admits no element")
    return T.mul(T.reduce_sum(T.mul(values, Tensor(m))), 1.0 / total)


def bce(pred: Tensor, target, mask: np.ndarray | None = None) -> Tensor:
    """Mean binary cross entropy over unmasked elements.

    Predictions are clamped to [eps, 1-eps] so saturated sigmoids cannot
    produce log(0).
    """
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=pred.dtype.type)
    p = T.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    pos = T.mul(T.log(p), Tensor(t))
    negt = T.mul(T.log(T.add(1.0, T.neg(p))), Tensor(1.0 - t))
    return _masked_mean(T.neg(T.add(pos, negt)), mask)


def mse(pred: Tensor, target, mask: np.ndarray | None = None) -> Tensor:
    """Mean squared error over unmasked elements."""
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=pred.dtype.type)
    diff = T.add(pred, Tensor(-t))
    return _masked_mean(T.mul(diff, diff), mask)


LOSSES = {"bce": bce, "mse": mse}


def loss(kind: str, pred: Tensor, target, mask: np.ndarray | None = None) -> Tensor:
    try:
        fn = LOSSES[kind]
    except KeyError:
        raise ConfigurationError(f"unknown loss kind {kind!r}") from None
    return fn(pred, target, mask)
