"""Layer primitives: convolutions, normalizations, gating, attention, losses.

All functions are pure: parameters arrive as tensors, nothing is stored.
Every layer runs channels-last and norms scale and shift the last axis.
Each family lays out a batch in one table, which a forward builds once
and every layer, head and loss that needs the layout reads. A sequence
layer takes a batch's rows ``[N, C]``: sessions one after another, in
time order, then inert rows that nothing real reads. A :class:`Rows`
table says where each row sits in its session, so no conv tap, session
statistic or attention weight of a row reads another session's row;
without a table each ``[T, C]`` of the input is one session. Attention
is the one layer that builds a padded ``[B, T, ...]`` block, inside its
node, as its table plans it. A :class:`Pairs` table says where the metric
family's (support, query) pairs sit. Convolutions, norms, gates, whole
gated conv levels, linear layers with their bias and optional rectifier,
per-session means, the relation layer over (support, query) pairs and the
relation net on them, softmax, multi-head attention and binary cross
entropy on logits each record one tape node with a hand-written backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .dataio import prefix_mask
from .errors import ConfigurationError, EvaluationError, MaskingError, ValidationError
from .tensor import Tensor

CAUSAL = "causal"
NONCAUSAL = "noncausal"

_MASK_FILL = -1e9
NORM_EPSILON = 1e-5  # added to the variance of every norm


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


def _fill(admit: np.ndarray) -> np.ndarray:
    """The additive mask that admits where ``admit`` holds."""
    return np.where(admit, np.float32(0), np.float32(_MASK_FILL))


class Rows:
    """Where each row of a channels-last block sits in its session.

    A layer sees its input as ``[N, C]`` rows, sessions as consecutive
    runs of them in time order: ``time[i]`` is row i's position in its
    session and ``rest[i]`` the number of its session's rows after it;
    ``lengths`` and ``stops`` size and end each session. ``shape`` is the
    leading shape of the inputs the table describes: ``(N,)`` for a batch's
    rows, ``(B, T)`` for a block whose every ``[T, C]`` is one session. The
    first ``sessions`` sessions are real; a :meth:`packed` table's others are
    its inert rows. Each plan below is worked out once per table, so the
    layers of a forward that share the table share it. A conv tap reading
    offset ``o`` is one shifted slice of the whole block, and :meth:`outside`
    lists the rows whose ``time + o`` leaves their session, which read zeros.
    """

    def __init__(self, lengths, shape: tuple[int, ...], sessions: int | None = None):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        self.shape = tuple(shape)
        self.sessions = len(self.lengths) if sessions is None else sessions
        self.stops = np.cumsum(self.lengths)
        n = int(self.lengths.sum())
        if n != int(np.prod(self.shape)):
            raise ConfigurationError(f"sessions of {n} rows do not fill a block of {self.shape}")
        self.time = np.arange(n) - np.repeat(self.stops - self.lengths, self.lengths)
        self.rest = np.repeat(self.lengths - 1, self.lengths) - self.time
        self._outside: dict[int, np.ndarray] = {}

    @classmethod
    def packed(cls, lengths, n: int) -> Rows:
        """The table of ``n`` rows: sessions of ``lengths``, then inert rows of one row each."""
        inert = np.ones(n - int(np.sum(lengths)), np.intp)
        return cls(np.concatenate([lengths, inert]), (n,), len(lengths))

    @classmethod
    def of(cls, x: Tensor, rows: Rows | None) -> Rows:
        """``rows``, checked against ``x [..., C]``; when None, the table whose every
        ``[T, C]`` of ``x`` is one session."""
        lead = tuple(x.shape[:-1])
        if rows is None:
            return cls(np.full(int(np.prod(lead[:-1])), lead[-1]), lead)
        if rows.shape != lead:
            raise ConfigurationError(
                f"row table of a {rows.shape} block does not describe input {tuple(x.shape)}"
            )
        return rows

    @cached_property
    def session_sums(self):
        """:func:`_session_sums` of the table's sessions."""
        return _session_sums(self.lengths)

    @cached_property
    def session(self) -> np.ndarray:
        """``[N]``: each row's session."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)

    @cached_property
    def weight(self) -> np.ndarray:
        """``[N]`` float64: one over the length of each row's session."""
        return np.repeat(1.0 / self.lengths, self.lengths)

    @cached_property
    def block(self) -> tuple:
        """``(real, index, places, fill)``: the padded ``[B, T]`` block of the real sessions
        of a ``(N,)`` table, T the longest, for attention. ``real`` marks their places,
        ``index`` is the row at each place, flat (sessions one after another from row 0, row
        0 at padding) and ``places`` the real places, flat; both are None when every session
        is T long, as the block is then the first rows. ``fill [T, B]`` is the additive
        mask that admits each session's real keys."""
        lengths = self.lengths[: self.sessions]
        real = prefix_mask(lengths)
        t_len = real.shape[1]
        index = places = None
        if not real.all():
            starts = self.stops[: self.sessions] - lengths
            index = np.where(real, starts[:, None] + np.arange(t_len), 0).ravel()
            places = np.flatnonzero(real)
        return real, index, places, _fill(real.T)

    @cached_property
    def causal_fill(self) -> np.ndarray:
        """``[T, 1, B, T]``: the additive mask of :attr:`block` that admits, for each query
        place, the keys up to it, which leave out its session's padding keys."""
        b, t_len = self.block[0].shape
        triangle = _fill(np.arange(t_len)[:, None] <= np.arange(t_len))
        return np.broadcast_to(triangle[:, None, None], (t_len, 1, b, t_len)).copy()

    def outside(self, offset: int) -> np.ndarray:
        if offset not in self._outside:
            leaves = self.time < -offset if offset < 0 else self.rest < offset
            self._outside[offset] = np.flatnonzero(leaves)
        return self._outside[offset]


def _offsets(spec: Conv1dSpec) -> list[int]:
    """The input offset each tap reads: output row t of tap j reads row t + offset."""
    total = spec.dilation * (spec.kernel_size - 1)
    left = total if spec.padding_mode == CAUSAL else total // 2
    return [j * spec.dilation - left for j in range(spec.kernel_size)]


def _span(n: int, offset: int) -> tuple[int, int]:
    """The output rows ``[lo, hi)`` of an ``n``-row block whose input row lies in the block."""
    lo = min(n, max(0, -offset))
    return lo, max(lo, n - max(0, offset))


def _check_conv(x: Tensor, spec: Conv1dSpec, rows: Rows | None, *weights: Tensor) -> Rows | None:
    """Checks the shapes of a conv of each of ``weights`` on ``x`` and returns their row
    table: ``rows``, or one whose sessions fill the block when None and a tap shifts
    (kernel_size > 1)."""
    expected = (spec.out_channels, spec.in_channels, spec.kernel_size)
    for w in weights:
        if tuple(w.shape) != expected:
            raise ConfigurationError(
                f"conv weights shape {tuple(w.shape)} does not match spec {expected}"
            )
    if x.ndim not in (2, 3) or x.shape[-1] != spec.in_channels:
        raise ConfigurationError(
            f"channels-last conv input shape {tuple(x.shape)} incompatible with "
            f"{spec.in_channels} input channels"
        )
    if x.shape[-2] == 0:
        raise ValidationError("conv1d input has temporal length 0")
    return None if rows is None and spec.kernel_size == 1 else Rows.of(x, rows)


def _im2col(x2: np.ndarray, spec: Conv1dSpec, rows: Rows | None) -> tuple[np.ndarray, list]:
    """``[N, k*C_in]`` columns of the k shifted taps of rows ``[N, C_in]``, and each tap's
    ``(offset, lo, hi)``: the rows ``[lo, hi)`` whose input row lies in the block."""
    k, c_in, n = spec.kernel_size, spec.in_channels, len(x2)
    taps = [(off, *_span(n, off)) for off in _offsets(spec)]
    if k == 1:
        return x2, taps
    buf = np.empty((n, k, c_in), dtype=x2.dtype)
    for j, (off, lo, hi) in enumerate(taps):
        buf[lo:hi, j] = x2[lo + off : hi + off]
        if off:
            buf[rows.outside(off), j] = 0  # the rows past [lo, hi) among them
    return buf.reshape(n, k * c_in), taps


def _add_taps(gx2: np.ndarray, gcols: np.ndarray, taps, rows: Rows | None) -> np.ndarray:
    """Add each tap's columns of ``gcols`` onto the rows ``gx2 [N, C_in]`` it read, in place.

    Zeroes ``gcols`` where a tap read outside its session."""
    gcols = gcols.reshape(len(gx2), len(taps), -1)
    for j, (off, lo, hi) in enumerate(taps):
        if off:
            gcols[rows.outside(off), j] = 0
        gx2[lo + off : hi + off] += gcols[lo:hi, j]
    return gx2


def conv1d_cl(x: Tensor, spec: Conv1dSpec, weights: Tensor, bias: Tensor | None = None,
              rows: Rows | None = None) -> Tensor:
    """Channels-last dilated 1-d convolution preserving each session's length.

    ``x`` is ``[T, C_in]``, ``[B, T, C_in]`` or a batch's rows ``[N, C_in]``
    described by ``rows`` (one session per ``[T, C]`` when None); the output is
    ``[..., C_out]``. Causal mode pads ``dilation * (kernel_size - 1)``
    zeros on the past side only, so output row t reads input rows <= t.
    Noncausal mode splits the same amount of padding across both sides
    (symmetric for odd kernels).

    The k shifted taps of every row are written into one ``[N, k*C_in]``
    buffer (im2col), so the conv is a single GEMM against the
    ``[k*C_in, C_out]`` weight matrix and its backward two.
    It records one tape node.
    """
    rows = _check_conv(x, spec, rows, weights)
    if bias is not None and tuple(bias.shape) != (spec.out_channels,):
        raise ConfigurationError(f"conv bias shape {tuple(bias.shape)} != ({spec.out_channels},)")

    k, c_in, c_out = spec.kernel_size, spec.in_channels, spec.out_channels
    cols, taps = _im2col(x.data.reshape(-1, c_in), spec, rows)
    # wmat[j*C_in + c, o] = weights[o, c, j], matching the buffer's column order
    wmat = weights.data.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out = cols @ wmat
    if bias is not None:
        out = out + bias.data
    out = out.reshape(x.shape[:-1] + (c_out,))

    def backward(g):
        g2 = g.reshape(-1, c_out)
        gx = gw = gb = None
        if x.requires_grad:
            gcols = g2 @ wmat.T
            if k == 1:
                gx = gcols.reshape(x.shape)
            else:
                gx2 = np.zeros((len(g2), c_in), dtype=gcols.dtype)
                gx = _add_taps(gx2, gcols, taps, rows).reshape(x.shape)
        if weights.requires_grad:
            gw = (cols.T @ g2).reshape(k, c_in, c_out).transpose(2, 1, 0)
        if bias is not None and bias.requires_grad:
            gb = g2.sum(axis=0)
        return gx, gw, gb

    parents = (x, weights) if bias is None else (x, weights, bias)
    return T.fused(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """``x [..., K] @ weight + bias``, rectified when ``relu``, as one tape node.

    One GEMM over the flattened leading axes; the bias and the rectifier act on
    its output in place, so the node keeps only its input and output. Values
    and gradients are those of ``T.relu(T.add(T.matmul(x, weight), bias))``, bit
    for bit: the backward masks the gradient where the output is not positive.
    """
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0] or bias.shape != weight.shape[1:]:
        raise ConfigurationError(
            f"linear shapes {tuple(x.shape)}, {tuple(weight.shape)}, {tuple(bias.shape)} "
            f"do not align"
        )
    k, m = weight.shape
    x2 = x.data.reshape(-1, k)
    out = x2 @ weight.data
    out += bias.data
    if relu:
        np.maximum(out, 0.0, out=out)
    out = out.reshape(x.shape[:-1] + (m,))

    def backward(g):
        if relu:
            g = g * (out > 0)
        g2 = g.reshape(-1, m)
        gx = (g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if weight.requires_grad else None
        gb = T._unbroadcast(g, bias.shape) if bias.requires_grad else None
        return gx, gw, gb

    return T.fused(out, (x, weight, bias), backward)


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


def _column_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (times ``b``, same shape) over every axis but the last."""
    n = a.shape[-1]
    a = a.reshape(-1, n)
    return np.einsum("ni->i", a) if b is None else np.einsum("ni,ni->i", a, b.reshape(-1, n))


def _session_sums(lengths: np.ndarray):
    """``sums(values)``: each session's sum ``[B, ...]`` of ``values [sum(lengths), ...]``,
    sessions of ``lengths`` rows, each at least one, one after another.

    A session's rows are added in order, as a sum over its padded block adds them, but
    no block is built: ranked longest first, the sessions that reach position t take
    their t-th rows from one contiguous slice of the rows regathered position by
    position. The regathering is worked out once for every ``values`` summed."""
    order = np.argsort(-lengths, kind="stable")
    reach = prefix_mask(lengths[order]).T  # [T, B]: the first ``reached[t]`` ranks reach t
    starts = (np.cumsum(lengths) - lengths)[order]
    index = (starts + np.arange(len(reach))[:, None])[reach]
    reached = reach.sum(axis=1)
    stops = np.cumsum(reached)

    def sums(values: np.ndarray) -> np.ndarray:
        by_position = np.take(values, index, axis=0)
        total = by_position[: len(lengths)].copy()
        for t in range(1, len(reached)):
            total[: reached[t]] += by_position[stops[t - 1] : stops[t]]
        out = np.empty_like(total)
        out[order] = total
        return out

    return sums


def _norm(x: Tensor, gamma: Tensor, beta: Tensor, sums, weight) -> Tensor:
    """Normalize over groups of ``x``'s values, then scale and shift along the last axis.

    ``sums(a, b=None)`` is the sum of ``a`` (times ``b``) over each value's group,
    broadcast back to it, and ``weight`` one over its group's size. One tape node with
    the closed-form backward ``dx = inv * (gh - weight * (sum(gh) + xhat * sum(gh *
    xhat)))``, where ``gh`` is the gradient reaching the normalized values.
    """
    xd = x.data
    g, b = gamma.data, beta.data
    mu = sums(xd) * weight
    xc = xd - mu
    var = sums(xc, xc) * weight
    inv = (var + NORM_EPSILON) ** -0.5
    xhat = xc * inv
    out = xhat * g + b

    def backward(gy):
        gx = gg = gb = None
        if x.requires_grad:
            gh = gy * g
            gx = inv * (gh - weight * (sums(gh) + xhat * sums(gh, xhat)))
        if gamma.requires_grad:
            gg = _column_sum(gy, xhat)
        if beta.requires_grad:
            gb = _column_sum(gy)
        return gx, gg, gb

    return T.fused(out, (x, gamma, beta), backward)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, rows: Rows | None = None) -> Tensor:
    """Normalize each channel over its session's rows, then apply gamma/beta.

    Input is a batch's rows ``[N, C]`` that ``rows`` describes, or ``[T, C]`` or ``[B, T,
    C]`` whose every ``[T, C]`` is one session (``rows`` None). Statistics use the
    population variance and each session's rows only, so the rows after a session
    reach none of its outputs; an inert row of one row is its own session and comes out
    as ``beta``. The per-session sums are those of :func:`session_mean`.
    """
    if x.ndim not in (2, 3):
        raise ConfigurationError(f"instance_norm expects [N,C], [T,C] or [B,T,C], "
                                 f"got {tuple(x.shape)}")
    rows, c = Rows.of(x, rows), x.shape[-1]

    def sums(a, b=None):
        a2 = (a if b is None else a * b).reshape(-1, c)
        return np.take(rows.session_sums(a2), rows.session, axis=0).reshape(a.shape)

    weight = rows.weight.astype(x.dtype).reshape(x.shape[:-1] + (1,))
    return _norm(x, gamma, beta, sums, weight)


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the channel (last) axis independently at every position.

    Unlike :func:`instance_norm` this mixes no information across time,
    so it is safe inside strictly causal stacks.
    """
    return _norm(x, gamma, beta, lambda a, b=None: _axis_sum(a, -1, b), 1.0 / x.shape[-1])


def _gate(kind: str, xd: np.ndarray, tp: np.ndarray, gp: np.ndarray):
    """A gate's output over its branch pre-activations, and ``grads(g, gt, gg)``, which
    writes both branch gradients into ``gt`` and ``gg`` and returns the carry's share of
    the input gradient (None for glu, which has no carry). The gradient reads no view of
    the pre-activations, so a caller may drop the block holding both. Each product and
    sum is the one of ``xd + s * (r - xd)`` and of the gradients written out below,
    operands swapped at most, so computing them in place moves no byte."""
    s = T.sigmoid_array(gp)
    if kind == "highway":
        d = np.maximum(tp, 0.0)
        up = d > 0  # where the relu passes its gradient
        d -= xd  # r - xd
        out = d * s
        out += xd  # xd + s * (r - xd)

        def grads(g, gt, gg):  # reads s, up and d
            gs = g * s
            np.multiply(gs, up, out=gt)
            gd = 1.0 - s
            gd *= gs
            np.multiply(gd, d, out=gg)  # gs * (1 - s) * (r - xd)
            return np.subtract(g, gs, out=gs)  # g * (1 - s)

    elif kind == "glu":
        tp = np.ascontiguousarray(tp)  # a copy of a strided half: the block can go
        out = tp * s

        def grads(g, gt, gg):
            np.multiply(g, s, out=gt)
            np.multiply(gt, tp, out=gg)
            gg *= 1.0 - s  # g * s * tp * (1 - s)
            return None

    else:
        raise ConfigurationError(f"unknown gated block kind {kind!r}")
    return out, grads


def gated_block(kind: str, x: Tensor, transform_pre: Tensor, gate_pre: Tensor) -> Tensor:
    """Combine pre-activations of the transform and gate paths in one tape node.

    highway: sigmoid(gate) * relu(transform) + (1 - sigmoid(gate)) * x
    glu:     transform * sigmoid(gate)
    """
    if tuple(transform_pre.shape) != tuple(gate_pre.shape):
        raise ConfigurationError(
            f"transform/gate shapes differ: {tuple(transform_pre.shape)} vs {tuple(gate_pre.shape)}"
        )
    if kind == "highway" and tuple(x.shape) != tuple(transform_pre.shape):
        raise ConfigurationError(
            f"highway carry shape {tuple(x.shape)} != path shape {tuple(transform_pre.shape)}"
        )
    out, grads = _gate(kind, x.data, transform_pre.data, gate_pre.data)

    def backward(g):
        gt, gg = np.empty_like(out), np.empty_like(out)
        return grads(g, gt, gg), gt, gg

    return T.fused(out, (x, transform_pre, gate_pre), backward)


def gated_level(kind: str, x: Tensor, spec: Conv1dSpec, transform, gate,
                rows: Rows | None = None) -> Tensor:
    """``gated_block(kind, x, t, g)`` with each branch ``channel_norm(conv1d_cl(x, spec, w,
    rows=rows), gamma, beta)`` of its ``(w, gamma, beta)``, as one tape node.

    The width ``C`` does not change. One im2col buffer of ``x`` meets both
    branches' weights, stacked as ``[k*C, 2*C]`` and centred over each branch's outputs, in
    one GEMM whose output is therefore centred per row; both branches are normalized
    at once on a ``[N, 2, C]`` view. In the backward one GEMM gives the input columns,
    which scatter straight into the carry gradient, and one both weights' gradients,
    centred as the weights were.

    Until its backward the node keeps what that reads: the im2col columns (``x``
    itself when k = 1), the normalized ``[N, 2, C]`` block, the gate's sigmoid, and
    for highway the transform's relu less the carry and a one-byte mask of where the
    relu is positive, or for glu a contiguous copy of the transform's pre-activations.
    The ``[N, 2, C]`` pre-activations go when the forward returns. The tape runs a
    backward once, so the backward overwrites the normalized block once it has read it.
    """
    parents = (x, *transform, *gate)
    rows = _check_conv(x, spec, rows, transform[0], gate[0])
    k, c_in, width = spec.kernel_size, spec.in_channels, spec.out_channels
    if width != c_in:
        raise ConfigurationError(f"gated level input width {c_in} != path width {width}")

    def centred(m):  # [..., 2 * width] less each branch's mean
        m3 = m.reshape(-1, 2, width)
        return (m3 - np.add.reduce(m3, axis=-1, keepdims=True) / width).reshape(m.shape)

    w_both, gamma, beta = (np.concatenate([t.data, g.data]) for t, g in zip(transform, gate))
    gamma, beta = gamma.reshape(2, width), beta.reshape(2, width)
    x2 = x.data.reshape(-1, c_in)
    cols, taps = _im2col(x2, spec, rows)
    wmat = centred(w_both.reshape(2, width, c_in, k).transpose(3, 2, 0, 1)
                   .reshape(k * c_in, 2 * width))
    xhat = (cols @ wmat).reshape(-1, 2, width)  # centred already; normalized in place
    inv = (_axis_sum(xhat, -1, xhat) * (1.0 / width) + NORM_EPSILON) ** -0.5
    xhat *= inv
    pre = xhat * gamma
    pre += beta
    out, grads = _gate(kind, x2, pre[:, 0], pre[:, 1])
    shape, dtype = pre.shape, pre.dtype
    del pre  # the gate's grads read no view of it

    def backward(g):
        gpre = np.empty(shape, dtype)
        carry = grads(g.reshape(-1, width), gpre[:, 0], gpre[:, 1])
        g_gamma, g_beta = np.einsum("nbw,nbw->bw", gpre, xhat), np.einsum("nbw->bw", gpre)
        gpre *= gamma  # the gradient reaching xhat
        np.multiply(xhat, _axis_sum(gpre, -1, xhat) * (1.0 / width), out=xhat)  # its last use
        gpre -= xhat
        gpre *= inv  # the gradient reaching the GEMM output
        gz = gpre.reshape(-1, 2 * width)
        gx2 = np.zeros(x2.shape, g.dtype) if carry is None else carry
        _add_taps(gx2, gz @ wmat.T, taps, rows)
        gw = centred(cols.T @ gz).reshape(k, c_in, 2, width).transpose(2, 3, 1, 0)
        return gx2.reshape(x.shape), gw[0], g_gamma[0], g_beta[0], gw[1], g_gamma[1], g_beta[1]

    return T.fused(out.reshape(x.shape[:-1] + (width,)), parents, backward)


def session_mean(values: Tensor, counts) -> Tensor:
    """Each session's mean row ``[B, W]`` of ``values [N, W]``, one tape node.

    Session b's ``counts[b]`` rows follow the rows of the sessions before it, and inert
    rows, which nothing reads, follow them all. A session's rows are summed in order,
    as over its padded ``[B, S, W]`` block, and divided by its count, so each mean has
    the bits of the masked mean over that block; the backward hands every row of a
    session its mean's gradient over the count, and inert rows nothing.
    """
    counts = np.asarray(counts)
    n = int(counts.sum())
    if values.ndim != 2 or n > values.shape[0] or counts.min(initial=1) < 1:
        raise ConfigurationError(f"sessions of {counts.tolist()} rows, each at least one, "
                                 f"do not fit rows {tuple(values.shape)}")
    scale = counts[:, None].astype(values.dtype)
    out = _session_sums(counts)(values.data[:n]) / scale

    def backward(g):
        gv = np.zeros(values.shape, g.dtype)
        gv[:n] = np.repeat(g / scale, counts, axis=0)
        return (gv,)

    return T.fused(out, (values,), backward)


class Pairs:
    """Where each (support, query) pair of a batch sits: session b's ``t_support[b]``
    supports and ``t_query[b]`` queries, each half's rows one session after another,
    meet in a padded ``[B, S, Q]`` grid, S and Q the largest counts. ``support [B, S]``,
    ``query [B, Q]`` and ``real [B, S, Q]`` mark each session's places. A forward builds
    it once, for every pair node it records and for the heads and losses that read it."""

    def __init__(self, t_support, t_query):
        self.t_support, self.t_query = np.asarray(t_support), np.asarray(t_query)
        if (self.t_support.ndim != 1 or self.t_query.shape != self.t_support.shape
                or min(self.t_support.min(initial=0), self.t_query.min(initial=0)) < 0):
            raise ConfigurationError(f"sessions of {self.t_support.tolist()} supports and "
                                     f"{self.t_query.tolist()} queries do not pair")
        self.support, self.query = prefix_mask(self.t_support), prefix_mask(self.t_query)
        self.n_support, self.n_query = int(self.t_support.sum()), int(self.t_query.sum())
        self.real = self.support[:, :, None] & self.query[:, None, :]

    def chunks(self, width: int) -> list:
        """``(sessions, S_c, Q_c)`` per chunk of the pairs, ``sessions`` an index array, each
        chunk padded to ``[len(sessions), S_c, Q_c]``, its largest support and query counts.
        A chunk is as many whole sessions as hold about :data:`PAIR_GROUP_VALUES` values
        ``width`` wide at the batch's largest shape, a multiple of 4 and at least 4. A batch
        of one chunk keeps its order; a larger one is ordered stably by
        ``(t_support, t_query)`` first, so that sessions of like shape share a chunk."""
        (b, s_len, q_len), t_s, t_q = self.real.shape, self.t_support, self.t_query
        group = min(b, max(4, PAIR_GROUP_VALUES // max(1, s_len * q_len * width) // 4 * 4))
        order = np.arange(b) if group == b else np.lexsort((t_q, t_s))
        return [(sessions, int(t_s[sessions].max(initial=0)), int(t_q[sessions].max(initial=0)))
                for sessions in np.split(order, range(group, b, group))]


def _pair_parts(support: Tensor, query: Tensor, labels, weight: Tensor, bias: Tensor, user,
                pairs: Pairs):
    """:func:`pair_linear`'s checked per-support ``[B, S, N]`` and per-query ``[B, Q, N]``
    terms, each session's at its places of ``pairs`` (the places past them are read by
    nothing), its parents, and ``grads(g_s, g_q)`` from the gradient reaching the terms'
    sum, summed over Q (``g_s [B, S, N]``) and over S (``g_q [B, Q, N]``). Each part's
    GEMMs run on its real rows only: a batch of sessions of one shape multiplies the rows
    its padded halves held, so a one-output product (a GEMV, which rounds a tail of fewer
    than 4 rows apart) keeps the bits it had there; inert rows get a zero gradient."""
    ws, wq = support.shape[-1], query.shape[-1]
    wu = 0 if user is None else user.shape[-1]
    n_out = weight.shape[-1]
    if weight.ndim != 2 or weight.shape[0] != ws + wq + 1 + wu:
        raise ConfigurationError(
            f"pair weight shape {tuple(weight.shape)} does not stack parts of widths "
            f"{ws}, {wq}, 1, {wu}"
        )
    if tuple(bias.shape) != (n_out,):
        raise ConfigurationError(f"pair bias shape {tuple(bias.shape)} != ({n_out},)")
    n_s, n_q = pairs.n_support, pairs.n_query
    if (support.ndim != 2 or query.ndim != 2 or np.shape(labels) != support.shape[:1]
            or n_s > support.shape[0] or n_q > query.shape[0]
            or wu and user.shape != (len(pairs.t_support), wu)):
        raise ConfigurationError(
            f"pair parts disagree: support {support.shape}, query {query.shape}, "
            f"labels {np.shape(labels)}, user {None if user is None else user.shape}, "
            f"sessions of {pairs.t_support.tolist()} supports and "
            f"{pairs.t_query.tolist()} queries"
        )

    w = weight.data
    w_s, w_q, w_y, w_u = w[:ws], w[ws : ws + wq], w[ws + wq], w[ws + wq + 1 :]
    y = np.asarray(labels, dtype=w.dtype)[:n_s]
    f_s, f_q = support.data[:n_s], query.data[:n_q]
    # Everything that varies with the support row only, bias included.
    per_row = f_s @ w_s
    per_row += y[:, None] * w_y
    per_row += bias.data
    per_support = np.zeros(pairs.support.shape + (n_out,), per_row.dtype)
    per_support[pairs.support] = per_row
    if user is not None:
        per_support += (user.data @ w_u)[:, None, :]
    per_row = f_q @ w_q
    per_query = np.zeros(pairs.query.shape + (n_out,), per_row.dtype)
    per_query[pairs.query] = per_row
    del per_row
    parents = (support, query, weight, bias) + (() if user is None else (user,))

    def grads(g_s, g_q):  # the gradient reaching the sum, summed over Q and over S
        g_u = g_s.sum(axis=1)  # [B, N]
        g_s2, g_q2 = g_s[pairs.support], g_q[pairs.query]  # [n_s, N], [n_q, N]
        gs = gq = gu = gw = None
        if support.requires_grad:
            gs = np.zeros(support.shape, np.result_type(g_s2, w_s))
            np.matmul(g_s2, w_s.T, out=gs[:n_s])
        if query.requires_grad:
            gq = np.zeros(query.shape, np.result_type(g_q2, w_q))
            np.matmul(g_q2, w_q.T, out=gq[:n_q])
        if user is not None and user.requires_grad:
            gu = g_u @ w_u.T
        if weight.requires_grad:  # each part's rows written in place
            gw = np.empty(w.shape, np.result_type(f_s, f_q, y, g_s2, g_q2))
            np.matmul(f_s.T, g_s2, out=gw[:ws])
            np.matmul(f_q.T, g_q2, out=gw[ws : ws + wq])
            np.matmul(y.reshape(1, -1), g_s2, out=gw[ws + wq : ws + wq + 1])
            if user is not None:
                np.matmul(user.data.T, g_u, out=gw[ws + wq + 1 :])
        gb = g_u.sum(axis=0) if bias.requires_grad else None
        return (gs, gq, gw, gb, gu)[: len(parents)]

    return per_support, per_query, parents, grads


def pair_linear(
    support: Tensor,
    query: Tensor,
    labels: np.ndarray,
    weight: Tensor,
    bias: Tensor,
    pairs: Pairs,
    user: Tensor | None = None,
) -> Tensor:
    """A linear layer over every (support, query) pair of a session, without the pairs.

    ``support [Ns, Ws]`` with ``labels [Ns]`` and ``query [Nq, Wq]`` are rows laid out as
    ``pairs`` says, inert rows after the real ones. For each support m and query n of
    session b the output ``[B, S, Q, N]`` holds ``concat([support_m, query_n, label_m,
    user_b]) @ weight + bias`` (``user [B, Wu]``; ``weight`` stacks the rows of the four
    parts in that order), and zero at the places past a session's supports or queries,
    which no gradient leaves. Each part is multiplied by its own rows once and broadcast
    over (S, Q), so the ``[B, S, Q, Ws+Wq+1+Wu]`` concat is never built. It records one
    tape node; the backward sums the output gradient over Q for the support and label
    parts, over S for the query part and over both for the user part and the bias.
    """
    rows, cols, parents, grads = _pair_parts(support, query, labels, weight, bias, user, pairs)
    real = pairs.real[..., None]
    out = np.zeros(real.shape[:3] + rows.shape[-1:], np.result_type(rows, cols))
    np.add(rows[:, :, None], cols[:, None], out=out, where=real)

    def backward(g):
        g = np.where(real, g, 0)
        return grads(g.sum(axis=2), g.sum(axis=1))

    return T.fused(out, parents, backward)


PAIR_GROUP_VALUES = 1 << 18  # about the pairs the relation net holds at once: 1 MB of float32


def relation_logits(support: Tensor, query: Tensor, labels, weight: Tensor, bias: Tensor,
                    w_out: Tensor, b_out: Tensor, pairs: Pairs,
                    user: Tensor | None = None) -> Tensor:
    """``relu(pair_linear(...)) @ w_out + b_out`` as logits ``[B, S, Q]``, one tape node,
    zero at the places past a session's supports or queries, which no gradient leaves.

    The pairs are never held whole. :meth:`Pairs.chunks` cuts the batch into chunks of
    whole sessions; a chunk's pairs, padded only to its own largest shape, are summed
    into one reused buffer, rectified in place and met by a GEMV against ``w_out [W, 1]``.
    Every chunk but the last is a multiple of 4 sessions, so its GEMV has no tail of
    fewer than 4 rows, and a pair's logit has the bits of one GEMV over the batch's padded
    pairs unless one of the two calls puts it in such a tail. The node keeps only the
    per-support and per-query terms. The backward rebuilds each chunk, adds its
    ``h.T @ g`` to ``w_out``'s gradient (with several chunks a sum of GEMVs, which may
    differ from one in the last bits), writes ``g * w_out`` masked where the pair is zero
    over the buffer, and sums that over Q and over S for :func:`pair_linear`'s part
    products.
    """
    rows, cols, parents, grads = _pair_parts(support, query, labels, weight, bias, user, pairs)
    (b, s_len, width), q_len = rows.shape, cols.shape[1]
    if w_out.shape != (width, 1) or b_out.shape != (1,):
        raise ConfigurationError(f"relation output shapes {w_out.shape}, {b_out.shape} != "
                                 f"({width}, 1), (1,)")
    chunks = pairs.chunks(width)
    dtype = np.result_type(rows, cols)
    size = max(len(sessions) * s * q for sessions, s, q in chunks) * width

    def chunk_pairs():  # (sessions, S_c, Q_c, relu(rows + cols) there) in one buffer
        buf = np.empty(size, dtype)
        for sessions, s, q in chunks:
            part_s, part_q = rows[sessions, :s], cols[sessions, :q]
            h = buf[: len(part_s) * s * q * width].reshape(len(part_s), s, q, width)
            np.add(part_s[:, :, None], part_q[:, None], out=h)
            yield sessions, s, q, np.maximum(h, 0.0, out=h)

    out = np.zeros((b, s_len, q_len), np.result_type(dtype, w_out.data))
    for sessions, s, q, h in chunk_pairs():
        logits = h.reshape(-1, width) @ w_out.data
        out[sessions, :s, :q] = (logits + b_out.data).reshape(h.shape[:3])
    out[~pairs.real] = 0.0

    def backward(g):
        g = np.where(pairs.real, g, 0)
        g_s, g_q = np.zeros((b, s_len, width), dtype), np.zeros((b, q_len, width), dtype)
        g_wout = None
        for sessions, s, q, h in chunk_pairs():
            h2, g2 = h.reshape(-1, width), g[sessions, :s, :q].reshape(-1, 1)
            part = h2.T @ g2
            g_wout = part if g_wout is None else g_wout + part
            # ``(g2 @ w_out.T) * (h > 0)`` over the buffer: the 0/1 factor first keeps every byte.
            np.greater(h2, 0.0, out=h2)
            h2 *= g2
            h2 *= w_out.data[:, 0]  # the K=1 GEMM ``g2 @ w_out.T``, bit for bit
            g_s[sessions, :s] = h.sum(axis=2)
            g_q[sessions, :q] = h.sum(axis=1)
        del h, h2  # the buffer is done with: the part products read only the sums
        g_bout = g.reshape(g.shape + (1,)).sum(axis=(0, 1, 2))
        return (*grads(g_s, g_q), g_wout, g_bout)

    return T.fused(out, parents + (w_out, b_out), backward)


def _softmax_lead(s: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of ``s``, in place.

    Max and sum over a leading axis are elementwise passes over contiguous
    slabs, ten to twenty times cheaper than over a short last axis.
    """
    s -= s.max(axis=0)
    np.exp(s, out=s)
    s /= s.sum(axis=0)
    return s


def _softmax_lead_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient ``y * (g - sum_0(g * y))`` of :func:`_softmax_lead`."""
    return y * (g - np.einsum("i...,i...->...", g, y))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax over ``axis``, one tape node."""
    y = _softmax_lead(np.moveaxis(x.data, axis, 0).copy())

    def backward(g):
        return (np.moveaxis(_softmax_lead_grad(y, np.moveaxis(g, axis, 0)), 0, axis),)

    return T.fused(np.moveaxis(y, 0, axis), (x,), backward)


def _heads_view(x: np.ndarray, heads: int) -> np.ndarray:
    """``[..., n, heads*d]`` as the view ``[..., heads, n, d]``."""
    *lead, n, d = x.shape
    return np.swapaxes(x.reshape(*lead, n, heads, d // heads), -3, -2)


def _matmul_merged(a: np.ndarray, b: np.ndarray, shape, heads: int) -> np.ndarray:
    """``a @ b`` over ``[..., heads, n, d]`` written into a ``[..., n, heads*d]`` array."""
    out = np.empty(shape, dtype=np.result_type(a, b))
    np.matmul(a, b, out=_heads_view(out, heads))
    return out


def _gather(rows: np.ndarray, index: np.ndarray | None, shape) -> np.ndarray:
    """``rows[index]`` as a block of ``shape``, one take, which ``mode="clip"`` spares a
    bounds check (every index is in range); a view of the first rows when None."""
    if index is None:
        return rows[: shape[0] * shape[1]].reshape(shape)
    return np.take(rows, index, axis=0, mode="clip").reshape(shape)


def _rows(block: np.ndarray, places: np.ndarray | None, n: int) -> np.ndarray:
    """The real ``places`` of a ``[B, T, d]`` block (every place when None), in order, as
    the first rows of ``[n, d]``, zeros after them."""
    flat = block.reshape(-1, block.shape[-1])
    count = len(flat) if places is None else len(places)
    out = np.empty((n, flat.shape[1]), block.dtype)
    if places is None:
        out[:count] = flat
    else:
        np.take(flat, places, axis=0, out=out[:count], mode="clip")
    out[count:] = 0
    return out


def _attention_probs(qh: np.ndarray, kh: np.ndarray, fill: np.ndarray, scale: float):
    """Masked softmax of the scaled scores of ``[B, heads, n, d]`` blocks as ``[m, B,
    heads, n]``, ``fill`` the additive mask, broadcast to ``[m, 1, B, n]``.

    The key axis leads, so the softmax reduces over axis 0; one batched
    GEMM (``K Q^T``) writes the scores in that layout. Storage is
    heads-major, ``[m, heads, B, n]``, so the mask fill broadcasts over
    heads in contiguous slabs.
    """
    b, heads, n, _ = qh.shape
    m = kh.shape[-2]
    p = np.empty((m, heads, b, n), dtype=np.result_type(qh, kh))
    p_keys = np.moveaxis(p, 1, -2)  # [m, B, heads, n]
    np.matmul(kh, np.swapaxes(qh, -1, -2), out=np.moveaxis(p_keys, 0, -2))
    p *= scale
    p += fill  # 0 and -1e9 are exact in float32 and float64
    _softmax_lead(p)
    return p_keys


def attention(q: Tensor, k: Tensor, v: Tensor, rows: Rows, k_rows: Rows | None = None,
              causal: bool = False, heads: int = 1) -> Tensor:
    """Scaled dot-product attention of each session's query rows over its key rows, one
    tape node.

    ``rows`` lays out the query rows ``q [Nq, d_k]`` and ``k_rows`` the key and value
    rows ``k [Nk, d_k]`` and ``v [Nk, d_v]`` (the query rows' table when None), each a
    ``(N,)`` table of the same number of real sessions; the rows after those sessions
    are inert. A query row attends to its session's keys; when ``causal``, which takes
    no ``k_rows``, only to those at or before its own position. With ``heads > 1`` the
    widths are split per head and the outputs re-concatenated.

    The node gathers each operand once into the padded ``[B, T, d]`` :attr:`Rows.block`
    of its table, and reads its mask there. A padding place reads a real row: a key
    there gets exactly zero weight, and no output reads a query there. The output is
    ``[Nq, d_v]``, zero at inert rows. The backward reuses the saved weights ``P``:
    ``dV = P^T dO``, ``dS = P (dP - rowsum(dP P)) scale`` with ``dP = dO V^T``, ``dQ = dS
    K`` and ``dK = dS^T Q``, and scatters each block's real places back to rows.
    """
    if causal and k_rows is not None:
        raise ConfigurationError("causal attention reads its query rows' own sessions as keys")
    k_rows = rows if k_rows is None else k_rows
    dk, dv = q.shape[-1], v.shape[-1]
    nq, nk = q.shape[0], k.shape[0]
    if (q.ndim != 2 or k.shape != (nk, dk) or v.shape != (nk, dv) or rows.shape != (nq,)
            or k_rows.shape != (nk,) or k_rows.sessions != rows.sessions):
        raise ConfigurationError(
            f"attention rows q {tuple(q.shape)}, k {tuple(k.shape)}, v {tuple(v.shape)} do not "
            f"match tables of {rows.shape} and {k_rows.shape} rows holding {rows.sessions} "
            f"and {k_rows.sessions} sessions"
        )
    if heads < 1:
        raise ConfigurationError("heads must be >= 1")
    if heads > 1 and (dk % heads or dv % heads):
        raise ConfigurationError(f"heads={heads} must divide d_k={dk} and d_v={dv}")
    if k_rows.lengths[: k_rows.sessions].min(initial=1) < 1:
        raise MaskingError("attention over a session with no key rows")
    q_real, q_index, q_places, _ = rows.block
    k_real, k_index, k_places, k_fill = k_rows.block
    (b, n), m = q_real.shape, k_real.shape[1]

    scale = 1.0 / float(np.sqrt(dk // heads))
    qh, kh, vh = (_heads_view(_gather(t.data, index, (b, t_len, t.shape[1])), heads)
                  for t, index, t_len in ((q, q_index, n), (k, k_index, m), (v, k_index, m)))
    # A contiguous fill: adding one broadcast over the short query axis is slower.
    fill = rows.causal_fill if causal else np.repeat(k_fill[:, None, :, None], n, axis=3)
    p = _attention_probs(qh, kh, fill, scale)  # [m, B, heads, n]
    out = _rows(_matmul_merged(np.moveaxis(p, 0, -1), vh, (b, n, dv), heads), q_places, nq)

    def backward(g):
        g_block = _gather(g, q_index, (b, n, dv))
        if q_index is not None:
            g_block[~q_real] = 0  # no output reads a padding query
        gh = _heads_view(g_block, heads)
        gq = gk = gv = None
        if v.requires_grad:
            gv = _rows(_matmul_merged(np.moveaxis(p, 0, -2), gh, (b, m, dv), heads),
                       k_places, nk)
        if q.requires_grad or k.requires_grad:
            dp = np.empty_like(p)
            np.matmul(vh, np.swapaxes(gh, -1, -2), out=np.moveaxis(dp, 0, -2))
            ds = _softmax_lead_grad(p, dp) * scale
            if q.requires_grad:
                gq = _rows(_matmul_merged(np.moveaxis(ds, 0, -1), kh, (b, n, dk), heads),
                           q_places, nq)
            if k.requires_grad:
                gk = _rows(_matmul_merged(np.moveaxis(ds, 0, -2), qh, (b, m, dk), heads),
                           k_places, nk)
        return gq, gk, gv

    return T.fused(out, (q, k, v), backward)


# -- losses ------------------------------------------------------------


def _mean_weights(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """The 0/1 weights of a mean over ``values`` and 1 / their sum."""
    m = np.asarray(mask, dtype=values.dtype.type)
    total = float(m.sum())
    if total <= 0:
        raise EvaluationError("loss mask admits no element")
    return m, 1.0 / total


def bce_with_logits(logits: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean binary cross entropy of ``sigmoid(logits)`` over unmasked elements, one tape node.

    Each element is ``max(z, 0) - z*t + log1p(exp(-|z|))``, which no logit
    overflows, and the backward is ``(sigmoid(z) - t) * mask / sum(mask)``:
    a confidently wrong logit keeps a gradient of full size, however far it
    saturates.
    """
    z = logits.data
    t = np.asarray(target, dtype=z.dtype.type)
    m, scale = _mean_weights(z, mask)
    values = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    total = (values * m).sum()

    def backward(g):
        gz = T.sigmoid_array(z) - t
        gz *= g * scale
        return (gz * m,)

    return T.fused(np.asarray(total * scale), (logits,), backward)


def mse(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared error over unmasked elements."""
    t = np.asarray(target, dtype=pred.dtype.type)
    diff = T.add(pred, Tensor(-t))
    sq = T.mul(diff, diff)
    m, scale = _mean_weights(sq.data, mask)
    return T.mul(T.reduce_sum(T.mul(sq, Tensor(m))), scale)
