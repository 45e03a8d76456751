"""Fused layer ops against the compositions they replace.

Each linear layer, conv, norm, gate, gated conv level, softmax, attention
and binary cross entropy call in ``nn`` records one tape node with a
hand-written backward. The reference helpers below rebuild each op the
way ``nn`` computed it before the op was fused: from tensor primitives,
or for a gated level from the fused conv, norm and gate nodes; an op on a
batch's rows against its composition on the padded block of the rows'
sessions. Forward values and every input gradient are compared in float64.
"""

import tracemalloc

import numpy as np
import pytest
from handmade import Episode, make_batch

from seqskip import nn
from seqskip import tensor as T
from seqskip.dataio import PACK_ROWS, prefix_mask
from seqskip.errors import ConfigurationError, MaskingError, ValidationError
from seqskip.models import KINDS, ModelConfig, build
from seqskip.nn import CAUSAL, NONCAUSAL, Conv1dSpec
from seqskip.tensor import Tensor

TOL = 1e-12


# -- reference compositions ----------------------------------------------


def _per_session(fn, x, rows):
    """``fn`` of each session's slice of packed rows ``x``, concatenated."""
    starts = np.concatenate([[0], rows.stops[:-1]])
    return T.concat([fn(T.slice_axis(x, 0, a, b)) for a, b in zip(starts, rows.stops)], axis=0)


def ref_conv1d(x, spec, weights, bias=None, rows=None):
    """The conv as per-tap slice, reshape, transpose, matmul and add; on packed rows, per
    session."""
    if rows is not None:
        return _per_session(lambda xs: ref_conv1d(xs, spec, weights, bias), x, rows)
    t_len = x.shape[-2]
    total = spec.dilation * (spec.kernel_size - 1)
    left = total if spec.padding_mode == CAUSAL else total // 2
    xp = T.pad_axis(x, -2, left, total - left)
    out = None
    for j in range(spec.kernel_size):
        tap = T.reshape(
            T.slice_axis(weights, 2, j, j + 1), (spec.out_channels, spec.in_channels)
        )
        window = T.slice_axis(xp, -2, j * spec.dilation, j * spec.dilation + t_len)
        term = T.matmul(window, T.transpose(tap, (1, 0)))
        out = term if out is None else T.add(out, term)
    if bias is not None:
        out = T.add(out, bias)
    return out


def ref_instance_norm(x, gamma, beta, epsilon=1e-5, mask=None):
    if mask is None:
        mu = T.reduce_mean(x, axis=-2, keepdims=True)
        centered = T.add(x, T.neg(mu))
        var = T.reduce_mean(T.mul(centered, centered), axis=-2, keepdims=True)
    else:
        m = np.asarray(mask, dtype=x.dtype.type)
        denom = np.maximum(m.sum(axis=-2, keepdims=True), 1.0)
        mu = T.div(T.reduce_sum(T.mul(x, m), axis=-2, keepdims=True), Tensor(denom))
        centered = T.add(x, T.neg(mu))
        var = T.div(
            T.reduce_sum(T.mul(T.mul(centered, centered), m), axis=-2, keepdims=True),
            Tensor(denom),
        )
    inv = T.pow_scalar(T.add(var, float(epsilon)), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gamma), beta)


def ref_channel_norm(x, gamma, beta, epsilon=1e-5):
    mu = T.reduce_mean(x, axis=-1, keepdims=True)
    centered = T.add(x, T.neg(mu))
    var = T.reduce_mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.pow_scalar(T.add(var, float(epsilon)), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gamma), beta)


def ref_block(x, lengths):
    """The rows ``x [N, d]`` of sessions of ``lengths`` as their zero-padded ``[B, T, d]``
    block, by a 0/1 matrix product."""
    real = prefix_mask(np.asarray(lengths))
    put = np.zeros((real.size, x.shape[0]))
    put[np.flatnonzero(real), np.arange(real.sum())] = 1.0
    return T.reshape(T.matmul(Tensor(put), x), real.shape + x.shape[1:])


def ref_rows(block, lengths, n):
    """The places of sessions of ``lengths`` in a ``[B, T, d]`` block as the first rows of
    ``[n, d]``, zeros after them, by a 0/1 matrix product."""
    real = prefix_mask(np.asarray(lengths))
    take = np.zeros((n, real.size))
    take[np.arange(real.sum()), np.flatnonzero(real)] = 1.0
    return T.matmul(Tensor(take), T.reshape(block, (real.size, block.shape[-1])))


def _ref_log(x):
    return T.fused(np.log(x.data), (x,), lambda g: (g / x.data,))


def ref_bce(logits, target, mask):
    """``-(t log sigmoid(z) + (1 - t) log(1 - sigmoid(z)))``, masked and averaged."""
    p = T.sigmoid(logits)
    t = Tensor(target)
    ce = T.add(T.mul(_ref_log(p), t), T.mul(_ref_log(T.add(1.0, T.neg(p))), T.add(1.0, T.neg(t))))
    return T.mul(T.reduce_sum(T.mul(ce, Tensor(mask))), -1.0 / mask.sum())


def ref_gated_block(kind, x, transform_pre, gate_pre):
    if kind == "highway":
        gate = T.sigmoid(gate_pre)
        carry = T.add(1.0, T.neg(gate))
        return T.add(T.mul(gate, T.relu(transform_pre)), T.mul(carry, x))
    return T.mul(transform_pre, T.sigmoid(gate_pre))


def ref_gated_level(kind, x, spec, transform, gate, rows=None):
    """A causal gated level as one conv, one channel norm per branch, and the gate.
    On packed rows, each session's level is composed alone and the rows concatenated."""
    if rows is not None and x.ndim == 2:
        return _per_session(lambda xs: ref_gated_level(kind, xs, spec, transform, gate), x, rows)
    pre = [
        nn.channel_norm(nn.conv1d_cl(x, spec, w), g, b) for w, g, b in (transform, gate)
    ]
    return nn.gated_block(kind, x, *pre)


_MASK_FILL = -1e9


def ref_softmax(x, axis=-1):
    shift = np.max(x.data, axis=axis, keepdims=True)
    e = T.exp(T.add(x, Tensor(-shift)))
    return T.div(e, T.reduce_sum(e, axis=axis, keepdims=True))


def _ref_split_heads(x, heads):
    *lead, n, d = x.shape
    split = T.reshape(x, (*lead, n, heads, d // heads))
    return T.transpose(split, (*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2))


def _ref_merge_heads(x):
    *lead, h, n, dh = x.shape
    x = T.transpose(x, (*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2))
    return T.reshape(x, (*lead, n, h * dh))


def ref_attention_weights(q, k, mask=None, heads=1):
    """Scaled scores, multiplicative mask fill and softmax, per head."""
    scale = 1.0 / float(np.sqrt(q.shape[-1] // heads))
    m = None if mask is None else np.asarray(mask).astype(q.dtype.type)
    if heads > 1:
        q, k = _ref_split_heads(q, heads), _ref_split_heads(k, heads)
        if m is not None:
            m = np.expand_dims(m, -3)
    k_t = T.transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    scores = T.mul(T.matmul(q, k_t), scale)
    if m is not None:
        scores = T.add(T.mul(scores, Tensor(m)), Tensor(_MASK_FILL * (1.0 - m)))
    return ref_softmax(scores, axis=-1)


def ref_attention(q, k, v, mask=None, heads=1):
    weights = ref_attention_weights(q, k, mask, heads)
    if heads == 1:
        return T.matmul(weights, v)
    return _ref_merge_heads(T.matmul(weights, _ref_split_heads(v, heads)))


def length_mask(q_lengths, k_lengths, causal):
    """The ``[B, n, m]`` mask of sessions of ``q_lengths`` queries over ``k_lengths`` keys."""
    n = int(np.max(q_lengths))
    admit = np.repeat(prefix_mask(np.asarray(k_lengths))[:, None, :], n, axis=1)
    if causal:
        admit &= np.tril(np.ones(admit.shape[1:], dtype=bool))
    return admit


def ref_attention_rows(q, k, v, q_lengths, k_lengths=None, causal=False, heads=1):
    """:func:`nn.attention` as the padded composition it replaces: the rows to zero-padded
    blocks, masked attention over the blocks, and the real places back to rows."""
    k_lengths = q_lengths if k_lengths is None else k_lengths
    blocks = [ref_block(q, q_lengths), ref_block(k, k_lengths), ref_block(v, k_lengths)]
    out = ref_attention(*blocks, mask=length_mask(q_lengths, k_lengths, causal), heads=heads)
    return ref_rows(out, q_lengths, q.shape[0])


# -- comparison harness ----------------------------------------------------


def _value_and_grads(fn, arrays, project):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    T.reduce_sum(T.mul(out, Tensor(project(out.shape)))).backward()
    grads = [np.zeros_like(a) if t.grad is None else t.grad for a, t in zip(arrays, tensors)]
    return out, grads


def assert_same_op(fused, reference, arrays, seed=0):
    """Forward values and every input gradient agree to TOL in float64."""
    rng = np.random.default_rng(seed)
    cache = {}

    def project(shape):
        if shape not in cache:
            cache[shape] = rng.normal(size=shape)
        return cache[shape]

    got, got_grads = _value_and_grads(fused, arrays, project)
    want, want_grads = _value_and_grads(reference, arrays, project)
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.max(np.abs(got.data - want.data)) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= TOL


# -- convolution -------------------------------------------------------------


@pytest.mark.parametrize("mode", [CAUSAL, NONCAUSAL])
@pytest.mark.parametrize("dilation", [1, 2, 4, 16])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("with_bias", [False, True])
def test_conv_matches_tap_composition(mode, dilation, batched, with_bias):
    rng = np.random.default_rng(dilation + 10 * batched + 100 * with_bias)
    k = 2 if mode == CAUSAL else 3
    for t_len in (5, 20):  # shorter and longer than the widest dilation
        spec = Conv1dSpec(3, 4, k, dilation, mode)
        lead = (2,) if batched else ()
        arrays = [rng.normal(size=lead + (t_len, 3)), rng.normal(size=(4, 3, k))]
        if with_bias:
            arrays.append(rng.normal(size=(4,)))
        assert_same_op(
            lambda xx, *p: nn.conv1d_cl(xx, spec, *p),
            lambda xx, *p: ref_conv1d(xx, spec, *p),
            arrays,
        )


RAGGED = (7, 2, 20, 1, 5)  # 35 real rows, 13 inert ones


def _packed(rng, channels, lengths=RAGGED):
    """The rows of sessions of ``lengths``, inert zero rows after them up to a multiple
    of 16 as a batch stores them, and their table."""
    t_len, n = max(lengths), sum(lengths)
    mask = np.arange(t_len) < np.array(lengths)[:, None]
    x = np.zeros((n + -n % PACK_ROWS, channels))
    x[:n] = rng.normal(size=(len(lengths), t_len, channels))[mask]
    assert n % PACK_ROWS
    return x, nn.Rows.packed(lengths, len(x))


@pytest.mark.parametrize("mode", [CAUSAL, NONCAUSAL])
@pytest.mark.parametrize("dilation", [1, 2, 4, 16])
def test_conv_on_packed_rows_matches_per_session_composition(mode, dilation):
    rng = np.random.default_rng(dilation + 50 * (mode == CAUSAL))
    k = 2 if mode == CAUSAL else 3
    spec = Conv1dSpec(3, 4, k, dilation, mode)
    x, rows = _packed(rng, 3)
    assert_same_op(
        lambda xx, *p: nn.conv1d_cl(xx, spec, *p, rows=rows),
        lambda xx, *p: ref_conv1d(xx, spec, *p, rows=rows),
        [x, rng.normal(size=(4, 3, k)), rng.normal(size=(4,))],
    )


def test_conv_kernel_is_one_tape_node():
    spec = Conv1dSpec(3, 4, 2, 2, CAUSAL)
    x = Tensor(np.ones((2, 6, 3)), requires_grad=True)
    out = nn.conv1d_cl(x, spec, Tensor(np.ones((4, 3, 2)), requires_grad=True),
                       Tensor(np.ones(4), requires_grad=True))
    assert out.shape == (2, 6, 4)
    assert out._grad_fn is not None
    assert all(p._grad_fn is None for p in out._parents)


def test_conv_kernel_shape_contracts():
    spec = Conv1dSpec(2, 1, 2)
    w = Tensor(np.ones((1, 2, 2)))
    with pytest.raises(ConfigurationError):
        nn.conv1d_cl(Tensor(np.ones((4, 3))), spec, w)  # 3 channels, spec wants 2
    with pytest.raises(ConfigurationError):
        nn.conv1d_cl(Tensor(np.ones((4, 2))), spec, Tensor(np.ones((1, 2, 3))))
    with pytest.raises(ConfigurationError):
        nn.conv1d_cl(Tensor(np.ones((4, 2))), spec, w, Tensor(np.ones(2)))
    with pytest.raises(ConfigurationError):
        nn.conv1d_cl(Tensor(np.ones((1, 1, 4, 2))), spec, w)
    with pytest.raises(ValidationError):
        nn.conv1d_cl(Tensor(np.ones((0, 2))), spec, w)


# -- linear ------------------------------------------------------------------


def ref_linear(x, weight, bias, relu=False):
    out = T.add(T.matmul(x, weight), bias)
    return T.relu(out) if relu else out


LINEAR_SHAPES = [(6, 5), (3, 4, 5)]  # 2-d rows and a 3-d batch, 5 input features


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("shape", LINEAR_SHAPES)
def test_linear_matches_composition(shape, relu):
    rng = np.random.default_rng(len(shape) + 2 * relu)
    assert_same_op(
        lambda *a: nn.linear(*a, relu=relu),
        lambda *a: ref_linear(*a, relu=relu),
        [rng.normal(size=shape), rng.normal(size=(5, 7)), rng.normal(size=(7,))],
    )


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("shape", LINEAR_SHAPES)
def test_linear_matches_composition_bit_for_bit_in_float32(shape, relu):
    # Each output byte and each byte of the three gradients; a zero row and a zero
    # bias column put exact zeros before the rectifier.
    rng = np.random.default_rng(7 + len(shape) + 2 * relu)
    x = rng.normal(size=shape).astype(np.float32)
    x.reshape(-1, 5)[1] = 0.0
    bias = rng.normal(size=(7,)).astype(np.float32)
    bias[2] = 0.0
    arrays = [x, rng.normal(size=(5, 7)).astype(np.float32), bias]
    r = rng.normal(size=shape[:-1] + (7,)).astype(np.float32)

    def run(fn):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*tensors, relu=relu)
        T.reduce_sum(T.mul(out, Tensor(r))).backward()
        assert all(t.grad.dtype == np.float32 for t in tensors)
        return [out.data.tobytes()] + [t.grad.tobytes() for t in tensors]

    assert run(nn.linear) == run(ref_linear)


def test_linear_is_one_tape_node_holding_only_its_output():
    # The composition keeps the GEMM's output and the biased one besides the
    # rectified output; the fused node allocates and keeps the output alone.
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 64, 32)), requires_grad=True)
    w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((32, 512), (512,)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = nn.linear(x, w, b, relu=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (4, 64, 512)
    assert out._grad_fn is not None
    assert all(p._grad_fn is None for p in out._parents)
    assert out.data.nbytes <= held < 1.25 * out.data.nbytes


def test_linear_shape_contracts():
    x, w, b = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(2))
    with pytest.raises(ConfigurationError):
        nn.linear(Tensor(np.ones((3, 5))), w, b)  # 5 features, the weight takes 4
    with pytest.raises(ConfigurationError):
        nn.linear(x, w, Tensor(np.ones(3)))
    with pytest.raises(ConfigurationError):
        nn.linear(x, Tensor(np.ones((4, 2, 1))), b)


# -- normalization -----------------------------------------------------------


@pytest.mark.parametrize("shape", [(2, 5, 6), (5, 6)])
def test_channel_norm_matches_composition(shape):
    rng = np.random.default_rng(len(shape) + 1)
    c = shape[-1]
    arrays = [rng.normal(size=shape), rng.uniform(0.5, 1.5, (c,)), rng.normal(size=(c,))]
    assert_same_op(nn.channel_norm, ref_channel_norm, arrays)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(3, 9, 4), (9, 4)])
def test_instance_norm_matches_composition(masked, shape):
    # masked: the rows of sessions of ragged lengths against the masked norm over
    # their padded block, the composition the norm on rows replaced.
    rng = np.random.default_rng(7 + masked)
    c = shape[-1]
    params = [rng.uniform(0.5, 1.5, (c,)), rng.normal(size=(c,))]
    if not masked:
        assert_same_op(nn.instance_norm, ref_instance_norm, [rng.normal(size=shape)] + params)
        return
    lengths = [6, 3, 9] if len(shape) == 3 else [6]
    rows = nn.Rows(lengths, (sum(lengths),))
    mask = prefix_mask(np.array(lengths))[..., None]

    def padded(x, g, b):
        return ref_rows(ref_instance_norm(ref_block(x, lengths), g, b, mask=mask), lengths,
                        x.shape[0])

    assert_same_op(lambda x, g, b: nn.instance_norm(x, g, b, rows), padded,
                   [rng.normal(size=(sum(lengths), c))] + params)


# -- gates ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["highway", "glu"])
def test_gated_block_matches_composition(kind):
    rng = np.random.default_rng(3)
    shape = (2, 7, 5)
    # Transform pre-activations kept off the relu kink.
    tp = rng.normal(size=shape) + np.where(rng.random(shape) < 0.5, -0.3, 0.3)
    arrays = [rng.normal(size=shape), tp, 4.0 * rng.normal(size=shape)]
    assert_same_op(
        lambda x, t, g: nn.gated_block(kind, x, t, g),
        lambda x, t, g: ref_gated_block(kind, x, t, g),
        arrays,
    )


def _level_arrays(rng, t_len, lead, c=6, kernel=2):
    """x, then (weights, gamma, beta) of the transform and the gate branch."""
    arrays = [rng.normal(size=lead + (t_len, c))]
    for _ in ("transform", "gate"):
        arrays += [rng.normal(size=(c, c, kernel)), rng.uniform(0.5, 1.5, c), rng.normal(size=c)]
    return arrays


@pytest.mark.parametrize("kind", ["highway", "glu"])
@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("dilation", [1, 2, 4, 8, 16])
def test_gated_level_matches_composition(kind, kernel, dilation):
    rng = np.random.default_rng(dilation + 20 * kernel)
    spec = Conv1dSpec(6, 6, kernel, dilation, CAUSAL)
    for t_len in (5, 20):  # at 5, the wider dilations have taps that read padding only
        for lead in ((), (3,)):
            assert_same_op(
                lambda x, *p: nn.gated_level(kind, x, spec, p[:3], p[3:]),
                lambda x, *p: ref_gated_level(kind, x, spec, p[:3], p[3:]),
                _level_arrays(rng, t_len, lead, kernel=kernel),
            )


@pytest.mark.parametrize("kind", ["highway", "glu"])
@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("dilation", [1, 4, 16])
def test_gated_level_on_packed_rows_matches_per_session_composition(kind, kernel, dilation):
    # Sessions of 1 and 2 rows are shorter than every receptive field here;
    # the one of 20 rows is longer than all but kernel 3 at dilation 16 (33).
    rng = np.random.default_rng(dilation + 20 * kernel + 300)
    spec = Conv1dSpec(6, 6, kernel, dilation, CAUSAL)
    x, rows = _packed(rng, 6)
    arrays = [x] + _level_arrays(rng, 1, (), kernel=kernel)[1:]
    assert_same_op(
        lambda xx, *p: nn.gated_level(kind, xx, spec, p[:3], p[3:], rows),
        lambda xx, *p: ref_gated_level(kind, xx, spec, p[:3], p[3:], rows),
        arrays,
    )


def test_gated_level_is_one_tape_node():
    spec = Conv1dSpec(6, 6, 2, 4, CAUSAL)
    arrays = _level_arrays(np.random.default_rng(1), 9, (2,))
    x, *params = (Tensor(a, requires_grad=True) for a in arrays)
    out = nn.gated_level("highway", x, spec, params[:3], params[3:])
    assert out.shape == (2, 9, 6)
    assert out._grad_fn is not None and out._parents == (x, *params)
    with T.no_grad():
        inferred = nn.gated_level("highway", x, spec, params[:3], params[3:])
    assert inferred._grad_fn is None
    np.testing.assert_array_equal(inferred.data, out.data)


def _level_blocks_held(kind):
    """``[N, W]`` blocks a gated level at N = 976, W = 32 (float32, k = 2) holds between
    its forward and its backward, traced."""
    n, width = 976, 32
    spec = Conv1dSpec(width, width, 2, 4, CAUSAL)
    arrays = _level_arrays(np.random.default_rng(5), n, (), c=width)
    x, *params = (Tensor(a.astype(np.float32), requires_grad=True) for a in arrays)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = nn.gated_level(kind, x, spec, params[:3], params[3:])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.data.dtype == np.float32 and out._grad_fn is not None
    return held / (n * width * np.dtype(np.float32).itemsize)


def test_highway_level_holds_no_pre_activation_block():
    # Between forward and backward a highway level holds its im2col columns (2 blocks of
    # [N, W] at k = 2), the normalized [N, 2, W] xhat (2), the gate's sigmoid, the
    # transform's relu and the output: 7 blocks. Keeping the [N, 2, W] pre-activations
    # too, which its backward never reads, made it 9.
    blocks = _level_blocks_held("highway")
    assert blocks < 8, blocks


def test_glu_level_holds_no_pre_activation_block():
    # A glu level holds 7 blocks too, with a contiguous copy of the transform's
    # pre-activations, which its gradient reads, in place of the relu. Keeping the whole
    # [N, 2, W] pre-activations for that half made it 8.4.
    blocks = _level_blocks_held("glu")
    assert blocks < 8, blocks


def test_gated_level_shape_contracts():
    spec = Conv1dSpec(2, 2, 2)
    branch = (Tensor(np.ones((2, 2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    wide = (Tensor(np.ones((2, 2, 3))),) + branch[1:]  # kernel 3, spec wants 2
    x = Tensor(np.ones((4, 2)))
    for bad in (
        lambda: nn.gated_level("highway", Tensor(np.ones((4, 3))), spec, branch, branch),
        lambda: nn.gated_level("highway", Tensor(np.ones((1, 1, 4, 2))), spec, branch, branch),
        lambda: nn.gated_level("highway", x, spec, wide, branch),
        lambda: nn.gated_level("highway", x, spec, branch, wide),
        lambda: nn.gated_level("residual", x, spec, branch, branch),
    ):
        with pytest.raises(ConfigurationError):
            bad()
    with pytest.raises(ValidationError):
        nn.gated_level("highway", Tensor(np.ones((0, 2))), spec, branch, branch)
    # A row table must describe the input's rows: the packed rows of two
    # sessions of 3 and 1 rows (16 with the inert ones), 2-d and as many.
    rows = nn.Rows.packed([3, 1], 16)
    nn.gated_level("highway", Tensor(np.ones((16, 2))), spec, branch, branch, rows)
    for bad in (np.ones((15, 2)), np.ones((17, 2)), np.ones((1, 16, 2)), np.ones((2, 8, 2))):
        with pytest.raises(ConfigurationError):
            nn.gated_level("highway", Tensor(bad), spec, branch, branch, rows)
        with pytest.raises(ConfigurationError):
            nn.conv1d_cl(Tensor(bad), spec, branch[0], rows=rows)
    # Neither gate may change the width.
    narrow = Conv1dSpec(2, 3, 2)
    branch3 = (Tensor(np.ones((3, 2, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    for kind in ("highway", "glu"):
        with pytest.raises(ConfigurationError):
            nn.gated_level(kind, x, narrow, branch3, branch3)


def test_glu_block_sends_its_carry_no_gradient():
    x, t, g = (Tensor(np.ones((4, 2)), requires_grad=True) for _ in range(3))
    T.reduce_sum(nn.gated_block("glu", x, t, g)).backward()
    assert x.grad is None and t.grad is not None and g.grad is not None


def _episode(rng, length, in_dim):
    t_s = length // 2
    x = rng.normal(0.0, 0.5, size=(length, in_dim)).astype(np.float32)
    y = rng.integers(0, 2, size=length).astype(np.int8)
    x[:, -2], x[:, -1] = np.where(np.arange(length) < t_s, y, 0), np.arange(length) >= t_s
    return Episode("ep", x[:t_s], x[t_s:], y[:t_s], y[t_s:], query_logs_kept=True)


@pytest.mark.parametrize("gate", ["highway", "glu"])
def test_models_match_the_composed_gated_level(gate, monkeypatch):
    # The causal-stack kinds match a model that composes each level within
    # float32 rounding; the other kinds never call the fused level.
    rng = np.random.default_rng(5)
    batch = make_batch([_episode(rng, int(rng.integers(10, 21)), 10) for _ in range(8)])
    models = {kind: build(ModelConfig(kind, width=16, gate=gate, seed=2), 10) for kind in KINDS}
    fused = {kind: model.query_probs(batch) for kind, model in models.items()}
    calls = []
    monkeypatch.setattr(nn, "gated_level", lambda *a: calls.append(1) or ref_gated_level(*a))
    for kind, model in models.items():
        calls.clear()
        composed = model.query_probs(batch)
        if kind in ("seq1eH", "seq1HL", "teacher", "snail", "att_pair"):
            assert calls, kind
            np.testing.assert_allclose(fused[kind], composed, rtol=0, atol=1e-5, err_msg=kind)
        else:
            assert not calls, kind
            np.testing.assert_array_equal(fused[kind], composed, err_msg=kind)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bce_with_logits_matches_composition(seed):
    # Logits up to 8 in size, where 1 - sigmoid(z) still holds 12 digits.
    rng = np.random.default_rng(seed)
    t = (rng.random((6, 7)) < 0.5).astype(np.float64)
    mask = (rng.random((6, 7)) < 0.7).astype(np.float64)
    assert_same_op(
        lambda z: nn.bce_with_logits(z, t, mask),
        lambda z: ref_bce(z, t, mask),
        [rng.uniform(-8.0, 8.0, (6, 7))],
    )


def test_sigmoid_array_is_stable_at_extremes():
    x = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
    s = T.sigmoid_array(x)
    assert np.all(np.isfinite(s))
    np.testing.assert_array_equal(s[[0, 2, 4]], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(s[1], np.exp(-40.0) / (1.0 + np.exp(-40.0)), rtol=1e-15)


def _two_exp_sigmoid(x):
    """The two-exponential form ``sigmoid_array`` replaced, which fixed its bytes."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _same_bytes_or_both_nan(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_sigmoid_array_keeps_the_two_exponential_bytes():
    # Every 4099th float32 bit pattern (both signs, subnormals, NaNs), then the specials.
    bits = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
    x32 = np.concatenate([bits.view(np.float32), specials])
    with np.errstate(all="ignore"):
        _same_bytes_or_both_nan(T.sigmoid_array(x32), _two_exp_sigmoid(x32))
        rng = np.random.default_rng(7)
        for dtype in (np.float32, np.float64):
            x = (rng.standard_normal((300, 40)) * rng.choice([1, 10, 100], (300, 40)))
            x = np.concatenate([x.astype(dtype).ravel(), specials.astype(dtype)])
            _same_bytes_or_both_nan(T.sigmoid_array(x), _two_exp_sigmoid(x))
            # a strided view, as a gated level's gate half is
            _same_bytes_or_both_nan(T.sigmoid_array(x[::3]), _two_exp_sigmoid(x[::3]))


# -- softmax and attention -------------------------------------------------------


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_softmax_matches_composition(axis):
    rng = np.random.default_rng(11)
    assert_same_op(
        lambda x: nn.softmax(x, axis=axis),
        lambda x: ref_softmax(x, axis=axis),
        [3.0 * rng.normal(size=(3, 4, 5))],
    )


ATTENTION_CASES = {
    # name: (query lengths, key lengths (None: the queries'), d_k, d_v, heads, causal)
    "unbatched_1head": ((3,), (5,), 4, 3, 1, False),
    "unbatched_8head": ((5,), (3,), 16, 8, 8, False),
    "batched_1head_masked": ((4, 2), (6, 3), 4, 2, 1, False),
    "batched_8head_causal": ((6, 4, 1), None, 16, 16, 8, True),
    "batched_8head_causal_one_length": ((4, 4, 4), None, 16, 16, 8, True),
    "att_pair_support": ((6, 3, 5), (4, 1, 2), 8, 8, 1, False),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_matches_composition(case):
    # The rows of ragged sessions, 3 inert rows after each side's, against masked
    # attention over their zero-padded blocks.
    q_lengths, k_lengths, dk, dv, heads, causal = ATTENTION_CASES[case]
    rng = np.random.default_rng(len(case))
    n_k = sum(q_lengths if k_lengths is None else k_lengths) + 3
    arrays = [rng.normal(size=(sum(q_lengths) + 3, dk)), rng.normal(size=(n_k, dk)),
              rng.normal(size=(n_k, dv))]
    assert_same_op(
        lambda q, k, v: nn.attention(q, k, v, q_lengths, k_lengths, causal, heads),
        lambda q, k, v: ref_attention_rows(q, k, v, q_lengths, k_lengths, causal, heads),
        arrays,
    )
    if case == "att_pair_support":
        # att_pair passes one tensor as keys and values
        assert_same_op(
            lambda q, s: nn.attention(q, s, s, q_lengths, k_lengths),
            lambda q, s: ref_attention_rows(q, s, s, q_lengths, k_lengths),
            arrays[:2],
        )


def test_prepared_attention_mask_gives_the_same_bits():
    # Attention used to take zero-padded [B, T, d] blocks and a mask prepared
    # from a [B, n, m] array as its additive fill. The node on rows reads real
    # rows into its padding places and builds the fill from the lengths: every
    # real query row keeps the bits of that path, in both widths, causal or not.
    rng = np.random.default_rng(14)
    q_lengths, real = np.array([5, 2, 4]), prefix_mask(np.array([5, 2, 4]))
    for dtype in (np.float32, np.float64):
        for causal, k_lengths in ((False, np.array([3, 5, 1])), (True, None)):
            q, k, v = (rng.normal(size=(16, 8)).astype(dtype) for _ in range(3))
            blocks = []
            kl = q_lengths if causal else k_lengths
            for rows, lengths in ((q, q_lengths), (k, kl), (v, kl)):
                block = np.zeros(prefix_mask(lengths).shape + (8,), dtype)
                block[prefix_mask(lengths)] = rows[: lengths.sum()]
                blocks.append(block)
            qh, kh, vh = (nn._heads_view(block, 2) for block in blocks)
            admit = np.moveaxis(length_mask(q_lengths, kl, causal), -1, 0)[:, None]
            fill = np.where(admit, np.float32(0), np.float32(-1e9))
            p = nn._attention_probs(qh, kh, fill, 0.5)
            want = nn._matmul_merged(np.moveaxis(p, 0, -1), vh, blocks[0].shape, 2)
            got = nn.attention(Tensor(q), Tensor(k), Tensor(v), q_lengths, k_lengths, causal, 2)
            assert got.dtype == want.dtype
            assert got.data[: real.sum()].tobytes() == want[real].tobytes()
            assert not got.data[real.sum() :].any()


def test_attention_rejects_fully_blocked_row():
    # A session with no key rows leaves its queries nothing to attend to.
    rng = np.random.default_rng(13)
    q, k, v = (Tensor(rng.normal(size=(6, 4))) for _ in range(3))
    with pytest.raises(MaskingError):
        nn.attention(q, k, v, [3, 3], [3, 0])
    for bad in (
        lambda: nn.attention(q, k, v, [4, 3]),  # more query rows than there are
        lambda: nn.attention(q, k, v, [3, 3], [4, 3]),  # more key rows than there are
        lambda: nn.attention(q, k, Tensor(np.ones((5, 4))), [3, 3]),  # keys without values
        lambda: nn.attention(q, Tensor(np.ones((6, 3))), v, [3, 3]),  # keys of another width
        lambda: nn.attention(Tensor(np.ones((1, 6, 4))), k, v, [3, 3]),  # not rows
        lambda: nn.attention(q, k, v, [3, 3], [3, 2, 1]),  # other sessions
        lambda: nn.attention(q, k, v, [3, 3], [3, 3], causal=True),  # causal over other keys
    ):
        with pytest.raises(ConfigurationError):
            bad()
