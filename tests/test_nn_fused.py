"""Fused layer ops against the primitive compositions they replace.

Each conv, norm and gate in ``nn`` records one tape node with a
hand-written backward. The reference helpers below rebuild each op from
tensor primitives, the way ``nn`` computed it before the ops were fused,
so forward values and every input gradient can be compared in float64.
"""

import numpy as np
import pytest

from seqskip import nn
from seqskip import tensor as T
from seqskip.errors import ConfigurationError, ValidationError
from seqskip.nn import CAUSAL, NONCAUSAL, Conv1dSpec
from seqskip.tensor import Tensor

TOL = 1e-12


# -- reference compositions ----------------------------------------------


def ref_conv1d(x, spec, weights, bias=None):
    """Channels-first conv as per-tap slice, reshape, matmul and add."""
    t_len = x.shape[-1]
    total = spec.dilation * (spec.kernel_size - 1)
    left = total if spec.padding_mode == CAUSAL else total // 2
    xp = T.pad_axis(x, -1, left, total - left)
    out = None
    for j in range(spec.kernel_size):
        tap = T.reshape(
            T.slice_axis(weights, 2, j, j + 1), (spec.out_channels, spec.in_channels)
        )
        window = T.slice_axis(xp, -1, j * spec.dilation, j * spec.dilation + t_len)
        term = T.matmul(tap, window)
        out = term if out is None else T.add(out, term)
    if bias is not None:
        out = T.add(out, T.reshape(bias, (spec.out_channels, 1)))
    return out


def _stat_shape(param, ndim, axis):
    shape = [1] * ndim
    shape[axis] = param.shape[0]
    return T.reshape(param, shape)


def ref_instance_norm(x, gamma, beta, epsilon=1e-5, mask=None):
    if mask is None:
        mu = T.reduce_mean(x, axis=-1, keepdims=True)
        centered = T.add(x, T.neg(mu))
        var = T.reduce_mean(T.mul(centered, centered), axis=-1, keepdims=True)
    else:
        m = np.asarray(mask, dtype=x.dtype.type)
        denom = np.maximum(m.sum(axis=-1, keepdims=True), 1.0)
        mu = T.div(T.reduce_sum(T.mul(x, m), axis=-1, keepdims=True), Tensor(denom))
        centered = T.add(x, T.neg(mu))
        var = T.div(
            T.reduce_sum(T.mul(T.mul(centered, centered), m), axis=-1, keepdims=True),
            Tensor(denom),
        )
    inv = T.pow_scalar(T.add(var, float(epsilon)), -0.5)
    normed = T.mul(centered, inv)
    return T.add(T.mul(normed, _stat_shape(gamma, x.ndim, -2)), _stat_shape(beta, x.ndim, -2))


def ref_channel_norm(x, gamma, beta, epsilon=1e-5, axis=-2):
    mu = T.reduce_mean(x, axis=axis, keepdims=True)
    centered = T.add(x, T.neg(mu))
    var = T.reduce_mean(T.mul(centered, centered), axis=axis, keepdims=True)
    inv = T.pow_scalar(T.add(var, float(epsilon)), -0.5)
    normed = T.mul(centered, inv)
    return T.add(
        T.mul(normed, _stat_shape(gamma, x.ndim, axis)), _stat_shape(beta, x.ndim, axis)
    )


def ref_gated_block(kind, x, transform_pre, gate_pre):
    if kind == "highway":
        gate = T.sigmoid(gate_pre)
        carry = T.add(1.0, T.neg(gate))
        return T.add(T.mul(gate, T.relu(transform_pre)), T.mul(carry, x))
    return T.mul(transform_pre, T.sigmoid(gate_pre))


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
        x_cf = rng.normal(size=lead + (3, t_len))
        arrays = [x_cf, rng.normal(size=(4, 3, k))]
        if with_bias:
            arrays.append(rng.normal(size=(4,)))

        def channels_last(xx, *params):
            out = nn.conv1d_cl(T.swap_axes(xx, -1, -2), spec, *params)
            return T.swap_axes(out, -1, -2)

        def reference(xx, *params):
            return ref_conv1d(xx, spec, *params)

        assert_same_op(channels_last, reference, arrays)
        assert_same_op(lambda xx, *p: nn.conv1d(xx, spec, *p), reference, arrays)


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


# -- normalization -----------------------------------------------------------


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("shape", [(2, 5, 6), (5, 6)])
def test_channel_norm_matches_composition(axis, shape):
    rng = np.random.default_rng(len(shape) - axis)
    c = shape[axis]
    arrays = [rng.normal(size=shape), rng.uniform(0.5, 1.5, (c,)), rng.normal(size=(c,))]
    assert_same_op(
        lambda x, g, b: nn.channel_norm(x, g, b, axis=axis),
        lambda x, g, b: ref_channel_norm(x, g, b, axis=axis),
        arrays,
    )


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(3, 4, 9), (4, 9)])
def test_instance_norm_matches_composition(masked, shape):
    rng = np.random.default_rng(7 + masked)
    mask = None
    if masked:
        mask = np.ones(shape[:-2] + (1, shape[-1]))
        mask[..., 6:] = 0.0
        if len(shape) == 3:
            mask[1, :, 3:] = 0.0  # a shorter row in the batch
    c = shape[-2]
    arrays = [rng.normal(size=shape), rng.uniform(0.5, 1.5, (c,)), rng.normal(size=(c,))]
    assert_same_op(
        lambda x, g, b: nn.instance_norm(x, g, b, mask=mask),
        lambda x, g, b: ref_instance_norm(x, g, b, mask=mask),
        arrays,
    )


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


def test_sigmoid_array_is_stable_at_extremes():
    x = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
    s = T.sigmoid_array(x)
    assert np.all(np.isfinite(s))
    np.testing.assert_array_equal(s[[0, 2, 4]], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(s[1], np.exp(-40.0) / (1.0 + np.exp(-40.0)), rtol=1e-15)
