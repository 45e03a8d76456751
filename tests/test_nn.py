"""Network primitives against hand-derived values.

Every expected constant below was worked out by hand (or with exact
fractions) before being frozen here; none were copied from the
implementation's own output.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqskip import nn
from seqskip.errors import ConfigurationError, EvaluationError, ValidationError
from seqskip.nn import Conv1dSpec
from seqskip.tensor import Tensor


def _column(values):
    """A one-channel timeline ``[T, 1]``."""
    return np.array(values, dtype=np.float64)[:, None]


def test_causal_conv_tap_orientation():
    # out[t] = 10*x[t-1] + 1*x[t], past padded with zero
    x = Tensor(_column([1.0, 2.0, 3.0, 4.0]))
    w = Tensor(np.array([[[10.0, 1.0]]]))
    out = nn.conv1d_cl(x, Conv1dSpec(1, 1, 2, 1, "causal"), w)
    np.testing.assert_allclose(out.data, _column([1.0, 12.0, 23.0, 34.0]))


def test_causal_conv_dilation_reaches_back():
    # d=2: out[t] = x[t-2] + x[t]
    x = Tensor(_column([1.0, 2.0, 3.0, 4.0]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    out = nn.conv1d_cl(x, Conv1dSpec(1, 1, 2, 2, "causal"), w)
    np.testing.assert_allclose(out.data, _column([1.0, 2.0, 4.0, 6.0]))


def test_noncausal_conv_symmetric_window():
    # k=3 centred: out[t] = 1*x[t-1] + 0*x[t] + 2*x[t+1]
    x = Tensor(_column([1.0, 2.0, 3.0]))
    w = Tensor(np.array([[[1.0, 0.0, 2.0]]]))
    out = nn.conv1d_cl(x, Conv1dSpec(1, 1, 3, 1, "noncausal"), w)
    np.testing.assert_allclose(out.data, _column([4.0, 7.0, 2.0]))


def test_conv_bias_and_batch():
    x = Tensor(np.ones((2, 3, 1)))
    w = Tensor(np.ones((1, 1, 1)))
    out = nn.conv1d_cl(x, Conv1dSpec(1, 1, 1), w, Tensor(np.array([0.5])))
    np.testing.assert_allclose(out.data, np.full((2, 3, 1), 1.5))


def test_conv_shape_contracts():
    x = Tensor(np.ones((4, 1)))
    with pytest.raises(ConfigurationError):
        nn.conv1d_cl(x, Conv1dSpec(1, 1, 2), Tensor(np.ones((1, 1, 3))))
    with pytest.raises(ConfigurationError):
        nn.conv1d_cl(x, Conv1dSpec(2, 1, 2), Tensor(np.ones((1, 2, 2))))
    with pytest.raises(ValidationError):
        nn.conv1d_cl(Tensor(np.ones((0, 1))), Conv1dSpec(1, 1, 2),
                     Tensor(np.ones((1, 1, 2))))


def test_instance_norm_hand_case():
    # mean 2, pop var 2/3: (1-2)/sqrt(2/3 + 1e-5) = -sqrt(3/2)*(1 - 7.5e-6)
    x = Tensor(_column([1.0, 2.0, 3.0])[None])  # [B=1, T=3, C=1]
    out = nn.instance_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)))
    np.testing.assert_allclose(
        out.data, [_column([-1.2247357, 0.0, 1.2247357])], rtol=1e-6)
    scaled = nn.instance_norm(x, Tensor(np.array([2.0])), Tensor(np.array([1.0])))
    np.testing.assert_allclose(
        scaled.data, [_column([-1.4494714, 1.0, 3.4494714])], rtol=1e-6)


def test_instance_norm_mask_ignores_padding():
    # The rows of a session of 3, then an inert row: the session's statistics
    # leave the inert row out, which is its own session and comes out as beta.
    x = _column([1.0, 2.0, 3.0, 99.0])
    out = nn.instance_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.array([0.5])),
                           nn.Rows.packed([3], 4))
    np.testing.assert_allclose(
        out.data[:, 0], [-0.7247357, 0.5, 1.7247357, 0.5], rtol=1e-6)


def test_channel_norm_normalizes_across_channels():
    x = Tensor(np.array([[[1.0, 3.0]]]))  # [B=1, T=1, C=2]
    out = nn.channel_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[[-1.0, 1.0]]], rtol=1e-4)


def test_softmax_hand_case():
    out = nn.softmax(Tensor(np.array([0.0, np.log(2.0)])))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], rtol=1e-6)


def test_attention_hand_case():
    # scores [1/sqrt(2), 0]; softmax weight 0.6697616 on the first value
    q = Tensor(np.array([[1.0, 0.0]]))
    k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = Tensor(np.array([[1.0], [0.0]]))
    rows, k_rows = nn.Rows.packed([1], 1), nn.Rows.packed([2], 2)
    np.testing.assert_allclose(nn.attention(q, k, v, rows, k_rows).data, [[0.6697616]],
                               rtol=1e-6)
    # The identity as values reads out the weights themselves.
    np.testing.assert_allclose(nn.attention(q, k, Tensor(np.eye(2)), rows, k_rows).data,
                               [[0.6697616, 0.3302384]], rtol=1e-6)


def test_attention_mask_excludes_keys():
    # One session of one key row, then an inert row that would dominate.
    q = Tensor(np.array([[1.0, 0.0]]))
    k = Tensor(np.array([[0.0, 1.0], [5.0, 0.0]]))
    v = Tensor(np.array([[0.0], [1.0]]))
    rows, k_rows = nn.Rows.packed([1], 1), nn.Rows.packed([1], 2)
    out = nn.attention(q, k, v, rows, k_rows)
    np.testing.assert_allclose(out.data, [[0.0]])  # only the zero value visible
    w = nn.attention(q, k, Tensor(np.eye(2)), rows, k_rows).data
    np.testing.assert_allclose(w, [[1.0, 0.0]])
    # Causal: a session's row t reads its rows 0..t only.
    x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]]))
    w = nn.attention(x, x, Tensor(np.eye(3)), nn.Rows.packed([1, 2], 3), causal=True).data
    np.testing.assert_allclose(w[:2], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_multihead_splits_dimensions():
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(size=(6, 8)))
    k = Tensor(rng.normal(size=(10, 8)))
    v = Tensor(rng.normal(size=(10, 8)))
    rows, k_rows = nn.Rows.packed([3, 3], 6), nn.Rows.packed([5, 5], 10)
    out = nn.attention(q, k, v, rows, k_rows, heads=4)
    assert out.shape == (6, 8)
    with pytest.raises(ConfigurationError):
        nn.attention(q, k, v, rows, k_rows, heads=3)  # 8 not divisible by 3


def _logit(p):
    return np.log(p / (1.0 - p))


def test_bce_hand_values():
    np.testing.assert_allclose(
        nn.bce_with_logits(Tensor(np.array([_logit(0.9)])), np.array([1.0]), np.ones(1)).data,
        -np.log(0.9), rtol=1e-6)
    np.testing.assert_allclose(
        nn.bce_with_logits(Tensor(np.array([0.0, 0.0])), np.array([0.0, 1.0]), np.ones(2)).data,
        np.log(2.0), rtol=1e-6)


def test_bce_mask_averages_kept_entries():
    z = Tensor(np.array([_logit(0.9), -1.23]))
    out = nn.bce_with_logits(z, np.array([1.0, 1.0]), mask=np.array([1.0, 0.0]))
    np.testing.assert_allclose(out.data, -np.log(0.9), rtol=1e-6)
    with pytest.raises(EvaluationError):
        nn.bce_with_logits(z, np.array([1.0, 1.0]), mask=np.zeros(2))


@pytest.mark.parametrize("z", [17.0, 20.0, 40.0])
def test_bce_keeps_its_gradient_where_the_sigmoid_saturates(z):
    # float32 sigmoid rounds to exactly 1 from z ~ 17 on; a loss on that
    # probability would be clipped there and send back no gradient.
    for sign, target in ((1.0, 0.0), (-1.0, 1.0)):
        x = Tensor(np.array([sign * z], dtype=np.float32), requires_grad=True)
        loss = nn.bce_with_logits(x, np.array([target]), np.ones(1))
        loss.backward()
        assert loss.data.dtype == np.float32
        np.testing.assert_allclose(loss.data, z, rtol=1e-6)
        np.testing.assert_allclose(x.grad, [sign], rtol=1e-6)


def test_mse_hand_value():
    out = nn.mse(Tensor(np.array([1.0, 3.0])), np.array([0.0, 0.0]), np.ones(2))
    np.testing.assert_allclose(out.data, 5.0)


def test_gated_block_hand_values():
    one, three, zero = (Tensor(np.array([v])) for v in (1.0, 3.0, 0.0))
    np.testing.assert_allclose(
        nn.gated_block("highway", one, three, zero).data, [2.0])
    np.testing.assert_allclose(
        nn.gated_block("glu", one, Tensor(np.array([4.0])), zero).data, [2.0])
    big = Tensor(np.array([30.0]))
    # saturated gate passes the transform branch through
    np.testing.assert_allclose(
        nn.gated_block("highway", one, three, big).data, [3.0], atol=1e-6)
    with pytest.raises(ConfigurationError):
        nn.gated_block("residual", one, three, zero)
    with pytest.raises(ConfigurationError):
        nn.gated_block("highway", one, Tensor(np.ones(2)), zero)


@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(seed):
    x = np.random.default_rng(seed).normal(0.0, 5.0, size=(3, 7))
    out = nn.softmax(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), rtol=1e-6)
    assert np.all(out >= 0)


@given(st.integers(0, 2**32 - 1))
def test_softmax_shift_invariance(seed):
    x = np.random.default_rng(seed).normal(size=(4,))
    a = nn.softmax(Tensor(x)).data
    b = nn.softmax(Tensor(x + 100.0)).data
    np.testing.assert_allclose(a, b, rtol=1e-5)


@given(st.integers(0, 2**32 - 1))
def test_attention_weights_are_convex(seed):
    rng = np.random.default_rng(seed)
    q = Tensor(rng.normal(size=(3, 4)))
    k = Tensor(rng.normal(size=(5, 4)))
    rows, k_rows = nn.Rows.packed([3], 3), nn.Rows.packed([5], 5)
    w = nn.attention(q, k, Tensor(np.eye(5)), rows, k_rows).data  # identity values: the weights
    assert np.all(w >= 0)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones(3), rtol=1e-6)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_bce_minimized_at_target(p, t):
    at_t = nn.bce_with_logits(Tensor(np.array([_logit(t)])), np.array([t]), np.ones(1)).data
    at_p = nn.bce_with_logits(Tensor(np.array([_logit(p)])), np.array([t]), np.ones(1)).data
    assert at_p >= at_t - 1e-9
