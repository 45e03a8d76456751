"""Autodiff core: hand-derived gradients plus algebraic properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqskip import tensor as T
from seqskip.errors import ContractError
from seqskip.tensor import Tensor


def _grad(fn, *arrays):
    ts = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    fn(*ts).backward()
    return [t.grad for t in ts]


small = arrays(np.float64, (2, 3), elements=st.floats(-3, 3, allow_nan=False))


def test_default_dtype_is_float32():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.arange(3)).dtype == np.float32  # ints promoted


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.mul(x, 2.0).backward()


def test_a_second_backward_through_a_graph_raises_and_adds_nothing():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.reduce_sum(T.mul(T.mul(x, 3.0), 1.0))
    loss.backward()
    assert x.grad.tolist() == [3.0]
    with pytest.raises(ContractError, match="backward has run through this graph"):
        loss.backward()
    assert x.grad.tolist() == [3.0]


def test_inference_builds_no_graph():
    out = T.sigmoid(T.add(Tensor([1.0]), Tensor([2.0])))
    assert out._parents == () and out._grad_fn is None


def test_add_mul_hand_gradients():
    gx, gy = _grad(lambda x, y: T.reduce_sum(T.add(T.mul(x, y), x)),
                   np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    np.testing.assert_allclose(gx, [4.0, 5.0])  # y + 1
    np.testing.assert_allclose(gy, [1.0, 2.0])  # x


def test_div_hand_gradient():
    gx, gy = _grad(lambda x, y: T.reduce_sum(T.div(x, y)),
                   np.array([6.0]), np.array([2.0]))
    np.testing.assert_allclose(gx, [0.5])          # 1/y
    np.testing.assert_allclose(gy, [-1.5])         # -x/y^2


def test_matmul_gradient_matches_transpose_rule():
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    b = np.arange(12, dtype=np.float64).reshape(3, 4)
    ga, gb = _grad(lambda x, y: T.reduce_sum(T.matmul(x, y)), a, b)
    np.testing.assert_allclose(ga, np.ones((2, 4)) @ b.T)
    np.testing.assert_allclose(gb, a.T @ np.ones((2, 4)))


@pytest.mark.parametrize("lead", [(5, 2), (2, 3, 4), (0, 3), (2, 0)])
def test_matmul_against_weight_is_one_gemm_over_leading_axes(lead):
    # [..., K] @ [K, M] flattens the leading axes: same values and
    # gradients as numpy's batched product, whose weight gradient is a
    # per-batch [..., K, M] stack summed over the leading axes.
    rng = np.random.default_rng(2)
    a = rng.normal(size=lead + (3,))
    b = rng.normal(size=(3, 4))
    r = rng.normal(size=lead + (4,))
    ga, gb = _grad(lambda x, y: T.reduce_sum(T.mul(T.matmul(x, y), Tensor(r))), a, b)
    np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ga, r @ b.T, rtol=1e-12, atol=1e-15)
    stack = np.swapaxes(a, -1, -2) @ r
    want_gb = stack.reshape(-1, 3, 4).sum(axis=0) if stack.ndim > 2 else stack
    np.testing.assert_allclose(gb, want_gb, rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match="do not align"):
        T.matmul(Tensor(a), Tensor(b.T))


def test_broadcast_add_reduces_gradient():
    # [2,3] + [3] -> bias grad sums over the broadcast rows
    gx, gb = _grad(lambda x, b: T.reduce_sum(T.add(x, b)),
                   np.zeros((2, 3)), np.zeros(3))
    np.testing.assert_allclose(gx, np.ones((2, 3)))
    np.testing.assert_allclose(gb, [2.0, 2.0, 2.0])


def test_reuse_accumulates():
    (g,) = _grad(lambda x: T.reduce_sum(T.add(x, x)), np.array([5.0]))
    np.testing.assert_allclose(g, [2.0])


def test_sigmoid_slope_at_zero():
    (g,) = _grad(lambda x: T.reduce_sum(T.sigmoid(x)), np.array([0.0]))
    np.testing.assert_allclose(g, [0.25])


def test_relu_gates():
    (g,) = _grad(lambda x: T.reduce_sum(T.relu(x)), np.array([-2.0, 3.0]))
    np.testing.assert_allclose(g, [0.0, 1.0])


def test_exp_pow_gradients():
    (g,) = _grad(lambda x: T.reduce_sum(T.exp(x)), np.array([0.0, 1.0]))
    np.testing.assert_allclose(g, np.exp([0.0, 1.0]))
    (g,) = _grad(lambda x: T.reduce_sum(T.pow_scalar(x, 3.0)), np.array([2.0]))
    np.testing.assert_allclose(g, [12.0])


def test_shape_ops_route_gradient_back():
    def fn(x):
        y = T.transpose(x, (1, 0))
        y = T.reshape(y, (6,))
        y = T.pad_axis(y, 0, 2, 1)
        y = T.slice_axis(y, 0, 2, 8)
        return T.reduce_sum(T.mul(y, y))

    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    (g,) = _grad(fn, x)
    np.testing.assert_allclose(g, 2.0 * x)


def test_concat_splits_gradient():
    a = np.ones(2)
    b = np.ones(3)
    ga, gb = _grad(
        lambda x, y: T.reduce_sum(T.mul(T.concat([x, y], axis=0),
                                        Tensor(np.arange(5.0)))), a, b)
    np.testing.assert_allclose(ga, [0.0, 1.0])
    np.testing.assert_allclose(gb, [2.0, 3.0, 4.0])


def test_reduce_mean_gradient():
    (g,) = _grad(lambda x: T.reduce_mean(x), np.zeros((2, 5)))
    np.testing.assert_allclose(g, np.full((2, 5), 0.1))


@given(small, small)
def test_add_commutes(a, b):
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data,
                                  T.add(Tensor(b), Tensor(a)).data)


@given(small)
def test_reduce_sum_matches_numpy(a):
    got = T.reduce_sum(Tensor(a), axis=1).data
    np.testing.assert_allclose(got, a.sum(axis=1), rtol=1e-12)


@given(small)
def test_transpose_involution(a):
    t2 = T.transpose(T.transpose(Tensor(a), (1, 0)), (1, 0)).data
    np.testing.assert_array_equal(t2, a)


@given(st.integers(0, 2**32 - 1))
def test_sigmoid_bounded_and_symmetric(seed):
    x = np.random.default_rng(seed).normal(0.0, 4.0, size=8)
    s = T.sigmoid(Tensor(x)).data
    assert np.all((s > 0) & (s < 1))
    np.testing.assert_allclose(
        s + T.sigmoid(Tensor(-x)).data, np.ones(8), rtol=1e-6)
