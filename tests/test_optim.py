"""Adam update rule against closed-form single/double-step values."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqskip import tensor as T
from seqskip.errors import ConfigurationError
from seqskip.models import build, default_config
from seqskip.optim import Adam
from seqskip.tensor import Tensor


def _vec(values, dtype=np.float64):
    return np.array(values, dtype=dtype)


def _step(opt, grad):
    opt.step(np.array(grad, dtype=opt.vector.dtype))
    return opt.vector


def test_first_step_is_lr_sized():
    # bias correction makes m_hat = g, v_hat = g^2 on step one, so the
    # update is -lr * g/(|g| + eps) = -lr * sign(g) up to eps
    out = _step(Adam(_vec([0.0, 0.0]), lr=1e-3), [2.5, -0.1])
    expect = -1e-3 * np.array([2.5, -0.1]) / (np.array([2.5, 0.1]) + 1e-8)
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_second_step_hand_value():
    # constant gradient g=1: m_hat = 1, v_hat = 1 at every step
    w = _vec([10.0])
    opt = Adam(w, lr=0.5)
    for _ in range(2):
        _step(opt, [1.0])
    np.testing.assert_allclose(w, [10.0 - 2 * 0.5 / (1 + 1e-8)], rtol=1e-12)


def test_moments_persist_across_steps():
    opt = Adam(_vec([0.0]))
    _step(opt, [1.0])
    _step(opt, [0.0])
    np.testing.assert_allclose(opt.m, [0.09], rtol=1e-12)  # 0.9*0.1
    assert opt.step_count == 2


def test_missing_grad_decays_moments():
    w = _vec([0.0])
    opt = Adam(w, lr=0.1)
    _step(opt, [1.0])
    after_first = w.copy()
    _step(opt, [0.0])  # no gradient reads as zeros: momentum still pushes, but less
    assert w[0] < after_first[0]
    np.testing.assert_allclose(opt.m, [0.09], rtol=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ConfigurationError, match="gradient shape"):
        Adam(_vec([0.0, 0.0])).step(np.zeros(3))


def test_gradient_of_another_dtype_rejected():
    # The step writes scratch values into the gradient, so it must be
    # laid out exactly like the vector.
    with pytest.raises(ConfigurationError, match="gradient shape"):
        Adam(_vec([0.0, 0.0], np.float32)).step(np.zeros(2))


def test_step_consumes_the_gradient_as_scratch():
    grad = np.array([0.5, -2.0])
    opt = Adam(_vec([0.0, 0.0]))
    opt.step(grad)
    assert not np.array_equal(grad, [0.5, -2.0])
    # the vector, its two moments and one scratch buffer
    assert sum(isinstance(a, np.ndarray) for a in vars(opt).values()) == 4


def test_hyperparameter_validation():
    for kw in (
        {"lr": 0.0}, {"lr": math.nan}, {"lr": math.inf},
        {"beta1": 1.0}, {"beta1": math.nan}, {"beta2": 0.0},
        {"epsilon": 0.0}, {"epsilon": math.nan}, {"epsilon": math.inf}, {"epsilon": -math.inf},
    ):
        with pytest.raises(ConfigurationError):
            Adam(_vec([0.0]), **kw)


def _model():
    return build(default_config("rnb1", width=4), 6)


def test_updates_live_tensors_in_their_dtype():
    model = _model()
    before = {k: p.data.copy() for k, p in model.params.items()}
    opt = Adam(model.vector, lr=0.1)
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    opt.step(model.gradient())
    for k, p in model.params.items():
        np.testing.assert_allclose(p.data, before[k] - 0.1, rtol=1e-5, atol=1e-7)
        assert p.data.dtype == np.float32
    model.zero_grad()
    assert all(p.grad is None for p in model.params.values())


def test_in_place_moments_match_out_of_place_update_bit_for_bit():
    # The expressions of a fresh-array per-tensor Adam, in float32, over
    # steps that include an unset gradient (treated as zeros there).
    rng = np.random.default_rng(0)
    model = _model()
    opt = Adam(model.vector, lr=1e-2)
    params = model.params
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(x) for k, x in ref.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    for t in range(1, 7):
        for k, p in params.items():
            unset = (t, k) == (3, "rn.fc1.w")
            p.grad = None if unset else rng.normal(size=p.shape).astype(np.float32)
        opt.step(model.gradient())
        for k, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(ref[k])
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v[k] / (1.0 - b2**t)
            new = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            ref[k] = new.astype(ref[k].dtype, copy=False)
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == ref[k].tobytes(), (t, k)
        assert opt.m.tobytes() == np.concatenate([x.ravel() for x in m.values()]).tobytes()
        assert opt.v.tobytes() == np.concatenate([x.ravel() for x in v.values()]).tobytes()


def test_model_gradient_rejects_a_mis_shaped_gradient():
    model = _model()
    model.params["embed.b"].grad = np.zeros(5, dtype=np.float32)
    with pytest.raises(ConfigurationError, match="gradient shape .* for 'embed.b'"):
        model.gradient()


def test_a_first_gradient_of_negative_zero_keeps_its_sign():
    # The first accumulation writes; adding it to a zeroed buffer would give +0.0.
    model = _model()
    p = model.params["embed.b"]
    neg_zero, ones = np.full(p.shape, -0.0, np.float32), np.ones(p.shape, np.float32)
    model.zero_grad()
    T.reduce_sum(T.mul(p, Tensor(neg_zero))).backward()
    start = sum(q.size for q in itertools.takewhile(lambda q: q is not p, model.params.values()))
    assert np.signbit(model.gradient()[start : start + p.size]).all()
    model.zero_grad()  # a later accumulation adds in place
    T.reduce_sum(T.add(T.mul(p, Tensor(neg_zero)), T.mul(p, Tensor(ones)))).backward()
    assert p.grad.tobytes() == ones.tobytes() and np.shares_memory(p.grad, model._grad)


def test_lr_setter_guard():
    opt = Adam(_vec([0.0]))
    opt.lr = 0.5
    assert opt.lr == 0.5
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            opt.lr = bad
    assert opt.lr == 0.5


@given(st.integers(0, 2**32 - 1))
def test_step_magnitude_bounded_by_lr(seed):
    # per-coordinate |update| <= lr * |m_hat|/sqrt(v_hat); for the first
    # step that ratio is 1, so no coordinate moves farther than ~lr
    rng = np.random.default_rng(seed)
    g = rng.normal(0.0, 10.0, size=5)
    g[np.abs(g) < 1e-3] = 1.0
    out = _step(Adam(np.zeros(5), lr=1e-2), g)
    assert np.all(np.abs(out) <= 1e-2 * (1 + 1e-6))


@given(st.integers(0, 2**32 - 1))
def test_descends_a_quadratic(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 2.0, size=3)
    opt = Adam(w, lr=0.05)
    start = float((w**2).sum())
    for _ in range(200):
        opt.step(2.0 * w)
    assert float((w**2).sum()) < max(start * 0.05, 1e-4)
