"""Adam update rule against closed-form single/double-step values."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqskip.errors import ConfigurationError
from seqskip.optim import Adam
from seqskip.tensor import Tensor


def _param(values, dtype=np.float64):
    return Tensor(np.array(values, dtype=dtype), requires_grad=True)


def _step(opt, p, grad):
    p.grad = None if grad is None else np.array(grad, dtype=p.data.dtype)
    opt.step()
    return p.data


def test_first_step_is_lr_sized():
    # bias correction makes m_hat = g, v_hat = g^2 on step one, so the
    # update is -lr * g/(|g| + eps) = -lr * sign(g) up to eps
    p = _param([0.0, 0.0])
    out = _step(Adam({"w": p}, lr=1e-3), p, [2.5, -0.1])
    expect = -1e-3 * np.array([2.5, -0.1]) / (np.array([2.5, 0.1]) + 1e-8)
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_second_step_hand_value():
    # constant gradient g=1: m_hat = 1, v_hat = 1 at every step
    p = _param([10.0])
    opt = Adam({"w": p}, lr=0.5)
    for _ in range(2):
        _step(opt, p, [1.0])
    np.testing.assert_allclose(p.data, [10.0 - 2 * 0.5 / (1 + 1e-8)], rtol=1e-12)


def test_moments_persist_across_steps():
    p = _param([0.0])
    opt = Adam({"w": p})
    _step(opt, p, [1.0])
    _step(opt, p, [0.0])
    np.testing.assert_allclose(opt.m["w"], [0.09], rtol=1e-12)  # 0.9*0.1
    assert opt.step_count == 2


def test_missing_grad_decays_moments():
    p = _param([0.0])
    opt = Adam({"w": p}, lr=0.1)
    _step(opt, p, [1.0])
    after_first = p.data.copy()
    _step(opt, p, None)  # no grad: momentum still pushes, but less
    assert p.data[0] < after_first[0]
    np.testing.assert_allclose(opt.m["w"], [0.09], rtol=1e-12)


def test_shape_mismatch_rejected():
    p = _param([0.0, 0.0])
    p.grad = np.zeros(3)
    with pytest.raises(ConfigurationError, match="gradient shape"):
        Adam({"w": p}).step()


def test_hyperparameter_validation():
    for kw in ({"lr": 0.0}, {"beta1": 1.0}, {"beta2": 0.0}, {"epsilon": 0.0}):
        with pytest.raises(ConfigurationError):
            Adam({"w": _param([0.0])}, **kw)


def test_updates_live_tensors_in_their_dtype():
    p = _param([1.0], np.float32)
    opt = Adam({"p": p}, lr=0.1)
    _step(opt, p, [1.0])
    np.testing.assert_allclose(p.data, [1.0 - 0.1], rtol=1e-6)
    assert p.data.dtype == np.float32
    opt.zero_grad()
    assert p.grad is None


def test_in_place_moments_match_out_of_place_update_bit_for_bit():
    # The expressions of a fresh-array Adam, in float32, over steps that
    # include an unset gradient (treated as zeros there).
    rng = np.random.default_rng(0)
    shapes = {"a": (4, 3), "b": (5,)}
    params = {k: _param(rng.normal(size=s), np.float32) for k, s in shapes.items()}
    opt = Adam(params, lr=1e-2)
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(x) for k, x in ref.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    for t in range(1, 7):
        for k, p in params.items():
            p.grad = None if (t, k) == (3, "a") else rng.normal(size=shapes[k]).astype(np.float32)
        opt.step()
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
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()


def test_lr_setter_guard():
    opt = Adam({"p": _param([0.0])})
    opt.lr = 0.5
    assert opt.lr == 0.5
    with pytest.raises(ConfigurationError):
        opt.lr = -1.0


@given(st.integers(0, 2**32 - 1))
def test_step_magnitude_bounded_by_lr(seed):
    # per-coordinate |update| <= lr * |m_hat|/sqrt(v_hat); for the first
    # step that ratio is 1, so no coordinate moves farther than ~lr
    rng = np.random.default_rng(seed)
    g = rng.normal(0.0, 10.0, size=5)
    g[np.abs(g) < 1e-3] = 1.0
    p = _param(np.zeros(5))
    out = _step(Adam({"w": p}, lr=1e-2), p, g)
    assert np.all(np.abs(out) <= 1e-2 * (1 + 1e-6))


@given(st.integers(0, 2**32 - 1))
def test_descends_a_quadratic(seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(0.0, 2.0, size=3), requires_grad=True)
    opt = Adam({"w": w}, lr=0.05)
    start = float((w.data**2).sum())
    for _ in range(200):
        opt.zero_grad()
        w.grad = 2.0 * w.data
        opt.step()
    assert float((w.data**2).sum()) < max(start * 0.05, 1e-4)
