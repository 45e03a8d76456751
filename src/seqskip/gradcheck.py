"""Central finite-difference verification of every differentiable op.

Each case builds small random 64-bit inputs and a scalar-valued function
over them (vector outputs are collapsed with a fixed random projection).
Analytic gradients from the tape are compared elementwise against
central differences; the suite reports the worst relative error seen.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .nn import CAUSAL, NONCAUSAL, Conv1dSpec
from .rng import rng_stream
from .tensor import Tensor

EPS = 1e-6
TOLERANCE = 1e-4
DEFAULT_TRIALS = 25


def _project(out: Tensor, r: np.ndarray) -> Tensor:
    return T.reduce_sum(T.mul(out, Tensor(r)))


def _value(fn, arrays) -> float:
    return float(fn(*[Tensor(a) for a in arrays]).data)


def max_relative_error(fn, arrays) -> float:
    """Worst elementwise relative error between tape and central diffs."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*tensors).backward()
    worst = 0.0
    for slot, base in enumerate(arrays):
        analytic = tensors[slot].grad
        if analytic is None:
            analytic = np.zeros_like(base)
        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        for i in range(base.size):
            h = EPS * max(1.0, abs(base.reshape(-1)[i]))
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[slot].reshape(-1)[i] += h
            minus[slot].reshape(-1)[i] -= h
            flat[i] = (_value(fn, plus) - _value(fn, minus)) / (2.0 * h)
        # Floor the denominator so near-zero gradient elements are judged
        # by absolute error: central differences carry ~|f|*ulp/h ~ 1e-10
        # of roundoff noise, which would otherwise read as a large relative
        # error on elements whose true gradient is ~1e-7.
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-5)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


# -- case builders -----------------------------------------------------
# Each returns (input arrays, scalar function of those inputs as tensors).


def _away_from_zero(rng, shape, low=0.2, high=1.5):
    return rng.uniform(low, high, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _case_arith(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + np.where(rng.random((3, 4)) < 0.5, -2.0, 2.0)
    r = rng.normal(size=(3, 4))
    return [a, b], lambda x, y: _project(
        T.add(T.mul(x, y), T.div(x, y)), r
    )


def _case_matmul(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    r = rng.normal(size=(3, 2))
    return [a, b], lambda x, y: _project(T.matmul(x, y), r)


def _case_matmul_batched(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 2))
    r = rng.normal(size=(2, 3, 2))
    return [a, b], lambda x, y: _project(T.matmul(x, y), r)


def _case_matmul_4d(rng):
    a = rng.normal(size=(2, 3, 2, 4))
    b = rng.normal(size=(4, 3))
    r = rng.normal(size=(2, 3, 2, 3))
    return [a, b], lambda x, y: _project(T.matmul(x, y), r)


def _case_elementwise(rng):
    x = rng.normal(size=(2, 5))
    p = rng.uniform(0.5, 3.0, (2, 5))
    r = rng.normal(size=(2, 5))

    def fn(xx, pp):
        return _project(T.sigmoid(T.mul(T.exp(T.mul(xx, 0.5)), pp)), r)

    return [x, p], fn


def _case_relu(rng):
    # Values held away from the kink, where the subgradient makes finite
    # differences meaningless.
    x = _away_from_zero(rng, (3, 4))
    r = rng.normal(size=(3, 4))
    return [x], lambda xx: _project(T.relu(xx), r)


def _case_linear(rng):
    # A rectified and a plain layer over one 3-d input; redrawn until every
    # pre-activation is held away from the rectifier's kink.
    while True:
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
        if np.abs(x @ w + b).min() > 0.05:
            break
    r1, r2 = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 5))
    return [x, w, b], lambda xx, ww, bb: T.add(
        _project(nn.linear(xx, ww, bb, relu=True), r1), _project(nn.linear(xx, ww, bb), r2)
    )


def _case_pow(rng):
    x = rng.uniform(0.3, 2.0, (4,))
    r = rng.normal(size=(4,))
    return [x], lambda xx: _project(T.pow_scalar(xx, 1.7), r)


def _case_shape_ops(rng):
    x = rng.normal(size=(2, 3, 4))
    r = rng.normal(size=(2, 2, 4, 6))

    def fn(xx):
        y = T.transpose(xx, (2, 0, 1))
        z = T.reshape(y, (4, 6))
        z = T.pad_axis(z, 0, 1, 1)
        z = T.slice_axis(z, 0, 1, 5)
        z = T.concat([z, z], axis=0)
        z = T.broadcast_to(T.reshape(z, (2, 1, 4, 6)), (2, 2, 4, 6))
        return _project(z, r)

    return [x], fn


def _case_reduce(rng):
    x = rng.normal(size=(3, 4, 2))
    r = rng.normal(size=(3, 2))

    def fn(xx):
        s = T.reduce_sum(xx, axis=1)
        m = T.reduce_mean(xx, axis=(0, 2), keepdims=True)
        return T.add(_project(s, r), T.reduce_sum(m))

    return [x], fn


def _conv_case(dilation, mode, batched=False):
    def build(rng):
        c_in, c_out, k, t_len = 2, 3, 2 if mode == CAUSAL else 3, 7
        spec = Conv1dSpec(c_in, c_out, k, dilation, mode)
        lead = (2,) if batched else ()
        x = rng.normal(size=lead + (t_len, c_in))
        w = rng.normal(size=(c_out, c_in, k))
        b = rng.normal(size=(c_out,))
        r = rng.normal(size=lead + (t_len, c_out))
        return [x, w, b], lambda xx, ww, bb: _project(nn.conv1d_cl(xx, spec, ww, bb), r)

    return build


def _case_instance_norm(rng):
    x = rng.normal(size=(2, 8, 3))
    g = rng.uniform(0.5, 1.5, (3,))
    b = rng.normal(size=(3,))
    r = rng.normal(size=(2, 8, 3))
    return [x, g, b], lambda xx, gg, bb: _project(nn.instance_norm(xx, gg, bb), r)


def _case_instance_norm_masked(rng):
    x = rng.normal(size=(2, 8, 3))
    g = rng.uniform(0.5, 1.5, (3,))
    b = rng.normal(size=(3,))
    mask = np.ones((2, 8, 1))
    mask[:, 6:] = 0.0
    r = rng.normal(size=(2, 8, 3)) * mask
    return [x, g, b], lambda xx, gg, bb: _project(nn.instance_norm(xx, gg, bb, mask=mask), r)


def _case_channel_norm(rng):
    x = rng.normal(size=(2, 5, 4))
    g = rng.uniform(0.5, 1.5, (4,))
    b = rng.normal(size=(4,))
    r = rng.normal(size=(2, 5, 4))
    return [x, g, b], lambda xx, gg, bb: _project(nn.channel_norm(xx, gg, bb), r)


def _case_highway(rng):
    x = rng.normal(size=(3, 5))
    h = rng.normal(size=(3, 5)) + np.where(rng.random((3, 5)) < 0.5, -0.4, 0.4)
    g = rng.normal(size=(3, 5))
    r = rng.normal(size=(3, 5))
    return [x, h, g], lambda xx, hh, gg: _project(nn.gated_block("highway", xx, hh, gg), r)


def _case_glu(rng):
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5))
    r = rng.normal(size=(3, 5))
    return [a, b], lambda aa, bb: _project(nn.gated_block("glu", aa, aa, bb), r)


def _gated_level_case(kind, kernel, dilation, t_len, batched=False, lengths=None):
    def build(rng):
        spec, c, rows = Conv1dSpec(3, 3, kernel, dilation, CAUSAL), (3,), None
        if lengths is None:
            x, r = rng.normal(size=(2,) + ((2,) if batched else ()) + (t_len, 3))
        else:  # the rows of sessions of these lengths, inert zero rows after them
            mask = np.arange(t_len) < np.array(lengths)[:, None]
            x = np.zeros((16, 3))
            x[: sum(lengths)] = rng.normal(size=(len(lengths), t_len, 3))[mask]
            rows, r = nn.Rows.packed(lengths, 16), rng.normal(size=x.shape)
        # Small transform gammas and betas away from zero hold every
        # highway relu input off the kink: |pre| >= 0.5 - 0.3 * sqrt(2).
        transform = [rng.normal(size=(3, 3, kernel)), rng.uniform(0.1, 0.3, c),
                     _away_from_zero(rng, c, 0.5, 1.5)]
        gate = [rng.normal(size=(3, 3, kernel)), rng.uniform(0.5, 1.5, c), rng.normal(size=c)]
        return [x, *transform, *gate], lambda xx, *p: _project(
            nn.gated_level(kind, xx, spec, p[:3], p[3:], rows), r
        )

    return build


def _case_unpad(rng):
    # A padded head of sessions of 5, 2 and 4 rows to their rows, then 5 inert rows.
    mask = np.arange(5) < np.array([5, 2, 4])[:, None]
    values = rng.normal(size=mask.shape + (1,))
    r = rng.normal(size=16)
    return [values], lambda v: _project(nn.unpad(v, mask, 16), r)


def _case_session_mean(rng):
    # Sessions of 3, 1 and 2 rows, then 2 inert rows that reach no mean.
    counts = np.array([3, 1, 2])
    values = rng.normal(size=(8, 4))
    r = rng.normal(size=(3, 4))
    return [values], lambda v: _project(nn.session_mean(v, counts), r)


def _case_pair_linear(rng, relation=False):
    # Ragged sessions of (3, 2), (1, 3) and (2, 1) supports and queries, each half's rows
    # followed by 2 inert rows. The projection weighs every place of the padded grid,
    # so a gradient leaving a place past a session's supports or queries is caught.
    t_support, t_query = np.array([3, 1, 2]), np.array([2, 3, 1])
    b, s_len, q_len, width, n_out = 3, 3, 3, 3, 2
    support = rng.normal(size=(8, width))
    query = rng.normal(size=(8, width))
    user = rng.normal(size=(b, width))
    weight = rng.normal(size=(3 * width + 1, n_out))
    bias = rng.normal(size=(n_out,))
    labels = np.zeros(8)
    labels[:6] = rng.random(6) < 0.5
    labels[:2] = (0.0, 1.0)  # both label values appear
    r = rng.normal(size=(b, s_len, q_len, n_out))
    pairs = nn.Pairs(t_support, t_query)
    if relation:  # the pair layer's outputs as the relation net's hidden units
        return [support, query, weight, bias, rng.normal(size=(n_out, 1)), rng.normal(size=1),
                user], lambda *a: _project(
            nn.relation_logits(*a[:2], labels, *a[2:6], pairs, user=a[6]), r[..., 0])
    return [support, query, weight, bias, user], lambda fs, fq, w, bb, u: _project(
        nn.pair_linear(fs, fq, labels, w, bb, pairs, user=u), r
    )


def _case_softmax(rng):
    x = rng.normal(size=(3, 5))
    r = rng.normal(size=(3, 5))
    return [x], lambda xx: _project(nn.softmax(xx), r)


def _attention_case(heads, masked=False, batched=False):
    def build(rng):
        n, m, dk, dv = 3, 4, 8, 8
        lead = (2,) if batched else ()
        q = rng.normal(size=lead + (n, dk))
        k = rng.normal(size=lead + (m, dk))
        v = rng.normal(size=lead + (m, dv))
        mask = None
        if masked:
            admit = rng.random(lead + (n, m)) < 0.6
            admit[..., 0] = True
            mask = nn.AttentionMask.of(admit)
        r = rng.normal(size=lead + (n, dv))
        return [q, k, v], lambda qq, kk, vv: _project(
            nn.attention(qq, kk, vv, mask=mask, heads=heads), r
        )

    return build


def _case_bce(rng):
    # The first row's logits saturate a sigmoid, 17 <= |z| <= 40.
    z = rng.normal(0.0, 3.0, (3, 4))
    z[0] = _away_from_zero(rng, (4,), 17.0, 40.0)
    t = (rng.random((3, 4)) < 0.5).astype(np.float64)
    mask = rng.random((3, 4)) < 0.7
    mask.reshape(-1)[0] = True
    return [z], lambda zz: nn.bce_with_logits(zz, t, mask)


def _case_mse(rng):
    p = rng.normal(size=(3, 4))
    t = rng.normal(size=(3, 4))
    mask = rng.random((3, 4)) < 0.7
    mask.reshape(-1)[0] = True
    return [p], lambda pp: nn.mse(pp, t, mask)


CASES = {
    "arith": _case_arith,
    "matmul": _case_matmul,
    "matmul_batched": _case_matmul_batched,
    "matmul_4d": _case_matmul_4d,
    "elementwise": _case_elementwise,
    "relu": _case_relu,
    "linear": _case_linear,
    "pow": _case_pow,
    "shape_ops": _case_shape_ops,
    "reduce": _case_reduce,
    "conv_causal_d1": _conv_case(1, CAUSAL),
    "conv_causal_d2": _conv_case(2, CAUSAL, batched=True),
    "conv_causal_d4": _conv_case(4, CAUSAL),
    "conv_noncausal_d1": _conv_case(1, NONCAUSAL, batched=True),
    "conv_noncausal_d2": _conv_case(2, NONCAUSAL),
    "conv_noncausal_d4": _conv_case(4, NONCAUSAL, batched=True),
    "instance_norm": _case_instance_norm,
    "instance_norm_masked": _case_instance_norm_masked,
    "channel_norm": _case_channel_norm,
    "highway": _case_highway,
    "glu": _case_glu,
    "gated_level_highway": _gated_level_case("highway", 2, 2, 7, batched=True),
    "gated_level_glu": _gated_level_case("glu", 3, 2, 4),  # T below the receptive field, 5
    # Packed sessions of 6, 3 and 2 rows, two of them below the receptive field, 5.
    "gated_level_ragged": _gated_level_case("highway", 3, 2, 6, lengths=(6, 3, 2)),
    "unpad": _case_unpad,
    "session_mean": _case_session_mean,
    "pair_linear": _case_pair_linear,
    "relation_logits": lambda rng: _case_pair_linear(rng, relation=True),
    "softmax": _case_softmax,
    "attention_1head": _attention_case(1),
    "attention_masked": _attention_case(1, masked=True),
    "attention_8head": _attention_case(8, batched=True),
    "bce": _case_bce,
    "mse": _case_mse,
}


def run_case(name: str, trials: int = DEFAULT_TRIALS, seed: int = 0) -> float:
    build = CASES[name]
    worst = 0.0
    for trial in range(trials):
        rng = rng_stream(seed, "gradcheck", name, trial)
        arrays, fn = build(rng)
        worst = max(worst, max_relative_error(fn, arrays))
    return worst


def run_suite(trials: int = DEFAULT_TRIALS, seed: int = 0) -> dict[str, float]:
    """Worst relative error per case over ``trials`` random draws each."""
    return {name: run_case(name, trials, seed) for name in CASES}
