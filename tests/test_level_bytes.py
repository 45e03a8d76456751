"""The fused gated level keeps the float32 bytes of the level it replaced.

``handmade.reference_gated_level`` is ``nn.gated_level`` as it computed before
its forward and backward worked in place. Both run on the same machine, so the
comparison does not depend on which BLAS kernels the CPU picks.
"""

import numpy as np
import pytest
from handmade import Episode, make_batch, reference_gated_level

from seqskip import nn
from seqskip import tensor as T
from seqskip.models import GATES, ModelConfig, build
from seqskip.nn import CAUSAL, Conv1dSpec
from seqskip.optim import Adam
from seqskip.tensor import Tensor
from seqskip.trainer import batch_loss

WIDTH = 32
# Sessions shorter than every dilation from 2 on, one of exactly 16 and one longer,
# packed with inert rows after them.
LENGTHS = [1, 3, 20, 7, 16, 2, 17, 5]
N_ROWS = sum(LENGTHS) + 6


def _level(fn, kind, kernel, dilation, width, rng_seed):
    """``fn``'s output, also under ``no_grad``, and its seven gradients, float32, on one
    ragged batch of rows."""
    rng = np.random.default_rng(rng_seed)
    spec = Conv1dSpec(width, width, kernel, dilation, CAUSAL)
    rows = nn.Rows.packed(LENGTHS, N_ROWS)
    shapes = [(N_ROWS, width)] + [(width, width, kernel), (width,), (width,)] * 2
    arrays = [rng.normal(0.0, 0.5, s).astype(np.float32) for s in shapes]
    seed_grad = rng.normal(0.0, 1.0, (N_ROWS, width)).astype(np.float32)
    x, *params = (Tensor(a, requires_grad=True) for a in arrays)
    out = fn(kind, x, spec, params[:3], params[3:], rows)
    T.reduce_sum(T.mul(out, Tensor(seed_grad))).backward()
    with T.no_grad():
        inferred = fn(kind, Tensor(arrays[0]), spec, params[:3], params[3:], rows)
    return [out.data, inferred.data] + [t.grad for t in (x, *params)]


# 32 as the benchmark trains; 24 is no power of two, so no division by it is exact.
@pytest.mark.parametrize("width", [WIDTH, 24])
@pytest.mark.parametrize("dilation", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("kind", GATES)
def test_gated_level_keeps_the_reference_bytes(kind, kernel, dilation, width):
    seed = dilation * 10 + kernel
    got = _level(nn.gated_level, kind, kernel, dilation, width, seed)
    want = _level(reference_gated_level, kind, kernel, dilation, width, seed)
    names = ["output", "output under no_grad", "x", "t.w", "t.gamma", "t.beta",
             "g.w", "g.gamma", "g.beta"]
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype == np.float32, name
        assert a.tobytes() == b.tobytes(), name


def _episode(rng, length, in_dim):
    t_s = length // 2
    x = rng.normal(0.0, 0.5, size=(length, in_dim)).astype(np.float32)
    y = rng.integers(0, 2, size=length).astype(np.int8)
    return Episode("ep", x[:t_s], x[t_s:], y[:t_s], y[t_s:])


def _three_adam_steps(gate):
    rng = np.random.default_rng(11)
    batches = [make_batch([_episode(rng, int(rng.integers(10, 21)), 10) for _ in range(16)])
               for _ in range(3)]
    model = build(ModelConfig("seq1HL", width=WIDTH, gate=gate, seed=4), 10)
    opt = Adam(model.vector, lr=1e-2)
    for batch in batches:
        batch_loss(model, batch).backward()
        opt.step(model.gradient())
        model.zero_grad()
    return model.vector.copy()


@pytest.mark.parametrize("gate", GATES)
def test_seq1HL_steps_keep_the_reference_bytes(gate, monkeypatch):
    got = _three_adam_steps(gate)
    monkeypatch.setattr(nn, "gated_level", reference_gated_level)
    want = _three_adam_steps(gate)
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()
