"""The metric family's relation layer by parts, against the pair concat.

``nn.pair_linear`` computes the first relation layer and ``wsum`` from
the support, query, label and user parts, each on its own rows and
broadcast over the (support, query) grid that ``nn.Pairs`` lays out.
``ref_forward_metric`` below is the composition it replaced: the padded
halves, every pair row concatenated into ``[B, S, Q, 3W+1]`` and sent
through an ordinary linear layer. Both run in float64 here.
``nn.relation_logits`` records the whole relation net up to its logits
as one node, a chunk of sessions at a time; ``ref_relation_logits`` is
the chain of nodes it replaced, and ``ref_relation_concat`` the same
chain on the pair concat over the whole padded batch.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from handmade import Episode, make_batch

from seqskip import nn
from seqskip import tensor as T
from seqskip.dataio import load_corpus
from seqskip.errors import ConfigurationError, ContractError
from seqskip.models import (
    KINDS, METRIC_KINDS, UE_KINDS, VOTE_KINDS, MetricOut, build, default_config,
)
from seqskip.synthgen import SynthConfig, generate
from seqskip.tensor import Tensor
from seqskip.trainer import batch_loss, build_episodes, load_model, predict_corpus

TOL = 1e-12
IN_DIM = 10
DATA = Path(__file__).parent / "data"


# -- the pair-concat reference -------------------------------------------


def _real(counts):
    return np.arange(max(counts)) < np.asarray(counts)[:, None]


def _padded(rows, counts):
    """``rows [N, W]``'s sessions as a padded ``[B, max(counts), W]`` block, zeros past each
    session's rows: a chain of slices, pads and one concat, whose backward gathers."""
    s_len, width = int(max(counts)), rows.shape[-1]
    starts = np.cumsum(counts) - counts
    return T.concat([T.reshape(T.pad_axis(T.slice_axis(rows, 0, a, a + c), 0, 0, s_len - c),
                               (1, s_len, width)) for a, c in zip(starts, counts)], axis=0)


def _padded_labels(labels, counts):
    """``labels [N, ...]``'s sessions as a padded ``[B, max(counts), ...]`` array."""
    labels = np.asarray(labels)
    out = np.zeros(_real(counts).shape + labels.shape[1:], labels.dtype)
    out[_real(counts)] = labels[: int(np.sum(counts))]
    return out


def ref_forward_metric(model, batch) -> MetricOut:
    """``Model.forward_metric`` as it was before the relation layer went by parts and the
    row-wise layers went to the packed rows: everything on the padded halves of a batch."""
    kind = model.config.kind
    w = model.config.width
    sup_mask = _real(batch.t_support).astype(batch.x.dtype)
    sup_x = _padded_labels(batch.sup.x, batch.t_support)
    b, s_max, _ = sup_x.shape
    qry_x = batch.queries(batch.x)
    q_max = qry_x.shape[1]
    f_s = T.relu(model._linear("embed", Tensor(sup_x[..., :-2])))
    f_q = T.relu(model._linear("embed", Tensor(qry_x[..., :-2])))

    fs_b = T.broadcast_to(T.reshape(f_s, (b, s_max, 1, w)), (b, s_max, q_max, w))
    fq_b = T.broadcast_to(T.reshape(f_q, (b, 1, q_max, w)), (b, s_max, q_max, w))
    y_col = batch.sup_y[:, :, None, None]
    y_b = Tensor(np.broadcast_to(y_col, (b, s_max, q_max, 1)).copy())
    parts = [fs_b, fq_b, y_b]
    if kind in UE_KINDS:
        inp = T.concat([f_s, Tensor(batch.sup_y[:, :, None])], axis=-1)
        e = T.mul(T.relu(model._linear("ue.fc", inp)), Tensor(sup_mask[:, :, None]))
        counts = sup_mask.sum(axis=1, keepdims=True)
        u = model._linear("ue.out", T.div(T.reduce_sum(e, axis=1), Tensor(counts)))
        parts.append(T.broadcast_to(T.reshape(u, (b, 1, 1, w)), (b, s_max, q_max, w)))
    pair = T.concat(parts, axis=-1)
    hidden = T.relu(model._linear("rn.fc1", pair))
    r = T.reshape(T.sigmoid(model._linear("rn.out", hidden)), (b, s_max, q_max))

    if kind == "rnbc2_ue":
        pair_w = T.sigmoid(T.reshape(model._linear("wsum", pair), (b, s_max, q_max)))
        prod = T.mul(T.mul(pair_w, r), Tensor(sup_mask[:, :, None]))
        head = T.add(T.reduce_sum(prod, axis=1), model._p("wsum.bias"))
    else:
        y_s = Tensor(batch.sup_y[:, :, None])
        agree = T.add(
            T.mul(r, y_s), T.mul(T.add(1.0, T.neg(r)), Tensor(1.0 - batch.sup_y[:, :, None]))
        )
        masked = T.mul(agree, Tensor(sup_mask[:, :, None]))
        counts = sup_mask.sum(axis=1, keepdims=True)
        head = T.div(T.reduce_sum(masked, axis=1), Tensor(counts))
    return MetricOut(r=r, head=head, pairs=nn.Pairs(batch.t_support, batch.t_query))


def ref_pair_linear(support, query, labels, weight, bias, pairs, user=None):
    """The pair concat over the padded halves of support and query rows, zero past each
    session's supports or queries."""
    t_support, t_query = pairs.t_support, pairs.t_query
    b = len(t_support)
    support, query = _padded(support, t_support), _padded(query, t_query)
    labels = _padded_labels(labels, t_support)
    s_len, ws = support.shape[1:]
    q_len, wq = query.shape[1:]
    grid = (b, s_len, q_len)
    parts = [
        T.broadcast_to(T.reshape(support, (b, s_len, 1, ws)), grid + (ws,)),
        T.broadcast_to(T.reshape(query, (b, 1, q_len, wq)), grid + (wq,)),
        Tensor(np.broadcast_to(labels[:, :, None, None], grid + (1,)).copy()),
    ]
    if user is not None:
        wu = user.shape[-1]
        parts.append(T.broadcast_to(T.reshape(user, (b, 1, 1, wu)), grid + (wu,)))
    real = _real(t_support)[:, :, None, None] & _real(t_query)[:, None, :, None]
    return T.mul(T.add(T.matmul(T.concat(parts, axis=-1), weight), bias), Tensor(real * 1.0))


def _relation_chain(pair):
    """The relation net as the chain of nodes it replaced, on a pair layer ``pair``."""
    def logits(support, query, labels, weight, bias, w_out, b_out, pairs, user=None):
        hidden = T.relu(pair(support, query, labels, weight, bias, pairs, user))
        out = T.add(T.matmul(hidden, w_out), b_out)
        return T.mul(T.reshape(out, out.shape[:-1]), Tensor(pairs.real.astype(out.dtype)))
    return logits


ref_relation_logits = _relation_chain(nn.pair_linear)  # the fused node's former chain
ref_relation_concat = _relation_chain(ref_pair_linear)  # the padded one-block composition


# -- helpers ---------------------------------------------------------------


def _episode(rng, t_s, t_q) -> Episode:
    x = rng.normal(0.0, 0.5, size=(t_s + t_q, IN_DIM))
    y = rng.integers(0, 2, size=t_s + t_q).astype(np.int8)
    x_s, x_q = x[:t_s].copy(), x[t_s:].copy()
    x_s[:, -2], x_s[:, -1] = y[:t_s], 0.0
    x_q[:, -2], x_q[:, -1] = 0.0, 1.0
    return Episode("ep", x_s, x_q, y[:t_s], y[t_s:])


def _ragged_batch64(seed=0):
    """A float64 batch whose sessions differ in both support and query length."""
    rng = np.random.default_rng(seed)
    sizes = [(1, 1), (3, 7), (8, 2), (5, 5), (2, 9)]
    batch = make_batch([_episode(rng, s, q) for s, q in sizes])
    return dataclasses.replace(batch, **{
        f.name: getattr(batch, f.name).astype(np.float64)
        for f in dataclasses.fields(batch)
        if isinstance(getattr(batch, f.name), np.ndarray)
        and getattr(batch, f.name).dtype == np.float32
    })


def _model64(kind, seed=3, width=12):
    model = build(default_config(kind, width=width, seed=seed), IN_DIM)
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    return model


def _loss_and_grads(model, batch, forward=None):
    for p in model.params.values():
        p.zero_grad()
    original = model.forward_metric
    if forward is not None:  # reads the batch itself, whatever views the loss derives
        model.forward_metric = lambda views: forward(model, batch)
    try:
        loss = batch_loss(model, batch)
    finally:
        model.forward_metric = original
    loss.backward()
    return loss, {name: p.grad.copy() for name, p in model.params.items()}


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _sessions(rng, b, most=6):
    """Support and query counts of ``b`` sessions, each 1 to ``most``, both ragged."""
    t_support, t_query = rng.integers(1, most + 1, b), rng.integers(1, most + 1, b)
    t_support[0], t_query[0] = most, 1  # the largest shapes sit in different sessions
    t_support[-1], t_query[-1] = 1, most
    return t_support, t_query


def _rows(rng, counts, width, inert=3):
    return rng.normal(size=(int(np.sum(counts)) + inert, width))


# -- the fused nodes against their compositions ------------------------------


@pytest.mark.parametrize("with_user", [False, True])
def test_pair_linear_matches_pair_concat(with_user):
    # Ragged sessions, each half's rows followed by inert rows: the values at every
    # place of the padded grid (zero past a session's places) and every parent gradient,
    # under a projection that weighs the padded places too.
    rng = np.random.default_rng(11)
    b, width, n_out = 5, 6, 7
    t_support, t_query = _sessions(rng, b)
    support, query = _rows(rng, t_support, width), _rows(rng, t_query, width)
    labels = (rng.random(len(support)) < 0.5).astype(np.float64)
    labels[int(t_support.sum()):] = 0.0
    user = rng.normal(size=(b, width)) if with_user else None
    rows = 2 * width + 1 + (width if with_user else 0)
    weight = rng.normal(size=(rows, n_out))
    bias = rng.normal(size=(n_out,))
    proj = rng.normal(size=(b, t_support.max(), t_query.max(), n_out))
    pairs = nn.Pairs(t_support, t_query)

    def run(fn):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in (support, query, weight, bias)]
        u = None if user is None else Tensor(user.copy(), requires_grad=True)
        out = fn(inputs[0], inputs[1], labels, inputs[2], inputs[3], pairs, u)
        T.reduce_sum(T.mul(out, Tensor(proj))).backward()
        grads = [t.grad for t in inputs] + ([] if u is None else [u.grad])
        return out.data, grads

    got, got_grads = run(nn.pair_linear)
    want, want_grads = run(ref_pair_linear)
    assert got.shape == want.shape
    assert not got[~pairs.real].any()
    assert _rel(got, want) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert _rel(g, w) <= TOL
    assert not got_grads[0][int(t_support.sum()):].any()  # inert rows
    assert not got_grads[1][int(t_query.sum()):].any()


def test_pair_linear_rejects_mismatched_parts():
    sup, qry = Tensor(np.zeros((5, 4))), Tensor(np.zeros((7, 4)))
    labels = np.zeros(5)
    bias = Tensor(np.zeros(6))
    pairs = nn.Pairs(np.array([2, 3]), np.array([4, 3]))
    w9 = Tensor(np.zeros((9, 6)))
    with pytest.raises(ConfigurationError, match="pair weight"):
        nn.pair_linear(sup, qry, labels, Tensor(np.zeros((13, 6))), bias, pairs)
    with pytest.raises(ConfigurationError, match="pair bias"):
        nn.pair_linear(sup, qry, labels, w9, Tensor(np.zeros(5)), pairs)
    for bad in (
        lambda: nn.pair_linear(sup, qry, np.zeros(4), w9, bias, pairs),  # labels
        lambda: nn.pair_linear(sup, qry, labels, Tensor(np.zeros((13, 6))), bias, pairs,
                               user=Tensor(np.zeros((3, 4)))),  # user of 3 sessions
        lambda: nn.pair_linear(sup, qry, labels, w9, bias, nn.Pairs([3, 3], [4, 3])),
        lambda: nn.pair_linear(sup, qry, labels, w9, bias, nn.Pairs([2, 3], [4, 4])),
        lambda: nn.pair_linear(Tensor(np.zeros((1, 5, 4))), qry, labels, w9, bias, pairs),
    ):
        with pytest.raises(ConfigurationError, match="disagree"):
            bad()
    for t_support, t_query in (([2, 3], [4, 3, 0]), ([6, -1], [4, 3]), ([[2, 3]], [[4, 3]])):
        with pytest.raises(ConfigurationError, match="do not pair"):
            nn.Pairs(np.array(t_support), np.array(t_query))


def _relation_arrays(rng, with_user, t_support, t_query, width=5, inert=3):
    """Relation-net inputs as rows: ragged sessions, each half's rows followed by
    ``inert`` rows, labels of both values, and a projection over every place of the
    padded grid."""
    rows = 2 * width + 1 + (width if with_user else 0)
    b = len(t_support)
    arrays = [_rows(rng, t_support, width, inert), _rows(rng, t_query, width, inert),
              rng.normal(size=(rows, width)), rng.normal(size=(width,)),
              rng.normal(size=(width, 1)), rng.normal(size=(1,))]
    if with_user:
        arrays.append(rng.normal(size=(b, width)))
    labels = (rng.random(len(arrays[0])) < 0.5).astype(np.float64)
    labels[:2] = (0.0, 1.0)  # both label values appear
    labels[int(np.sum(t_support)):] = 0.0
    return arrays, labels, rng.normal(size=(b, max(t_support), max(t_query)))


def _relation_run(fn, arrays, labels, proj, pairs, with_user):
    """``fn``'s logits, and every input's gradient when ``proj`` reaches them."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*inputs[:2], labels, *inputs[2:6], pairs, user=inputs[6] if with_user else None)
    T.reduce_sum(T.mul(out, Tensor(proj))).backward()
    return out.data, [t.grad for t in inputs]


@pytest.mark.parametrize("with_user", [False, True])
def test_relation_logits_matches_the_chain(with_user):
    # Ragged sessions in float64: the one node against relu, matmul and add over the pair
    # layer, at every place of the padded grid and for every parent gradient.
    rng = np.random.default_rng(21)
    t_support, t_query = np.array([3, 1, 2]), np.array([2, 4, 1])  # S != Q
    arrays, labels, proj = _relation_arrays(rng, with_user, t_support, t_query)
    args = (arrays, labels, proj, nn.Pairs(t_support, t_query), with_user)
    got, got_grads = _relation_run(nn.relation_logits, *args)
    want, want_grads = _relation_run(ref_relation_logits, *args)
    assert got.shape == (3, 3, 4)
    assert _rel(got, want) <= TOL
    assert len(got_grads) == (7 if with_user else 6)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert _rel(g, w) <= TOL


@pytest.mark.parametrize("with_user", [False, True])
@pytest.mark.parametrize("chunks", [1, 2, 9])
def test_relation_logits_chunks_match_the_padded_composition(monkeypatch, chunks, with_user):
    # 36 ragged sessions in float64, cut into 1, 2 or 9 chunks: the logits at every place
    # (zero past a session's places) and every parent gradient match the pair concat over
    # the whole padded batch.
    rng = np.random.default_rng(21 + chunks)
    t_support, t_query = _sessions(rng, 36)
    arrays, labels, proj = _relation_arrays(rng, with_user, t_support, t_query)
    width, pairs = arrays[3].shape[0], nn.Pairs(t_support, t_query)
    for limit in (nn.PAIR_GROUP_VALUES, *range(1, 36 * 36 * width)):
        monkeypatch.setattr(nn, "PAIR_GROUP_VALUES", limit)
        if len(pairs.chunks(width)) == chunks:
            break
    assert len(pairs.chunks(width)) == chunks
    args = (arrays, labels, proj, pairs, with_user)
    got, got_grads = _relation_run(nn.relation_logits, *args)
    want, want_grads = _relation_run(ref_relation_concat, *args)
    assert got.shape == (36, 6, 6)
    assert _rel(got, want) <= TOL
    assert len(got_grads) == (7 if with_user else 6)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert _rel(g, w) <= TOL


def test_pair_chunks_cut_whole_sessions_by_shape():
    rng = np.random.default_rng(30)
    # A fit-metric batch: 64 sessions of 10 to 20 tracks, width 256.
    lengths = rng.integers(10, 21, 64)
    t_support, t_query = (lengths + 1) // 2, lengths // 2
    plan = nn.Pairs(t_support, t_query).chunks(256)
    order = np.concatenate([sessions for sessions, _, _ in plan])
    assert sorted(order) == list(range(64))
    keys = list(zip(t_support[order], t_query[order]))
    assert keys == sorted(keys)  # by shape
    assert (order == np.lexsort((t_query, t_support))).all()  # stably
    built = 0
    for i, (sessions, s, q) in enumerate(plan):
        assert (s, q) == (t_support[sessions].max(), t_query[sessions].max())
        assert len(sessions) % 4 == 0 or i == len(plan) - 1
        assert len(sessions) * s * q * 256 <= nn.PAIR_GROUP_VALUES
        built += len(sessions) * s * q
    real = int((t_support * t_query).sum())
    padded = 64 * t_support.max() * t_query.max()
    assert built < 1.1 * real < padded / 1.4, (built / real, padded / real)
    # A batch of one shape is cut as before, in its own order; one that fits is one chunk.
    plan = nn.Pairs(np.full(67, 9), np.full(67, 5)).chunks(256)
    assert [sessions.tolist() for sessions, _, _ in plan] == [
        list(range(start, min(start + 20, 67))) for start in range(0, 67, 20)]
    assert [(s, q) for _, s, q in plan] == [(9, 5)] * 4
    (sessions, s, q), = nn.Pairs(t_support, t_query).chunks(32)
    assert sessions.tolist() == list(range(64)) and (s, q) == (10, 10)


def test_relation_logits_is_one_tape_node():
    t_support, t_query = np.array([3, 1]), np.array([2, 4])
    arrays, labels, _ = _relation_arrays(np.random.default_rng(22), True, t_support, t_query)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    pairs = nn.Pairs(t_support, t_query)
    out = nn.relation_logits(*inputs[:2], labels, *inputs[2:6], pairs, user=inputs[6])
    assert out._grad_fn is not None and len(_tape(out)) == 1 + len(inputs)
    with T.no_grad():
        inferred = nn.relation_logits(*inputs[:2], labels, *inputs[2:6], pairs, user=inputs[6])
    assert inferred._grad_fn is None and inferred._parents == ()
    np.testing.assert_array_equal(inferred.data, out.data)


def _one_block_relation(arrays, labels, proj, pairs, with_user):
    """``nn.relation_logits`` written out over the whole padded ``[B, S, Q, W]`` pair
    block in one buffer: one GEMV for the logits and one for ``w_out``'s gradient."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    rows, cols, _, grads = nn._pair_parts(
        *inputs[:2], labels, *inputs[2:4], inputs[6] if with_user else None, pairs)
    real = pairs.real
    w_out, b_out = arrays[4], arrays[5]
    h = np.maximum(rows[:, :, None] + cols[:, None], 0.0)
    h2 = h.reshape(-1, h.shape[-1])
    logits = np.where(real, (h2 @ w_out + b_out).reshape(h.shape[:-1]), 0)
    g2 = np.where(real, proj, 0).reshape(-1, 1)
    gh = ((h2 > 0).astype(h2.dtype) * g2 * w_out[:, 0]).reshape(h.shape)
    g_s, g_q, g_w, g_b, *g_u = grads(gh.sum(axis=2), gh.sum(axis=1))
    return logits, [g_s, g_q, g_w, g_b, h2.T @ g2, g2.sum(axis=0), *g_u]


def _float32_relation_arrays(seed, with_user, t_support, t_query, width):
    arrays, labels, proj = _relation_arrays(np.random.default_rng(seed), with_user,
                                            t_support, t_query, width)
    return [a.astype(np.float32) for a in arrays], labels.astype(np.float32), proj.astype(np.float32)


def check_relation_groups_against_one_block():
    # Several chunks each of one shape: an odd S * Q, batches that are not a multiple of
    # the chunk (20 and 32 sessions here), and the fit-metric shape.
    for seed, (b, s_len, q_len, width), with_user in (
        (26, (67, 9, 5, 256), True), (27, (130, 6, 5, 256), False), (28, (64, 10, 10, 256), True),
    ):
        assert b * s_len * q_len * width > 2 * nn.PAIR_GROUP_VALUES
        sessions = (np.full(b, s_len), np.full(b, q_len))
        args = (*_float32_relation_arrays(seed, with_user, *sessions, width), nn.Pairs(*sessions),
                with_user)
        got, got_grads = _relation_run(nn.relation_logits, *args)
        want, want_grads = _one_block_relation(*args)
        assert got.tobytes() == want.tobytes(), (b, s_len, q_len)
        for i, (g, w) in enumerate(zip(got_grads, want_grads)):
            assert g.shape == w.shape and g.dtype == w.dtype, i
            if i == 4:  # w_out's: one GEMV per chunk, summed
                assert np.max(np.abs(g - w)) <= 1e-6 * np.max(np.abs(w)), (b, s_len, q_len)
            else:
                assert g.tobytes() == w.tobytes(), (b, s_len, q_len, i)


def check_one_output_pair_linear_keeps_the_padded_bytes():
    # rnbc2_ue's pair weights are a one-output pair_linear, whose part products are GEMVs,
    # which round a tail of fewer than 4 rows apart. On sessions of one shape they multiply
    # the rows the padded halves held, so every byte equals the product over the padded
    # halves, here with B * S and B * Q not multiples of 4 and inert rows after the real
    # ones.
    for seed, (b, s_len, q_len, width) in (
        (33, (7, 5, 3, 256)), (34, (1, 7, 3, 256)), (35, (29, 9, 7, 32)),
    ):
        t_s, t_q = np.full(b, s_len), np.full(b, q_len)
        arrays, labels, _ = _float32_relation_arrays(seed, True, t_s, t_q, width)
        support, query, weight, bias, user = (*arrays[:2], arrays[2][:, :1], arrays[3][:1],
                                              arrays[6])
        got = nn.pair_linear(Tensor(support), Tensor(query), labels, Tensor(weight),
                             Tensor(bias), nn.Pairs(t_s, t_q), user=Tensor(user)).data
        w_s, w_q, w_y, w_u = np.split(weight, [width, 2 * width, 2 * width + 1])
        per_support = ((support[: b * s_len] @ w_s).reshape(b, s_len, 1)
                       + labels[: b * s_len].reshape(b, s_len, 1) * w_y[0] + bias)
        per_support = per_support + (user @ w_u)[:, None, :]
        per_query = (query[: b * q_len] @ w_q).reshape(b, q_len, 1)
        want = per_support[:, :, None] + per_query[:, None]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (b, s_len, q_len)


def _in_one_blas_thread(check: str) -> None:
    """Run ``check`` of this module in a fresh process whose BLAS is pinned to one thread."""
    tests = Path(__file__).parent
    src = str(Path(nn.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import test_metric_pairs as t; t.{check}()"
    run = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_relation_logits_groups_keep_the_one_block_bytes():
    # A GEMV over many rows splits them among BLAS threads at places that need not be
    # multiples of 4, so a one-call GEMV has its one-thread bytes only in one thread.
    _in_one_blas_thread("check_relation_groups_against_one_block")


def test_one_output_pair_linear_keeps_the_padded_bytes():
    _in_one_blas_thread("check_one_output_pair_linear_keeps_the_padded_bytes")


@pytest.mark.parametrize("with_user", [False, True])
def test_relation_logits_one_group_keeps_every_byte(with_user):
    # At width 32 a ragged batch of 64 with S = Q = 10 is one chunk: the same two GEMVs
    # as one block.
    rng = np.random.default_rng(29)
    sessions = _sessions(rng, 64, most=10)
    assert 64 * 10 * 10 * 32 <= nn.PAIR_GROUP_VALUES
    args = (*_float32_relation_arrays(29, with_user, *sessions, 32), nn.Pairs(*sessions),
            with_user)
    (got, got_grads) = _relation_run(nn.relation_logits, *args)
    want, want_grads = _one_block_relation(*args)
    assert got.tobytes() == want.tobytes()
    assert [g.tobytes() for g in got_grads] == [w.tobytes() for w in want_grads]


def test_relation_logits_backward_allocates_less_than_one_pair_block():
    # B=64, S=Q=10 at width 256: the node keeps the per-support and per-query terms
    # (0.2 of a [B, S, Q, W] pair block) and no pairs; the backward rebuilds them a
    # chunk of sessions at a time in one buffer. Holding the block from the forward
    # to the backward made the node hold 1.0 block and the backward peak at 1.7.
    b, s_len, q_len, width = 64, 10, 10, 256
    rng = np.random.default_rng(24)
    n_s, n_q = b * s_len, b * q_len
    shapes = [(n_s, width), (n_q, width), (3 * width + 1, width), (width,),
              (width, 1), (1,), (b, width)]
    inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
    labels = (rng.random(n_s) < 0.5).astype(np.float32)
    pairs = nn.Pairs(np.full(b, s_len), np.full(b, q_len))
    block = b * s_len * q_len * width * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        loss = T.reduce_sum(nn.relation_logits(*inputs[:2], labels, *inputs[2:6], pairs,
                                               user=inputs[6]))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in inputs)
    assert held < block / 4, held / block
    assert peak < block, peak / block
    assert current < block  # only the gradients


def test_relation_logits_backward_runs_once():
    # A second backward through the node fails loudly instead of adding every
    # gradient again.
    rng = np.random.default_rng(25)
    batch = make_batch([_episode(rng, 4, 3) for _ in range(3)])
    for kind in METRIC_KINDS:
        model = build(default_config(kind, width=8, seed=0), IN_DIM)
        loss = batch_loss(model, batch)
        loss.backward()
        with pytest.raises(ContractError, match="backward has run"):
            loss.backward()


def test_relation_logits_shape_contracts():
    sessions = (np.array([3, 2]), np.array([4, 1]))
    arrays, labels, _ = _relation_arrays(np.random.default_rng(23), False, *sessions)
    sup, qry, w, b, w_out, b_out = (Tensor(a) for a in arrays)
    pairs = nn.Pairs(*sessions)
    for bad_w_out, bad_b_out in (
        (Tensor(np.zeros((5, 2))), b_out),  # two outputs
        (Tensor(np.zeros((4, 1))), b_out),  # narrower than the hidden layer
        (Tensor(np.zeros(5)), b_out),
        (w_out, Tensor(np.zeros(2))),
        (w_out, Tensor(np.zeros(()))),
    ):
        with pytest.raises(ConfigurationError, match="relation output"):
            nn.relation_logits(sup, qry, labels, w, b, bad_w_out, bad_b_out, pairs)
    for bad in (
        lambda: nn.relation_logits(sup, qry, labels[:2], w, b, w_out, b_out, pairs),
        lambda: nn.relation_logits(sup, Tensor(np.zeros((3, 4, 5))), labels, w, b, w_out, b_out,
                                   pairs),
        lambda: nn.relation_logits(sup, qry, labels, w, b, w_out, b_out, pairs,
                                   Tensor(np.zeros((2, 5)))),
        lambda: nn.relation_logits(sup, qry, labels, w, Tensor(np.zeros(4)), w_out, b_out,
                                   pairs),
        lambda: nn.relation_logits(sup, qry, labels, w, b, w_out, b_out,
                                   nn.Pairs([9, 2], sessions[1])),  # more supports than rows
    ):
        with pytest.raises(ConfigurationError):
            bad()


@pytest.mark.parametrize("width", [5, 17])
def test_session_mean_matches_the_masked_mean(width):
    # Float64 values against the masked mean over the padded block it replaced; at
    # float32 the same bits, and inert rows reach nothing.
    rng = np.random.default_rng(31)
    counts = np.array([4, 1, 7, 2, 7])
    values = _rows(rng, counts, width)
    r = rng.normal(size=(len(counts), width))

    def run(fn, data):
        v = Tensor(data.copy(), requires_grad=True)
        out = fn(v)
        T.reduce_sum(T.mul(out, Tensor(r.astype(data.dtype)))).backward()
        return out.data, v.grad

    mask = _real(counts) * 1.0

    def masked_mean(v):
        padded = T.mul(_padded(v, counts), Tensor(mask[:, :, None].astype(v.dtype)))
        return T.div(T.reduce_sum(padded, axis=1), Tensor(mask.sum(axis=1, keepdims=True)
                                                        .astype(v.dtype)))

    for data in (values, values.astype(np.float32)):
        got, got_grad = run(lambda v: nn.session_mean(v, counts), data)
        want, want_grad = run(masked_mean, data)
        if data.dtype == np.float64:
            assert _rel(got, want) <= TOL and _rel(got_grad, want_grad) <= TOL
        else:
            assert got.tobytes() == want.tobytes()
            assert got_grad.tobytes() == want_grad.tobytes()
        assert not got_grad[int(counts.sum()):].any()
    with pytest.raises(ConfigurationError):
        nn.session_mean(Tensor(values), np.array([4, 0, 7]))
    with pytest.raises(ConfigurationError):
        nn.session_mean(Tensor(values), counts + 1)


def test_metric_kinds_match_the_chain_bit_for_bit(monkeypatch):
    # float32 models: probabilities, loss and every parameter gradient come
    # out the same bits whether the relation net is one node or the chain;
    # the sequence kinds never call it.
    rng = np.random.default_rng(24)
    sizes = rng.integers(1, 11, (16, 2))
    batch = make_batch([dataclasses.replace(_episode(rng, int(s), int(q)), query_logs_kept=True)
                        for s, q in sizes])  # teacher reads the query logs
    models = {kind: build(default_config(kind, width=16, seed=5), IN_DIM) for kind in KINDS}
    fused = {kind: (models[kind].query_probs(batch), *_loss_and_grads(models[kind], batch))
             for kind in METRIC_KINDS}
    calls = []
    monkeypatch.setattr(nn, "relation_logits", lambda *a, **k: calls.append(1)
                        or ref_relation_logits(*a, **k))
    for kind, model in models.items():
        calls.clear()
        if kind not in METRIC_KINDS:
            model.query_probs(batch)
            assert not calls, kind
            continue
        probs, (loss, grads) = model.query_probs(batch), _loss_and_grads(model, batch)
        assert calls, kind
        want_probs, want_loss, want_grads = fused[kind]
        assert probs.tobytes() == want_probs.tobytes(), kind
        assert loss.data.tobytes() == want_loss.data.tobytes(), kind
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), (kind, name)


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_forward_metric_matches_pair_concat_reference(kind):
    # The forward on packed rows against the pair concat over the padded halves, in
    # float64. Ragged support and query lengths put padding on both pair axes; the
    # scores match at every real pair and are inert (0.5) past them, and the loss, every
    # gradient and the query probabilities match.
    batch = _ragged_batch64()
    model = _model64(kind)
    got = model.forward_metric(batch)
    want = ref_forward_metric(model, batch)
    real = _real(batch.t_support)[:, :, None] & _real(batch.t_query)[:, None, :]
    assert got.r.data.dtype == np.float64 and got.r.shape == want.r.shape
    assert _rel(got.r.data[real], want.r.data[real]) <= TOL
    assert (got.r.data[~real] == 0.5).all()
    queries = batch.qry_mask != 0
    assert _rel(got.head.data[queries], want.head.data[queries]) <= TOL
    want_probs = want.head.data if kind in VOTE_KINDS else T.sigmoid_array(want.head.data)
    assert _rel(model.query_probs(batch), want_probs * batch.qry_mask) <= 6e-8  # float32 out

    loss, grads = _loss_and_grads(model, batch, type(model).forward_metric)
    ref_loss, ref_grads = _loss_and_grads(model, batch, ref_forward_metric)
    assert abs(float(loss.data) - float(ref_loss.data)) <= TOL * max(1.0, abs(float(ref_loss.data)))
    assert set(grads) == set(ref_grads) == set(model.params)
    for name in grads:
        assert _rel(grads[name], ref_grads[name]) <= TOL, name


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_inert_rows_of_the_halves_reach_nothing(kind):
    # Whatever the inert rows after the support and query rows hold, the scores, the
    # loss and every gradient keep their bits.
    rng = np.random.default_rng(32)
    batch = make_batch([_episode(rng, int(s), int(q)) for s, q in rng.integers(1, 11, (9, 2))])
    model = build(default_config(kind, width=16, seed=2), IN_DIM)
    halves = batch.halves()
    assert all(len(h.x) > h.counts.sum() for h in (halves.sup, halves.qry))
    filled = halves._replace(**{
        name: h._replace(x=h.x.copy(), y=h.y.copy()) for name, h in
        (("sup", halves.sup), ("qry", halves.qry))})
    for h in (filled.sup, filled.qry):
        h.x[h.counts.sum():], h.y[h.counts.sum():] = 1e3, 1e3

    def run(views):
        model.zero_grad()
        out = model.forward_metric(views)
        loss = T.reduce_sum(T.mul(out.head, Tensor(out.pairs.query.astype(np.float32))))
        loss.backward()
        return out.r.data.tobytes(), loss.data.tobytes(), model.gradient().tobytes()

    assert run(filled) == run(halves)


def _tape(root):
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def test_rnbc2_ue_training_step_peaks_under_two_pair_blocks():
    # One loss and backward of rnbc2_ue at B=64, S=Q=10 and width 256: no array of a
    # training step is a [B, S, Q, W] pair block, so the traced peak stays under two
    # of them (1.5 blocks; 2.5 while the relation node held its pairs).
    rng = np.random.default_rng(9)
    sizes = rng.integers(1, 11, size=(64, 2))
    sizes[0] = (10, 10)
    batch = make_batch([_episode(rng, int(s), int(q)) for s, q in sizes])
    model = build(default_config("rnbc2_ue", width=256, seed=0), IN_DIM)
    block = 64 * 10 * 10 * 256 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        batch_loss(model, batch).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.params.values())
    assert peak < 2 * block, peak / block


def test_rnbc2_ue_loss_tape_has_no_pair_tensor():
    # B=64 at the default width 256: the pair concat would be a
    # [64, S, Q, 769] array, and fc1's weight gradient a [64, S, 769, 256]
    # stack. The loss records at most 50 ops and no array 3W+1 wide.
    width = 256
    rng = np.random.default_rng(9)
    sizes = rng.integers(1, 11, size=(64, 2))
    batch = make_batch([_episode(rng, int(s), int(q)) for s, q in sizes])
    model = build(default_config("rnbc2_ue", width=width, seed=0), IN_DIM)
    loss = batch_loss(model, batch)
    nodes = _tape(loss)
    assert sum(n._grad_fn is not None for n in nodes) <= 50
    assert all(n.data.shape[-1:] != (3 * width + 1,) for n in nodes)
    loss.backward()
    assert all(np.isfinite(p.grad).all() for p in model.params.values())


# -- checkpoints written by the pair-concat code -----------------------------


def test_pair_concat_checkpoints_load_and_predict(tmp_path):
    # Written and scored by the pair-concat code: rnb1, rnb2_ue and rnbc2_ue
    # at width 8 after one epoch on the corpus the JSON file names. Their
    # parameter names and shapes are unchanged, so they load as they are
    # and predict the same probabilities within float32 rounding.
    expected = json.loads((DATA / "metric_pair_concat_probs.json").read_text())
    generate(SynthConfig(**expected["corpus"]), tmp_path)
    schema, sessions, features = load_corpus(tmp_path)
    for kind in METRIC_KINDS:
        model, stats, saved_schema, _ = load_model(DATA / f"{kind}_pair_concat.ckpt")
        assert saved_schema == schema
        episodes = build_episodes(sessions, features, stats, schema, kind)
        got = dict(predict_corpus(model, episodes))
        want = expected["probs"][kind]
        assert list(got) == list(want)
        for sid, probs in want.items():
            np.testing.assert_allclose(got[sid], probs, rtol=1e-5, atol=1e-6, err_msg=kind)
