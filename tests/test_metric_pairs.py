"""The metric family's relation layer by parts, against the pair concat.

``nn.pair_linear`` computes the first relation layer and ``wsum`` from
the support, query, label and user parts, each broadcast over the
(support, query) grid. ``ref_forward_metric`` below is the composition it
replaced: every pair row concatenated into ``[B, S, Q, 3W+1]`` and sent
through an ordinary linear layer. Both run in float64 here.
``nn.relation_logits`` records the whole relation net up to its logits
as one node; ``ref_relation_logits`` is the chain of nodes it replaced.
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
from seqskip.models import KINDS, METRIC_KINDS, UE_KINDS, MetricOut, build, default_config
from seqskip.synthgen import SynthConfig, generate
from seqskip.tensor import Tensor
from seqskip.trainer import batch_loss, build_episodes, load_model, predict_corpus

TOL = 1e-12
IN_DIM = 10
DATA = Path(__file__).parent / "data"


# -- the pair-concat reference -------------------------------------------


def ref_forward_metric(model, batch) -> MetricOut:
    """``Model.forward_metric`` as it was before the relation layer went by parts."""
    kind = model.config.kind
    w = model.config.width
    b, s_max, _ = batch.sup_x.shape
    q_max = batch.qry_x.shape[1]
    f_s = T.relu(model._linear("embed", Tensor(batch.sup_x[..., :-2])))
    f_q = T.relu(model._linear("embed", Tensor(batch.qry_x[..., :-2])))

    fs_b = T.broadcast_to(T.reshape(f_s, (b, s_max, 1, w)), (b, s_max, q_max, w))
    fq_b = T.broadcast_to(T.reshape(f_q, (b, 1, q_max, w)), (b, s_max, q_max, w))
    y_col = batch.sup_y[:, :, None, None]
    y_b = Tensor(np.broadcast_to(y_col, (b, s_max, q_max, 1)).copy())
    parts = [fs_b, fq_b, y_b]
    if kind in UE_KINDS:
        u = model._user_embedding_tensor(batch, f_s=f_s)
        parts.append(T.broadcast_to(T.reshape(u, (b, 1, 1, w)), (b, s_max, q_max, w)))
    pair = T.concat(parts, axis=-1)
    hidden = T.relu(model._linear("rn.fc1", pair))
    r = T.reshape(T.sigmoid(model._linear("rn.out", hidden)), (b, s_max, q_max))

    if kind == "rnbc2_ue":
        pair_w = T.sigmoid(T.reshape(model._linear("wsum", pair), (b, s_max, q_max)))
        prod = T.mul(T.mul(pair_w, r), Tensor(batch.sup_mask[:, :, None]))
        head = T.add(T.reduce_sum(prod, axis=1), model._p("wsum.bias"))
    else:
        y_s = Tensor(batch.sup_y[:, :, None])
        agree = T.add(
            T.mul(r, y_s), T.mul(T.add(1.0, T.neg(r)), Tensor(1.0 - batch.sup_y[:, :, None]))
        )
        masked = T.mul(agree, Tensor(batch.sup_mask[:, :, None]))
        counts = batch.sup_mask.sum(axis=1, keepdims=True)
        head = T.div(T.reduce_sum(masked, axis=1), Tensor(counts))
    return MetricOut(r=r, head=head)


def ref_pair_linear(support, query, labels, weight, bias, user=None):
    b, s_len, ws = support.shape
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
    return T.add(T.matmul(T.concat(parts, axis=-1), weight), bias)


def ref_relation_logits(support, query, labels, weight, bias, w_out, b_out, user=None):
    hidden = T.relu(nn.pair_linear(support, query, labels, weight, bias, user))
    logits = T.add(T.matmul(hidden, w_out), b_out)
    return T.reshape(logits, logits.shape[:-1])


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
    if forward is not None:
        model.forward_metric = lambda bt: forward(model, bt)
    try:
        loss = batch_loss(model, batch)
    finally:
        model.forward_metric = original
    loss.backward()
    return loss, {name: p.grad.copy() for name, p in model.params.items()}


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


# -- the fused node against its composition ----------------------------------


@pytest.mark.parametrize("with_user", [False, True])
def test_pair_linear_matches_pair_concat(with_user):
    rng = np.random.default_rng(11)
    b, s_len, q_len, width, n_out = 3, 4, 5, 6, 7
    support = rng.normal(size=(b, s_len, width))
    query = rng.normal(size=(b, q_len, width))
    labels = (rng.random((b, s_len)) < 0.5).astype(np.float64)
    user = rng.normal(size=(b, width)) if with_user else None
    rows = 2 * width + 1 + (width if with_user else 0)
    weight = rng.normal(size=(rows, n_out))
    bias = rng.normal(size=(n_out,))
    proj = rng.normal(size=(b, s_len, q_len, n_out))

    def run(fn):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in (support, query, weight, bias)]
        u = None if user is None else Tensor(user.copy(), requires_grad=True)
        out = fn(inputs[0], inputs[1], labels, inputs[2], inputs[3], u)
        T.reduce_sum(T.mul(out, Tensor(proj))).backward()
        grads = [t.grad for t in inputs] + ([] if u is None else [u.grad])
        return out.data, grads

    got, got_grads = run(nn.pair_linear)
    want, want_grads = run(ref_pair_linear)
    assert _rel(got, want) <= TOL
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert _rel(g, w) <= TOL


def test_pair_linear_rejects_mismatched_parts():
    sup, qry = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4)))
    labels = np.zeros((2, 3))
    bias = Tensor(np.zeros(6))
    with pytest.raises(ConfigurationError, match="pair weight"):
        nn.pair_linear(sup, qry, labels, Tensor(np.zeros((13, 6))), bias)
    with pytest.raises(ConfigurationError, match="pair bias"):
        nn.pair_linear(sup, qry, labels, Tensor(np.zeros((9, 6))), Tensor(np.zeros(5)))
    with pytest.raises(ConfigurationError, match="disagree"):
        nn.pair_linear(sup, qry, np.zeros((2, 4)), Tensor(np.zeros((9, 6))), bias)
    with pytest.raises(ConfigurationError, match="disagree"):
        nn.pair_linear(
            sup, qry, labels, Tensor(np.zeros((13, 6))), bias, user=Tensor(np.zeros((3, 4)))
        )


def _relation_arrays(rng, with_user, b=2, s_len=3, q_len=4, width=5):
    """Relation-net inputs in the gradcheck layout: batch row 1 pads its last support,
    which has a zero label and whose pairs the output projection ignores."""
    mask = np.ones((b, s_len))
    mask[1, -1] = 0.0
    labels = (rng.random((b, s_len)) < 0.5) * mask
    labels[0, :2] = (0.0, 1.0)  # both label values appear
    rows = 2 * width + 1 + (width if with_user else 0)
    arrays = [rng.normal(size=(b, s_len, width)), rng.normal(size=(b, q_len, width)),
              rng.normal(size=(rows, width)), rng.normal(size=(width,)),
              rng.normal(size=(width, 1)), rng.normal(size=(1,))]
    if with_user:
        arrays.append(rng.normal(size=(b, width)))
    return arrays, labels, rng.normal(size=(b, s_len, q_len)) * mask[:, :, None]


@pytest.mark.parametrize("with_user", [False, True])
def test_relation_logits_matches_the_chain(with_user):
    arrays, labels, proj = _relation_arrays(np.random.default_rng(21), with_user)

    def run(fn):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*inputs[:2], labels, *inputs[2:6], user=inputs[6] if with_user else None)
        T.reduce_sum(T.mul(out, Tensor(proj))).backward()
        return out.data, [t.grad for t in inputs]

    got, got_grads = run(nn.relation_logits)
    want, want_grads = run(ref_relation_logits)
    assert got.shape == (2, 3, 4)  # S != Q
    assert _rel(got, want) <= TOL
    assert len(got_grads) == (7 if with_user else 6)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert _rel(g, w) <= TOL


def test_relation_logits_is_one_tape_node():
    arrays, labels, _ = _relation_arrays(np.random.default_rng(22), True)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = nn.relation_logits(*inputs[:2], labels, *inputs[2:6], user=inputs[6])
    assert out._grad_fn is not None and len(_tape(out)) == 1 + len(inputs)
    with T.no_grad():
        inferred = nn.relation_logits(*inputs[:2], labels, *inputs[2:6], user=inputs[6])
    assert inferred._grad_fn is None and inferred._parents == ()
    np.testing.assert_array_equal(inferred.data, out.data)


def _relation_run(arrays, labels, proj, with_user):
    """``nn.relation_logits``' logits, and every input's gradient when ``proj`` reaches them."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = nn.relation_logits(*inputs[:2], labels, *inputs[2:6], user=inputs[6] if with_user else None)
    T.reduce_sum(T.mul(out, Tensor(proj))).backward()
    return out.data, [t.grad for t in inputs]


def _one_block_relation(arrays, labels, proj, with_user):
    """``_relation_run`` written out over the whole ``[B, S, Q, W]`` pair block in one
    buffer: one GEMV for the logits and one for ``w_out``'s gradient."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    rows, cols, _, grads = nn._pair_parts(*inputs[:2], labels, *inputs[2:4],
                                          inputs[6] if with_user else None)
    w_out, b_out = arrays[4], arrays[5]
    h = np.maximum(rows + cols, 0.0)
    h2 = h.reshape(-1, h.shape[-1])
    logits = (h2 @ w_out + b_out).reshape(h.shape[:-1])
    g2 = proj.reshape(-1, 1)
    gh = ((h2 > 0).astype(h2.dtype) * g2 * w_out[:, 0]).reshape(h.shape)
    g_s, g_q, g_w, g_b, *g_u = grads(gh.sum(axis=2), gh.sum(axis=1))
    return logits, [g_s, g_q, g_w, g_b, h2.T @ g2, g2.sum(axis=0), *g_u]


def _float32_relation_arrays(seed, with_user, b, s_len, q_len, width):
    arrays, labels, proj = _relation_arrays(np.random.default_rng(seed), with_user,
                                            b, s_len, q_len, width)
    return [a.astype(np.float32) for a in arrays], labels.astype(np.float32), proj.astype(np.float32)


def check_relation_groups_against_one_block():
    # Several groups each: an odd S * Q, batches that are not a multiple of the group
    # (20 and 32 sessions here), and the fit-metric shape.
    for seed, (b, s_len, q_len, width), with_user in (
        (26, (67, 9, 5, 256), True), (27, (130, 6, 5, 256), False), (28, (64, 10, 10, 256), True),
    ):
        assert b * s_len * q_len * width > 2 * nn.PAIR_GROUP_VALUES
        args = (*_float32_relation_arrays(seed, with_user, b, s_len, q_len, width), with_user)
        got, got_grads = _relation_run(*args)
        want, want_grads = _one_block_relation(*args)
        assert got.tobytes() == want.tobytes(), (b, s_len, q_len)
        for i, (g, w) in enumerate(zip(got_grads, want_grads)):
            assert g.shape == w.shape and g.dtype == w.dtype, i
            if i == 4:  # w_out's: one GEMV per group, summed
                assert np.max(np.abs(g - w)) <= 1e-6 * np.max(np.abs(w)), (b, s_len, q_len)
            else:
                assert g.tobytes() == w.tobytes(), (b, s_len, q_len, i)


def test_relation_logits_groups_keep_the_one_block_bytes():
    # A GEMV over many rows splits them among BLAS threads at places that need not be
    # multiples of 4, so a one-call GEMV has its one-thread bytes only in one thread: the
    # check runs in a fresh process whose BLAS is pinned to one.
    tests = Path(__file__).parent
    src = str(Path(nn.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import test_metric_pairs as t; t.check_relation_groups_against_one_block()"
    run = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("with_user", [False, True])
def test_relation_logits_one_group_keeps_every_byte(with_user):
    # At width 32, S = Q = 10, one group holds a batch of 64: the same two GEMVs as one block.
    b, s_len, q_len, width = 64, 10, 10, 32
    assert b * s_len * q_len * width <= nn.PAIR_GROUP_VALUES
    args = (*_float32_relation_arrays(29, with_user, b, s_len, q_len, width), with_user)
    (got, got_grads), (want, want_grads) = _relation_run(*args), _one_block_relation(*args)
    assert got.tobytes() == want.tobytes()
    assert [g.tobytes() for g in got_grads] == [w.tobytes() for w in want_grads]


def test_relation_logits_backward_allocates_less_than_one_pair_block():
    # B=64, S=Q=10 at width 256: the node keeps the per-support and per-query terms
    # (0.2 of a [B, S, Q, W] pair block) and no pairs; the backward rebuilds them a
    # group of sessions at a time in one buffer. Holding the block from the forward
    # to the backward made the node hold 1.0 block and the backward peak at 1.7.
    b, s_len, q_len, width = 64, 10, 10, 256
    rng = np.random.default_rng(24)
    shapes = [(b, s_len, width), (b, q_len, width), (3 * width + 1, width), (width,),
              (width, 1), (1,), (b, width)]
    inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
    labels = (rng.random((b, s_len)) < 0.5).astype(np.float32)
    block = b * s_len * q_len * width * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        loss = T.reduce_sum(nn.relation_logits(*inputs[:2], labels, *inputs[2:6], user=inputs[6]))
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
    arrays, labels, _ = _relation_arrays(np.random.default_rng(23), False)
    sup, qry, w, b, w_out, b_out = (Tensor(a) for a in arrays)
    for bad_w_out, bad_b_out in (
        (Tensor(np.zeros((5, 2))), b_out),  # two outputs
        (Tensor(np.zeros((4, 1))), b_out),  # narrower than the hidden layer
        (Tensor(np.zeros(5)), b_out),
        (w_out, Tensor(np.zeros(2))),
        (w_out, Tensor(np.zeros(()))),
    ):
        with pytest.raises(ConfigurationError, match="relation output"):
            nn.relation_logits(sup, qry, labels, w, b, bad_w_out, bad_b_out)
    for bad in (
        lambda: nn.relation_logits(sup, qry, labels[:, :2], w, b, w_out, b_out),
        lambda: nn.relation_logits(sup, Tensor(np.zeros((3, 4, 5))), labels, w, b, w_out, b_out),
        lambda: nn.relation_logits(sup, qry, labels, w, b, w_out, b_out, Tensor(np.zeros((2, 5)))),
        lambda: nn.relation_logits(sup, qry, labels, w, Tensor(np.zeros(4)), w_out, b_out),
    ):
        with pytest.raises(ConfigurationError):
            bad()


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
    # Ragged support and query lengths put padding on both pair axes.
    batch = _ragged_batch64()
    model = _model64(kind)
    got = model.forward_metric(batch)
    want = ref_forward_metric(model, batch)
    assert got.r.data.dtype == np.float64
    assert _rel(got.r.data, want.r.data) <= TOL
    assert _rel(got.head.data, want.head.data) <= TOL

    loss, grads = _loss_and_grads(model, batch, type(model).forward_metric)
    ref_loss, ref_grads = _loss_and_grads(model, batch, ref_forward_metric)
    assert abs(float(loss.data) - float(ref_loss.data)) <= TOL * max(1.0, abs(float(ref_loss.data)))
    assert set(grads) == set(ref_grads) == set(model.params)
    for name in grads:
        assert _rel(grads[name], ref_grads[name]) <= TOL, name


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
