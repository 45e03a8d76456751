"""Model family contracts: configs, shapes, masking, and dispatch rules."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from handmade import Episode, corpus_order_predictions, make_batch, padded_forward, per_session

from seqskip import nn
from seqskip import tensor as T
from seqskip.errors import ConfigurationError, ContractError, ValidationError
from seqskip.models import (
    KINDS,
    METRIC_KINDS,
    SEQUENCE_KINDS,
    VOTE_KINDS,
    ModelConfig,
    build,
    default_config,
)
from seqskip.dataio import Batch, fit_stats, load_corpus, make_batches, prefix_mask
from seqskip.synthgen import SynthConfig, generate
from seqskip.trainer import batch_loss, build_episodes, load_model, predict_corpus

IN_DIM = 10
WIDTH = 16
DATA = Path(__file__).parent / "data"


def _episode(rng, length=10, keep_logs=False) -> Episode:
    t_s = (length + 1) // 2
    x = rng.normal(0.0, 0.5, size=(length, IN_DIM)).astype(np.float32)
    y = rng.integers(0, 2, size=length).astype(np.int8)
    x_s = x[:t_s].copy()
    x_s[:, -2] = y[:t_s]
    x_s[:, -1] = 0.0
    x_q = x[t_s:].copy()
    x_q[:, -2] = 0.0
    x_q[:, -1] = 1.0
    return Episode("ep", x_s, x_q, y[:t_s], y[t_s:], query_logs_kept=keep_logs)


def _model(kind, seed=0, width=WIDTH):
    return build(default_config(kind, width=width, seed=seed), IN_DIM)


def _predict(model, ep) -> np.ndarray:
    """Per-query skip probabilities [T_q] for one episode."""
    return model.query_probs(make_batch([ep]))


# -- configuration -----------------------------------------------------


def test_default_configs_cover_all_kinds():
    for kind in KINDS:
        cfg = default_config(kind, width=WIDTH)
        assert cfg.kind == kind
        assert ModelConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_structural_violations():
    with pytest.raises(ConfigurationError):
        default_config("lstm")
    with pytest.raises(ConfigurationError):
        ModelConfig(kind="rnb1", width=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(kind="rnb1", gate="residual")
    with pytest.raises(ConfigurationError):  # heads must divide width
        default_config("snail", width=20)
    with pytest.raises(ConfigurationError):
        default_config("transformer", width=20)


def test_build_rejects_narrow_input():
    with pytest.raises(ConfigurationError):
        build(default_config("rnb1"), 2)


# -- initialization ----------------------------------------------------


def test_build_is_deterministic():
    a, b = _model("seq1HL"), _model("seq1HL")
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = _model("seq1HL", seed=1)
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
    )


def test_param_count_audit():
    w, d = WIDTH, IN_DIM
    level = 2 * (w * w * 2) + 4 * w  # two k=2 convs (no bias) + two norms
    entry_head = (d * w + w) + (w + 1)
    assert _model("seq1eH").vector.size == entry_head + 5 * level
    assert _model("seq1HL").vector.size == entry_head + 10 * level
    # the two-stack model is exactly one ladder of levels bigger
    assert (_model("seq1HL").vector.size - _model("seq1eH").vector.size
            == 5 * level)
    assert _model("teacher").vector.size == _model("seq1HL").vector.size

    d_item = d - 2
    rnb1 = (d_item * w + w) + ((2 * w + 1) * w + w) + (w + 1)
    assert _model("rnb1").vector.size == rnb1
    ue_extra = ((w + 1) * w + w) + (w * w + w)  # ue.fc + ue.out
    pair_growth = w * w  # rn.fc1 widens by one embedding block
    rnb2 = rnb1 + ue_extra + pair_growth
    assert _model("rnb2_ue").vector.size == rnb2
    wsum = (3 * w + 1) + 1 + 1  # weights + linear bias + vote bias
    assert _model("rnbc2_ue").vector.size == rnb2 + wsum


# -- family dispatch ---------------------------------------------------


def test_family_labels():
    for kind in METRIC_KINDS:
        assert _model(kind).family == "metric"
    for kind in SEQUENCE_KINDS:
        assert _model(kind).family == "sequence"


def test_cross_family_calls_rejected():
    rng = np.random.default_rng(0)
    batch = make_batch([_episode(rng)])
    with pytest.raises(ContractError):
        _model("rnb1").forward_sequence(batch)
    with pytest.raises(ContractError):
        _model("seq1eH").forward_metric(batch)
    with pytest.raises(ContractError):
        _model("rnb1")._user_embedding_tensor(batch)


def test_teacher_demands_query_logs():
    rng = np.random.default_rng(0)
    teacher = _model("teacher")
    with pytest.raises(ContractError, match="keep_query_logs"):
        teacher.forward_sequence(make_batch([_episode(rng)]))
    probs = teacher.query_probs(make_batch([_episode(rng, keep_logs=True)]))
    assert probs.shape == (5,)


def test_transformer_positional_table_limit():
    # A session of 21 rows among shorter ones has no position embedding for its
    # last row: the forward names the table instead of failing on the lookup.
    rng = np.random.default_rng(0)
    ep = _episode(rng, length=10)
    ep.x_query = np.concatenate([ep.x_query] * 4)[:16]  # timeline 5+16 > 20
    ep.y_query = np.concatenate([ep.y_query] * 4)[:16]
    model = _model("transformer")
    with pytest.raises(ValidationError, match="timeline length 21 exceeds the positional table"):
        model.forward_sequence(make_batch([_episode(rng, 4), ep, _episode(rng, 20)]))
    ep.x_query, ep.y_query = ep.x_query[:15], ep.y_query[:15]  # 20 rows fit
    assert model.forward_sequence(make_batch([_episode(rng, 4), ep])).shape == (32,)


# -- outputs -----------------------------------------------------------


def test_output_shapes_and_ranges():
    rng = np.random.default_rng(1)
    eps = [_episode(rng, 10), _episode(rng, 13)]
    batch = make_batch(eps)
    for kind in KINDS:
        if kind == "teacher":
            continue
        model = _model(kind)
        probs = model.query_probs(batch)
        # one probability per query, sessions in order: 5 then 6, no padded slot
        assert probs.shape == (11,) and probs.dtype == np.float32
        assert np.all((probs >= 0) & (probs <= 1))

    out = _model("rnb2_ue").forward_metric(batch)
    assert out.r.shape == (2, 7, 6)
    assert np.all((out.r.data > 0) & (out.r.data < 1))


def test_episode_helpers():
    # one hand-made episode as a batch of one: relation scores, user vector
    # and query probabilities come out at that episode's own sizes
    rng = np.random.default_rng(2)
    ep = _episode(rng, 11)
    model = _model("rnb2_ue")
    batch = make_batch([ep])
    assert model.forward_metric(batch).r.data[0].shape == (6, 5)
    assert model._user_embedding_tensor(batch).data[0].shape == (WIDTH,)
    assert _predict(model, ep).shape == (5,)
    assert _predict(_model("snail"), ep).shape == (5,)


def _tape_op_nodes(root) -> int:
    """Recorded ops (nodes with a backward) reachable from ``root``."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += node._grad_fn is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def test_seq1hl_loss_tape_node_budget():
    # Each gated level is one fused node: a seq1HL loss over ten of them
    # stays within 30 recorded ops (575 when every op was a primitive, 66
    # with one node per conv, norm and gate).
    rng = np.random.default_rng(6)
    batch = make_batch([_episode(rng, int(rng.integers(10, 21))) for _ in range(64)])
    loss = batch_loss(_model("seq1HL", width=32), batch)
    assert len(batch) == 64
    assert 10 <= _tape_op_nodes(loss) <= 30


@pytest.mark.parametrize(
    "kind,budget", [("seq1eH", 25), ("teacher", 30), ("snail", 35), ("att_pair", 45)]
)
def test_gated_level_kind_loss_tape_node_budget(kind, budget):
    # One node per causal gated level: 41, 66, 51 and 71 recorded ops per
    # loss with one node per conv, norm and gate. att_pair's support levels
    # keep a conv, norm and gate node per branch: 45 (59 when the support
    # encoder ran channels-first, behind 14 transposes).
    rng = np.random.default_rng(6)
    keep_logs = kind == "teacher"
    batch = make_batch([_episode(rng, int(rng.integers(10, 21)), keep_logs) for _ in range(64)])
    assert _tape_op_nodes(batch_loss(_model(kind, width=32), batch)) <= budget


def test_masked_multihead_attention_is_one_tape_node():
    rng = np.random.default_rng(7)
    q, k, v = (T.Tensor(rng.normal(size=(32, 32)), requires_grad=True) for _ in range(3))
    rows = nn.Rows.packed([6, 3, 6, 1], 32)
    assert _tape_op_nodes(nn.attention(q, k, v, rows, causal=True, heads=8)) == 1


@pytest.mark.parametrize("kind,sides", [("transformer", 1), ("snail", 1), ("att_pair", 2)])
def test_a_forward_builds_one_row_table_and_attention_plan_per_side(monkeypatch, kind, sides):
    # The transformer's two blocks, snail's attention and conv stack, and att_pair's
    # encoders and attention each read their side's one table and its one block plan,
    # in a training step and in inference alike.
    tables, plans = [], []
    init, plan = nn.Rows.__init__, nn.Rows.block.func
    monkeypatch.setattr(nn.Rows, "__init__",
                        lambda self, *a, **k: tables.append(self) or init(self, *a, **k))
    monkeypatch.setattr(nn.Rows.block, "func", lambda self: plans.append(self) or plan(self))
    rng = np.random.default_rng(12)
    batch = make_batch([_episode(rng, int(rng.integers(10, 21))) for _ in range(8)])
    model = _model(kind)
    for run in (lambda: batch_loss(model, batch).backward(), lambda: model.query_probs(batch)):
        tables.clear()
        plans.clear()
        run()
        assert len(tables) == sides and plans == tables, kind


@pytest.mark.parametrize("kind,budget", [("transformer", 60), ("snail", 55), ("att_pair", 45)])
def test_attention_kind_loss_tape_node_budget(kind, budget):
    # One node per attention call: 91, 68 and 80 recorded ops per loss
    # when attention was composed from primitives (att_pair then also ran
    # its support encoder channels-first; it records 26 now).
    rng = np.random.default_rng(6)
    batch = make_batch([_episode(rng, int(rng.integers(10, 21))) for _ in range(64)])
    assert _tape_op_nodes(batch_loss(_model(kind, width=32), batch)) <= budget


@pytest.mark.parametrize("kind,budget", [("rnb1", 13), ("rnb2_ue", 22), ("rnbc2_ue", 37)])
def test_metric_kind_loss_tape_node_budget(kind, budget):
    # The relation net is one node: 17, 26 and 41 recorded ops per loss
    # with a node each for its pair layer, relu, matmul, add and reshape.
    rng = np.random.default_rng(6)
    batch = make_batch([_episode(rng, int(rng.integers(10, 21))) for _ in range(64)])
    assert _tape_op_nodes(batch_loss(_model(kind, width=32), batch)) <= budget


@pytest.mark.parametrize("kind", KINDS)
def test_a_backward_accumulates_into_the_gradient_vector(kind):
    # Every parameter gradient is a view of the model's flat buffer, so
    # ``gradient()`` hands the buffer over without copying a parameter.
    rng = np.random.default_rng(4)
    model = _model(kind, width=8)
    batch = make_batch([_episode(rng, int(rng.integers(10, 15)), kind == "teacher")
                        for _ in range(3)])
    model.zero_grad()
    batch_loss(model, batch).backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.shares_memory(p.grad, model._grad), name
    before = model._grad.copy()
    assert model.gradient() is model._grad
    assert model.gradient().tobytes() == before.tobytes()


LOSS_TAPE_NODES = {"rnb1": 9, "rnb2_ue": 13, "rnbc2_ue": 16, "seq1eH": 9, "seq1HL": 14,
                   "teacher": 14, "snail": 15, "att_pair": 26, "transformer": 29}


def test_loss_tape_nodes_per_kind():
    # Every kind but the two MSE ones ends its loss in one bce_with_logits
    # node on its logits, where the clipped loss on probabilities took 12.
    rng = np.random.default_rng(6)
    for kind, nodes in LOSS_TAPE_NODES.items():
        batch = make_batch([_episode(rng, int(rng.integers(10, 21)), kind == "teacher")
                            for _ in range(64)])
        assert _tape_op_nodes(batch_loss(_model(kind, width=32), batch)) == nodes, kind


def test_padding_does_not_change_predictions():
    # each session's outputs must be identical whether batched alone or
    # padded next to a longer one
    rng = np.random.default_rng(3)
    short, long = _episode(rng, 10), _episode(rng, 17)
    for kind in KINDS:
        if kind == "teacher":
            continue
        model = _model(kind)
        solo = model.query_probs(make_batch([short]))
        padded = model.query_probs(make_batch([short, long]))[:5]
        np.testing.assert_allclose(padded, solo, atol=2e-6, err_msg=kind)


# OpenBLAS picks its sgemm kernel by matrix shape, so the rounding of a
# dot product can depend on how long the call's rows and columns are. Every
# sequence kind's row layers run on a batch's rows, so what is left of that
# in a sequence kind is the attention block: its score and value products
# are as long as the longest timeline (or support half) among the batch's
# sessions. The metric family's pair and user products are shaped by the
# batch too. The differences seen are at most 1.2e-7, float32's machine
# epsilon; this allows about twice that.
BATCH_MATE_TOLERANCE = 2.5e-7


@pytest.fixture(scope="module")
def markov_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("markov_corpus")
    generate(SynthConfig(n_sessions=300, rule="markov", seed=1), out)
    schema, sessions, features = load_corpus(out)
    return schema, sessions, features, fit_stats(sessions, features, schema)


@dataclasses.dataclass
class _PaddingFilled(Batch):
    """A batch whose padded views, every one derived from its rows, hold ``fill`` in
    their padding."""

    fill: float = 0.0

    def _padded(self, values, offset, counts):
        out = super()._padded(values, offset, counts)
        out[np.arange(out.shape[1]) >= counts[:, None]] = self.fill
        return out


def _with_padding_filled(batch, value):
    """A copy of ``batch`` whose padding all holds ``value``: the stored inert rows of
    inputs and labels, and the padding of every view derived from the rows."""
    x, y = batch.x.copy(), batch.y.copy()
    real = int(batch.lengths.sum())
    x[real:], y[real:] = value, value
    return _PaddingFilled(**dict(vars(batch), x=x, y=y), fill=value)


@pytest.mark.parametrize("gate", ["highway", "glu"])
@pytest.mark.parametrize("kind", KINDS)
def test_padding_contents_reach_no_output_or_gradient(markov_corpus, kind, gate):
    # Whatever the padding rows hold, the loss, every parameter gradient and
    # the query probabilities keep their bits: padding is never read.
    schema, sessions, features, stats = markov_corpus
    episodes = build_episodes(sessions, features, stats, schema, kind)
    model = build(default_config(kind, width=16, gate=gate, seed=3), schema.full_width)

    def run(batch):
        model.zero_grad()
        loss = batch_loss(model, batch)
        loss.backward()
        return loss.data.tobytes(), model.gradient().tobytes(), model.query_probs(batch).tobytes()

    inert = []
    for batch in list(make_batches(episodes, 29))[:4]:
        assert all(not prefix_mask(t).all() for t in (batch.t_support, batch.t_query))
        filled = _with_padding_filled(batch, 1e3)
        assert (filled.qry_y[~prefix_mask(batch.t_query)] == 1e3).all()
        real = int(batch.lengths.sum())
        assert (filled.x[real:] == 1e3).all() and (filled.y[real:] == 1e3).all()
        inert.append(len(batch.x) - real)
        assert run(filled) == run(batch), kind
    assert any(inert)


CONV_STACK_KINDS = ("seq1eH", "seq1HL", "teacher")


@pytest.mark.parametrize("kind", KINDS)
def test_probabilities_do_not_depend_on_batch_mates(markov_corpus, kind):
    # 300 sessions in batches of 64 end in a partial batch. Scored in
    # length-bucketed batches, eight kinds give every session the bits it
    # gets in corpus-order batches. att_pair does not: its attention block is
    # as long as the batch's longest support half and timeline, and the
    # key-query score GEMM rounds by those lengths. Scored alone (batch 1),
    # snail and the transformer may move a session in the last bit for the
    # same reason, their blocks being as long as the batch's longest
    # timeline, and the metric family by the shapes of its pair and user
    # products. The conv stacks do not: every layer they have runs on a
    # batch's rows, whose count is a multiple of 16 with any batch-mates, so
    # each GEMM row keeps its bits.
    schema, sessions, features, stats = markov_corpus
    episodes = build_episodes(sessions, features, stats, schema, kind)
    model = build(default_config(kind, width=32), schema.full_width)
    corpus_order = per_session(episodes, corpus_order_predictions(model, episodes, 64))
    ways = {"bucketed": per_session(episodes, predict_corpus(model, episodes, 64)),
            "alone": per_session(episodes, predict_corpus(model, episodes, 1))}
    for way, preds in ways.items():
        assert [sid for sid, _ in preds] == list(episodes.session_ids)
        for (sid, p), (_, q) in zip(preds, corpus_order):
            if kind in CONV_STACK_KINDS or way == "bucketed" and kind != "att_pair":
                assert p.tobytes() == q.tobytes(), (way, sid)
            else:
                np.testing.assert_allclose(p, q, rtol=0, atol=BATCH_MATE_TOLERANCE,
                                           err_msg=f"{way} {sid}")


def _ragged_batch(rng, keep_logs):
    # 64 sessions of 2 to 20 rows; their real rows are no multiple of 16.
    batch = make_batch([_episode(rng, int(rng.integers(2, 21)), keep_logs) for _ in range(64)])
    assert batch.lengths.sum() % 16
    return batch


@pytest.mark.parametrize("gate", ["highway", "glu"])
@pytest.mark.parametrize("kind", SEQUENCE_KINDS)
def test_packed_conv_stacks_give_the_padded_bits(kind, gate):
    # Every row layer of every sequence kind gives each real row the bits it
    # gets on the padded timeline; attention builds its block inside its node.
    rng = np.random.default_rng(9)
    batch = _ragged_batch(rng, kind == "teacher")
    model = build(default_config(kind, width=32, gate=gate, seed=3), IN_DIM)
    real = prefix_mask(batch.lengths)
    want = padded_forward(model, batch)
    got = model.forward_sequence(batch).data
    assert got.shape == batch.y.shape and len(got) > real.sum()
    assert got[: real.sum()].tobytes() == want[real].tobytes()
    with T.no_grad():
        assert model.forward_sequence(batch).data.tobytes() == got.tobytes()


@pytest.mark.parametrize("kind", SEQUENCE_KINDS)
def test_inert_rows_move_no_real_row(kind):
    # The rows that round a batch up to 16 hold noise instead of zeros: no
    # real row's logit, nor the loss or a parameter gradient, may change.
    rng = np.random.default_rng(10)
    for gate in ("highway", "glu"):
        batch = _ragged_batch(rng, kind == "teacher")
        model = build(default_config(kind, width=32, gate=gate), IN_DIM)

        def run():
            model.zero_grad()
            logits = model.forward_sequence(batch).data
            loss = batch_loss(model, batch)
            loss.backward()
            return logits, float(loss.data), model.gradient().copy()

        clean = run()
        n = int(batch.lengths.sum())
        assert len(batch.x) > n and not batch.x[n:].any()
        batch.x[n:] = rng.normal(0.0, 3.0, size=batch.x[n:].shape)
        noisy = run()
        assert noisy[0][:n].tobytes() == clean[0][:n].tobytes(), gate
        assert noisy[1] == clean[1], gate
        assert noisy[2].tobytes() == clean[2].tobytes() and np.any(clean[2] != 0), gate


def test_att_pair_query_causality():
    rng = np.random.default_rng(4)
    ep = _episode(rng, 14)  # 7 support, 7 query
    model = _model("att_pair")
    base = _predict(model, ep).copy()
    bumped = Episode(ep.session_id, ep.x_support, ep.x_query.copy(),
                     ep.y_support, ep.y_query)
    bumped.x_query[5] += 1.0
    got = _predict(model, bumped)
    np.testing.assert_allclose(got[:5], base[:5], atol=1e-7)
    assert abs(got[5] - base[5]) > 1e-9  # the perturbed position does move


def test_support_perturbation_moves_att_pair_queries():
    # the support encoder is deliberately non-causal: a support change
    # may shift every query's probability
    rng = np.random.default_rng(5)
    ep = _episode(rng, 14)
    model = _model("att_pair")
    base = _predict(model, ep).copy()
    bumped = Episode(ep.session_id, ep.x_support.copy(), ep.x_query,
                     ep.y_support, ep.y_query)
    bumped.x_support[0, :3] += 1.0
    assert np.abs(_predict(model, bumped) - base).max() > 1e-9


def _pinned_predictions(tmp_path, name, kind):
    """A stored checkpoint's ``predict_corpus`` probabilities on the corpus it was scored
    on, and the probabilities stored with it."""
    expected = json.loads((DATA / f"{name}_probs.json").read_text())
    generate(SynthConfig(**expected["corpus"]), tmp_path)
    schema, sessions, features = load_corpus(tmp_path)
    model, stats, saved_schema, _ = load_model(DATA / f"{name}.ckpt")
    assert saved_schema == schema and model.config.width == 8 and model.config.kind == kind
    episodes = build_episodes(sessions, features, stats, schema, kind)
    got = dict(per_session(episodes, predict_corpus(model, episodes, expected["batch_size"])))
    assert list(got) == list(expected["probs"])
    return got, expected["probs"]


def test_channels_first_att_pair_checkpoint_predicts_the_same(tmp_path):
    # Trained one epoch at width 8 and scored by the code whose support
    # encoder ran channels-first, [B, W, S]. The parameters are unchanged
    # by the layout, so the checkpoint loads as it is and predicts the
    # same probabilities.
    got, expected = _pinned_predictions(tmp_path, "att_pair_channels_first", "att_pair")
    for sid, probs in expected.items():
        np.testing.assert_allclose(got[sid], probs, rtol=0, atol=1e-6, err_msg=sid)


def test_sigmoid_head_seq1HL_checkpoint_predicts_the_same_bits(tmp_path):
    # Trained one epoch at width 8 and scored by the code whose packed
    # forward ended in a sigmoid node. Its logits now leave the model and
    # query_probs applies the one sigmoid; the float32 probabilities are
    # the stored ones bit for bit.
    got, expected = _pinned_predictions(tmp_path, "seq1HL_sigmoid_head", "seq1HL")
    for sid, probs in expected.items():
        assert got[sid].tobytes() == np.array(probs, dtype=np.float32).tobytes(), sid


@pytest.mark.parametrize("kind", ["transformer", "snail"])
def test_padded_timeline_checkpoint_predicts_the_same_bits(tmp_path, kind):
    # Trained one epoch at width 8 and scored, in length-bucketed batches of
    # 8, by the code that ran the kind on padded [B, T] timelines: the
    # float32 probabilities are the stored ones bit for bit.
    got, expected = _pinned_predictions(tmp_path, f"{kind}_padded_timeline", kind)
    for sid, probs in expected.items():
        assert got[sid].tobytes() == np.array(probs, dtype=np.float32).tobytes(), sid


# -- inference without a tape ------------------------------------------


def _inference_probs(model, batch) -> np.ndarray:
    """What ``query_probs`` computes, with the tape on."""
    if model.family == "metric":
        head = model.forward_metric(batch).head.data[prefix_mask(batch.t_query)]
    else:
        head = model.forward_sequence(batch).data[batch.query_rows != 0]
    return head if model.config.kind in VOTE_KINDS else T.sigmoid_array(head)


def test_query_probs_records_no_tape(monkeypatch):
    # Every op inside query_probs returns a leaf, the outputs are those of
    # the taped forward bit for bit, and training afterwards still records.
    made = []
    result = T._result

    def spy(data, parents, grad_fn):
        out = result(data, parents, grad_fn)
        made.append(out)
        return out

    monkeypatch.setattr(T, "_result", spy)
    rng = np.random.default_rng(7)
    plain = make_batch([_episode(rng, 10), _episode(rng, 13)])
    teacher = make_batch([_episode(rng, 12, keep_logs=True)])
    for kind in KINDS:
        model = _model(kind)
        batch = teacher if kind == "teacher" else plain
        made.clear()
        probs = model.query_probs(batch)
        assert len(made) > 5, kind
        assert all(t._grad_fn is None and t._parents == () and not t.requires_grad
                   for t in made), kind
        np.testing.assert_array_equal(probs, _inference_probs(model, batch), err_msg=kind)

        made.clear()
        loss = batch_loss(model, batch)
        assert sum(t._grad_fn is not None for t in made) > 5, kind
        loss.backward()
        grads = [p.grad for p in model.params.values()]
        assert all(g is not None for g in grads) and any(np.any(g != 0) for g in grads), kind


def test_no_grad_restores_the_flag_on_error():
    teacher = _model("teacher")
    batch = make_batch([_episode(np.random.default_rng(8))])
    with pytest.raises(ContractError):
        teacher.query_probs(batch)  # raises inside the no-grad block
    assert T._grad_enabled
    with T.no_grad():
        with T.no_grad():
            pass
        assert not T._grad_enabled  # a nested block restores the outer setting
    w = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    out = T.reduce_sum(T.mul(w, 2.0))
    out.backward()
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])
