"""Model family contracts: configs, shapes, masking, and dispatch rules."""

import numpy as np
import pytest

from seqskip.dataio import Episode, make_batch
from seqskip.errors import ConfigurationError, ContractError, ValidationError
from seqskip.models import (
    KINDS,
    METRIC_KINDS,
    SEQUENCE_KINDS,
    ModelConfig,
    build,
    default_config,
    predict_queries,
    relation_scores,
    target_similarity,
    user_embedding,
)
from seqskip.trainer import batch_loss

IN_DIM = 10
WIDTH = 16


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


# -- targets -----------------------------------------------------------


def test_target_similarity_xnor():
    got = target_similarity([1, 0], [1, 1, 0])
    np.testing.assert_array_equal(got, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError):
        target_similarity([2], [1])


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
    assert _model("seq1eH").param_count() == entry_head + 5 * level
    assert _model("seq1HL").param_count() == entry_head + 10 * level
    # the two-stack model is exactly one ladder of levels bigger
    assert (_model("seq1HL").param_count() - _model("seq1eH").param_count()
            == 5 * level)
    assert _model("teacher").param_count() == _model("seq1HL").param_count()

    d_item = d - 2
    rnb1 = (d_item * w + w) + ((2 * w + 1) * w + w) + (w + 1)
    assert _model("rnb1").param_count() == rnb1
    ue_extra = ((w + 1) * w + w) + (w * w + w)  # ue.fc + ue.out
    pair_growth = w * w  # rn.fc1 widens by one embedding block
    rnb2 = rnb1 + ue_extra + pair_growth
    assert _model("rnb2_ue").param_count() == rnb2
    wsum = (3 * w + 1) + 1 + 1  # weights + linear bias + vote bias
    assert _model("rnbc2_ue").param_count() == rnb2 + wsum


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
        user_embedding(_model("rnb1"), _episode(rng))


def test_teacher_demands_query_logs():
    rng = np.random.default_rng(0)
    teacher = _model("teacher")
    with pytest.raises(ContractError, match="keep_query_logs"):
        teacher.forward_sequence(make_batch([_episode(rng)]))
    probs = teacher.query_probs(make_batch([_episode(rng, keep_logs=True)]))
    assert probs.shape == (1, 5)


def test_transformer_positional_table_limit():
    rng = np.random.default_rng(0)
    ep = _episode(rng, length=10)
    ep.x_query = np.concatenate([ep.x_query] * 4)[:16]  # timeline 5+16 > 20
    ep.y_query = np.concatenate([ep.y_query] * 4)[:16]
    with pytest.raises(ValidationError, match="positional"):
        _model("transformer").forward_sequence(make_batch([ep]))


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
        assert probs.shape == (2, 6)
        assert np.all((probs >= 0) & (probs <= 1))
        # padded query slots are zero-masked
        assert np.all(probs[0, 5:] == 0)

    out = _model("rnb2_ue").forward_metric(batch)
    assert out.r.shape == (2, 7, 6)
    assert np.all((out.r.data > 0) & (out.r.data < 1))


def test_episode_helpers():
    rng = np.random.default_rng(2)
    ep = _episode(rng, 11)
    model = _model("rnb2_ue")
    assert relation_scores(model, ep).shape == (6, 5)
    assert user_embedding(model, ep).shape == (WIDTH,)
    assert predict_queries(model, ep).shape == (5,)
    assert predict_queries(_model("snail"), ep).shape == (5,)


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
    # Each conv, norm and gate is one fused node: a seq1HL loss over ten
    # gated levels (five such nodes each) stays within 150 recorded ops
    # (575 when they were composed from primitives).
    rng = np.random.default_rng(6)
    batch = make_batch([_episode(rng, int(rng.integers(10, 21))) for _ in range(64)])
    loss = batch_loss(_model("seq1HL", width=32), batch)
    assert batch.seq_x.shape[0] == 64
    assert 50 <= _tape_op_nodes(loss) <= 150


def test_padding_does_not_change_predictions():
    # each session's outputs must be identical whether batched alone or
    # padded next to a longer one
    rng = np.random.default_rng(3)
    short, long = _episode(rng, 10), _episode(rng, 17)
    for kind in KINDS:
        if kind == "teacher":
            continue
        model = _model(kind)
        solo = model.query_probs(make_batch([short]))[0, :5]
        padded = model.query_probs(make_batch([short, long]))[0, :5]
        np.testing.assert_allclose(padded, solo, atol=2e-6, err_msg=kind)


def test_att_pair_query_causality():
    rng = np.random.default_rng(4)
    ep = _episode(rng, 14)  # 7 support, 7 query
    model = _model("att_pair")
    base = predict_queries(model, ep).copy()
    bumped = Episode(ep.session_id, ep.x_support, ep.x_query.copy(),
                     ep.y_support, ep.y_query)
    bumped.x_query[5] += 1.0
    got = predict_queries(model, bumped)
    np.testing.assert_allclose(got[:5], base[:5], atol=1e-7)
    assert abs(got[5] - base[5]) > 1e-9  # the perturbed position does move


def test_support_perturbation_moves_att_pair_queries():
    # the support encoder is deliberately non-causal: a support change
    # may shift every query's probability
    rng = np.random.default_rng(5)
    ep = _episode(rng, 14)
    model = _model("att_pair")
    base = predict_queries(model, ep).copy()
    bumped = Episode(ep.session_id, ep.x_support.copy(), ep.x_query,
                     ep.y_support, ep.y_query)
    bumped.x_support[0, :3] += 1.0
    assert np.abs(predict_queries(model, bumped) - base).max() > 1e-9
