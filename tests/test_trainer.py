"""Training protocol: split, loss table, annealing, checkpoints, guards."""

import math

import numpy as np
import pytest

from seqskip import checkpoint as ckpt
from seqskip.dataio import fit_stats, load_corpus, make_batch
from seqskip.errors import ConfigurationError, TrainingError, ValidationError
from seqskip.models import build, default_config
from seqskip.synthgen import SynthConfig, generate
from seqskip.trainer import (
    TrainConfig,
    _clip_gradients,
    batch_loss,
    build_episodes,
    evaluate_episodes,
    load_model,
    predict_corpus,
    save_model,
    split_train_val,
    train,
)

BCE_EPS = 1e-7


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_corpus")
    generate(SynthConfig(n_sessions=60, rule="threshold", noise=0.05,
                         seed=11, feature_dim=8), out)
    return load_corpus(out)


@pytest.fixture(scope="module")
def episodes(corpus):
    schema, sessions, features = corpus
    from seqskip.dataio import fit_stats
    stats = fit_stats(sessions, features, schema)
    return schema, stats, build_episodes(sessions, features, stats, schema, "rnb1")


def _cfg(kind="seq1eH", **kw):
    kw.setdefault("batch_size", 16)
    kw.setdefault("max_epochs", 2)
    return TrainConfig(model=default_config(kind, width=8), **kw)


# -- config ------------------------------------------------------------


def test_train_config_validation():
    for kw in (
        {"train_fraction": 1.0},
        {"anneal_factor": 1.0},
        {"max_epochs": 0},
        {"batch_size": 0},
        {"base_lr": 0.0},
        {"loss_scope": "all"},
        {"grad_clip": 0.0},
    ):
        with pytest.raises(ConfigurationError):
            _cfg(**kw)


# -- split -------------------------------------------------------------


def test_split_is_deterministic_partition(corpus):
    _, sessions, _ = corpus
    a_train, a_val = split_train_val(sessions, 0.8, 3)
    b_train, b_val = split_train_val(sessions, 0.8, 3)
    assert [s.session_id for s in a_train] == [s.session_id for s in b_train]
    ids = {s.session_id for s in a_train} | {s.session_id for s in a_val}
    assert ids == {s.session_id for s in sessions}
    assert len(a_train) == 48 and len(a_val) == 12
    c_train, _ = split_train_val(sessions, 0.8, 4)
    assert [s.session_id for s in c_train] != [s.session_id for s in a_train]


def test_split_guards(corpus):
    _, sessions, _ = corpus
    with pytest.raises(ValidationError):
        split_train_val(sessions[:1], 0.5, 0)
    with pytest.raises(ValidationError):
        split_train_val(sessions[:3], 0.01, 0)


# -- loss table --------------------------------------------------------


def test_mse_kinds_regress_pair_targets(episodes):
    schema, _, eps = episodes
    batch = make_batch(eps[:4])
    model = build(default_config("rnb1", width=8), schema.full_width)
    got = float(batch_loss(model, batch).data)
    out = model.forward_metric(batch)
    targets = (batch.sup_y[:, :, None] == batch.qry_y[:, None, :]).astype(np.float32)
    pm = batch.sup_mask[:, :, None] * batch.qry_mask[:, None, :]
    want = float((((out.r.data - targets) ** 2) * pm).sum() / pm.sum())
    assert abs(got - want) < 1e-6


def test_weighted_sum_kind_uses_bce(episodes):
    schema, _, eps = episodes
    batch = make_batch(eps[:4])
    model = build(default_config("rnbc2_ue", width=8), schema.full_width)
    got = float(batch_loss(model, batch).data)
    p = np.clip(model.forward_metric(batch).probs.data, BCE_EPS, 1 - BCE_EPS)
    y, m = batch.qry_y, batch.qry_mask
    want = float((-(y * np.log(p) + (1 - y) * np.log(1 - p)) * m).sum() / m.sum())
    assert abs(got - want) < 1e-6


def test_sequence_kind_scope_switches_mask(episodes):
    schema, _, eps = episodes
    batch = make_batch(eps[:4])
    model = build(default_config("seq1eH", width=8), schema.full_width)
    p = np.clip(model.forward_sequence(batch).data, BCE_EPS, 1 - BCE_EPS)
    y = batch.seq_y
    ce = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    for scope, mask in (("query_only", batch.seq_qmask),
                        ("support_and_query", batch.seq_mask)):
        got = float(batch_loss(model, batch, scope).data)
        want = float((ce * mask).sum() / mask.sum())
        assert abs(got - want) < 1e-6


def test_loss_requires_labels(episodes):
    schema, _, eps = episodes
    batch = make_batch(eps[:2])
    batch.qry_y = None
    model = build(default_config("rnb1", width=8), schema.full_width)
    with pytest.raises(ValidationError):
        batch_loss(model, batch)


def test_teacher_episodes_keep_logs(corpus):
    schema, sessions, features = corpus
    from seqskip.dataio import fit_stats
    stats = fit_stats(sessions, features, schema)
    t_eps = build_episodes(sessions[:2], features, stats, schema, "teacher")
    s_eps = build_episodes(sessions[:2], features, stats, schema, "seq1HL")
    assert all(e.query_logs_kept for e in t_eps)
    assert not any(e.query_logs_kept for e in s_eps)


# -- prediction and evaluation -----------------------------------------


def test_predict_corpus_order_and_lengths(episodes):
    schema, _, eps = episodes
    model = build(default_config("rnb1", width=8), schema.full_width)
    preds = predict_corpus(model, eps[:7], batch_size=3)
    assert [sid for sid, _ in preds] == [e.session_id for e in eps[:7]]
    for ep, (_, p) in zip(eps[:7], preds):
        assert p.shape == (ep.t_query,)


def test_evaluate_matches_manual_maa(episodes):
    from seqskip.metrics import SessionPrediction, binarize, corpus_maa
    schema, _, eps = episodes
    model = build(default_config("rnb1", width=8), schema.full_width)
    maa, preds = evaluate_episodes(model, eps[:9], batch_size=4)
    manual = corpus_maa([
        SessionPrediction(sid, binarize(p), ep.y_query)
        for ep, (sid, p) in zip(eps[:9], predict_corpus(model, eps[:9], 4))
    ])
    assert maa == manual and len(preds) == 9


# -- gradient clipping -------------------------------------------------


def test_clip_gradients_rescales_global_norm(episodes):
    schema, _, _ = episodes
    model = build(default_config("rnb1", width=8), schema.full_width)
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    total = math.sqrt(sum(p.data.size for p in model.params.values()))
    _clip_gradients(model, total * 2)  # under the limit: untouched
    assert all(np.all(p.grad == 1.0) for p in model.params.values())
    _clip_gradients(model, 1.0)
    norm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in model.params.values()))
    assert abs(norm - 1.0) < 1e-6


# -- the full loop -----------------------------------------------------


def test_train_protocol_end_to_end(corpus):
    schema, sessions, features = corpus
    logs = []
    result = train(_cfg(max_epochs=3), sessions, features, schema, log=logs.append)
    assert len(result.history) == 3 and len(logs) == 3
    # annealing: lr multiplied by 0.7 each epoch
    np.testing.assert_allclose([h.lr for h in result.history],
                               [1e-3, 7e-4, 4.9e-4], rtol=1e-9)
    assert result.best_val_maa == max(h.val_maa for h in result.history)
    assert result.history[result.best_epoch - 1].val_maa == result.best_val_maa
    # stats must come from the train side of the split only
    from seqskip.dataio import fit_stats
    train_sessions, _ = split_train_val(sessions, 0.8, 0)
    expect = fit_stats(train_sessions, features, schema)
    np.testing.assert_array_equal(result.stats.acoustic_mean, expect.acoustic_mean)
    assert result.stats.count_max == expect.count_max


def test_train_loss_decreases(corpus):
    schema, sessions, features = corpus
    result = train(_cfg(kind="seq1eH", max_epochs=2), sessions, features, schema)
    assert result.history[1].train_loss < result.history[0].train_loss


def test_train_writes_checkpoint(corpus, tmp_path):
    schema, sessions, features = corpus
    path = tmp_path / "model.ckpt"
    result = train(_cfg(max_epochs=1, checkpoint_path=str(path)),
                   sessions, features, schema)
    model, stats, schema2, extra = load_model(path)
    assert extra["best_val_maa"] == result.best_val_maa
    assert extra["epochs_run"] == 1
    assert schema2 == schema
    for name, p in result.model.params.items():
        np.testing.assert_array_equal(p.data, model.params[name].data)


def test_non_finite_loss_raises(tmp_path):
    generate(SynthConfig(n_sessions=8, rule="threshold", seed=0,
                         feature_dim=4, n_tracks=16), tmp_path)
    schema, sessions, features = load_corpus(tmp_path)
    # load_features rejects a nan in the file, so poison one acoustic
    # value of the loaded table: the guard must still catch it.
    first = (tmp_path / "features.csv").read_text().splitlines()[1].split(",")[0]
    features.vectors[first][0] = np.nan
    with pytest.raises(TrainingError, match="non-finite"):
        train(_cfg(max_epochs=1, train_fraction=0.5), sessions, features, schema)


def test_checkpoint_round_trip_is_bit_identical(corpus, tmp_path):
    schema, sessions, features = corpus
    result = train(_cfg(kind="rnb2_ue", max_epochs=1), sessions, features, schema)
    path = tmp_path / "rt.ckpt"
    save_model(path, result.model, result.stats, result.schema)
    reloaded, _, _, _ = load_model(path)
    eps = build_episodes(sessions[:8], features, result.stats, schema, "rnb2_ue")
    batch = make_batch(eps)
    np.testing.assert_array_equal(result.model.query_probs(batch),
                                  reloaded.query_probs(batch))


# Meta as written before the structure was derived from the kind: the
# default config of each kind stored its structure next to the config.
LEGACY_STRUCTURE = {
    "rnb1": (1, [], [], 1),
    "rnb2_ue": (1, [], [], 1),
    "rnbc2_ue": (1, [], [], 1),
    "seq1eH": (1, [1, 2, 4, 8, 16], [2] * 5, 1),
    "seq1HL": (2, [1, 2, 4, 8, 16], [2] * 5, 1),
    "att_pair": (1, [1, 2, 4], [2, 2, 3], 1),
    "transformer": (2, [], [], 8),
    "snail": (1, [1, 2, 4, 8, 16], [2] * 5, 8),
    "teacher": (2, [1, 2, 4, 8, 16], [2] * 5, 1),
}


def _with_legacy_meta(path, kind, **override):
    arrays, meta = ckpt.load_checkpoint(path)
    assert sorted(meta["model"]) == ["gate", "kind", "seed", "width"]
    keys = ("stack_count", "dilations", "kernel_sizes", "heads")
    meta["model"].update(zip(keys, LEGACY_STRUCTURE[kind]), **override)
    ckpt.save_checkpoint(path, arrays, meta)


@pytest.mark.parametrize("kind", sorted(LEGACY_STRUCTURE))
def test_legacy_checkpoint_meta_loads_and_predicts_identically(corpus, tmp_path, kind):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    model = build(default_config(kind, width=8, seed=4), schema.full_width)
    path = tmp_path / "old.ckpt"
    save_model(path, model, stats, schema)
    _with_legacy_meta(path, kind)
    reloaded, _, _, _ = load_model(path)
    assert reloaded.config == model.config
    batch = make_batch(build_episodes(sessions[:8], features, stats, schema, kind))
    np.testing.assert_array_equal(model.query_probs(batch), reloaded.query_probs(batch))


# Each kind checks the legacy keys its build and forward read. A
# transformer's heads change no parameter shape, so a 4-head transformer
# would otherwise load silently as the 8-head one.
@pytest.mark.parametrize("kind, override", [
    ("transformer", {"heads": 4}),
    ("transformer", {"stack_count": 3}),
    ("seq1HL", {"stack_count": 1}),
    ("seq1eH", {"dilations": [1, 2, 4, 8]}),
    ("teacher", {"kernel_sizes": [3] * 5}),
    ("snail", {"heads": 4}),
    ("att_pair", {"heads": 2}),
    ("att_pair", {"kernel_sizes": [2, 2, 2]}),
])
def test_legacy_checkpoint_meta_with_other_structure_rejected(corpus, tmp_path, kind, override):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    path = tmp_path / "old.ckpt"
    save_model(path, build(default_config(kind, width=8), schema.full_width), stats, schema)
    _with_legacy_meta(path, kind, **override)
    with pytest.raises(ValidationError, match=next(iter(override))):
        load_model(path)


# Keys a kind never read could hold anything the old config accepted:
# ModelConfig(kind="rnb1") kept the stack defaults, and a seq1HL took any
# heads. Such meta describes the same model and loads.
@pytest.mark.parametrize("kind, override", [
    ("rnb1", {"dilations": [1, 2, 4, 8, 16], "kernel_sizes": [2] * 5}),
    ("rnbc2_ue", {"stack_count": 2, "heads": 4}),
    ("seq1HL", {"heads": 4}),
    ("snail", {"stack_count": 2}),
    ("att_pair", {"stack_count": 2}),
    ("transformer", {"dilations": [1, 2, 4, 8, 16], "kernel_sizes": [2] * 5}),
])
def test_legacy_checkpoint_meta_with_unread_keys_loads(corpus, tmp_path, kind, override):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    model = build(default_config(kind, width=8, seed=4), schema.full_width)
    path = tmp_path / "old.ckpt"
    save_model(path, model, stats, schema)
    _with_legacy_meta(path, kind, **override)
    reloaded, _, _, _ = load_model(path)
    assert reloaded.config == model.config
    batch = make_batch(build_episodes(sessions[:8], features, stats, schema, kind))
    np.testing.assert_array_equal(model.query_probs(batch), reloaded.query_probs(batch))
