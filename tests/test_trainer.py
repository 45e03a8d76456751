"""Training protocol: split, loss table, annealing, checkpoints, guards."""

import math
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from handmade import corpus_order_predictions

from seqskip import checkpoint as ckpt
from seqskip import tensor as T
from seqskip import trainer
from seqskip.dataio import fit_stats, load_corpus, make_batch, make_batches
from seqskip.errors import ConfigurationError, TrainingError, ValidationError
from seqskip.models import KINDS, build, default_config
from seqskip.optim import Adam
from seqskip.synthgen import SynthConfig, generate
from seqskip.trainer import (
    TrainConfig,
    batch_loss,
    build_episodes,
    evaluate_episodes,
    load_model,
    predict_corpus,
    save_model,
    split_train_val,
    train,
)


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
        {"base_lr": math.nan},
        {"base_lr": math.inf},
        {"loss_scope": "all"},
        {"grad_clip": 0.0},
        {"grad_clip": math.nan},
        {"grad_clip": -math.inf},
        {"grad_clip": math.inf},
    ):
        with pytest.raises(ConfigurationError):
            _cfg(**kw)


# -- split -------------------------------------------------------------


def test_split_is_deterministic_partition(corpus):
    _, sessions, _ = corpus
    a_train, a_val = split_train_val(sessions, 0.8, 3)
    b_train, b_val = split_train_val(sessions, 0.8, 3)
    assert a_train.ids.tolist() == b_train.ids.tolist()
    assert set(a_train.ids) | set(a_val.ids) == set(sessions.ids)
    assert len(a_train) == 48 and len(a_val) == 12
    c_train, _ = split_train_val(sessions, 0.8, 4)
    assert c_train.ids.tolist() != a_train.ids.tolist()
    with pytest.raises(TypeError):  # a corpus is indexed, not iterated
        iter(a_train)
    # a sub-corpus carries its sessions' rows, in its own session order
    first = sessions.ids.tolist().index(a_val.ids[0])
    rows = slice(sessions.starts[first], sessions.starts[first] + sessions.lengths[first])
    assert a_val.track_ids[: a_val.lengths[0]].tolist() == sessions.track_ids[rows].tolist()
    for name, column in a_val.columns.items():
        np.testing.assert_array_equal(column[: a_val.lengths[0]], sessions.columns[name][rows])


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


def _cross_entropy(logits, y):
    """``-(y log sigmoid(z) + (1 - y) log(1 - sigmoid(z)))`` in float64."""
    z = logits.astype(np.float64)
    return y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z)


def test_weighted_sum_kind_uses_bce(episodes):
    schema, _, eps = episodes
    batch = make_batch(eps[:4])
    model = build(default_config("rnbc2_ue", width=8), schema.full_width)
    got = float(batch_loss(model, batch).data)
    m = batch.qry_mask
    ce = _cross_entropy(model.forward_metric(batch).head.data, batch.qry_y)
    want = float((ce * m).sum() / m.sum())
    assert abs(got - want) < 1e-6


def test_sequence_kind_scope_switches_mask(episodes):
    schema, _, eps = episodes
    batch = make_batch(eps[:4])
    model = build(default_config("seq1eH", width=8), schema.full_width)
    ce = _cross_entropy(model.forward_sequence(batch).data, batch.y)
    assert batch.real_rows.sum() > batch.query_rows.sum() > 0
    for scope, mask in (("query_only", batch.query_rows),
                        ("support_and_query", batch.real_rows)):
        got = float(batch_loss(model, batch, scope).data)
        want = float((ce * mask).sum() / mask.sum())
        assert abs(got - want) < 1e-6


def test_teacher_episodes_keep_logs(corpus):
    schema, sessions, features = corpus
    from seqskip.dataio import fit_stats
    stats = fit_stats(sessions, features, schema)
    t_eps = build_episodes(sessions[:2], features, stats, schema, "teacher")
    s_eps = build_episodes(sessions[:2], features, stats, schema, "seq1HL")
    assert t_eps.query_logs_kept and len(t_eps) == 2
    assert not s_eps.query_logs_kept and len(s_eps) == 2
    lw = schema.log_width
    t_qry, s_qry = t_eps.queries(t_eps.x), s_eps.queries(s_eps.x)
    assert np.any(t_qry[:, :, :lw] != 0) and not np.any(s_qry[:, :, :lw] != 0)


# -- prediction and evaluation -----------------------------------------


def test_predict_corpus_order_and_lengths(episodes):
    schema, _, eps = episodes
    model = build(default_config("rnb1", width=8), schema.full_width)
    preds = predict_corpus(model, eps[:7], batch_size=3)
    assert [sid for sid, _ in preds] == list(eps.session_ids[:7])
    t_query = eps.qry_mask[:7].sum(axis=1).astype(int)
    assert [p.shape for _, p in preds] == [(n,) for n in t_query]


def test_predict_corpus_batches_by_length_with_ties_in_corpus_order(episodes, monkeypatch):
    schema, _, eps = episodes
    model = build(default_config("rnb1", width=8), schema.full_width)
    scored = []

    def recording(episodes, batch_size, order=None):
        batches = make_batches(episodes, batch_size, order)
        scored.extend(sid for b in batches for sid in b.session_ids)
        return batches

    monkeypatch.setattr(trainer, "make_batches", recording)
    predict_corpus(model, eps, batch_size=8)
    length = dict(zip(eps.session_ids, eps.seq_mask.sum(axis=1)))
    assert len(set(length.values())) < len(eps)  # the corpus has ties
    position = {sid: i for i, sid in enumerate(eps.session_ids)}
    keys = [(length[sid], position[sid]) for sid in scored]
    assert keys == sorted(keys) and len(keys) == len(eps)


@pytest.mark.parametrize("presorted", [False, True])
@pytest.mark.parametrize("batch_size", [1, 7, 60, 1000])
def test_predict_corpus_writes_each_session_back_to_its_slot(episodes, batch_size, presorted):
    # rnb1 scores a session the same bits in any batch, so the bucketed
    # result equals corpus-order batching exactly; a batch of 1000 holds
    # the whole corpus of 60.
    schema, _, eps = episodes
    if presorted:
        eps = eps[np.argsort(eps.seq_mask.sum(axis=1), kind="stable")]
    assert presorted or np.any(np.diff(eps.seq_mask.sum(axis=1)) < 0)
    model = build(default_config("rnb1", width=8), schema.full_width)
    got = predict_corpus(model, eps, batch_size)
    want = corpus_order_predictions(model, eps, batch_size)
    assert [sid for sid, _ in got] == list(eps.session_ids)
    for (sid, p), (_, q) in zip(got, want):
        assert p.dtype == q.dtype and p.tobytes() == q.tobytes(), sid


def test_evaluate_matches_manual_maa(episodes):
    from seqskip.metrics import SessionPrediction, binarize, corpus_maa
    schema, _, eps = episodes
    model = build(default_config("rnb1", width=8), schema.full_width)
    maa, preds = evaluate_episodes(model, eps[:9], batch_size=4)
    manual = corpus_maa([
        SessionPrediction(sid, binarize(p), y_query[: len(p)])
        for y_query, (sid, p) in zip(eps.qry_y[:9], predict_corpus(model, eps[:9], 4))
    ])
    assert maa == manual and len(preds) == 9


# -- gradient clipping -------------------------------------------------


def test_clip_gradients_rescales_global_norm(corpus, monkeypatch):
    # Each Adam step receives the gathered gradient, scaled in place to the
    # clip norm when it is larger and left alone when it is not.
    schema, sessions, features = corpus
    norms, vectors = {}, {}

    class Recording(Adam):
        def step(self, grad):
            norms.setdefault(clip, []).append(float(np.linalg.norm(grad.astype(np.float64))))
            super().step(grad)

    monkeypatch.setattr(trainer, "Adam", Recording)
    for clip in (None, 1e-3, 1e9):
        result = train(_cfg(kind="rnb1", max_epochs=1, grad_clip=clip), sessions, features, schema)
        vectors[clip] = result.model.vector
    assert len(norms[1e-3]) == 3
    assert min(norms[None]) > 1e-3
    np.testing.assert_allclose(norms[1e-3], 1e-3, rtol=1e-5)
    assert vectors[1e9].tobytes() == vectors[None].tobytes()  # under the limit: untouched


HUGE = 1e24  # scales an rnb1 loss so that its gradient's float32 squares overflow


def _loss_scaled_by(factor):
    def scaled(model, batch, loss_scope="query_only"):
        return T.mul(batch_loss(model, batch, loss_scope), factor)
    return scaled


def test_clip_rescales_a_finite_gradient_past_float32_squares(corpus, episodes, monkeypatch):
    # A loss scaled by HUGE back-propagates finite entries past 1.8e19, whose float32
    # squares overflow: the clip still sees the float64 norm and rescales.
    schema, sessions, features = corpus
    model = build(default_config("rnb1", width=8), schema.full_width)
    _loss_scaled_by(HUGE)(model, make_batch(episodes[2])).backward()
    grad = model.gradient()
    with np.errstate(over="ignore"):
        assert np.isfinite(grad).all() and not np.isfinite(np.dot(grad, grad))
    steps = []

    class Recording(Adam):
        def step(self, grad):
            assert np.isfinite(grad).all()
            steps.append(float(np.linalg.norm(grad.astype(np.float64))))
            super().step(grad)

    monkeypatch.setattr(trainer, "Adam", Recording)
    monkeypatch.setattr(trainer, "batch_loss", _loss_scaled_by(HUGE))
    train(_cfg(kind="rnb1", max_epochs=1, grad_clip=1.0), sessions, features, schema)
    assert len(steps) == 3
    np.testing.assert_allclose(steps, 1.0, rtol=1e-5)


def test_an_unclipped_gradient_past_float32_squares_stops_with_its_norm(corpus, monkeypatch):
    schema, sessions, features = corpus
    monkeypatch.setattr(trainer, "batch_loss", _loss_scaled_by(HUGE))
    with pytest.raises(TrainingError, match=r"gradient norm \d\.\d+e\+\d+ at epoch 1, batch 0 "
                                            r"overflows float32; set grad_clip") as err:
        train(_cfg(kind="rnb1", max_epochs=1), sessions, features, schema)
    assert "non-finite" not in str(err.value)


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
    # Each step's Adam scratch lands in the gradient buffer: no .grad is left reading it.
    assert all(p.grad is None for p in result.model.params.values())
    # stats must come from the train side of the split only
    from seqskip.dataio import fit_stats
    train_sessions, _ = split_train_val(sessions, 0.8, 0)
    expect = fit_stats(train_sessions, features, schema)
    np.testing.assert_array_equal(result.stats.acoustic_mean, expect.acoustic_mean)
    assert result.stats.count_max == expect.count_max


def test_train_returns_the_best_epoch_parameters(corpus):
    schema, sessions, features = corpus
    config = TrainConfig(model=default_config("rnb1", width=8, seed=3), batch_size=16,
                         max_epochs=3, seed=3)
    result = train(config, sessions, features, schema)
    assert result.best_epoch == 1
    assert all(h.val_maa < result.best_val_maa for h in result.history[1:])
    _, val_sessions = split_train_val(sessions, config.train_fraction, config.seed)
    val_eps = build_episodes(val_sessions, features, result.stats, schema, "rnb1")
    maa, _ = evaluate_episodes(result.model, val_eps, config.batch_size)
    assert maa == result.best_val_maa


def _assert_vector_backed(model):
    # Every parameter is a view into the vector, so one Adam step on the
    # vector moves each of them.
    for name, p in model.params.items():
        assert np.shares_memory(p.data, model.vector), name
    before = {name: p.data.copy() for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    Adam(model.vector).step(model.gradient())
    for name, p in model.params.items():
        assert not np.array_equal(p.data, before[name]), name


@pytest.mark.parametrize("kind", KINDS)
def test_parameters_stay_views_into_the_vector(corpus, tmp_path, kind):
    schema, sessions, features = corpus
    path = tmp_path / "m.ckpt"
    _assert_vector_backed(build(default_config(kind, width=8), schema.full_width))
    result = train(_cfg(kind=kind, max_epochs=1, checkpoint_path=str(path)),
                   sessions, features, schema)
    loaded = load_model(path)[0]
    _assert_vector_backed(result.model)
    _assert_vector_backed(loaded)


def test_loading_a_model_keeps_freed_heap(monkeypatch):
    # A fresh predict or evaluate process sets the allocator up once, as train() does.
    calls = []
    monkeypatch.setattr(trainer, "_keep_freed_heap", lambda: calls.append(1) or True)
    load_model(Path(__file__).parent / "data" / "rnb1_pair_concat.ckpt")
    assert calls == [1]


@pytest.mark.parametrize("name", ["att_pair_channels_first", "rnb1_pair_concat",
                                  "rnb2_ue_pair_concat", "rnbc2_ue_pair_concat",
                                  "seq1HL_sigmoid_head"])
def test_pinned_checkpoints_load_into_the_vector(name):
    path = Path(__file__).parent / "data" / f"{name}.ckpt"
    model = load_model(path)[0]
    arrays, _ = ckpt.load_checkpoint(path)
    for key, p in model.params.items():
        assert p.data.tobytes() == arrays[key].tobytes(), key
    _assert_vector_backed(model)


@pytest.mark.parametrize("kind", KINDS)
def test_each_step_frees_its_tape_before_the_next(corpus, monkeypatch, kind):
    # Weak references to every recorded node of each step's loss: all of
    # them must be dead when the next step's loss is entered, and again
    # before each epoch's validation, so at most one tape is alive.
    schema, sessions, features = corpus
    tapes, checks = [], []

    def recording(model, batch, loss_scope="query_only"):
        checks.append(("step", [r() for tape in tapes for r in tape]))
        loss = batch_loss(model, batch, loss_scope)
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node._grad_fn is not None:
                nodes.append(weakref.ref(node))
                stack.extend(node._parents)
        tapes.append(nodes)
        return loss

    def validating(*args, **kwargs):
        checks.append(("validation", [r() for tape in tapes for r in tape]))
        return evaluate_episodes(*args, **kwargs)

    monkeypatch.setattr(trainer, "batch_loss", recording)
    monkeypatch.setattr(trainer, "evaluate_episodes", validating)
    train(_cfg(kind=kind, max_epochs=2), sessions, features, schema)
    assert [what for what, _ in checks] == (["step"] * 3 + ["validation"]) * 2
    assert len(tapes) == 6 and all(tapes)
    for what, alive in checks:
        assert alive.count(None) == len(alive), what


def test_train_frees_the_split_corpora_before_the_first_step(corpus, monkeypatch):
    # The episodes hold all that training reads: the two split Sessions
    # must be dead when the first step starts.
    schema, sessions, features = corpus
    splits, alive = [], []

    def splitting(*args):
        parts = split_train_val(*args)
        splits.extend(weakref.ref(part) for part in parts)
        return parts

    def recording(*args, **kwargs):
        alive.append([r() is not None for r in splits])
        return batch_loss(*args, **kwargs)

    monkeypatch.setattr(trainer, "split_train_val", splitting)
    monkeypatch.setattr(trainer, "batch_loss", recording)
    train(_cfg(kind="seq1HL", max_epochs=1), sessions, features, schema)
    assert len(splits) == 2 and alive
    assert alive[0] == [False, False]


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_a_second_train_reuses_the_freed_heap(tmp_path, monkeypatch):
    # Each step frees its tape; without the heap policy glibc trims the
    # freed top of the heap and the next step faults it back in: this fit
    # (seq1HL, width 32, 160 `markov` sessions, 2 epochs) took about 12,000
    # minor faults per train() that way, against about 160 with the policy.
    keep = trainer._keep_freed_heap
    if not keep():
        pytest.skip("libc has no mallopt")
    assert keep()  # applying it again changes nothing
    calls = []
    monkeypatch.setattr(trainer, "_keep_freed_heap", lambda: calls.append(1) or keep())
    generate(SynthConfig(n_sessions=160, rule="markov", seed=5), tmp_path)
    schema, sessions, features = load_corpus(tmp_path)
    config = TrainConfig(model=default_config("seq1HL", width=32), max_epochs=2)
    faults, results = [], []
    for _ in range(2):
        before = _minor_faults()
        results.append(train(config, sessions, features, schema))
        faults.append(_minor_faults() - before)
    assert len(calls) == 2  # every train() applies it, so library callers get it too
    assert faults[1] < 2000, faults
    assert results[0].model.vector.tobytes() == results[1].model.vector.tobytes()


def test_the_heap_policy_keeps_arrays_under_32_mib_on_the_heap():
    # Setting the trim threshold alone would freeze glibc's mmap threshold
    # where it stood, near 128 KiB in a fresh process, so every array of
    # 1 or 3 MiB would be mapped, faulted in (257 and 769 faults) and
    # unmapped again. This process has run the policy already; a fresh one
    # shows the difference.
    if not trainer._keep_freed_heap():
        pytest.skip("libc has no mallopt")
    code = "\n".join([
        "import resource, numpy as np",
        "from seqskip import trainer",
        "assert trainer._keep_freed_heap()",
        "for size in (1 << 20, 3 << 20):",
        "    for _ in range(3):",
        "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "        np.ones(size, np.uint8)",
        "        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    src = str(Path(trainer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    faults = [int(v) for v in out.split()]
    assert len(faults) == 6 and max(faults[1:3] + faults[4:]) < 50, faults


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
    features.matrix[features.index[first], 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite"):
        train(_cfg(max_epochs=1, train_fraction=0.5), sessions, features, schema)


def test_non_finite_gradient_raises_before_the_step(corpus, monkeypatch):
    # sqrt(0 * sum(embed.b)) adds 0 to the loss, but its gradient is
    # 0.5/sqrt(0) * 0 = nan: the loss stays finite, the gradient does not.
    schema, sessions, features = corpus
    seen = []

    def poisoned(model, batch, loss_scope="query_only"):
        seen.append(model)
        zero = T.mul(T.reduce_sum(model.params["embed.b"]), 0.0)
        return T.add(batch_loss(model, batch, loss_scope), T.pow_scalar(zero, 0.5))

    monkeypatch.setattr(trainer, "batch_loss", poisoned)
    config = _cfg(kind="rnb1", max_epochs=1)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
        TrainingError, match=r"non-finite gradient norm \(nan\) at epoch 1, batch 0"
    ):
        train(config, sessions, features, schema)
    # No Adam step ran: every parameter still holds its initial value.
    fresh = build(config.model, schema.full_width)
    for name, p in seen[0].params.items():
        np.testing.assert_array_equal(p.data, fresh.params[name].data)


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
