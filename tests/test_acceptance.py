"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Slow by design (several criteria train models on 20k-session corpora);
run `pytest tests -k "not acceptance"` for the quick unit suite.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import record_criterion
from handmade import Episode
from handmade import make_batch as handmade_batch

from seqskip import gradcheck, nn
from seqskip import tensor as T
from seqskip.cli import main as cli_main
from seqskip.dataio import load_corpus, make_batch
from seqskip.metrics import (
    SessionPrediction,
    average_accuracy,
    binarize,
    corpus_maa,
    read_predictions,
)
from seqskip.models import build, default_config
from seqskip.rng import rng_stream
from seqskip.synthgen import SynthConfig, generate
from seqskip.tensor import Tensor
from seqskip.trainer import (
    TrainConfig,
    build_episodes,
    evaluate_episodes,
    load_model,
    save_model,
    split_train_val,
    train,
)

WIDTH = 32  # pinned by criteria 5-6; reused for 7-8


def _check(index: int, passed: bool, detail: str) -> None:
    record_criterion(index, passed, detail)
    assert passed, f"criterion {index}: {detail}"


@pytest.fixture(scope="session")
def corpus_factory(tmp_path_factory):
    cache = {}

    def get(**kw):
        key = tuple(sorted(kw.items()))
        if key not in cache:
            out = tmp_path_factory.mktemp("corpus")
            generate(SynthConfig(**kw), out)
            schema, sessions, features = load_corpus(out)
            cache[key] = (out, schema, sessions, features)
        return cache[key]

    return get


def _fit(kind, sessions, features, schema, *, width=WIDTH, epochs=10, batch=32,
         lr=2e-3, seed=0):
    cfg = TrainConfig(
        model=default_config(kind, width=width, seed=seed),
        batch_size=batch,
        base_lr=lr,
        max_epochs=epochs,
        seed=seed,
    )
    return train(cfg, sessions, features, schema)


def _query_labels(sessions) -> list[np.ndarray]:
    """Each session's query labels: the positions after its support half."""
    starts = sessions.starts + sessions.t_support
    return [sessions.labels[a:b] for a, b in zip(starts, sessions.starts + sessions.lengths)]


def _label_baseline_maa(kind: str, val_sessions) -> float:
    preds = []
    for sid, y_q in zip(val_sessions.ids, _query_labels(val_sessions)):
        if kind == "all_skip":
            guess = np.ones(len(y_q), dtype=np.int64)
        else:
            guess = np.zeros(len(y_q), dtype=np.int64)
        preds.append(SessionPrediction(sid, guess, y_q))
    return corpus_maa(preds)


def _random_episode(rng, in_dim: int) -> Episode:
    length = int(rng.integers(10, 21))
    t_s = (length + 1) // 2  # support takes the ceil half
    x = rng.normal(0.0, 0.6, size=(length, in_dim)).astype(np.float32)
    y = rng.integers(0, 2, size=length).astype(np.int8)
    return Episode(
        session_id="probe",
        x_support=x[:t_s],
        x_query=x[t_s:],
        y_support=y[:t_s],
        y_query=y[t_s:],
    )


# -- 1. metric oracle --------------------------------------------------


def test_criterion_01_metric_oracle():
    def oracle(pred, truth) -> Fraction:
        total = Fraction(0)
        hits = 0
        for i, (p, t) in enumerate(zip(pred, truth), start=1):
            if p == t:
                hits += 1
                total += Fraction(hits, i)
        return total / len(pred)

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        pred = rng.integers(0, 2, size=n)
        truth = rng.integers(0, 2, size=n)
        got = average_accuracy(pred, truth)
        want = oracle(pred.tolist(), truth.tolist())
        worst = max(worst, abs(got - float(want)))

    hand_a = average_accuracy([1, 0, 1, 1], [1, 1, 1, 1])
    hand_b = average_accuracy([1, 0, 0, 0], [1, 1, 1, 1])
    elapsed = time.perf_counter() - t0

    ok = (
        worst < 1e-12
        and abs(hand_a - float(Fraction(29, 48))) < 1e-12
        and abs(hand_b - 0.25) < 1e-12
        and elapsed < 1.0
    )
    _check(1, ok, f"oracle max err {worst:.2e}, hand cases "
                  f"{hand_a:.9f}/{hand_b:.2f}, {elapsed:.2f}s")


# -- 2. gradient suite -------------------------------------------------


def test_criterion_02_gradient_suite():
    required = {
        "matmul", "matmul_batched", "conv_causal_d1", "conv_causal_d2",
        "conv_causal_d4", "conv_noncausal_d1", "conv_noncausal_d2",
        "conv_noncausal_d4", "instance_norm", "channel_norm",
        "highway", "glu", "attention_1head", "attention_8head", "softmax",
        "bce", "mse",
    }
    missing = required - set(gradcheck.CASES)
    assert not missing, f"gradient suite lacks cases: {sorted(missing)}"

    t0 = time.perf_counter()
    errors = gradcheck.run_suite(trials=25, seed=0)
    elapsed = time.perf_counter() - t0
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    ok = worst < 1e-4 and elapsed < 120.0
    _check(2, ok, f"{len(errors)} primitives, worst {worst:.2e} "
                  f"({worst_name}), {elapsed:.1f}s")


# -- 3. causality ------------------------------------------------------


def test_criterion_03_causality_and_receptive_field():
    t0 = time.perf_counter()
    in_dim = 12
    worst, moved = 0.0, np.inf
    for kind in ("seq1eH", "seq1HL", "snail", "transformer"):
        model = build(default_config(kind, width=16, seed=3), in_dim)
        rng = rng_stream(3, "criterion3", kind)  # hash() of a str is salted per process
        for _ in range(100):
            batch = handmade_batch([_random_episode(rng, in_dim)])
            base = model.forward_sequence(batch).data.copy()
            t_len = int(batch.lengths[0])
            j = int(rng.integers(1, t_len))
            # the stored row: every padded view a model reads is derived from it
            batch.x[j] += rng.normal(0.0, 0.7, size=in_dim).astype(np.float32)
            bumped = model.forward_sequence(batch).data
            worst = max(worst, float(np.abs(bumped[:j] - base[:j]).max()))
            moved = min(moved, float(np.abs(bumped[j:t_len] - base[j:t_len]).max()))

    # receptive-field boundary: one causal stack d={1,2,4,8,16}, k=2
    rng = np.random.default_rng(11)
    convs = [
        (nn.Conv1dSpec(4, 4, 2, d, "causal"),
         Tensor(rng.normal(0.0, 0.5, size=(4, 4, 2))))
        for d in (1, 2, 4, 8, 16)
    ]

    def stack_out(x_arr):
        h = Tensor(x_arr)
        for spec, w in convs:
            h = nn.conv1d_cl(h, spec, w)
        return h.data

    x = rng.normal(0.0, 0.5, size=(1, 33, 4))
    base = stack_out(x)
    at31 = x.copy()
    at31[0, 1] += 1.0  # distance 31 from the last output
    at32 = x.copy()
    at32[0, 0] += 1.0  # distance 32: outside the field
    effect_31 = float(np.abs(stack_out(at31)[0, -1] - base[0, -1]).max())
    effect_32 = float(np.abs(stack_out(at32)[0, -1] - base[0, -1]).max())
    elapsed = time.perf_counter() - t0

    ok = (worst <= 1e-6 and moved > 0.0 and effect_31 > 1e-6 and effect_32 == 0.0
          and elapsed < 60.0)
    _check(3, ok, f"max past drift {worst:.1e}, least move at or after the edit {moved:.1e}; "
                  f"field edge 31/32 -> "
                  f"{effect_31:.1e}/{effect_32:.1e}; {elapsed:.1f}s")


# -- 4. permutation invariance -----------------------------------------


def test_criterion_04_support_permutation_invariance():
    t0 = time.perf_counter()
    in_dim = 12
    worst = 0.0
    for kind in ("rnb1", "rnb2_ue", "rnbc2_ue"):
        model = build(default_config(kind, width=16, seed=5), in_dim)
        rng = np.random.default_rng(29)
        eps = [_random_episode(rng, in_dim) for _ in range(6)]
        base = model.query_probs(handmade_batch(eps))
        for _ in range(50):
            shuffled = []
            for ep in eps:
                order = rng.permutation(ep.t_support)
                shuffled.append(Episode(
                    session_id=ep.session_id,
                    x_support=ep.x_support[order],
                    x_query=ep.x_query,
                    y_support=ep.y_support[order],
                    y_query=ep.y_query,
                ))
            got = model.query_probs(handmade_batch(shuffled))
            worst = max(worst, float(np.abs(got - base).max()))
    _check(4, worst <= 1e-6, f"metric family drift under 50 support "
                             f"permutations: {worst:.2e}, {time.perf_counter() - t0:.1f}s")


# -- 5. threshold-rule learnability ------------------------------------


def test_criterion_05_threshold_learnability(corpus_factory):
    t0 = time.perf_counter()
    _, schema, sessions, features = corpus_factory(
        n_sessions=20_000, rule="threshold", noise=0.05, seed=0)
    result = _fit("seq1HL", sessions, features, schema,
                  epochs=5, batch=64, lr=1e-3)
    _, val_sessions = split_train_val(sessions, 0.8, 0)
    base = _label_baseline_maa("all_skip", val_sessions)
    elapsed = time.perf_counter() - t0

    # The model trains on noisy labels but is scored against the rule's
    # noise-free ones. The flips are independent of the features, and AA
    # weights each position by its prefix accuracy, so even the rule itself
    # scores only ~0.918 on the noisy labels. The twin corpus (noise 0.0,
    # same seed) carries the rule's labels: the generator draws its flip
    # mask whatever the noise, so sessions, tracks and logs coincide.
    _, _, twin, _ = corpus_factory(
        n_sessions=20_000, rule="threshold", noise=0.0, seed=0)
    assert np.array_equal(twin.ids, sessions.ids) \
        and np.array_equal(twin.lengths, sessions.lengths) \
        and np.array_equal(twin.track_ids, sessions.track_ids), \
        "noise-free twin corpus does not match the noisy corpus's sessions"
    clean = dict(zip(twin.ids, _query_labels(twin)))

    val_eps = build_episodes(val_sessions, features, result.stats, schema, "seq1HL")
    _, preds = evaluate_episodes(result.model, val_eps, 64)
    learnt, ceiling, flipped, n_query = [], [], 0, 0
    for sid, y_noisy, pred in zip(val_sessions.ids, _query_labels(val_sessions), preds):
        y_clean = clean[sid]
        learnt.append(SessionPrediction(sid, pred.predicted, y_clean))
        ceiling.append(SessionPrediction(sid, y_clean, y_noisy))
        flipped += int((y_clean != y_noisy).sum())
        n_query += len(y_noisy)
    flip_rate = flipped / n_query
    assert abs(flip_rate - 0.05) <= 0.01, \
        f"noisy and noise-free val query labels differ at {flip_rate:.4f}, not ~0.05"
    clean_maa = corpus_maa(learnt)
    ceiling_maa = corpus_maa(ceiling)

    ok = clean_maa >= 0.95 and base <= 0.60 and elapsed < 300.0
    _check(5, ok, f"seq1HL val MAA {clean_maa:.4f} on noise-free labels "
                  f"({result.best_val_maa:.4f} on noisy labels; rule's ceiling there "
                  f"{ceiling_maa:.4f}), all_skip {base:.4f}, {elapsed:.0f}s")


# -- 6. markov: sequence beats metric ----------------------------------


def test_criterion_06_markov_sequence_gap(corpus_factory):
    t0 = time.perf_counter()
    _, schema, sessions, features = corpus_factory(
        n_sessions=20_000, rule="markov", noise=0.1, seed=0)
    seq = _fit("seq1HL", sessions, features, schema, epochs=3, batch=64, lr=1e-3)
    met = _fit("rnbc2_ue", sessions, features, schema, epochs=5, batch=64, lr=1e-3)
    gap = seq.best_val_maa - met.best_val_maa
    _check(6, gap >= 0.05, f"seq1HL {seq.best_val_maa:.4f} vs rnbc2_ue "
                           f"{met.best_val_maa:.4f}, gap {gap:+.4f}, "
                           f"{time.perf_counter() - t0:.1f}s")


# -- 7. preference: few-shot pathways ----------------------------------


def test_criterion_07_preference_few_shot(corpus_factory):
    # Wide spread of per-session skip rates: the trainable weighted sum
    # has a strong support-label signal to aggregate.
    t0 = time.perf_counter()
    _, schema_a, sessions_a, features_a = corpus_factory(
        n_sessions=20_000, rule="preference", noise=0.02, seed=0,
        pref_q_low=0.05, pref_q_high=0.95)
    cls = _fit("rnbc2_ue", sessions_a, features_a, schema_a)
    _, val_a = split_train_val(sessions_a, 0.8, 0)
    base = max(_label_baseline_maa("all_skip", val_a),
               _label_baseline_maa("all_no_skip", val_a))
    margin_a = cls.best_val_maa - base

    # Low-dimensional rank structure: the pooled user embedding can
    # estimate the session's private direction and cut; per-pair votes
    # only approximate that order statistic.
    _, schema_b, sessions_b, features_b = corpus_factory(
        n_sessions=20_000, rule="preference", noise=0.02, seed=0,
        feature_dim=6)
    rnb1 = _fit("rnb1", sessions_b, features_b, schema_b)
    rnb2 = _fit("rnb2_ue", sessions_b, features_b, schema_b)
    margin_b = rnb2.best_val_maa - rnb1.best_val_maa

    ok = margin_a >= 0.10 and margin_b >= 0.005
    _check(7, ok, f"rnbc2_ue {cls.best_val_maa:.4f} vs best baseline "
                  f"{base:.4f} ({margin_a:+.4f}); rnb2_ue {rnb2.best_val_maa:.4f} "
                  f"vs rnb1 {rnb1.best_val_maa:.4f} ({margin_b:+.4f}), "
                  f"{time.perf_counter() - t0:.1f}s")


# -- 8. log_leak: teacher advantage ------------------------------------


def test_criterion_08_log_leak_teacher_gap(corpus_factory):
    t0 = time.perf_counter()
    _, schema, sessions, features = corpus_factory(
        n_sessions=8_000, rule="log_leak", noise=0.05, seed=0)
    teacher = _fit("teacher", sessions, features, schema, epochs=3, batch=64, lr=1e-3)
    student = _fit("seq1HL", sessions, features, schema, epochs=3, batch=64, lr=1e-3)
    gap = teacher.best_val_maa - student.best_val_maa
    _check(8, gap >= 0.10, f"teacher {teacher.best_val_maa:.4f} vs seq1HL "
                           f"{student.best_val_maa:.4f}, gap {gap:+.4f}, "
                           f"{time.perf_counter() - t0:.1f}s")


# -- 9. determinism & checkpoint round trip ----------------------------


def test_criterion_09_determinism_and_round_trip(corpus_factory, tmp_path):
    _, schema, sessions, features = corpus_factory(
        n_sessions=600, rule="threshold", noise=0.05, seed=5, feature_dim=8)
    runs = [
        _fit("seq1eH", sessions, features, schema, width=16, epochs=2,
             batch=32, lr=1e-3)
        for _ in range(2)
    ]
    drift = abs(runs[0].best_val_maa - runs[1].best_val_maa)

    model = runs[0].model
    path = tmp_path / "round_trip.ckpt"
    save_model(path, model, runs[0].stats, runs[0].schema)
    reloaded, stats2, schema2, _ = load_model(path)

    from seqskip.trainer import build_episodes
    eps = build_episodes(sessions[:64], features, runs[0].stats, schema, "seq1eH")
    batch = make_batch(eps)
    bitwise = np.array_equal(model.query_probs(batch), reloaded.query_probs(batch))

    ok = drift <= 1e-9 and bitwise
    _check(9, ok, f"repeat-run MAA drift {drift:.1e}; reloaded predictions "
                  f"bit-identical: {bitwise}")


# -- 10. format conformance --------------------------------------------


def test_criterion_10_format_conformance(tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    preds = tmp_path / "preds.txt"

    assert cli_main(["gen-data", "--rule", "threshold", "--n", "300",
                     "--seed", "9", "--out", str(data)]) == 0
    schema, sessions, features = load_corpus(data)  # parses with zero errors
    assert len(sessions) == 300

    assert cli_main(["fit", "--model", "seq1eH", "--width", "8", "--data",
                     str(data), "--epochs", "1", "--seed", "1",
                     "--out", str(ckpt)]) == 0
    assert cli_main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(data)]) == 0
    assert cli_main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(preds)]) == 0
    assert cli_main(["evaluate", "--predictions", str(preds),
                     "--data", str(data)]) == 0
    out = capsys.readouterr().out
    maa_lines = [l for l in out.splitlines() if l.startswith("MAA=")]

    parsed = read_predictions(preds)
    wire_ok = (
        len(parsed) == 300
        and all(set(np.unique(bits)) <= {0, 1} for _, bits in parsed)
    )
    lossless = len(maa_lines) == 2 and maa_lines[0] == maa_lines[1]
    ok = wire_ok and lossless
    _check(10, ok, f"300 sessions round-tripped; evaluate agrees on "
                   f"{maa_lines[0] if maa_lines else '<missing>'} via both paths")
