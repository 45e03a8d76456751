"""Hand-made episodes for tests and probes, stored by the program's own path.

A loaded corpus becomes one :class:`seqskip.dataio.Batch` in a single
step (``trainer.build_episodes``): each session's real rows, from which
the batch derives its padded timelines and the support and query halves.
Tests that need episodes of chosen lengths and values write them here as
:class:`Episode` objects, support and query apart; ``make_batch``
concatenates their rows, stores them with ``Batch.from_rows`` and takes
the batch with ``dataio.make_batch``, as training does; ``episode`` reads
one back through the batch's halves.
``corpus_order_predictions`` is the reference scoring loop that
length-bucketed inference is checked against, ``padded_conv_stacks``
the padded forward that the causal stacks' forward on rows is checked
against, and ``reference_generate`` the one-session-at-a-time corpus
generator that the array-work ``synthgen.generate`` is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seqskip import dataio, nn, synthgen
from seqskip import tensor as T
from seqskip.errors import ValidationError
from seqskip.nn import Conv1dSpec
from seqskip.rng import rng_stream


@dataclass
class Episode:
    """One hand-made session, already split into support and query."""

    session_id: str
    x_support: np.ndarray  # [T_s, full_width]
    x_query: np.ndarray  # [T_q, full_width]
    y_support: np.ndarray  # [T_s] 0/1
    y_query: np.ndarray  # [T_q] 0/1
    query_logs_kept: bool = False

    @property
    def t_support(self) -> int:
        return self.x_support.shape[0]

    @property
    def t_query(self) -> int:
        return self.x_query.shape[0]


def stack(episodes: list[Episode]) -> dataio.Batch:
    """Hand-made episodes as one set of rows."""
    if not episodes:
        raise ValidationError("cannot batch an empty episode list")
    kept = {e.query_logs_kept for e in episodes}
    if len(kept) > 1:
        raise ValidationError("cannot mix teacher-style and standard episodes in one batch")
    if len({x.shape[1] for e in episodes for x in (e.x_support, e.x_query)}) > 1:
        raise ValidationError("episodes in one batch must share the feature width")
    return dataio.Batch.from_rows(
        [e.session_id for e in episodes],
        np.array([e.t_support for e in episodes], dtype=np.int64),
        np.array([e.t_query for e in episodes], dtype=np.int64),
        np.concatenate([x for e in episodes for x in (e.x_support, e.x_query)]),
        np.concatenate([y for e in episodes for y in (e.y_support, e.y_query)]),
        kept.pop(),
    )


def make_batch(episodes: list[Episode]) -> dataio.Batch:
    return dataio.make_batch(stack(episodes))


def episode(batch: dataio.Batch, i: int) -> Episode:
    """Session ``i`` of a set, as a hand-made episode (a copy)."""
    ts, tq = int(batch.t_support[i]), int(batch.t_query[i])
    return Episode(
        batch.session_ids[i],
        batch.sup_x[i, :ts].copy(),
        batch.queries(batch.x)[i, :tq].copy(),
        batch.sup_y[i, :ts].astype(np.int8),
        batch.qry_y[i, :tq].astype(np.int8),
        batch.query_logs_kept,
    )


def corpus_order_predictions(model, episodes: dataio.Batch, batch_size: int = 64):
    """``trainer.predict_corpus`` as it was before it sorted by length: batches
    taken in corpus order. The reference that length-bucketed scoring must match."""
    out = []
    for batch in dataio.make_batches(episodes, batch_size):
        probs = model.query_probs(batch)
        out.extend((sid, p[:n]) for sid, p, n in zip(batch.session_ids, probs, batch.t_query))
    return out


def padded_conv_stacks(model, batch: dataio.Batch) -> T.Tensor:
    """The logits ``[B, T]`` of a seq1eH, seq1HL or teacher model as the
    stacks computed them on the padded ``[B, T, W]`` batch, every session padded
    to the longest; the forward on rows must give these bits on every real row."""
    width, structure, p = model.config.width, model.config.structure, model.params
    h = nn.conv1d_cl(T.Tensor(batch.seq_x), Conv1dSpec(model.in_dim, width, 1),
                     p["entry.w"], p["entry.b"])
    for s in range(structure.stacks):
        for level, (d, k) in enumerate(zip(structure.dilations, structure.kernels)):
            spec = Conv1dSpec(width, width, k, d, nn.CAUSAL)
            h = nn.gated_level(model.config.gate, h, spec,
                               *model._branches(f"stack{s}.level{level}"))
    logits = nn.conv1d_cl(h, Conv1dSpec(width, 1, 1), p["head.w"], p["head.b"])
    return T.reshape(logits, batch.seq_mask.shape)


def _reference_labels(config, rule_w, quantile, acoustic, rng):
    """Realized labels for one session given its tracks' acoustic rows."""
    length = acoustic.shape[0]
    flips = rng.random(length) < config.noise
    if config.rule == "threshold":
        clean = (acoustic @ rule_w > 0).astype(np.int64)
        return np.bitwise_xor(clean, flips.astype(np.int64))
    if config.rule == "preference":
        z = acoustic @ rule_w
        clean = (z > np.quantile(z, quantile)).astype(np.int64)
        return np.bitwise_xor(clean, flips.astype(np.int64))
    if config.rule == "log_leak":
        eta = rng.standard_normal(length)
        clean = (acoustic @ rule_w + synthgen.LEAK_SCALE * eta > 0).astype(np.int64)
        return np.bitwise_xor(clean, flips.astype(np.int64))
    # markov: realized (possibly flipped) states drive the recurrence
    z = acoustic @ rule_w
    labels = np.zeros(length, dtype=np.int64)
    s_prev = s_prev2 = 0.0  # absent history contributes nothing
    for t in range(length):
        drive = (synthgen.MARKOV_C1 * s_prev + synthgen.MARKOV_C2 * s_prev2
                 + synthgen.MARKOV_C_AC * z[t])
        clean = 1 if drive > 0 else 0
        labels[t] = clean ^ int(flips[t])
        s_prev2 = s_prev
        s_prev = 2.0 * labels[t] - 1.0
    return labels


def reference_generate(config: synthgen.SynthConfig, out_dir) -> dict[str, Path]:
    """The corpus one session at a time: draws, labels, then one f-string per row.

    This is the generator the pinned corpus hashes were made with; it
    writes the same files as ``synthgen.generate``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    f_dim = config.feature_dim
    n_tracks = config.track_count
    vocab = synthgen.CONTEXT_VOCAB

    track_rng = rng_stream(config.seed, "synth", "tracks")
    features = track_rng.standard_normal((n_tracks, f_dim))
    track_ids = [f"t{i:05d}" for i in range(n_tracks)]

    w_global = rng_stream(config.seed, "synth", "rule_w").standard_normal(f_dim)
    w_global /= np.linalg.norm(w_global)

    session_lines = [synthgen.SESSION_HEADER]
    for i in range(config.n_sessions):
        rng = rng_stream(config.seed, "synth", "session", i)
        length = int(rng.integers(config.length_low, config.length_high + 1))
        tracks = rng.integers(0, n_tracks, size=length)
        acoustic = features[tracks]
        if config.rule == "preference":
            w = rng.standard_normal(f_dim)
            w /= np.linalg.norm(w)
            quantile = float(rng.uniform(config.pref_q_low, config.pref_q_high))
        else:
            w = w_global
            quantile = 0.5
        labels = _reference_labels(config, w, quantile, acoustic, rng)

        ctx = rng.integers(0, len(vocab), size=length)
        pause = rng.integers(0, 5, size=length)
        shuffle = rng.integers(0, 2, size=length)
        if config.rule == "log_leak":
            seek = labels + rng.integers(0, 2, size=length)
        else:
            seek = rng.integers(0, 3, size=length)

        sid = f"s{i:06d}"
        for pos in range(length):
            session_lines.append(
                f"{sid},{track_ids[tracks[pos]]},{pos + 1},"
                f"{vocab[ctx[pos]]},{seek[pos]},{pause[pos]},"
                f"{shuffle[pos]},{labels[pos]},2019-01-{(pos % 28) + 1:02d}"
            )

    feature_lines = ["track_id," + ",".join(f"f{j}" for j in range(f_dim))]
    for tid, vec in zip(track_ids, features):
        feature_lines.append(tid + "," + ",".join(format(v, ".9g") for v in vec))

    paths = {
        "sessions": out / synthgen.SESSION_FILE,
        "features": out / synthgen.FEATURE_FILE,
        "schema": out / synthgen.SCHEMA_FILE,
    }
    paths["sessions"].write_text("\n".join(session_lines) + "\n", encoding="utf-8")
    paths["features"].write_text("\n".join(feature_lines) + "\n", encoding="utf-8")
    paths["schema"].write_text(
        json.dumps(synthgen.schema_dict(config), indent=2) + "\n", encoding="utf-8"
    )
    return paths
