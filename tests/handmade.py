"""Hand-made episodes for tests and probes, stored by the program's own path.

A loaded corpus becomes one :class:`seqskip.dataio.Batch` in a single
step (``trainer.build_episodes``): each session's real rows, from which
the batch derives the support and query halves.
Tests that need episodes of chosen lengths and values write them here as
:class:`Episode` objects, support and query apart; ``make_batch``
concatenates their rows, stores them with ``Batch.from_rows`` and takes
the batch with ``dataio.make_batch``, as training does; ``episode`` reads
one back from the batch's rows.
``corpus_order_predictions`` is the reference scoring loop that
length-bucketed inference is checked against, ``padded_forward`` the
padded forward that every sequence kind's forward on rows is checked
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
from seqskip.models import ATT_PAIR_SUPPORT_DILATIONS, ATT_PAIR_SUPPORT_KERNEL
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
    start = int(batch.lengths[:i].sum())
    return Episode(
        batch.session_ids[i],
        batch.x[start : start + ts].copy(),
        batch.x[start + ts : start + ts + tq].copy(),
        batch.y[start : start + ts].astype(np.int8),
        batch.y[start + ts : start + ts + tq].astype(np.int8),
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


def padded_rows(lengths) -> nn.Rows:
    """The row table of a padded ``[B, T]`` block whose session b fills its first
    ``lengths[b]`` places; each padding place is a session of one row, so no real row
    reads it."""
    table = (~dataio.prefix_mask(lengths)).astype(np.intp)
    table[:, 0] += lengths
    return nn.Rows(table[table > 0], table.shape)


def _padded(rows: np.ndarray, lengths) -> T.Tensor:
    """``[B, T, D]`` of the rows ``[N, D]`` of sessions of ``lengths``, zeros after them."""
    real = dataio.prefix_mask(lengths)
    block = np.zeros(real.shape + rows.shape[1:], rows.dtype)
    block[real] = rows[: real.sum()]
    return T.Tensor(block)


def padded_forward(model, batch: dataio.Batch) -> np.ndarray:
    """The logits ``[B, T]`` of a sequence model whose every layer but attention runs on
    the padded ``[B, T, ...]`` timeline (att_pair's support encoder on the padded ``[B, S,
    ...]`` supports), every session padded to the longest, with :func:`padded_rows`
    tables; attention reads each block's real rows and writes its output back to them.
    The forward on rows must give these bits on every real row."""
    kind, width, structure = model.config.kind, model.config.width, model.config.structure
    lengths, t_support, sup = batch.lengths, batch.t_support, batch.sup
    real, rows = dataio.prefix_mask(lengths), padded_rows(lengths)
    x = _padded(batch.x, lengths)

    def attend(q, k, v, k_lengths=None, heads=structure.heads):  # causal without k_lengths
        k_real = dataio.prefix_mask(lengths if k_lengths is None else k_lengths)
        k_rows = None if k_lengths is None else nn.Rows(k_lengths, (int(k_real.sum()),))
        att = nn.attention(T.Tensor(q.data[real]), T.Tensor(k.data[k_real]),
                           T.Tensor(v.data[k_real]), nn.Rows(lengths, (int(real.sum()),)),
                           k_rows, k_lengths is None, heads)
        out = np.zeros(q.shape[:-1] + att.shape[-1:], att.dtype)
        out[real] = att.data
        return T.Tensor(out)

    def ln(prefix, v):
        return nn.channel_norm(v, model._p(f"{prefix}.gamma"), model._p(f"{prefix}.beta"))

    with T.no_grad():
        if kind == "transformer":
            h = T.add(model._linear("embed", x), T.slice_axis(model._p("pos"), 0, 0, x.shape[1]))
            for b in range(structure.stacks):
                n1 = ln(f"block{b}.ln1", h)
                att = attend(*(model._linear(f"block{b}.{name}", n1) for name in "qkv"))
                h = T.add(h, model._linear(f"block{b}.o", att))
                fc1 = model._linear(f"block{b}.ffn.fc1", ln(f"block{b}.ln2", h), relu=True)
                h = T.add(h, model._linear(f"block{b}.ffn.fc2", fc1))
            logits = model._linear("head", ln("final", h))
        elif kind == "att_pair":
            s_rows = padded_rows(t_support)
            s = model._conv("sup.entry", _padded(sup.x, t_support),
                            Conv1dSpec(model.in_dim, width, 1))
            for level, d in enumerate(ATT_PAIR_SUPPORT_DILATIONS):
                spec = Conv1dSpec(width, width, ATT_PAIR_SUPPORT_KERNEL, d, nn.NONCAUSAL)
                pre = [nn.instance_norm(nn.conv1d_cl(s, spec, w, rows=s_rows), g, b, s_rows)
                       for w, g, b in model._branches(f"sup.level{level}")]
                s = nn.gated_block(model.config.gate, s, *pre)
            q = model._causal_stacks(x, rows, "qry.entry", "qry.level{l}")
            att = attend(q, s, s, t_support)
            logits = model._linear("head", model._linear("comb", T.concat([q, att], -1), True))
        else:
            if kind == "snail":
                att = attend(*(model._linear(f"attn.{name}", x) for name in "qkv"))
                x = T.concat([x, model._linear("attn.o", att)], -1)
            logits = model._conv("head", model._causal_stacks(x, rows), Conv1dSpec(width, 1, 1),
                                 rows)
    return logits.data[..., 0]


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
