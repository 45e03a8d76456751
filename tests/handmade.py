"""Hand-made episodes for tests and probes, padded by the program's own path.

A loaded corpus becomes one padded :class:`seqskip.dataio.Batch` in a
single step (``trainer.build_episodes``). Tests that need episodes of
chosen lengths and values write them here as :class:`Episode` objects;
``make_batch`` concatenates their rows, pads them with ``Batch.from_rows``
and takes the batch with ``dataio.make_batch``, as training does.
``corpus_order_predictions`` is the reference scoring loop that
length-bucketed inference is checked against, and ``padded_conv_stacks``
the padded forward that the causal stacks' packed one is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqskip import dataio, nn
from seqskip import tensor as T
from seqskip.errors import ValidationError
from seqskip.nn import Conv1dSpec


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
    """Hand-made episodes as one padded set, each padded to the longest."""
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
    """Session ``i`` of a padded set, as a hand-made episode (a copy)."""
    ts, tq = int(batch.t_support[i]), int(batch.qry_mask[i].sum())
    return Episode(
        batch.session_ids[i],
        batch.sup_x[i, :ts].copy(),
        batch.qry_x[i, :tq].copy(),
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
        t_query = batch.qry_mask.sum(axis=1).astype(np.int64)
        out.extend((sid, p[:n]) for sid, p, n in zip(batch.session_ids, probs, t_query))
    return out


def padded_conv_stacks(model, batch: dataio.Batch) -> T.Tensor:
    """The logits ``[B, T]`` of a seq1eH, seq1HL or teacher model as the
    stacks computed them on the padded ``[B, T, W]`` batch, every session padded
    to the longest; the packed forward must give these bits on every real row."""
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
