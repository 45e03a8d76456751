"""Training loop: split, per-kind loss assignment, annealing, checkpoints.

Loss assignment: rnb1 and rnb2_ue regress relation scores onto XNOR
similarity targets with MSE; every other kind minimizes BCE on skip
labels (query positions only by default). The learning rate is
multiplied by ``anneal_factor`` at each epoch boundary and the
best-validation-MAA parameters are the ones kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from .dataio import (
    Batch,
    Episode,
    FeatureTable,
    PreprocessStats,
    SchemaSpec,
    SessionRecord,
    fit_stats,
    make_batches,
    make_episode,
)
from .errors import ConfigurationError, TrainingError, ValidationError
from .metrics import SessionPrediction, binarize, corpus_maa
from .models import METRIC_KINDS, Model, ModelConfig, build
from .nn import bce, mse
from .optim import Adam
from .rng import rng_stream
from .tensor import Tensor

LOSS_SCOPES = ("query_only", "support_and_query")

MSE_KINDS = ("rnb1", "rnb2_ue")


@dataclass
class TrainConfig:
    model: ModelConfig
    train_fraction: float = 0.8
    batch_size: int = 64
    base_lr: float = 1e-3
    anneal_factor: float = 0.7
    max_epochs: int = 10
    seed: int = 0
    loss_scope: str = "query_only"
    checkpoint_path: str | None = None
    grad_clip: float | None = None

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if not 0.0 < self.anneal_factor < 1.0:
            raise ConfigurationError(f"anneal_factor must be in (0,1), got {self.anneal_factor}")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.base_lr <= 0:
            raise ConfigurationError("base_lr must be positive")
        if self.loss_scope not in LOSS_SCOPES:
            raise ConfigurationError(f"loss_scope must be one of {LOSS_SCOPES}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigurationError("grad_clip must be positive when set")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_maa: float
    lr: float

    def line(self) -> str:
        return (
            f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
            f"val_maa={self.val_maa:.6f} lr={self.lr:.6g}"
        )


@dataclass
class TrainResult:
    model: Model
    stats: PreprocessStats
    schema: SchemaSpec
    history: list[EpochLog] = field(default_factory=list)
    best_val_maa: float = 0.0
    best_epoch: int = 0


def split_train_val(
    sessions: list[SessionRecord], fraction: float, seed: int
) -> tuple[list[SessionRecord], list[SessionRecord]]:
    """Deterministic session-granularity split; both sides non-empty."""
    n = len(sessions)
    if n < 2:
        raise ValidationError(f"need at least 2 sessions to split, got {n}")
    n_train = int(n * fraction)
    if not 0 < n_train < n:
        raise ValidationError(
            f"fraction {fraction} leaves an empty split for {n} sessions"
        )
    order = rng_stream(seed, "train_val_split").permutation(n)
    train_idx = sorted(order[:n_train])
    val_idx = sorted(order[n_train:])
    return [sessions[i] for i in train_idx], [sessions[i] for i in val_idx]


def batch_loss(model: Model, batch: Batch, loss_scope: str = "query_only") -> Tensor:
    """The training objective for one batch under the per-kind loss table."""
    kind = model.config.kind
    if batch.qry_y is None:
        raise ValidationError("training requires query labels in the data")
    if kind in MSE_KINDS:
        out = model.forward_metric(batch)
        targets = (batch.sup_y[:, :, None] == batch.qry_y[:, None, :]).astype(np.float32)
        pair_mask = batch.sup_mask[:, :, None] * batch.qry_mask[:, None, :]
        return mse(out.r, targets, pair_mask)
    if kind in METRIC_KINDS:
        out = model.forward_metric(batch)
        return bce(out.probs, batch.qry_y, batch.qry_mask)
    probs = model.forward_sequence(batch)
    mask = batch.seq_qmask if loss_scope == "query_only" else batch.seq_mask
    return bce(probs, batch.seq_y, mask)


def build_episodes(
    sessions: list[SessionRecord],
    features: FeatureTable,
    stats: PreprocessStats,
    schema: SchemaSpec,
    kind: str,
) -> list[Episode]:
    keep = kind == "teacher"
    return [make_episode(s, features, stats, schema, keep_query_logs=keep) for s in sessions]


def predict_corpus(
    model: Model, episodes: list[Episode], batch_size: int = 64
) -> list[tuple[str, np.ndarray]]:
    """(session_id, per-query probabilities) in corpus order."""
    out = []
    for batch in make_batches(episodes, batch_size):
        probs = model.query_probs(batch)
        for i, sid in enumerate(batch.session_ids):
            n_q = int(batch.qry_mask[i].sum())
            out.append((sid, probs[i, :n_q]))
    return out


def score_episodes(
    model: Model, episodes: list[Episode], batch_size: int = 64
) -> list[SessionPrediction]:
    """Binarized query predictions next to the query labels, in corpus order."""
    preds = []
    probs = predict_corpus(model, episodes, batch_size)
    for ep, (sid, p) in zip(episodes, probs):
        if ep.y_query is None:
            raise ValidationError(f"session {sid!r} lacks query labels; cannot score")
        preds.append(SessionPrediction(sid, binarize(p), ep.y_query))
    return preds


def evaluate_episodes(
    model: Model, episodes: list[Episode], batch_size: int = 64
) -> tuple[float, list[SessionPrediction]]:
    preds = score_episodes(model, episodes, batch_size)
    return corpus_maa(preds), preds


def _clip_gradients(model: Model, limit: float) -> None:
    total = math.sqrt(
        sum(float((p.grad * p.grad).sum()) for p in model.params.values() if p.grad is not None)
    )
    if total > limit:
        scale = limit / total
        for p in model.params.values():
            if p.grad is not None:
                p.grad = p.grad * scale


def train(
    config: TrainConfig,
    sessions: list[SessionRecord],
    features: FeatureTable,
    schema: SchemaSpec,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run the full protocol; returns the best-validation model."""
    train_sessions, val_sessions = split_train_val(
        sessions, config.train_fraction, config.seed
    )
    stats = fit_stats(train_sessions, features, schema)  # train side only
    kind = config.model.kind
    train_eps = build_episodes(train_sessions, features, stats, schema, kind)
    val_eps = build_episodes(val_sessions, features, stats, schema, kind)

    model = build(config.model, schema.full_width)
    opt = Adam(model.params, lr=config.base_lr)
    result = TrainResult(model=model, stats=stats, schema=schema)
    best_params: dict[str, np.ndarray] | None = None

    for epoch in range(1, config.max_epochs + 1):
        opt.lr = config.base_lr * config.anneal_factor ** (epoch - 1)
        order = rng_stream(config.seed, "epoch_order", epoch).permutation(len(train_eps))
        shuffled = [train_eps[i] for i in order]
        losses = []
        for b_idx, batch in enumerate(make_batches(shuffled, config.batch_size)):
            loss = batch_loss(model, batch, config.loss_scope)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingError(
                    f"non-finite loss ({value}) at epoch {epoch}, batch {b_idx}"
                )
            opt.zero_grad()
            loss.backward()
            if config.grad_clip is not None:
                _clip_gradients(model, config.grad_clip)
            opt.step()
            losses.append(value)
        val_maa, _ = evaluate_episodes(model, val_eps, config.batch_size)
        entry = EpochLog(epoch, float(np.mean(losses)), val_maa, opt.lr)
        result.history.append(entry)
        if log is not None:
            log(entry.line())
        if best_params is None or val_maa > result.best_val_maa:
            result.best_val_maa = val_maa
            result.best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in model.params.items()}

    if best_params is not None:
        for k, p in model.params.items():
            p.data = best_params[k]
    if config.checkpoint_path:
        save_model(config.checkpoint_path, model, stats, schema, extra={
            "best_val_maa": result.best_val_maa,
            "best_epoch": result.best_epoch,
            "epochs_run": config.max_epochs,
        })
    return result


# -- model checkpoint files --------------------------------------------


def save_model(
    path, model: Model, stats: PreprocessStats, schema: SchemaSpec, extra: dict | None = None
) -> None:
    """Persist parameters plus everything needed to rebuild the pipeline."""
    meta = {
        "model": model.config.to_json(),
        "in_dim": model.in_dim,
        "stats": stats.to_json(),
        "schema": schema.to_json(),
    }
    if extra:
        meta["extra"] = extra
    ckpt.save_checkpoint(path, model.params, meta)


def load_model(path) -> tuple[Model, PreprocessStats, SchemaSpec, dict]:
    """Rebuild a model bit-identically from a checkpoint file."""
    arrays, meta = ckpt.load_checkpoint(path)
    try:
        config = ModelConfig.from_json(meta["model"])
        in_dim = int(meta["in_dim"])
        stats = PreprocessStats.from_json(meta["stats"])
        schema = SchemaSpec.from_json(meta["schema"])
    except KeyError as exc:
        raise ValidationError(f"checkpoint meta lacks key {exc}") from exc
    model = build(config, in_dim)
    if set(arrays) != set(model.params):
        raise ValidationError("checkpoint parameter names do not match the model architecture")
    for name, tensor in model.params.items():
        if arrays[name].shape != tensor.data.shape:
            raise ValidationError(
                f"checkpoint parameter {name!r} has shape {arrays[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = arrays[name]
    return model, stats, schema, meta.get("extra", {})
