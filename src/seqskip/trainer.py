"""Training loop: split, per-kind loss assignment, annealing, checkpoints.

Loss assignment: rnb1 and rnb2_ue regress relation scores onto XNOR
similarity targets with MSE; every other kind emits logits and minimizes
BCE on them against skip labels at the query positions, one
``nn.bce_with_logits`` node with no saturated region. The learning rate is
multiplied by ``anneal_factor`` at each epoch boundary and the
best-validation-MAA parameters are the ones kept.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from .dataio import (
    Batch,
    FeatureTable,
    PreprocessStats,
    SchemaSpec,
    Sessions,
    _runs,
    fit_stats,
    make_batches,
    make_episodes,
)
from .errors import ConfigurationError, SchemaError, TrainingError, ValidationError
from .metrics import Predictions, binarize, corpus_maa
from .models import METRIC_KINDS, VOTE_KINDS, Model, ModelConfig, build
from .nn import bce_with_logits, mse
from .optim import Adam, positive
from .rng import rng_stream
from .tensor import Tensor


@dataclass
class TrainConfig:
    model: ModelConfig
    train_fraction: float = 0.8
    batch_size: int = 64
    base_lr: float = 1e-3
    anneal_factor: float = 0.7
    max_epochs: int = 10
    seed: int = 0
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
        positive("base_lr", self.base_lr)
        if self.grad_clip is not None:
            positive("grad_clip", self.grad_clip)


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
    sessions: Sessions, fraction: float, seed: int
) -> tuple[Sessions, Sessions]:
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
    return sessions[np.sort(order[:n_train])], sessions[np.sort(order[n_train:])]


def batch_loss(model: Model, batch: Batch) -> Tensor:
    """The training objective for one batch under the per-kind loss table."""
    kind = model.config.kind
    if kind in METRIC_KINDS:
        views = batch.halves()  # the forward reads them too: derive each once
        out = model.forward_metric(views)
        if kind not in VOTE_KINDS:
            return bce_with_logits(out.head, views.qry_y, out.pairs.query)
        targets = (views.sup_y[:, :, None] == views.qry_y[:, None, :]).astype(np.float32)
        return mse(out.r, targets, out.pairs.real)
    return bce_with_logits(model.forward_sequence(batch), batch.y, batch.query_rows)


def build_episodes(
    sessions: Sessions,
    features: FeatureTable,
    stats: PreprocessStats,
    schema: SchemaSpec,
    kind: str,
) -> Batch:
    return make_episodes(sessions, features, stats, schema, keep_query_logs=kind == "teacher")


def predict_corpus(model: Model, episodes: Batch, batch_size: int = 64) -> np.ndarray:
    """Every query's probability ``[n_q]``, sessions in corpus order and each one's
    queries in order.

    Sessions are scored in batches of similar timeline length, which
    pads far less than batches in corpus order. The sort is stable, so
    sessions of equal length keep their corpus order."""
    order = np.argsort(episodes.lengths, kind="stable")
    t_query = episodes.t_query
    first = np.cumsum(t_query) - t_query  # each session's first query place
    out = np.empty(int(t_query.sum()), dtype=np.float32)
    batches = make_batches(episodes, batch_size, order)
    for start, batch in zip(range(0, len(order), batch_size), batches):
        slots = order[start : start + batch_size]
        out[_runs(first[slots], t_query[slots])] = model.query_probs(batch)
    return out


def query_predictions(model: Model, episodes: Batch, batch_size: int = 64) -> Predictions:
    """The binarized query predictions next to the query labels, in corpus order."""
    predicted = binarize(predict_corpus(model, episodes, batch_size))
    return Predictions(episodes.session_ids, episodes.t_query, predicted,
                       episodes.y[episodes.query_index])


def evaluate_episodes(
    model: Model, episodes: Batch, batch_size: int = 64
) -> tuple[float, Predictions]:
    """Corpus MAA and :func:`query_predictions`."""
    record = query_predictions(model, episodes, batch_size)
    return corpus_maa(record), record


def _global_norm(grad: np.ndarray, clip: float | None, where: str) -> float:
    """The gradient's global norm, refusing one that no Adam step may take.

    The float32 sum of squares overflows once an entry reaches about 1.8e19, so a norm
    that is not finite is taken again in float64: only then is it the gradient that holds
    inf or nan. A finite loss can still back-propagate those, and one Adam step would
    poison every parameter they reach. A finite gradient that large is rescaled when
    ``clip`` is set; unclipped, Adam's float32 second moment would hold inf and freeze
    the parameters it reaches, so training stops."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.dot(grad, grad)))
    if math.isfinite(norm):
        return norm
    wide = grad.astype(np.float64)
    norm = math.sqrt(float(np.dot(wide, wide)))
    if not math.isfinite(norm):
        raise TrainingError(f"non-finite gradient norm ({norm}) {where}")
    if clip is None:
        raise TrainingError(f"gradient norm {norm:.3e} {where} overflows float32; "
                            f"set grad_clip to rescale it")
    return norm


@cache
def _keep_freed_heap() -> bool:
    """Keep freed heap for reuse; set both thresholds, as setting either freezes the mmap one."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-1, 256 << 20) and mallopt(-3, 32 << 20))  # M_TRIM_, M_MMAP_THRESHOLD


def train(
    config: TrainConfig,
    sessions: Sessions,
    features: FeatureTable,
    schema: SchemaSpec,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run the full protocol; returns the best-validation model."""
    _keep_freed_heap()
    train_sessions, val_sessions = split_train_val(
        sessions, config.train_fraction, config.seed
    )
    stats = fit_stats(train_sessions, features, schema)  # train side only
    kind = config.model.kind
    train_eps = build_episodes(train_sessions, features, stats, schema, kind)
    val_eps = build_episodes(val_sessions, features, stats, schema, kind)
    del train_sessions, val_sessions  # the episodes hold all that training reads

    model = build(config.model, schema.full_width)
    opt = Adam(model.vector, lr=config.base_lr)
    result = TrainResult(model=model, stats=stats, schema=schema)
    best_vector: np.ndarray | None = None

    for epoch in range(1, config.max_epochs + 1):
        opt.lr = config.base_lr * config.anneal_factor ** (epoch - 1)
        order = rng_stream(config.seed, "epoch_order", epoch).permutation(len(train_eps))
        losses = []
        for b_idx, batch in enumerate(make_batches(train_eps, config.batch_size, order)):
            loss = batch_loss(model, batch)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingError(f"non-finite loss ({value}) at epoch {epoch}, batch {b_idx}")
            loss.backward()
            del loss  # free this step's tape before the next forward records one
            grad = model.gradient()
            norm = _global_norm(grad, config.grad_clip, f"at epoch {epoch}, batch {b_idx}")
            if config.grad_clip is not None and norm > config.grad_clip:
                grad *= config.grad_clip / norm
            opt.step(grad)
            model.zero_grad()  # the step left its scratch in the views every .grad reads
            losses.append(value)
        val_maa, _ = evaluate_episodes(model, val_eps, config.batch_size)
        entry = EpochLog(epoch, float(np.mean(losses)), val_maa, opt.lr)
        result.history.append(entry)
        if log is not None:
            log(entry.line())
        if best_vector is None or val_maa > result.best_val_maa:
            result.best_val_maa = val_maa
            result.best_epoch = epoch
            best_vector = model.vector.copy()

    np.copyto(model.vector, best_vector)
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
    ckpt.save_checkpoint(path, {name: p.data for name, p in model.params.items()}, meta)


def load_model(path) -> tuple[Model, PreprocessStats, SchemaSpec, dict]:
    """Rebuild a model bit-identically from a checkpoint file."""
    _keep_freed_heap()  # a scoring process maps its large arrays once, as train() does
    arrays, meta = ckpt.load_checkpoint(path)
    parsers = (("model", ModelConfig.from_json), ("in_dim", int),
               ("stats", PreprocessStats.from_json),
               ("schema", partial(SchemaSpec.from_json, source=f"checkpoint {path} schema")))
    values = []
    for key, parse in parsers:
        try:
            values.append(parse(meta[key]))
        except SchemaError:  # it names the checkpoint already
            raise
        except KeyError as exc:
            raise ValidationError(f"checkpoint {path} meta lacks key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"checkpoint {path} meta key {key!r}: {exc}") from exc
    config, in_dim, stats, schema = values
    model = build(config, in_dim)
    if set(arrays) != set(model.params):
        raise ValidationError("checkpoint parameter names do not match the model architecture")
    for name, tensor in model.params.items():
        if arrays[name].shape != tensor.data.shape:
            raise ValidationError(
                f"checkpoint parameter {name!r} has shape {arrays[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        if not np.isfinite(arrays[name]).all():
            raise ValidationError(f"checkpoint {path} parameter {name!r} has non-finite values")
        np.copyto(tensor.data, arrays[name])
    return model, stats, schema, meta.get("extra", {})
