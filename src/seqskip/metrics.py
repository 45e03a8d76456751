"""Average-accuracy metric family, baselines, and the prediction wire format."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvaluationError, ValidationError


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValidationError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int64)


@dataclass
class SessionPrediction:
    session_id: str
    predicted: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        self.predicted = _as_binary(self.predicted, "predicted")
        self.truth = _as_binary(self.truth, "truth")
        if self.predicted.shape != self.truth.shape:
            raise ValidationError(
                f"session {self.session_id!r}: prediction length {self.predicted.size} "
                f"!= truth length {self.truth.size}"
            )


def binarize(probs: np.ndarray) -> np.ndarray:
    """Threshold probabilities at 0.5; exact ties count as skipped (1)."""
    return (np.asarray(probs) >= 0.5).astype(np.int64)


def average_accuracy(pred, truth) -> float:
    """Prefix-accuracy-weighted correctness.

    With L(i) = 1 when prediction i is correct and A(i) the accuracy over
    the first i predictions, returns sum_i A(i) * L(i) / T.
    """
    p = _as_binary(pred, "pred")
    t = _as_binary(truth, "truth")
    if p.shape != t.shape:
        raise ValidationError(f"length mismatch: pred {p.size} vs truth {t.size}")
    if p.size == 0:
        raise ValidationError("average_accuracy needs at least one prediction")
    correct = (p == t).astype(np.float64)
    prefix_acc = np.cumsum(correct) / np.arange(1, p.size + 1)
    return float((prefix_acc * correct).sum() / p.size)


def per_session_aa(predictions: list[SessionPrediction]) -> np.ndarray:
    """Per-session AA values in input order.

    Sessions of equal query length are scored together as the rows of
    one matrix. Each row then goes through the same cumulative sum,
    division and sum as :func:`average_accuracy`, so every value is
    bit-identical to it; zero-padding rows to one common length would
    change the summation order and the last bit.
    """
    if not predictions:
        raise EvaluationError("AA over an empty prediction set")
    lengths = np.array([sp.truth.size for sp in predictions])
    if not lengths.all():
        empty = predictions[int(np.argmin(lengths))].session_id
        raise ValidationError(f"session {empty!r}: AA needs at least one prediction")
    correct = (
        np.concatenate([sp.predicted for sp in predictions])
        == np.concatenate([sp.truth for sp in predictions])
    ).astype(np.float64)
    starts = np.cumsum(lengths) - lengths
    out = np.empty(len(predictions), dtype=np.float64)
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        c = correct[starts[rows, None] + np.arange(n)]
        prefix_acc = np.cumsum(c, axis=1) / np.arange(1, n + 1)
        out[rows] = (prefix_acc * c).sum(axis=1) / n
    return out


def corpus_maa(predictions: list[SessionPrediction]) -> float:
    """Unweighted mean of per-session average accuracies."""
    return float(per_session_aa(predictions).mean())


# -- baselines ---------------------------------------------------------

BASELINES = ("all_skip", "all_no_skip", "carry_last_support")


def baseline(kind: str, y_support, t_query: int) -> np.ndarray:
    """The label-only guess ``kind`` for ``t_query`` positions after ``y_support``."""
    if kind == "all_skip":
        return np.ones(t_query, dtype=np.int64)
    if kind == "all_no_skip":
        return np.zeros(t_query, dtype=np.int64)
    if kind == "carry_last_support":
        if len(y_support) < 1:
            raise ValidationError("carry_last_support needs at least one support position")
        return np.full(t_query, int(y_support[-1]), dtype=np.int64)
    raise ValidationError(f"unknown baseline {kind!r}")


# -- wire format -------------------------------------------------------


def write_predictions(path, predictions: list[tuple[str, np.ndarray]]) -> None:
    """One `session_id,binarystring` line per session, in given order."""
    lines = []
    for sid, bits in predictions:
        arr = _as_binary(bits, f"predictions for {sid!r}")
        lines.append(f"{sid},{''.join(str(int(v)) for v in arr)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_predictions(path) -> list[tuple[str, np.ndarray]]:
    out = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        sid, sep, bits = line.rpartition(",")
        if not sep or not sid:
            raise ValidationError(f"{path}:{line_no}: expected 'session_id,binarystring'")
        if bits.strip("01"):
            raise ValidationError(f"{path}:{line_no}: prediction string {bits!r} is not binary")
        out.append((sid, np.array([int(c) for c in bits], dtype=np.int64)))
    return out
