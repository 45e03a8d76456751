"""Average-accuracy metric family, baselines, and the prediction wire format."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import read_utf8
from .errors import EvaluationError, ValidationError


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-d, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValidationError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int64)


@dataclass
class SessionPrediction:
    session_id: str
    predicted: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted)
        self.truth = np.asarray(self.truth)
        if self.predicted.ndim != 1 or self.truth.ndim != 1:
            raise ValidationError(
                f"session {self.session_id!r}: predicted and truth must be 1-d, "
                f"got shapes {self.predicted.shape} and {self.truth.shape}"
            )
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

    Every session's bits and labels are checked for 0/1 once, over the
    concatenated arrays; a failure names the first bad session. Sessions
    of equal query length are scored together as the rows of one matrix.
    Each row then goes through the same cumulative sum, division and sum
    as :func:`average_accuracy`, so every value is bit-identical to it;
    zero-padding rows to one common length would change the summation
    order and the last bit.
    """
    if not predictions:
        raise EvaluationError("AA over an empty prediction set")
    lengths = np.array([sp.truth.size for sp in predictions])
    if not lengths.all():
        empty = predictions[int(np.argmin(lengths))].session_id
        raise ValidationError(f"session {empty!r}: AA needs at least one prediction")
    ends = np.cumsum(lengths)
    predicted = np.concatenate([sp.predicted for sp in predictions])
    truth = np.concatenate([sp.truth for sp in predictions])
    for name, arr in (("predicted", predicted), ("truth", truth)):
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            sid = predictions[np.searchsorted(ends, bad.argmax(), side="right")].session_id
            raise ValidationError(f"session {sid!r}: {name} must contain only 0/1 entries")
    correct = (predicted == truth).astype(np.float64)
    starts = ends - lengths
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
    """One `session_id,binarystring` line per session, in given order; one check of all bits."""
    arrays = [np.asarray(bits) for _, bits in predictions]
    try:  # ValueError: an array that is not 1-d; TypeError: bits as strings
        flat = _as_binary(np.concatenate([np.zeros(0, np.int64), *arrays]), "predictions")
    except (TypeError, ValueError, ValidationError):
        for (sid, _), arr in zip(predictions, arrays):  # the first bad session's own message
            _as_binary(arr, f"predictions for {sid!r}")
        raise
    text = (flat.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    ends = np.cumsum([a.size for a in arrays]).tolist()
    lines = [f"{sid},{text[e - a.size : e]}" for (sid, _), a, e in zip(predictions, arrays, ends)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_predictions(path) -> list[tuple[str, np.ndarray]]:
    out = []
    for line_no, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        sid, sep, bits = line.rpartition(",")
        if not sep or not sid:
            raise ValidationError(f"{path}:{line_no}: expected 'session_id,binarystring'")
        if bits.strip("01"):
            raise ValidationError(f"{path}:{line_no}: prediction string {bits!r} is not binary")
        out.append((sid, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - np.int64(ord("0"))))
    return out
