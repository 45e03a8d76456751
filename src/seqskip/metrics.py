"""Average-accuracy metric family, baselines, and the prediction wire format."""

from __future__ import annotations

from collections.abc import Sequence
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


def _check_fill(ids, counts: np.ndarray, **flat: np.ndarray) -> None:
    """Refuse flat arrays that do not hold the ``counts[i]`` entries of each ``ids[i]``."""
    n = int(counts.sum())
    if len(counts) != len(ids) or any(arr.shape != (n,) for arr in flat.values()):
        shapes = ", ".join(f"{name} {arr.shape}" for name, arr in flat.items())
        raise ValidationError(f"{len(ids)} ids, {len(counts)} query counts ({n} in all): {shapes}")


@dataclass
class Predictions:
    """Predicted bits next to the labels of every session's queries, stored flat like
    :class:`~seqskip.dataio.Sessions`: session ``ids[i]`` holds the next ``counts[i]``
    entries of ``predicted`` and ``truth``, sessions in order."""

    ids: Sequence[str]  # [N]
    counts: np.ndarray  # [N] int
    predicted: np.ndarray  # [n_q] 0/1
    truth: np.ndarray  # [n_q] 0/1

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        self.predicted, self.truth = np.asarray(self.predicted), np.asarray(self.truth)
        _check_fill(self.ids, self.counts, predicted=self.predicted, truth=self.truth)


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


def per_session_aa(record: Predictions) -> np.ndarray:
    """Per-session AA values in the record's order.

    Every bit and label is checked for 0/1 once, over the flat arrays; a
    failure names the first bad session. Sessions of equal query length
    are scored together as the rows of one matrix. Each row then goes
    through the same cumulative sum, division and sum as
    :func:`average_accuracy`, so every value is bit-identical to it;
    zero-padding rows to one common length would change the summation
    order and the last bit.
    """
    if not record.counts.size:
        raise EvaluationError("AA over an empty prediction set")
    lengths = record.counts
    if not lengths.all():
        empty = record.ids[int(np.argmin(lengths))]
        raise ValidationError(f"session {empty!r}: AA needs at least one prediction")
    ends = np.cumsum(lengths)
    for name, arr in (("predicted", record.predicted), ("truth", record.truth)):
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            sid = record.ids[np.searchsorted(ends, bad.argmax(), side="right")]
            raise ValidationError(f"session {sid!r}: {name} must contain only 0/1 entries")
    correct = (record.predicted == record.truth).astype(np.float64)
    starts = ends - lengths
    out = np.empty(len(lengths), dtype=np.float64)
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        c = correct[starts[rows, None] + np.arange(n)]
        prefix_acc = np.cumsum(c, axis=1) / np.arange(1, n + 1)
        out[rows] = (prefix_acc * c).sum(axis=1) / n
    return out


def corpus_maa(record: Predictions) -> float:
    """Unweighted mean of per-session average accuracies."""
    return float(per_session_aa(record).mean())


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


def write_lines(path, ids, values) -> None:
    """One ``session_id,value`` line per session, in given order. An id that holds a line
    break cannot be one line of the file: it is refused, and nothing is written."""
    for sid in ids:
        if "\n" in sid or "\r" in sid:
            raise ValidationError(f"session id {sid!r} holds a line break")
    lines = [f"{sid},{value}" for sid, value in zip(ids, values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_predictions(path, ids, counts, bits) -> None:
    """The wire file: one ``session_id,binarystring`` line per session, session ``ids[i]``
    holding the next ``counts[i]`` of the flat ``bits``; one check of all bits."""
    counts, bits = np.asarray(counts), np.asarray(bits)
    _check_fill(ids, counts, predictions=bits)
    ends = np.cumsum(counts)
    try:
        flat = _as_binary(bits, "predictions")
    except ValidationError:
        for sid, arr in zip(ids, np.split(bits, ends[:-1])):  # the first bad session's message
            _as_binary(arr, f"predictions for {sid!r}")
        raise
    text = (flat.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    write_lines(path, ids, (text[e - n : e] for n, e in zip(counts.tolist(), ends.tolist())))


def read_predictions(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A wire file's session ids, query counts and flat bits. Lines end at ``\\n`` alone
    (after one ``\\r``, if there), as ``load_sessions`` ends them; blank lines are skipped."""
    ids, strings = [], []
    for line_no, line in enumerate(read_utf8(path).split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        sid, sep, bits = line.rpartition(",")
        if not sep or not sid:
            raise ValidationError(f"{path}:{line_no}: expected 'session_id,binarystring'")
        if bits.strip("01"):
            raise ValidationError(f"{path}:{line_no}: prediction string {bits!r} is not binary")
        ids.append(sid)
        strings.append(bits)
    counts = np.fromiter(map(len, strings), np.int64, len(strings))
    bits = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8) - np.int64(ord("0"))
    return ids, counts, bits
