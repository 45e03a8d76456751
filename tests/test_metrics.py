"""Accuracy metric, baselines, and the prediction wire format."""

from fractions import Fraction

import numpy as np
import pytest
from handmade import Episode
from hypothesis import given
from hypothesis import strategies as st

from seqskip.errors import EvaluationError, ValidationError
from seqskip.metrics import (
    SessionPrediction,
    average_accuracy,
    baseline,
    binarize,
    corpus_maa,
    per_session_aa,
    read_predictions,
    write_predictions,
)

bits = st.lists(st.integers(0, 1), min_size=1, max_size=20)


def test_average_accuracy_hand_cases():
    # correct pattern 1,0,1,1 -> (1/1 + 2/3 + 3/4)/4 = 29/48
    got = average_accuracy([1, 0, 1, 1], [1, 1, 1, 1])
    assert abs(got - float(Fraction(29, 48))) < 1e-12
    assert average_accuracy([1, 0, 0, 0], [1, 1, 1, 1]) == 0.25
    assert average_accuracy([0, 1, 1], [0, 1, 1]) == 1.0
    assert average_accuracy([1], [0]) == 0.0


def test_average_accuracy_validation():
    with pytest.raises(ValidationError):
        average_accuracy([1, 2], [1, 1])
    with pytest.raises(ValidationError):
        average_accuracy([1], [1, 1])
    with pytest.raises(ValidationError):
        average_accuracy([], [])


@given(bits, bits)
def test_average_accuracy_bounded(p, t):
    n = min(len(p), len(t))
    aa = average_accuracy(p[:n], t[:n])
    plain = np.mean(np.array(p[:n]) == np.array(t[:n]))
    assert 0.0 <= aa <= plain + 1e-12  # AA never exceeds plain accuracy


@given(bits)
def test_perfect_prediction_scores_one(t):
    assert average_accuracy(t, t) == 1.0


@given(bits, st.integers(0, 19))
def test_early_mistakes_cost_more(t, i):
    # flipping an early prediction hurts at least as much as a late one
    if len(t) < 2:
        return
    i %= len(t) - 1
    early, late = list(t), list(t)
    early[i] ^= 1
    late[i + 1] ^= 1
    assert average_accuracy(early, t) <= average_accuracy(late, t) + 1e-12


def test_binarize_tie_goes_to_skip():
    np.testing.assert_array_equal(binarize(np.array([0.49, 0.5, 0.51])),
                                  [0, 1, 1])


def test_session_prediction_validation():
    with pytest.raises(ValidationError, match="0/1"):
        per_session_aa([SessionPrediction("s", np.array([0, 2]), np.array([0, 1]))])
    with pytest.raises(ValidationError, match="prediction length"):
        SessionPrediction("s", np.array([0]), np.array([0, 1]))
    with pytest.raises(ValidationError, match="1-d"):
        SessionPrediction("s", np.array([[0, 1]]), np.array([[0, 1]]))


def test_per_session_aa_names_the_first_non_binary_session():
    # One check over the concatenated arrays; the message still names the session.
    ok = SessionPrediction("ok", np.array([1, 0]), np.array([1, 1]))
    bad = np.array([2, 1, 0])  # first bit of "b" sits where "ok" ends
    for field, pred, truth in (("predicted", bad, np.zeros(3)), ("truth", np.zeros(3), bad)):
        preds = [ok] + [SessionPrediction(sid, pred, truth) for sid in ("b", "c")]
        with pytest.raises(ValidationError,
                           match=f"session 'b': {field} must contain only 0/1 entries"):
            per_session_aa(preds)


def test_mean_and_corpus_maa_agree():
    preds = [
        SessionPrediction("a", np.array([1, 1]), np.array([1, 0])),
        SessionPrediction("b", np.array([0, 0]), np.array([0, 0])),
    ]
    mean = np.mean([average_accuracy(sp.predicted, sp.truth) for sp in preds])
    assert mean == corpus_maa(preds)
    with pytest.raises(EvaluationError):
        corpus_maa([])


def test_vectorised_per_session_aa_matches_scalar():
    # Query lengths 1-10 mixed in one call: every value bit for bit, in order.
    rng = np.random.default_rng(0)
    lengths = rng.integers(1, 11, 2000)
    preds = [
        SessionPrediction(str(i), rng.integers(0, 2, n), rng.integers(0, 2, n))
        for i, n in enumerate(lengths)
    ]
    want = [average_accuracy(sp.predicted, sp.truth) for sp in preds]
    np.testing.assert_array_equal(per_session_aa(preds), want)
    assert corpus_maa(preds) == float(np.mean(want))


def test_per_session_aa_rejects_bad_input():
    ok = SessionPrediction("ok", np.array([1, 0]), np.array([1, 1]))
    with pytest.raises(ValidationError, match="at least one"):
        per_session_aa([ok, SessionPrediction("empty", np.array([]), np.array([]))])
    with pytest.raises(EvaluationError):
        per_session_aa([])


def _episode(y_support, t_query=3):
    d = 4
    return Episode(
        session_id="e",
        x_support=np.zeros((len(y_support), d), dtype=np.float32),
        x_query=np.zeros((t_query, d), dtype=np.float32),
        y_support=np.asarray(y_support, dtype=np.int8),
        y_query=np.zeros(t_query, dtype=np.int8),
    )


def test_baselines():
    ep = _episode([0, 1, 1])
    np.testing.assert_array_equal(baseline("all_skip", ep.y_support, ep.t_query), [1, 1, 1])
    np.testing.assert_array_equal(baseline("all_no_skip", ep.y_support, ep.t_query), [0, 0, 0])
    np.testing.assert_array_equal(
        baseline("carry_last_support", ep.y_support, ep.t_query), [1, 1, 1])
    ep = _episode([1, 0])
    np.testing.assert_array_equal(
        baseline("carry_last_support", ep.y_support, ep.t_query), [0, 0, 0])
    with pytest.raises(ValidationError):
        baseline("mode", ep.y_support, ep.t_query)


def test_wire_format_round_trip(tmp_path):
    path = tmp_path / "preds.txt"
    orig = [("sess_1", np.array([1, 0, 1])), ("sess,2", np.array([0]))]
    write_predictions(path, orig)
    assert path.read_text() == "sess_1,101\nsess,2,0\n"
    back = read_predictions(path)
    assert [sid for sid, _ in back] == ["sess_1", "sess,2"]
    for (_, a), (_, b) in zip(orig, back):
        np.testing.assert_array_equal(a, b)


def test_wire_format_rejects_garbage(tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("sess_1,10x1\n")
    with pytest.raises(ValidationError, match="not binary"):
        read_predictions(path)
    path.write_text("no_comma_here\n")
    with pytest.raises(ValidationError, match="session_id"):
        read_predictions(path)
    path.write_text("sess_1,101\n\nsess_2,0\n")
    assert len(read_predictions(path)) == 2  # blank lines skipped


@given(st.lists(st.tuples(st.integers(0, 10**6), bits), min_size=1, max_size=8))
def test_wire_format_lossless(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("wire") / "p.txt"
    preds = [(f"s{i}_{sid}", np.array(b)) for i, (sid, b) in enumerate(entries)]
    write_predictions(path, preds)
    back = read_predictions(path)
    assert len(back) == len(preds)
    for (sa, ba), (sb, bb) in zip(preds, back):
        assert sa == sb
        np.testing.assert_array_equal(ba, bb)


@pytest.mark.parametrize("bad", [0.5, 2, -1, np.nan])
def test_binary_check_rejects_non_binary(tmp_path, bad):
    values = np.array([0, 1, bad])
    with pytest.raises(ValidationError, match="0/1"):
        per_session_aa([SessionPrediction("s", values, np.array([0, 1, 1]))])
    with pytest.raises(ValidationError, match="0/1"):
        write_predictions(tmp_path / "p.txt", [("s", values)])
    for ok in (np.array([True, False]), np.array([1.0, 0.0])):
        per_session_aa([SessionPrediction("s", ok, np.zeros(ok.size, dtype=np.int8))])
    SessionPrediction("s", np.array([], dtype=np.int64), np.zeros(0, dtype=np.int8))


def test_wire_format_bytes_and_arrays_unchanged(tmp_path):
    # The per-bit text the format always had, read back as int64 arrays.
    rng = np.random.default_rng(1)
    preds = [(f"s{i}", rng.integers(0, 2, n).astype(dtype))
             for i, (n, dtype) in enumerate([(10, np.int64), (1, np.int8), (7, bool),
                                             (0, np.int64), (12, np.float32)])]
    path = tmp_path / "p.txt"
    write_predictions(path, preds)
    want = "".join(f"{sid},{''.join(str(int(v)) for v in bits)}\n" for sid, bits in preds)
    assert path.read_bytes() == want.encode("utf-8")
    for (sid, bits), (sid_back, back) in zip(preds, read_predictions(path)):
        assert sid_back == sid and back.dtype == np.int64 and back.flags.writeable
        np.testing.assert_array_equal(back, [int(c) for c in "".join(str(int(v)) for v in bits)])


def test_write_predictions_names_the_first_bad_session(tmp_path):
    # All bits are checked as one array; a failure still names its session.
    ok = np.array([0, 1])
    for bad, match in ((np.array([1, 2]), "predictions for 'b' must contain only 0/1"),
                       (np.array([[1, 0]]), "predictions for 'b' must be 1-d"),
                       (np.array(1), "predictions for 'b' must be 1-d")):
        with pytest.raises(ValidationError, match=match):
            write_predictions(tmp_path / "p.txt", [("a", ok), ("b", bad), ("c", bad)])
    write_predictions(tmp_path / "p.txt", [])
    assert (tmp_path / "p.txt").read_text() == "\n"
