"""Accuracy metric, baselines, and the prediction wire format."""

import re
from fractions import Fraction

import numpy as np
import pytest
from handmade import Episode
from hypothesis import given
from hypothesis import strategies as st

from seqskip.errors import EvaluationError, ValidationError
from seqskip.metrics import (
    Predictions,
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


def _record(*sessions) -> Predictions:
    """A record of ``(id, predicted, truth)`` sessions, their arrays laid end to end."""
    ids = [sid for sid, _, _ in sessions]
    counts = [len(truth) for _, _, truth in sessions]
    flat = [np.concatenate([np.zeros(0), *[s[i] for s in sessions]]) for i in (1, 2)]
    return Predictions(ids, counts, *flat)


def test_session_prediction_validation():
    with pytest.raises(ValidationError, match="0/1"):
        per_session_aa(_record(("s", np.array([0, 2]), np.array([0, 1]))))
    # flat arrays that do not fill the counts
    with pytest.raises(ValidationError, match=r"1 ids, 1 query counts \(2 in all\)"):
        Predictions(["s"], [2], np.array([0]), np.array([0, 1]))
    with pytest.raises(ValidationError, match=r"truth \(3,\)"):
        Predictions(["s"], [2], np.array([0, 1]), np.array([0, 1, 1]))
    with pytest.raises(ValidationError, match="query counts"):
        Predictions(["s"], [1], np.array([[0, 1]]), np.array([[0, 1]]))
    with pytest.raises(ValidationError, match="2 ids, 1 query counts"):
        Predictions(["s", "t"], [2], np.array([0, 1]), np.array([0, 1]))


def test_per_session_aa_names_the_first_non_binary_session():
    # One check over the flat arrays; the message still names the session.
    ok = ("ok", np.array([1, 0]), np.array([1, 1]))
    bad = np.array([2, 1, 0])  # first bit of "b" sits where "ok" ends
    for field, pred, truth in (("predicted", bad, np.zeros(3)), ("truth", np.zeros(3), bad)):
        record = _record(ok, *[(sid, pred, truth) for sid in ("b", "c")])
        with pytest.raises(ValidationError,
                           match=f"session 'b': {field} must contain only 0/1 entries"):
            per_session_aa(record)


def test_mean_and_corpus_maa_agree():
    sessions = [("a", np.array([1, 1]), np.array([1, 0])),
                ("b", np.array([0, 0]), np.array([0, 0]))]
    mean = np.mean([average_accuracy(pred, truth) for _, pred, truth in sessions])
    assert mean == corpus_maa(_record(*sessions))
    with pytest.raises(EvaluationError):
        corpus_maa(Predictions([], [], [], []))


def test_vectorised_per_session_aa_matches_scalar():
    # Query lengths 1-10 mixed in one call: every value bit for bit, in order.
    rng = np.random.default_rng(0)
    lengths = rng.integers(1, 11, 2000)
    sessions = [(str(i), rng.integers(0, 2, n), rng.integers(0, 2, n))
                for i, n in enumerate(lengths)]
    want = [average_accuracy(pred, truth) for _, pred, truth in sessions]
    record = _record(*sessions)
    np.testing.assert_array_equal(per_session_aa(record), want)
    assert corpus_maa(record) == float(np.mean(want))


def test_per_session_aa_rejects_bad_input():
    ok = ("ok", np.array([1, 0]), np.array([1, 1]))
    with pytest.raises(ValidationError, match="session 'empty': AA needs at least one"):
        per_session_aa(_record(ok, ("empty", np.array([]), np.array([]))))
    with pytest.raises(EvaluationError):
        per_session_aa(Predictions([], [], [], []))


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


def _write(path, sessions) -> None:
    """Write ``(id, bits)`` sessions, their bits laid end to end."""
    bits = np.concatenate([np.zeros(0, np.int64), *[np.asarray(b) for _, b in sessions]])
    write_predictions(path, [sid for sid, _ in sessions], [len(b) for _, b in sessions], bits)


def _read(path) -> list[tuple[str, np.ndarray]]:
    """A wire file's ``(id, bits)`` sessions."""
    ids, counts, bits = read_predictions(path)
    return list(zip(ids, np.split(bits, np.cumsum(counts)[:-1])))


def test_wire_format_round_trip(tmp_path):
    path = tmp_path / "preds.txt"
    orig = [("sess_1", np.array([1, 0, 1])), ("sess,2", np.array([0]))]
    _write(path, orig)
    assert path.read_text() == "sess_1,101\nsess,2,0\n"
    back = _read(path)
    assert [sid for sid, _ in back] == ["sess_1", "sess,2"]
    for (_, a), (_, b) in zip(orig, back):
        np.testing.assert_array_equal(a, b)
    ids, counts, bits = read_predictions(path)
    assert ids == ["sess_1", "sess,2"] and counts.tolist() == [3, 1]
    assert bits.tolist() == [1, 0, 1, 0] and bits.dtype == np.int64


def test_wire_format_rejects_garbage(tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("sess_1,10x1\n")
    with pytest.raises(ValidationError, match="not binary"):
        read_predictions(path)
    path.write_text("no_comma_here\n")
    with pytest.raises(ValidationError, match="session_id"):
        read_predictions(path)
    path.write_text("sess_1,101\n\nsess_2,0\n")
    assert len(read_predictions(path)[0]) == 2  # blank lines skipped


def test_wire_format_lines_end_at_newline_only(tmp_path):
    # Only \n ends a line, after one \r of a CRLF file: every other character
    # str.splitlines() breaks at stays inside the id, as load_sessions keeps it.
    breaks = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    orig = [(f"s{c}{i}", np.array([i % 2, 1])) for i, c in enumerate(breaks)]
    path = tmp_path / "preds.txt"
    _write(path, orig)
    for text in (path.read_bytes(), path.read_bytes().replace(b"\n", b"\r\n")):
        path.write_bytes(text)
        back = _read(path)
        assert [sid for sid, _ in back] == [sid for sid, _ in orig]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(orig, back))
    path.write_bytes(b"s1,01\n\r\ns2,1\r\n")
    assert read_predictions(path)[0] == ["s1", "s2"]  # a line of "\r" alone is blank
    path.write_bytes(b"s\r1,01\n")
    assert read_predictions(path)[0] == ["s\r1"]


@pytest.mark.parametrize("sid", ["a\nb", "a\rb", "ab\r", "\n"])
def test_writers_refuse_an_id_with_a_line_break(tmp_path, sid):
    with pytest.raises(ValidationError, match=f"session id {re.escape(repr(sid))} holds a line"):
        _write(tmp_path / "p.txt", [("ok", np.array([1])), (sid, np.array([0, 1]))])
    assert not (tmp_path / "p.txt").exists()


@given(st.lists(st.tuples(st.integers(0, 10**6), bits), min_size=1, max_size=8))
def test_wire_format_lossless(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("wire") / "p.txt"
    preds = [(f"s{i}_{sid}", np.array(b)) for i, (sid, b) in enumerate(entries)]
    _write(path, preds)
    back = _read(path)
    assert len(back) == len(preds)
    for (sa, ba), (sb, bb) in zip(preds, back):
        assert sa == sb
        np.testing.assert_array_equal(ba, bb)


@pytest.mark.parametrize("bad", [0.5, 2, -1, np.nan])
def test_binary_check_rejects_non_binary(tmp_path, bad):
    values = np.array([0, 1, bad])
    with pytest.raises(ValidationError, match="0/1"):
        per_session_aa(_record(("s", values, np.array([0, 1, 1]))))
    with pytest.raises(ValidationError, match="0/1"):
        _write(tmp_path / "p.txt", [("s", values)])
    for ok in (np.array([True, False]), np.array([1.0, 0.0])):
        per_session_aa(Predictions(["s"], [ok.size], ok, np.zeros(ok.size, dtype=np.int8)))
    Predictions(["s"], [0], np.array([], dtype=np.int64), np.zeros(0, dtype=np.int8))


def test_wire_format_bytes_and_arrays_unchanged(tmp_path):
    # The per-bit text the format always had, read back as int64 arrays.
    rng = np.random.default_rng(1)
    preds = [(f"s{i}", rng.integers(0, 2, n).astype(dtype))
             for i, (n, dtype) in enumerate([(10, np.int64), (1, np.int8), (7, bool),
                                             (0, np.int64), (12, np.float32)])]
    path = tmp_path / "p.txt"
    _write(path, preds)
    want = "".join(f"{sid},{''.join(str(int(v)) for v in bits)}\n" for sid, bits in preds)
    assert path.read_bytes() == want.encode("utf-8")
    ids, counts, flat = read_predictions(path)
    assert flat.dtype == np.int64 and flat.flags.writeable and counts.dtype == np.int64
    for (sid, bits), (sid_back, back) in zip(preds, _read(path)):
        assert sid_back == sid
        np.testing.assert_array_equal(back, [int(c) for c in "".join(str(int(v)) for v in bits)])


def test_write_predictions_names_the_first_bad_session(tmp_path):
    # All bits are checked as one array; a failure still names its session.
    path = tmp_path / "p.txt"
    ok = np.array([0, 1])
    with pytest.raises(ValidationError, match="predictions for 'b' must contain only 0/1"):
        _write(path, [("a", ok), ("b", np.array([1, 2])), ("c", np.array([1, 2]))])
    # flat bits that do not fill the counts, or are not 1-d
    for counts, bits in (([2, 2], np.array([0, 1, 1])), ([2], np.array([[0, 1]])),
                         ([1, 1], np.array(1))):
        with pytest.raises(ValidationError, match="query counts"):
            write_predictions(path, ["a", "b"][: len(counts)], counts, bits)
    assert not path.exists()
    write_predictions(path, [], [], [])
    assert path.read_text() == "\n"
