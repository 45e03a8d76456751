"""File parsing, preprocessing, and episode/batch assembly."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqskip.dataio import (
    Batch,
    ColumnSpec,
    SchemaSpec,
    fit_stats,
    load_corpus,
    load_features,
    load_schema,
    load_sessions,
    make_batch,
    make_batches,
    make_episode,
    split_session,
    transform,
)
from seqskip.errors import SchemaError, ValidationError

E_MINUS_1 = "1.718281828459045"  # log1p == 1 exactly (to float precision)

SCHEMA = {
    "session_id": "session_id",
    "track_id": "track_id",
    "position": "position",
    "skip_label": "skipped",
    "feature_dim": 3,
    "columns": [
        {"name": "context", "kind": "categorical",
         "vocabulary": ["morning", "evening"]},
        {"name": "play_count", "kind": "count"},
        {"name": "shuffle", "kind": "boolean"},
        {"name": "pause_ratio", "kind": "real"},
        {"name": "skipped", "kind": "boolean"},
    ],
}


def _write_corpus(root, extra_session=False):
    (root / "schema.json").write_text(json.dumps(SCHEMA))
    header = "session_id,track_id,position,context,play_count,shuffle,pause_ratio,skipped,date"
    rows = [header]
    for pos in range(10, 0, -1):  # reversed on disk: loader must sort
        k = pos - 1
        rows.append(
            f"s1,t{k},{pos},{'morning' if pos % 2 == 0 else 'evening'},"
            f"{E_MINUS_1 if pos == 2 else '0'},"
            f"{'true' if pos == 3 else '0'},"
            f"{0.1 * pos:.1f},{pos % 2},2019-01-0{pos % 9 + 1}"
        )
    if extra_session:
        for pos in range(1, 11):  # same tracks, reversed order
            rows.append(
                f"s2,t{10 - pos},{pos},morning,0,0,0.0,0,2019-02-01"
            )
    (root / "sessions.csv").write_text("\n".join(rows) + "\n")

    feat = ["track_id,f0,f1,f2"]
    for k in range(10):
        feat.append(f"t{k},{1.0 if k % 2 == 0 else -1.0},{float(k)},7.0")
    feat.append("t_unused,0.0,0.0,7.0")
    (root / "features.csv").write_text("\n".join(feat) + "\n")


@pytest.fixture
def corpus(tmp_path):
    _write_corpus(tmp_path)
    return load_corpus(tmp_path)


# -- schema ------------------------------------------------------------


def test_schema_round_trip(tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    schema = load_schema(tmp_path / "schema.json")
    assert schema.log_width == 2 + 1 + 1 + 1  # label column excluded
    assert schema.full_width == 5 + 3 + 2
    assert SchemaSpec.from_json(schema.to_json()) == schema


def test_schema_derived_properties_cached(tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    schema = load_schema(tmp_path / "schema.json")
    names = ("context", "play_count", "shuffle", "pause_ratio")
    for _ in range(2):  # first read computes, second reads the cache
        assert tuple(c.name for c in schema.feature_columns) == names
        assert schema.log_width == 5
        assert schema.full_width == 10
    assert schema.feature_columns is schema.feature_columns
    again = SchemaSpec.from_json(schema.to_json())
    assert again == schema
    assert again.to_json() == schema.to_json() == SCHEMA
    assert (again.feature_columns, again.log_width, again.full_width) == (
        schema.feature_columns, schema.log_width, schema.full_width)


def test_schema_validation():
    with pytest.raises(SchemaError):
        ColumnSpec("x", "fancy")
    with pytest.raises(SchemaError):
        ColumnSpec("x", "categorical", vocabulary=("a", "a"))
    with pytest.raises(SchemaError):
        ColumnSpec("x", "real", vocabulary=("a",))
    bad = dict(SCHEMA)
    bad["columns"] = [{"name": "skipped", "kind": "real"}]
    with pytest.raises(SchemaError):
        SchemaSpec.from_json(bad)
    with pytest.raises(SchemaError):
        SchemaSpec.from_json({"session_id": "s"})


def test_schema_bad_json(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_schema(p)


# -- sessions ----------------------------------------------------------


def test_sessions_sorted_and_parsed(corpus):
    _, sessions, _ = corpus
    (rec,) = sessions
    assert rec.session_id == "s1" and rec.length == 10
    assert rec.track_ids == tuple(f"t{k}" for k in range(10))
    np.testing.assert_array_equal(rec.labels, [p % 2 for p in range(1, 11)])
    assert rec.logs[0]["context"] == "evening"
    # parsed at load: counts and reals as floats, booleans as 0/1
    assert rec.logs[1]["play_count"] == float(E_MINUS_1)
    assert rec.logs[2]["shuffle"] == 1 and rec.logs[0]["shuffle"] == 0
    assert rec.logs[0]["pause_ratio"] == 0.1
    assert "date" not in rec.logs[0]  # unlisted columns dropped


def _edit_row(lines, row, field, value):
    out = lines[:]
    parts = out[row].split(",")
    parts[field] = value
    out[row] = ",".join(parts)
    return "\n".join(out) + "\n"


def test_sessions_reject_bad_shapes(tmp_path):
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"

    bad.write_text("\n".join(good[:10]) + "\n")  # only 9 positions for s1
    with pytest.raises(ValidationError, match="length"):
        load_sessions(bad, schema)

    bad.write_text(_edit_row(good, 10, 2, "12"))  # position 1 -> 12
    with pytest.raises(ValidationError, match="contiguous"):
        load_sessions(bad, schema)

    bad.write_text(_edit_row(good, 3, 3, "midnight"))
    with pytest.raises(SchemaError, match="vocabulary"):
        load_sessions(bad, schema)

    bad.write_text(good[0].replace(",position,", ",pos,") + "\n")
    with pytest.raises(SchemaError, match="lacks"):
        load_sessions(bad, schema)


def test_sessions_reject_bad_values(tmp_path):
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"

    bad.write_text(_edit_row(good, 1, 7, "maybe"))  # skipped column
    with pytest.raises(ValidationError, match="non-boolean"):
        load_sessions(bad, schema)

    bad.write_text(_edit_row(good, 3, 5, "maybe"))  # shuffle log column
    with pytest.raises(ValidationError,
                       match=r"bad\.csv:4: column 'shuffle' has non-boolean value 'maybe'"):
        load_sessions(bad, schema)

    bad.write_text(_edit_row(good, 1, 2, "x"))  # position column
    with pytest.raises(ValidationError, match="integer"):
        load_sessions(bad, schema)


# -- features ----------------------------------------------------------


def test_features_reject_malformed(tmp_path):
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")

    (tmp_path / "f.csv").write_text("wrong_id,f0,f1,f2\nt0,1,2,3\n")
    with pytest.raises(SchemaError, match="track_id"):
        load_features(tmp_path / "f.csv", schema)

    (tmp_path / "f.csv").write_text("track_id,f0,f1\nt0,1,2\n")
    with pytest.raises(SchemaError, match="feature columns"):
        load_features(tmp_path / "f.csv", schema)

    (tmp_path / "f.csv").write_text("track_id,f0,f1,f2\nt0,1,2\n")
    with pytest.raises(ValidationError, match="ragged"):
        load_features(tmp_path / "f.csv", schema)

    (tmp_path / "f.csv").write_text("track_id,f0,f1,f2\nt0,1,2,3\nt0,1,2,3\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_features(tmp_path / "f.csv", schema)

    (tmp_path / "f.csv").write_text("track_id,f0,f1,f2\nt0,1,x,3\n")
    with pytest.raises(ValidationError, match="non-numeric"):
        load_features(tmp_path / "f.csv", schema)


def test_non_finite_values_rejected_with_file_line(tmp_path):
    # float() accepts nan and inf: one nan feature made acoustic_mean NaN,
    # one inf count made every finite count of its column 0.
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"

    bad.write_text(_edit_row(good, 4, 4, "inf"))  # play_count
    with pytest.raises(ValidationError,
                       match=r"bad\.csv:5: column 'play_count' has non-finite value 'inf'"):
        load_sessions(bad, schema)

    bad.write_text(_edit_row(good, 2, 6, "-inf"))  # pause_ratio
    with pytest.raises(ValidationError,
                       match=r"bad\.csv:3: column 'pause_ratio' has non-finite value '-inf'"):
        load_sessions(bad, schema)

    (tmp_path / "f.csv").write_text("track_id,f0,f1,f2\nt0,1,2,3\nt1,1,nan,3\n")
    with pytest.raises(ValidationError,
                       match=r"f\.csv:3: column 'f1' has non-finite value 'nan'"):
        load_features(tmp_path / "f.csv", schema)


def test_missing_track_raises(corpus):
    _, _, features = corpus
    with pytest.raises(ValidationError, match="no acoustic"):
        features.get("t_missing")


# -- preprocessing -----------------------------------------------------


def test_fit_stats_hand_values(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    assert stats.count_min["play_count"] == 0.0
    np.testing.assert_allclose(stats.count_max["play_count"], 1.0, rtol=1e-12)
    assert not stats.count_constant["play_count"]
    # f0 alternates +-1 over ten distinct tracks; f2 is constant
    np.testing.assert_allclose(stats.acoustic_mean, [0.0, 4.5, 7.0])
    np.testing.assert_allclose(stats.acoustic_std,
                               [1.0, np.sqrt(8.25), 0.0], rtol=1e-12)
    np.testing.assert_array_equal(stats.acoustic_constant,
                                  [False, False, True])


def test_fit_stats_counts_each_track_once(tmp_path):
    _write_corpus(tmp_path, extra_session=True)
    schema, sessions, features = load_corpus(tmp_path)
    assert len(sessions) == 2  # s2 revisits the same ten tracks
    stats = fit_stats(sessions, features, schema)
    np.testing.assert_allclose(stats.acoustic_mean, [0.0, 4.5, 7.0])


def test_fit_stats_empty_corpus(corpus):
    schema, _, features = corpus
    with pytest.raises(ValidationError):
        fit_stats([], features, schema)


def test_transform_hand_row(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    rows = transform(sessions[0], features, stats, schema)
    assert rows.shape == (10, 8) and rows.dtype == np.float32
    # position 1: evening, count 0, shuffle 0, pause 0.1, track t0
    np.testing.assert_allclose(
        rows[0], [0, 1, 0, 0, 0.1, 1.0, -4.5 / math.sqrt(8.25), 0.0],
        rtol=1e-6)
    # position 2: morning one-hot, count log1p(e-1)=1 -> scaled 1
    np.testing.assert_allclose(rows[1, :4], [1, 0, 1, 0], atol=1e-7)
    # position 3: shuffle "true" parsed as 1
    assert rows[2, 3] == 1.0


def test_transform_clamps_counts_out_of_range(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    stats.count_max["play_count"] = 0.5  # pretend fit saw a smaller range
    rows = transform(sessions[0], features, stats, schema)
    assert rows[1, 2] == 1.0  # clamped, not 2.0


# -- episodes and batches ----------------------------------------------


def test_split_session_hand_cases():
    assert split_session(10) == (range(1, 6), range(6, 11))
    assert split_session(11) == (range(1, 7), range(7, 12))
    assert split_session(20) == (range(1, 11), range(11, 21))
    with pytest.raises(ValidationError):
        split_session(9)
    with pytest.raises(ValidationError):
        split_session(21)


@given(st.integers(10, 20))
def test_split_support_takes_ceil_half(length):
    sup, qry = split_session(length)
    assert len(sup) + len(qry) == length
    assert len(sup) == math.ceil(length / 2)
    assert sup[0] == 1 and qry[-1] == length


def test_make_episode_channels(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    ep = make_episode(sessions[0], features, stats, schema)
    assert ep.t_support == 5 and ep.t_query == 5
    lw = schema.log_width
    np.testing.assert_array_equal(ep.x_support[:, -2], ep.y_support)
    assert np.all(ep.x_support[:, -1] == 0)
    assert np.all(ep.x_query[:, -1] == 1)
    assert np.all(ep.x_query[:, :lw] == 0)  # log fields withheld
    assert np.any(ep.x_query[:, lw:-2] != 0)  # acoustics present
    np.testing.assert_array_equal(ep.y_query, sessions[0].labels[5:])


def test_make_episode_keep_query_logs(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    ep = make_episode(sessions[0], features, stats, schema, keep_query_logs=True)
    assert ep.query_logs_kept
    assert np.any(ep.x_query[:, : schema.log_width] != 0)
    assert np.all(ep.x_query[:, -2] == 0)  # labels still withheld


def test_make_batch_padding_and_merged_timeline(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    ep = make_episode(sessions[0], features, stats, schema)
    short = make_episode(sessions[0], features, stats, schema)
    short.x_query = short.x_query[:3]
    short.y_query = short.y_query[:3]
    batch = make_batch([ep, short])
    assert isinstance(batch, Batch) and batch.size == 2
    np.testing.assert_array_equal(batch.qry_mask[1], [1, 1, 1, 0, 0])
    # merged view: supports then queries, zero-padded to the right
    np.testing.assert_array_equal(batch.seq_x[0, :5], ep.x_support)
    np.testing.assert_array_equal(batch.seq_x[0, 5:10], ep.x_query)
    np.testing.assert_array_equal(batch.seq_qmask[1],
                                  [0] * 5 + [1] * 3 + [0] * 2)
    assert batch.t_support.tolist() == [5, 5]


def test_make_batch_rejects_mixed_and_empty(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    plain = make_episode(sessions[0], features, stats, schema)
    teacher = make_episode(sessions[0], features, stats, schema,
                           keep_query_logs=True)
    with pytest.raises(ValidationError):
        make_batch([plain, teacher])
    with pytest.raises(ValidationError):
        make_batch([])


def test_make_batches_chunks(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    eps = [make_episode(sessions[0], features, stats, schema)] * 5
    batches = make_batches(eps, 2)
    assert [b.size for b in batches] == [2, 2, 1]
    with pytest.raises(ValidationError):
        make_batches(eps, 0)
