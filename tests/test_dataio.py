"""File parsing, preprocessing, and episode/batch assembly."""

import dataclasses
import gc
import json
import math

import numpy as np
import pytest
from handmade import episode
from handmade import make_batch as handmade_batch
from hypothesis import given
from hypothesis import strategies as st

from seqskip import dataio, trainer
from seqskip.dataio import (
    PACK_ROWS,
    Batch,
    ColumnSpec,
    SchemaSpec,
    Sessions,
    fit_stats,
    load_corpus,
    load_features,
    load_schema,
    load_sessions,
    make_batch,
    make_batches,
    make_episodes,
    read_utf8,
    transform,
)
from seqskip.errors import SchemaError, ValidationError
from seqskip.models import build, default_config
from seqskip.synthgen import SynthConfig, generate

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
    assert sessions.ids.tolist() == ["s1"] and sessions.lengths.tolist() == [10]
    assert sessions.track_ids.tolist() == [f"t{k}" for k in range(10)]
    np.testing.assert_array_equal(sessions.labels, [p % 2 for p in range(1, 11)])
    cols = sessions.columns
    assert cols["context"][0] == 1  # "evening": categoricals as vocabulary indices
    # parsed at load: counts and reals as floats, booleans as 0/1
    assert cols["play_count"][1] == float(E_MINUS_1)
    assert cols["shuffle"][2] == 1 and cols["shuffle"][0] == 0
    assert cols["pause_ratio"][0] == 0.1
    assert "date" not in cols  # unlisted columns dropped


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


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_errors_name_the_physical_line_after_a_blank_line(tmp_path, end):
    # The blank line 4 is skipped but counted, on the split path and the csv one.
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    lines = (tmp_path / "sessions.csv").read_text().splitlines()
    lines = _edit_row(lines, 5, 7, "maybe").splitlines()  # skipped column, line 6
    lines.insert(3, "")
    bad = tmp_path / "bad.csv"
    bad.write_bytes((end.join(lines) + end).encode())
    with pytest.raises(ValidationError,
                       match=r"bad\.csv:7: column 'skipped' has non-boolean value 'maybe'"):
        load_sessions(bad, schema)


def test_a_byte_that_is_not_utf8_fails_at_its_line(tmp_path):
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_bytes().split(b"\n")
    bad = tmp_path / "bad.csv"

    bad.write_bytes(b"\n".join(good[:4] + [good[4] + b"\xe9"] + good[5:]))
    with pytest.raises(ValidationError, match=r"bad\.csv:5: byte 0xe9 is not UTF-8"):
        load_sessions(bad, schema)
    bad.write_bytes(b"\n".join([good[0] + b"\xe9"] + good[1:]))  # the header
    with pytest.raises(ValidationError, match=r"bad\.csv:1: byte 0xe9 is not UTF-8"):
        load_sessions(bad, schema)
    lines = _edit_row([line.decode() for line in good], 2, 5, "maybe").encode().split(b"\n")
    bad.write_bytes(b"\n".join(lines[:4] + [lines[4] + b"\xe9"] + lines[5:]))
    with pytest.raises(ValidationError, match=r"bad\.csv:3: column 'shuffle'"):  # earlier line
        load_sessions(bad, schema)

    (tmp_path / "f.csv").write_bytes(b'track_id,f0,f1,f2\nt0,1,2,3\n"t\xe9",1,2,3\n')
    with pytest.raises(ValidationError, match=r"f\.csv:3: byte 0xe9 is not UTF-8"):
        load_features(tmp_path / "f.csv", schema)


def test_read_utf8_counts_newlines_only(tmp_path):
    # \x0c, \x85 and a bare \r end no line of the file: the bad byte is on line 2.
    path = tmp_path / "p.txt"
    for text in (b"s\x0c1,0101\ns2,\xff01\n", b"s\xc2\x851,0\rs\r2,1\ns2,\xff01\n",
                 b"s1,01\r\ns2,\xff01\r\n"):
        path.write_bytes(text)
        with pytest.raises(ValidationError, match=r"p\.txt:2: byte 0xff is not UTF-8"):
            read_utf8(path)
    path.write_bytes(b"\xff")
    with pytest.raises(ValidationError, match=r"p\.txt:1: byte 0xff is not UTF-8"):
        read_utf8(path)


def test_a_cell_past_the_csv_field_limit_fails_at_its_line(tmp_path):
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_text().splitlines()
    big = '"' + "x" * 200_000 + '"'  # past csv.field_size_limit(), 131,072 by default
    bad = tmp_path / "bad.csv"

    bad.write_text(_edit_row(good, 4, 8, big))  # date column, line 5
    with pytest.raises(ValidationError, match=r"bad\.csv:5: field larger than field limit"):
        load_sessions(bad, schema)
    bad.write_text(_edit_row(_edit_row(good, 4, 8, big).splitlines(), 2, 5, "maybe"))
    with pytest.raises(ValidationError, match=r"bad\.csv:3: column 'shuffle'"):  # earlier line
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


def test_first_bad_row_names_the_error(tmp_path):
    # Two bad rows in different columns: the earlier row is reported, even
    # though its bad column comes later in the schema.
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    lines = _edit_row(good, 6, 2, "six").splitlines()  # position, line 7
    bad.write_text(_edit_row(lines, 3, 6, "nan"))  # pause_ratio, line 4
    with pytest.raises(ValidationError,
                       match=r"bad\.csv:4: column 'pause_ratio' has non-finite value 'nan'"):
        load_sessions(bad, schema)
    # a short row ends the rows read: a bad value before it still comes first
    lines = _edit_row(good, 2, 4, "-3").splitlines()  # play_count, line 3
    lines[5] = "s1,t9,5"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=r"bad\.csv:3: count column 'play_count' is negative"):
        load_sessions(bad, schema)
    bad.write_text("\n".join(good[:5] + ["s1,t9,5"] + good[6:]) + "\n")
    with pytest.raises(ValidationError, match=r"bad\.csv:6: ragged row"):
        load_sessions(bad, schema)


def test_loaders_pause_the_collector_and_restore_it(tmp_path, monkeypatch):
    # Parsing runs with the cyclic garbage collector off; its earlier state
    # comes back after a good file and after a rejected one.
    _write_corpus(tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    good = (tmp_path / "sessions.csv").read_text().splitlines()
    (tmp_path / "bad.csv").write_text(_edit_row(good, 4, 4, "inf"))
    (tmp_path / "f.csv").write_text("track_id,f0,f1,f2\nt0,1,x,3\n")
    during = []
    parse = dataio._parse
    monkeypatch.setattr(dataio, "_parse", lambda *a: during.append(gc.isenabled()) or parse(*a))
    before = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_sessions(tmp_path / "sessions.csv", schema)
            load_features(tmp_path / "features.csv", schema)
            assert gc.isenabled() == enabled
            with pytest.raises(ValidationError, match=r"bad\.csv:5: column 'play_count'"):
                load_sessions(tmp_path / "bad.csv", schema)
            with pytest.raises(ValidationError, match=r"f\.csv:2: non-numeric feature value"):
                load_features(tmp_path / "f.csv", schema)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert during and not any(during)


def test_missing_track_raises(corpus):
    _, _, features = corpus
    with pytest.raises(ValidationError, match="no acoustic"):
        features.rows(["t_missing"])


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
    rows = transform(sessions, features, stats, schema)  # the corpus is one session
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
    rows = transform(sessions, features, stats, schema)
    assert rows[1, 2] == 1.0  # clamped, not 2.0


# -- episodes and batches ----------------------------------------------


def _of_lengths(lengths) -> Sessions:
    """A corpus of sessions of these lengths and nothing else."""
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = int(lengths.sum())
    return Sessions(np.arange(len(lengths)).astype(str).astype(object), lengths,
                    np.zeros(rows, dtype=object), np.zeros(rows, dtype=np.int8), {})


def test_t_support_hand_cases():
    assert _of_lengths([10, 11, 20]).t_support.tolist() == [5, 6, 10]


@given(st.lists(st.integers(10, 20), min_size=1, max_size=8))
def test_t_support_takes_ceil_half(lengths):
    t_support = _of_lengths(lengths).t_support
    assert t_support.tolist() == [math.ceil(n / 2) for n in lengths]
    assert (t_support >= np.array(lengths) - t_support).all()


def test_make_episode_channels(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    ep = episode(make_episodes(sessions, features, stats, schema), 0)
    assert ep.t_support == 5 and ep.t_query == 5
    lw = schema.log_width
    np.testing.assert_array_equal(ep.x_support[:, -2], ep.y_support)
    assert np.all(ep.x_support[:, -1] == 0)
    assert np.all(ep.x_query[:, -1] == 1)
    assert np.all(ep.x_query[:, :lw] == 0)  # log fields withheld
    assert np.any(ep.x_query[:, lw:-2] != 0)  # acoustics present
    np.testing.assert_array_equal(ep.y_query, sessions.labels[5:])


def test_make_episode_keep_query_logs(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    ep = episode(make_episodes(sessions, features, stats, schema, keep_query_logs=True), 0)
    assert ep.query_logs_kept
    assert np.any(ep.x_query[:, : schema.log_width] != 0)
    assert np.all(ep.x_query[:, -2] == 0)  # labels still withheld


def test_make_batch_padding_and_merged_timeline(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    ep = episode(make_episodes(sessions, features, stats, schema), 0)
    short = episode(make_episodes(sessions, features, stats, schema), 0)
    short.x_query = short.x_query[:3]
    short.y_query = short.y_query[:3]
    batch = handmade_batch([ep, short])
    assert isinstance(batch, Batch) and len(batch) == 2
    # 18 real rows, each session's supports then queries, then 14 inert zero rows
    assert batch.x.shape == (32, schema.full_width) and batch.y.shape == (32,)
    np.testing.assert_array_equal(batch.x[:5], ep.x_support)
    np.testing.assert_array_equal(batch.x[15:18], short.x_query)
    assert not batch.x[18:].any() and not batch.y[18:].any()
    np.testing.assert_array_equal(batch.query_index, [5, 6, 7, 8, 9, 15, 16, 17])
    # merged timeline: each session's supports then its queries, one row each
    np.testing.assert_array_equal(batch.x[5:10], ep.x_query)
    np.testing.assert_array_equal(batch.sup.x[5:10], ep.x_support)
    np.testing.assert_array_equal(batch.query_rows, [0] * 5 + [1] * 5 + [0] * 5 + [1] * 3
                                  + [0] * 14)
    assert batch.t_support.tolist() == [5, 5] and batch.t_query.tolist() == [5, 3]
    # every view is read from the rows each time: an in-place edit shows in all of them
    batch.x[14, 0] += 7.0  # session 1's last support
    batch.x[17, 0] -= 7.0  # its last query
    for got, want in ((batch.sup.x[9, 0], ep.x_support[4, 0] + np.float32(7.0)),
                      (batch.queries(batch.x)[1, 2, 0], short.x_query[2, 0] - np.float32(7.0))):
        assert got == want
    assert not batch.queries(batch.x)[1, 3:].any()  # padding zero


def test_a_corpus_set_stores_its_rows_and_no_padded_block(tmp_path):
    generate(SynthConfig(n_sessions=37, seed=5), tmp_path)
    schema, sessions, features = load_corpus(tmp_path)
    episodes = make_episodes(sessions, features, fit_stats(sessions, features, schema), schema)
    rows = int(sessions.lengths.sum())
    assert rows % PACK_ROWS
    assert episodes.x.shape == (rows + -rows % PACK_ROWS, schema.full_width)
    assert episodes.y.shape == episodes.x.shape[:1] and not episodes.x[rows:].any()
    stored = {name: v.shape for name, v in vars(episodes).items() if isinstance(v, np.ndarray)}
    assert stored == {"x": episodes.x.shape, "y": episodes.y.shape,
                      "t_support": (37,), "t_query": (37,)}


def test_make_batch_rejects_mixed_and_empty(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    plain = make_episodes(sessions, features, stats, schema)
    teacher = make_episodes(sessions, features, stats, schema, keep_query_logs=True)
    # a corpus set has one query-log setting; hand-made sets cannot mix them
    assert teacher.query_logs_kept and not plain.query_logs_kept
    assert make_batch(teacher).query_logs_kept
    with pytest.raises(ValidationError):
        handmade_batch([episode(plain, 0), episode(teacher, 0)])
    with pytest.raises(ValidationError):
        make_batch(plain[[]])
    with pytest.raises(ValidationError):
        handmade_batch([])


def test_make_batches_chunks(corpus):
    schema, sessions, features = corpus
    stats = fit_stats(sessions, features, schema)
    eps = make_episodes(sessions, features, stats, schema)[[0] * 5]
    assert len(eps) == 5
    batches = make_batches(eps, 2)
    assert [len(b) for b in batches] == [2, 2, 1]
    assert [len(b) for b in make_batches(eps, 2, order=[4, 0, 2])] == [2, 1]
    with pytest.raises(ValidationError):
        make_batches(eps, 0)


def _same_batch(got: Batch, want: Batch) -> bool:
    def raw(v):
        return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
    return all(raw(getattr(got, f.name)) == raw(getattr(want, f.name))
               for f in dataclasses.fields(Batch))


def test_make_batches_gathers_each_batch_when_it_is_read(tmp_path, monkeypatch):
    generate(SynthConfig(n_sessions=50, rule="markov", seed=2, feature_dim=4), tmp_path)
    schema, sessions, features = load_corpus(tmp_path)
    eps = make_episodes(sessions, features, fit_stats(sessions, features, schema), schema)
    order = np.random.default_rng(0).permutation(len(eps))
    eager = [eps[order[i : i + 8]] for i in range(0, len(eps), 8)]  # the former list
    gathers = []
    gather = Batch.__getitem__

    def counting(self, index):
        gathers.append(index)
        return gather(self, index)

    monkeypatch.setattr(Batch, "__getitem__", counting)
    with pytest.raises(ValidationError):
        make_batches(eps, 0)  # checked at call time, not when read
    batches = make_batches(eps, 8, order)
    assert len(batches) == len(eager) == 7 and gathers == []
    assert _same_batch(batches[-1], eager[-1]) and len(eager[-1]) == 2
    assert _same_batch(batches[0], eager[0]) and len(gathers) == 2
    assert all(_same_batch(g, w) for g, w in zip(batches, eager, strict=True))
    assert len(gathers) == 2 + len(eager)
    with pytest.raises(IndexError):
        batches[len(eager)]
    with pytest.raises(IndexError):  # a bad order fails the loop, it does not end it early
        list(make_batches(eps, 8, np.append(order, len(eps))))

    # predict_corpus gives the bits it gave with the eager list
    model = build(default_config("seq1HL", width=8), schema.full_width)
    lazy = trainer.predict_corpus(model, eps, 8)
    monkeypatch.setattr(trainer, "make_batches", lambda e, b, o=None: list(make_batches(e, b, o)))
    assert lazy.tobytes() == trainer.predict_corpus(model, eps, 8).tobytes()
