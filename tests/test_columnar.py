"""The columnar data path against the per-record path it replaced.

``ref_load_sessions``, ``ref_load_features``, ``ref_fit_stats``,
``ref_transform``, ``ref_make_episode`` and ``ref_make_batch`` below are
the per-record code as it was before the corpus went columnar: one dict
per CSV row, one transform and one episode per session, one copy per
episode into each batch. The columnar path must give the same sessions,
the same statistics and transform bit for bit, the same batches byte for
byte, and the same error for every malformed file. The reference loaders
read rows through ``ref_rows``: csv.reader's rows, each named by the file
line it ends on (``line_num``, blank lines counted), and a row holding a
byte that is not UTF-8 fails at its line.
"""

import contextlib
import csv
import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from handmade import Episode
from handmade import make_batch as handmade_batch
from hypothesis import given
from hypothesis import strategies as st

from seqskip import dataio
from seqskip.dataio import (
    _BOOL_VALUES,
    MAX_SESSION_LEN,
    MIN_SESSION_LEN,
    Batch,
    PreprocessStats,
    fit_stats,
    load_features,
    load_schema,
    load_sessions,
    make_batches,
    transform,
)
from seqskip.errors import SchemaError, SeqskipError, ValidationError
from seqskip.rng import rng_stream
from seqskip.synthgen import RULES, SynthConfig, generate
from seqskip.trainer import build_episodes, split_train_val

# -- the per-record reference ------------------------------------------------


@dataclass
class RefRecord:
    session_id: str
    track_ids: tuple
    labels: np.ndarray  # int8 [L]
    logs: tuple  # one dict per position: categorical str, boolean 0/1, count/real float


def _ref_bool(raw, column, where):
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValidationError(f"{where}: column {column!r} has non-boolean value {raw!r}") from None


def _ref_number(raw, column, where, nonnegative=False):
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{where}: column {column!r} has non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: column {column!r} has non-finite value {raw!r}")
    if nonnegative and value < 0:
        raise ValidationError(f"{where}: count column {column!r} is negative ({raw})")
    return value


def ref_rows(path):
    """Each csv row of a file and the line it ends on. A row holding a byte that is not
    UTF-8 fails at that line, before its values are read."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        for row in reader:
            escaped = [c for c in "".join(row) if "\udc80" <= c <= "\udcff"]
            if escaped:
                byte = ord(escaped[0]) - 0xDC00
                raise ValidationError(f"{path}:{reader.line_num}: byte 0x{byte:02x} is not UTF-8")
            yield row, reader.line_num


def ref_load_sessions(path, schema):
    needed = {schema.session_id_col, schema.track_id_col, schema.position_col, schema.skip_label_col}
    needed.update(c.name for c in schema.feature_columns)
    by_session = {}
    rows = ref_rows(path)
    header = next(rows, ([], 1))[0]
    missing = sorted(needed - set(header))
    if missing:
        raise SchemaError(f"session file {path} lacks schema columns: {missing}")
    for cells, line_no in rows:
        if not cells:  # a blank line, skipped as csv.DictReader skips it
            continue
        where = f"{path}:{line_no}"
        if len(cells) != len(header):
            raise ValidationError(f"{where}: ragged row")
        row = dict(zip(header, cells))
        try:
            pos = int(row[schema.position_col])
        except ValueError:
            raise ValidationError(
                f"{where}: position {row[schema.position_col]!r} is not an integer"
            ) from None
        label = _ref_bool(row[schema.skip_label_col], schema.skip_label_col, where)
        logs = {}
        for col in schema.feature_columns:
            raw = row[col.name]
            if col.kind == "categorical":
                if raw not in col.vocabulary:
                    raise SchemaError(
                        f"{where}: column {col.name!r} has value {raw!r} "
                        f"outside the schema vocabulary"
                    )
                logs[col.name] = raw
            elif col.kind == "boolean":
                logs[col.name] = _ref_bool(raw, col.name, where)
            else:
                logs[col.name] = _ref_number(raw, col.name, where, col.kind == "count")
        by_session.setdefault(row[schema.session_id_col], []).append(
            (pos, row[schema.track_id_col], label, logs))
    records = []
    for sid, rows in by_session.items():
        rows.sort(key=lambda r: r[0])
        length = len(rows)
        if not MIN_SESSION_LEN <= length <= MAX_SESSION_LEN:
            raise ValidationError(
                f"session {sid!r} has length {length}, outside "
                f"[{MIN_SESSION_LEN}, {MAX_SESSION_LEN}]"
            )
        positions = [r[0] for r in rows]
        if positions != list(range(1, length + 1)):
            raise ValidationError(
                f"session {sid!r} positions are not contiguous from 1: {positions}")
        records.append(RefRecord(sid, tuple(r[1] for r in rows),
                                 np.array([r[2] for r in rows], dtype=np.int8),
                                 tuple(r[3] for r in rows)))
    return records


def ref_load_features(path, schema):
    vectors = {}
    rows = ref_rows(path)
    header = next(rows, ([], 1))[0]
    if not header or header[0] != schema.track_id_col:
        raise SchemaError(
            f"feature file {path} must start with the {schema.track_id_col!r} column")
    if len(header) - 1 != schema.feature_dim:
        raise SchemaError(
            f"feature file {path} has {len(header) - 1} feature columns, "
            f"schema says {schema.feature_dim}"
        )
    for row, line_no in rows:
        if len(row) != len(header):
            raise ValidationError(f"{path}:{line_no}: ragged row")
        tid = row[0]
        if tid in vectors:
            raise ValidationError(f"{path}:{line_no}: duplicate track id {tid!r}")
        try:
            vec = np.array([float(v) for v in row[1:]], dtype=np.float64)
        except ValueError:
            raise ValidationError(f"{path}:{line_no}: non-numeric feature value") from None
        if not np.isfinite(vec).all():
            j = 1 + int(np.argmin(np.isfinite(vec)))
            raise ValidationError(
                f"{path}:{line_no}: column {header[j]!r} has non-finite value {row[j]!r}")
        vectors[tid] = vec
    return vectors


def ref_fit_stats(records, vectors, schema):
    stats = PreprocessStats()
    for col in schema.feature_columns:
        if col.kind != "count":
            continue
        logged = [math.log1p(logs[col.name]) for rec in records for logs in rec.logs]
        lo, hi = min(logged), max(logged)
        stats.count_min[col.name] = lo
        stats.count_max[col.name] = hi
        stats.count_constant[col.name] = hi <= lo
    tracks = sorted({tid for rec in records for tid in rec.track_ids})
    mat = np.stack([vectors[t] for t in tracks])
    stats.acoustic_mean = mat.mean(axis=0)
    stats.acoustic_std = mat.std(axis=0)
    stats.acoustic_constant = stats.acoustic_std <= 0
    return stats


def ref_transform(record, vectors, stats, schema):
    length = len(record.track_ids)
    out = np.zeros((length, schema.log_width + schema.feature_dim), dtype=np.float64)
    offset = 0
    for col in schema.feature_columns:
        if col.kind == "categorical":
            index = {v: j for j, v in enumerate(col.vocabulary)}
            for i in range(length):
                out[i, offset + index[record.logs[i][col.name]]] = 1.0
            offset += col.width
            continue
        for i in range(length):
            value = record.logs[i][col.name]
            if col.kind == "count":
                if stats.count_constant[col.name]:
                    out[i, offset] = 0.0
                else:
                    span = stats.count_max[col.name] - stats.count_min[col.name]
                    z = (math.log1p(value) - stats.count_min[col.name]) / span
                    out[i, offset] = min(1.0, max(0.0, z))
            else:
                out[i, offset] = value
        offset += 1
    std = np.where(stats.acoustic_constant, 1.0, stats.acoustic_std)
    for i, tid in enumerate(record.track_ids):
        a = (vectors[tid] - stats.acoustic_mean) / std
        out[i, schema.log_width:] = np.where(stats.acoustic_constant, 0.0, a)
    return out.astype(np.float32)


def ref_make_episode(record, vectors, stats, schema, keep_query_logs=False):
    rows = ref_transform(record, vectors, stats, schema)
    length = len(record.track_ids)
    t_s = math.ceil(length / 2)  # support takes the ceil half
    t_q = length - t_s
    width, lw = schema.full_width, schema.log_width
    x_s = np.zeros((t_s, width), dtype=np.float32)
    x_s[:, : lw + schema.feature_dim] = rows[:t_s]
    x_s[:, -2] = record.labels[:t_s]
    x_q = np.zeros((t_q, width), dtype=np.float32)
    if keep_query_logs:
        x_q[:, : lw + schema.feature_dim] = rows[t_s:]
    else:
        x_q[:, lw : lw + schema.feature_dim] = rows[t_s:, lw:]
    x_q[:, -1] = 1.0
    return Episode(record.session_id, x_s, x_q, record.labels[:t_s].copy(),
                   record.labels[t_s:].copy(), keep_query_logs)


def ref_make_batch(episodes):
    """The expected batch of ``episodes``, every stored field and view by name."""
    b = len(episodes)
    s_max = max(e.t_support for e in episodes)
    q_max = max(e.t_query for e in episodes)
    width = episodes[0].x_support.shape[1]
    n = sum(e.t_support + e.t_query for e in episodes)
    rows = n + -n % 16  # real rows, then inert ones up to a multiple of 16
    arrays = {
        "x": (rows, width), "y": (rows,), "query_rows": (rows,),
        "sup_y": (b, s_max),
        "qry_x": (b, q_max, width), "qry_y": (b, q_max),
    }
    out = {name: np.zeros(shape, dtype=np.float32) for name, shape in arrays.items()}
    query_index = []
    t_support = np.zeros(b, dtype=np.int64)
    t_query = np.zeros(b, dtype=np.int64)
    row = 0
    for i, ep in enumerate(episodes):
        ts, tq = ep.t_support, ep.t_query
        out["x"][row : row + ts] = ep.x_support
        out["x"][row + ts : row + ts + tq] = ep.x_query
        out["y"][row : row + ts] = ep.y_support
        out["y"][row + ts : row + ts + tq] = ep.y_query
        out["query_rows"][row + ts : row + ts + tq] = 1.0
        query_index.extend(range(row + ts, row + ts + tq))
        row += ts + tq
        out["sup_y"][i, :ts] = ep.y_support
        out["qry_x"][i, :tq] = ep.x_query
        out["qry_y"][i, :tq] = ep.y_query
        t_support[i], t_query[i] = ts, tq
    return dict(out, query_index=np.array(query_index, dtype=np.int64),
                session_ids=tuple(e.session_id for e in episodes), t_support=t_support,
                t_query=t_query, query_logs_kept=episodes[0].query_logs_kept)


# -- comparisons -----------------------------------------------------------


@pytest.fixture(autouse=True, params=[4096, 7], ids=["one_block", "blocks_of_7"])
def block_rows(request, monkeypatch):
    """Every comparison runs with files read in one block and in blocks of 7 rows."""
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", request.param)
    return request.param


# What a Batch stores, then what it derives from that when read.
BATCH_FIELDS = ("session_ids", "x", "y", "t_support", "t_query", "query_logs_kept")
BATCH_VIEWS = ("query_rows", "query_index", "sup_y", "qry_x", "qry_y")  # qry_x: ``queries(x)``


def assert_batches_identical(got: Batch, want: dict) -> None:
    for name in BATCH_FIELDS + BATCH_VIEWS:
        a = got.queries(got.x) if name == "qry_x" else getattr(got, name)
        b = want[name]
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def assert_stats_identical(got: PreprocessStats, want: PreprocessStats) -> None:
    assert got.to_json() == want.to_json()
    for name in ("acoustic_mean", "acoustic_std", "acoustic_constant"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _corpus(tmp_path, rule, n=90, seed=4):
    generate(SynthConfig(n_sessions=n, rule=rule, noise=0.1, seed=seed, feature_dim=6,
                         n_tracks=150), tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    return schema, tmp_path / "sessions.csv", tmp_path / "features.csv"


@pytest.mark.parametrize("rule", RULES)
def test_columnar_path_matches_per_record_path(tmp_path, rule):
    schema, sessions_csv, features_csv = _corpus(tmp_path, rule)
    sessions, features = load_sessions(sessions_csv, schema), load_features(features_csv, schema)
    records = ref_load_sessions(sessions_csv, schema)
    vectors = ref_load_features(features_csv, schema)

    # the same sessions, in the same order, with the same parsed values
    assert list(sessions.ids) == [r.session_id for r in records]
    assert sessions.lengths.tolist() == [len(r.track_ids) for r in records]
    assert sessions.track_ids.tolist() == [t for r in records for t in r.track_ids]
    np.testing.assert_array_equal(sessions.labels, np.concatenate([r.labels for r in records]))
    for col in schema.feature_columns:
        want = [logs[col.name] for r in records for logs in r.logs]
        if col.kind == "categorical":
            want = [col.vocabulary.index(v) for v in want]
        np.testing.assert_array_equal(sessions.columns[col.name], want, err_msg=col.name)
    assert sorted(features.index) == sorted(vectors)
    with pytest.raises(ValidationError, match="'t_missing' has no acoustic"):
        features.rows(["t00000", "t_missing", "t_other"])
    for tid, vec in vectors.items():
        assert features.matrix[features.index[tid]].tobytes() == vec.tobytes()

    # statistics and rows bit for bit, on the train side of the split as in train()
    train, _ = split_train_val(sessions, 0.8, 7)
    order = rng_stream(7, "train_val_split").permutation(len(records))
    ref_train = [records[i] for i in sorted(order[: int(len(records) * 0.8)])]
    stats = fit_stats(train, features, schema)
    assert_stats_identical(stats, ref_fit_stats(ref_train, vectors, schema))
    rows = transform(sessions, features, stats, schema)
    want = np.concatenate([ref_transform(r, vectors, stats, schema) for r in records])
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()

    # every batch byte for byte: corpus order, a shuffled order, a short last batch
    for kind, keep in (("seq1HL", False), ("teacher", True)):
        episodes = build_episodes(sessions, features, stats, schema, kind)
        assert len(episodes) == len(records) and episodes.query_logs_kept == keep
        ref = [ref_make_episode(r, vectors, stats, schema, keep) for r in records]
        shuffled = rng_stream(3, "order").permutation(len(records))
        for batch_size, chosen in ((32, None), (64, shuffled), (17, shuffled[:40])):
            got = make_batches(episodes, batch_size, chosen)
            picked = np.arange(len(ref)) if chosen is None else chosen
            want = [ref_make_batch([ref[i] for i in picked[j : j + batch_size]])
                    for j in range(0, len(picked), batch_size)]
            assert [len(b) for b in got] == [len(w["session_ids"]) for w in want]
            assert len(got[-1]) < batch_size
            for g, w in zip(got, want):
                assert_batches_identical(g, w)


@given(
    sizes=st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), max_size=7),
    at=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_handmade_episodes_batch_as_before(sizes, at, seed):
    # ragged lengths on both halves, a 1/1 session among them, float64 inputs cast to
    # float32 as before
    sizes.insert(at, (1, 1))
    rng = np.random.default_rng(seed)
    eps = []
    for i, (ts, tq) in enumerate(sizes):
        x = rng.normal(size=(ts + tq, 6))
        y = rng.integers(0, 2, size=ts + tq).astype(np.int8)
        eps.append(Episode(f"e{i}", x[:ts], x[ts:], y[:ts], y[ts:]))
    assert_batches_identical(handmade_batch(eps), ref_make_batch(eps))


# -- malformed input: the same error as the per-record loader ---------------

# (line, column, value) edits of a valid session file; a value of None
# swaps the line's position with the next line's session id.
SESSION_EDITS = [
    [(3, "skipped", "maybe")],
    [(2, "position", "x")],
    [(5, "context_type", "midnight")],
    [(4, "seek_fwd_count", "inf")],
    [(4, "pause_count", "-1")],
    [(6, "pause_count", "nan")],
    [(7, "shuffle", "2")],
    [(8, "seek_fwd_count", "1e999")],
    [(2, "shuffle", " TRUE")],
    [(2, "position", "99")],
    [(12, "session_id", "s_extra")],
    # two bad values: the earlier line wins, whichever column comes first
    [(9, "shuffle", "maybe"), (4, "pause_count", "x")],
    [(4, "shuffle", "maybe"), (9, "pause_count", "x")],
    [(5, "pause_count", "x"), (5, "position", "y")],
    [(5, "skipped", "x"), (5, "context_type", "y")],
    [(6, "seek_fwd_count", "-2"), (6, "pause_count", "inf")],
    [(3, "position", "5"), (11, "skipped", "2")],
    # one column: a bad number before a non-numeric value comes first
    [(4, "pause_count", "inf"), (7, "pause_count", "x")],
    [(4, "seek_fwd_count", "-1"), (5, "seek_fwd_count", "")],
    [(4, "position", "x"), (5, "position", "99999999999999999999")],
]


def _error(load, *args):
    try:
        load(*args)
    except SeqskipError as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("edits", SESSION_EDITS, ids=str)
def test_malformed_sessions_fail_as_before(tmp_path, edits):
    schema, sessions_csv, _ = _corpus(tmp_path, "threshold", n=6)
    lines = sessions_csv.read_text().splitlines()
    header = lines[0].split(",")
    for line, column, value in edits:
        cells = lines[line - 1].split(",")
        cells[header.index(column)] = value
        lines[line - 1] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    want = _error(ref_load_sessions, bad, schema)
    assert want is not None or edits == [(2, "shuffle", " TRUE")]
    assert _error(load_sessions, bad, schema) == want


FEATURE_FILES = [
    "track_id,f0,f1\nt0,1,2\n",
    "track_id,f0,f1,f2\nt0,1,2\n",
    "track_id,f0,f1,f2\nt0,1,2,3\nt0,1,2,3\n",
    "track_id,f0,f1,f2\nt0,1,x,3\n",
    "track_id,f0,f1,f2\nt0,1,2,3\nt1,1,nan,-inf\n",
    "track_id,f0,f1,f2\nt0,1,inf,x\nt1,1,2,3\n",
    "track_id,f0,f1,f2\nt0,1,2,inf\nt1,x,2,3\n",
    "track_id,f0,f1,f2\nt0,1,2,3\nt1,1,2,inf\nt0,1,2,3\n",
    "track_id,f0,f1,f2\nt0,1,2,3\nt0,x,2,3\n",
    "track_id,f0,f1,f2\nt0,1,2,3\nt1,x,2,3\nt2,1\n",
    "track_id,f0,f1,f2\nt0,1,2,3\n\nt1,x,2,3\n",
    "track_id,f0,f1,f2\n",
]


@pytest.mark.parametrize("text", FEATURE_FILES)
def test_malformed_features_fail_as_before(tmp_path, text):
    schema = replace(_corpus(tmp_path, "threshold", n=2)[0], feature_dim=3)
    path = tmp_path / "f.csv"
    path.write_text(text)
    want = _error(ref_load_features, path, schema)
    assert _error(load_features, path, schema) == want


@pytest.mark.parametrize("size", [1, 5, 10, 11])
def test_block_edges(tmp_path, monkeypatch, size):
    # 20 session rows and 8 feature rows: blocks that end exactly at the last
    # row, one row past it, and single-row blocks give the one-block result;
    # a duplicate track id in a later block names its own line.
    generate(SynthConfig(n_sessions=2, length_low=10, length_high=10, n_tracks=8), tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    sessions_csv, features_csv = tmp_path / "sessions.csv", tmp_path / "features.csv"
    features = features_csv.read_text().splitlines()
    features_csv.write_text("\n".join(features) + "\n")
    want_s, want_f = load_sessions(sessions_csv, schema), load_features(features_csv, schema)
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", size)
    got_s, got_f = load_sessions(sessions_csv, schema), load_features(features_csv, schema)
    for name in ("ids", "lengths", "track_ids", "labels"):
        np.testing.assert_array_equal(getattr(got_s, name), getattr(want_s, name))
    assert got_f.index == want_f.index and got_f.matrix.tobytes() == want_f.matrix.tobytes()
    features_csv.write_text("\n".join(features + [features[3]]) + "\n")
    assert _error(load_features, features_csv, schema) == _error(
        ref_load_features, features_csv, schema)


# -- the block split against the reference, on damaged files -----------------


def _outcome(load, path, schema, canonical):
    try:
        return "ok", canonical(load(path, schema))
    except SeqskipError as exc:
        return type(exc).__name__, str(exc)


def _sessions_as_lists(sessions):
    columns = {name: values.tolist() for name, values in sessions.columns.items()}
    return (sessions.ids.tolist(), sessions.lengths.tolist(), sessions.track_ids.tolist(),
            sessions.labels.tolist(), columns)


def _records_as_lists(schema):
    def canonical(records):
        columns = {}
        for col in schema.feature_columns:
            values = [logs[col.name] for r in records for logs in r.logs]
            columns[col.name] = ([col.vocabulary.index(v) for v in values]
                                 if col.kind == "categorical" else values)
        return ([r.session_id for r in records], [len(r.track_ids) for r in records],
                [t for r in records for t in r.track_ids],
                [int(v) for r in records for v in r.labels], columns)
    return canonical


def _features_as_rows(features):
    return [(tid, features.matrix[row].tobytes()) for tid, row in features.index.items()]


def _vectors_as_rows(vectors):
    return [(tid, vec.tobytes()) for tid, vec in vectors.items()]


# Replacement cells: bad numbers, booleans and vocabulary, and good values out of place.
DAMAGED_VALUES = ["x", "inf", "-1", "nan", "", " 1", "1e999", "maybe", "99", "2", " TRUE", "s9"]


@st.composite
def damaged_files(draw, lines):
    """The bytes of a csv file given as lists of cells, after a few drawn edits: blank lines,
    ragged rows, bad values, quoted cells (some with a comma inside), a row moved elsewhere
    (interleaving session ids), a byte that is not UTF-8; CRLF line ends or a missing final
    newline."""
    lines = [list(line) for line in lines]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["blank", "ragged", "value", "quote", "move", "byte"]))
        i = draw(st.integers(1, len(lines) - 1)) if edit == "move" else draw(
            st.integers(0, len(lines) - 1))
        line = lines[i]
        if edit == "blank":
            lines.insert(i, [])
        elif edit == "move":
            lines.insert(draw(st.integers(1, len(lines) - 1)), lines.pop(i))
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if edit == "ragged" and draw(st.booleans()):
                del line[j]
            elif edit == "ragged":
                line.insert(j, line[j])
            elif edit == "value":
                line[j] = draw(st.sampled_from(DAMAGED_VALUES))
            elif edit == "quote":
                line[j] = '"' + line[j] + draw(st.sampled_from(["", ",x"])) + '"'
            else:
                line[j] += "\udce9"  # written as the byte 0xE9
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(line) for line in lines) + draw(st.sampled_from([end, ""]))
    return text.encode("utf-8", "surrogateescape")


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    generate(SynthConfig(n_sessions=3, length_low=10, length_high=10, n_tracks=8,
                         feature_dim=3), root)
    lines = {name: [line.split(",") for line in (root / name).read_text().splitlines()]
             for name in ("sessions.csv", "features.csv")}
    return root, load_schema(root / "schema.json"), lines


@given(data=st.data())
def test_block_split_matches_the_reference_on_damaged_files(tiny_corpus, data):
    # Blocks of 1, 3 and 7 lines end on blank, ragged and quoted lines alike; a quote
    # hands the rest of the file to csv.reader mid-file; CRLF line ends do not.
    root, schema, lines = tiny_corpus
    cases = (
        ("sessions.csv", load_sessions, _sessions_as_lists,
         ref_load_sessions, _records_as_lists(schema)),
        ("features.csv", load_features, _features_as_rows, ref_load_features, _vectors_as_rows),
    )
    for name, load, canonical, ref_load, ref_canonical in cases:
        path = root / f"damaged_{name}"
        path.write_bytes(data.draw(damaged_files(lines[name]), label=name))
        want = _outcome(ref_load, path, schema, ref_canonical)
        for rows in (1, 3, 7):
            with mock.patch.object(dataio, "_BLOCK_ROWS", rows):
                assert _outcome(load, path, schema, canonical) == want, rows


def test_crlf_copy_loads_as_the_original(tmp_path):
    # CRLF line ends are split like LF ones: no csv.reader, the same corpus.
    schema, sessions_csv, features_csv = _corpus(tmp_path, "markov", n=120)
    for path, load, canonical in ((sessions_csv, load_sessions, _sessions_as_lists),
                                  (features_csv, load_features, _features_as_rows)):
        crlf = tmp_path / f"crlf_{path.name}"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r" in crlf.read_bytes() and b"\r" not in path.read_bytes()
        with mock.patch.object(dataio, "_csv_rows", side_effect=AssertionError("csv.reader")):
            assert canonical(load(crlf, schema)) == canonical(load(path, schema))


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv_reader"])
def test_each_distinct_track_id_is_one_object(tmp_path, quoted):
    # 90 sessions over 150 tracks: most ids repeat, across blocks too. One
    # object per id lets each block's other cell strings die with the block.
    schema, sessions_csv, _ = _corpus(tmp_path, "markov")
    if quoted:  # a quoted header sends the whole file through csv.reader
        text = sessions_csv.read_text()
        sessions_csv.write_text(text.replace("session_id", '"session_id"', 1))
    s = load_sessions(sessions_csv, schema)
    assert len(set(s.track_ids)) < len(s.track_ids)
    assert len({id(t) for t in s.track_ids}) == len(set(s.track_ids))


def test_a_bare_carriage_return_is_read_as_csv_reader_reads_it(tmp_path):
    # In a CRLF file, one line that ends in a \r alone: csv.reader ends a row there.
    schema, sessions_csv, features_csv = _corpus(tmp_path, "markov", n=120)
    for path, load, canonical, ref_load, ref_canonical in (
        (sessions_csv, load_sessions, _sessions_as_lists,
         ref_load_sessions, _records_as_lists(schema)),
        (features_csv, load_features, _features_as_rows, ref_load_features, _vectors_as_rows),
    ):
        data = path.read_bytes().replace(b"\n", b"\r\n")
        at = data.index(b"\r\n", len(data) // 2)
        bare = tmp_path / f"bare_{path.name}"
        bare.write_bytes(data[:at] + b"\r" + data[at + 2 :])
        want = _outcome(ref_load, bare, schema, ref_canonical)
        assert _outcome(load, bare, schema, canonical) == want


@given(data=st.data())
def test_a_crlf_copy_loads_and_fails_as_the_lf_file(tiny_corpus, data):
    # Blank, ragged, bad-valued, moved and non-UTF-8 lines alike: the same corpus or
    # the same error at the same line. Without a quote, neither goes to csv.reader.
    root, schema, lines = tiny_corpus
    for name, load, canonical in (("sessions.csv", load_sessions, _sessions_as_lists),
                                  ("features.csv", load_features, _features_as_rows)):
        lf = data.draw(damaged_files(lines[name]), label=name).replace(b"\r\n", b"\n")
        outcomes = []
        for end in (b"\n", b"\r\n"):
            folder = root / ("lf" if end == b"\n" else "crlf")
            folder.mkdir(exist_ok=True)
            (folder / name).write_bytes(lf.replace(b"\n", end))
            no_csv = mock.patch.object(dataio, "_csv_rows", side_effect=AssertionError("csv"))
            with no_csv if b'"' not in lf else contextlib.nullcontext():
                kind, value = _outcome(load, folder / name, schema, canonical)
            outcomes.append((kind, value.replace(str(folder), "") if kind != "ok" else value))
        assert outcomes[0] == outcomes[1]
