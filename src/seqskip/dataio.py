"""Session/feature file parsing, preprocessing, and episode assembly.

File formats (all header-bearing, comma-separated UTF-8):

* session file — one row per (session, position); must contain the
  session-id, track-id, position, and skip-label columns plus every
  schema feature column. Unlisted columns (e.g. dates) are ignored.
* feature file — one row per track: track id column followed by exactly
  ``feature_dim`` numeric columns.
* schema file — JSON with keys ``session_id``, ``track_id``,
  ``position``, ``skip_label`` (column names), ``feature_dim`` (int),
  and ``columns``: a list of ``{"name": ..., "kind": ...}`` descriptors,
  kind one of ``categorical`` (with ``"vocabulary"``), ``count``,
  ``boolean``, ``real``.

Feature rows are laid out as: schema feature columns in schema order
(categoricals one-hot), then acoustic dimensions, then the skip-label
channel, then the query-indicator channel.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError

MIN_SESSION_LEN = 10
MAX_SESSION_LEN = 20

COLUMN_KINDS = ("categorical", "count", "boolean", "real")

_BOOL_VALUES = {"0": 0, "1": 1, "false": 0, "true": 1}


# -- schema ------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    vocabulary: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.vocabulary:
                raise SchemaError(f"categorical column {self.name!r} needs a vocabulary")
            if len(set(self.vocabulary)) != len(self.vocabulary):
                raise SchemaError(f"column {self.name!r}: duplicate vocabulary entries")
        elif self.vocabulary is not None:
            raise SchemaError(f"column {self.name!r}: only categorical columns take a vocabulary")

    @property
    def width(self) -> int:
        return len(self.vocabulary) if self.kind == "categorical" else 1


@dataclass(frozen=True)
class SchemaSpec:
    session_id_col: str
    track_id_col: str
    position_col: str
    skip_label_col: str
    feature_dim: int
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        if self.feature_dim < 1:
            raise SchemaError(f"feature_dim must be positive, got {self.feature_dim}")
        for col in self.columns:
            if col.name == self.skip_label_col and col.kind != "boolean":
                raise SchemaError(
                    f"skip-label column {col.name!r} must have boolean kind, got {col.kind!r}"
                )

    # Derived once per instance: ``transform`` reads these for every row.
    # cached_property writes the instance __dict__ directly, which a
    # frozen dataclass without slots allows.
    @cached_property
    def feature_columns(self) -> tuple[ColumnSpec, ...]:
        """Schema columns that contribute to the log block (label excluded)."""
        return tuple(c for c in self.columns if c.name != self.skip_label_col)

    @cached_property
    def log_width(self) -> int:
        return sum(c.width for c in self.feature_columns)

    @cached_property
    def full_width(self) -> int:
        """Episode row width: log block + acoustics + label + query indicator."""
        return self.log_width + self.feature_dim + 2

    def to_json(self) -> dict:
        cols = []
        for c in self.columns:
            entry = {"name": c.name, "kind": c.kind}
            if c.vocabulary is not None:
                entry["vocabulary"] = list(c.vocabulary)
            cols.append(entry)
        return {
            "session_id": self.session_id_col,
            "track_id": self.track_id_col,
            "position": self.position_col,
            "skip_label": self.skip_label_col,
            "feature_dim": self.feature_dim,
            "columns": cols,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SchemaSpec":
        try:
            cols = tuple(
                ColumnSpec(
                    name=c["name"],
                    kind=c["kind"],
                    vocabulary=tuple(c["vocabulary"]) if "vocabulary" in c else None,
                )
                for c in obj["columns"]
            )
            return cls(
                session_id_col=obj["session_id"],
                track_id_col=obj["track_id"],
                position_col=obj["position"],
                skip_label_col=obj["skip_label"],
                feature_dim=int(obj["feature_dim"]),
                columns=cols,
            )
        except KeyError as exc:
            raise SchemaError(f"schema file missing key {exc}") from exc


def load_schema(path) -> SchemaSpec:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
    return SchemaSpec.from_json(obj)


# -- records -----------------------------------------------------------


@dataclass
class SessionRecord:
    session_id: str
    track_ids: tuple[str, ...]
    labels: np.ndarray  # int8 [L]
    # schema feature columns only, parsed at load: categorical str,
    # boolean 0/1, count and real float
    logs: tuple[dict[str, str | int | float], ...]

    @property
    def length(self) -> int:
        return len(self.track_ids)


@dataclass
class FeatureTable:
    vectors: dict[str, np.ndarray]
    dim: int

    def get(self, track_id: str) -> np.ndarray:
        try:
            return self.vectors[track_id]
        except KeyError:
            raise ValidationError(f"track {track_id!r} has no acoustic feature row") from None


def _parse_bool(raw: str, column: str, where: str) -> int:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValidationError(f"{where}: column {column!r} has non-boolean value {raw!r}") from None


def _parse_number(raw: str, column: str, where: str, nonnegative: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{where}: column {column!r} has non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: column {column!r} has non-finite value {raw!r}")
    if nonnegative and value < 0:
        raise ValidationError(f"{where}: count column {column!r} is negative ({raw})")
    return value


def load_sessions(path, schema: SchemaSpec) -> list[SessionRecord]:
    """Parse a session file into records grouped in file order.

    Positions are sorted ascending per session and must be contiguous
    from 1; lengths outside [10, 20] are rejected.
    """
    needed = {schema.session_id_col, schema.track_id_col, schema.position_col, schema.skip_label_col}
    needed.update(c.name for c in schema.feature_columns)
    by_session: dict[str, list] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = set(reader.fieldnames or ())
        missing = sorted(needed - header)
        if missing:
            raise SchemaError(f"session file {path} lacks schema columns: {missing}")
        vocab_index = {
            c.name: set(c.vocabulary) for c in schema.feature_columns if c.kind == "categorical"
        }
        for line_no, row in enumerate(reader, start=2):
            sid = row[schema.session_id_col]
            where = f"{path}:{line_no}"
            try:
                pos = int(row[schema.position_col])
            except ValueError:
                raise ValidationError(
                    f"{where}: position {row[schema.position_col]!r} is not an integer"
                ) from None
            label = _parse_bool(row[schema.skip_label_col], schema.skip_label_col, where)
            logs = {}
            for col in schema.feature_columns:
                raw = row[col.name]
                if col.kind == "categorical":
                    if raw not in vocab_index[col.name]:
                        raise SchemaError(
                            f"{where}: column {col.name!r} has value {raw!r} "
                            f"outside the schema vocabulary"
                        )
                    logs[col.name] = raw
                elif col.kind == "boolean":
                    logs[col.name] = _parse_bool(raw, col.name, where)
                else:
                    logs[col.name] = _parse_number(raw, col.name, where, col.kind == "count")
            by_session.setdefault(sid, []).append((pos, row[schema.track_id_col], label, logs))

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
                f"session {sid!r} positions are not contiguous from 1: {positions}"
            )
        records.append(
            SessionRecord(
                session_id=sid,
                track_ids=tuple(r[1] for r in rows),
                labels=np.array([r[2] for r in rows], dtype=np.int8),
                logs=tuple(r[3] for r in rows),
            )
        )
    return records


def load_features(path, schema: SchemaSpec) -> FeatureTable:
    vectors: dict[str, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != schema.track_id_col:
            raise SchemaError(
                f"feature file {path} must start with the {schema.track_id_col!r} column"
            )
        if len(header) - 1 != schema.feature_dim:
            raise SchemaError(
                f"feature file {path} has {len(header) - 1} feature columns, "
                f"schema says {schema.feature_dim}"
            )
        for line_no, row in enumerate(reader, start=2):
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
                    f"{path}:{line_no}: column {header[j]!r} has non-finite value {row[j]!r}"
                )
            vectors[tid] = vec
    return FeatureTable(vectors=vectors, dim=schema.feature_dim)


# -- preprocessing -----------------------------------------------------


@dataclass
class PreprocessStats:
    """Normalization constants fitted on the training corpus only."""

    count_min: dict[str, float] = field(default_factory=dict)
    count_max: dict[str, float] = field(default_factory=dict)
    count_constant: dict[str, bool] = field(default_factory=dict)
    acoustic_mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    acoustic_std: np.ndarray = field(default_factory=lambda: np.zeros(0))
    acoustic_constant: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def to_json(self) -> dict:
        return {
            "count_min": self.count_min,
            "count_max": self.count_max,
            "count_constant": self.count_constant,
            "acoustic_mean": self.acoustic_mean.tolist(),
            "acoustic_std": self.acoustic_std.tolist(),
            "acoustic_constant": [bool(b) for b in self.acoustic_constant],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PreprocessStats":
        return cls(
            count_min=dict(obj["count_min"]),
            count_max=dict(obj["count_max"]),
            count_constant=dict(obj["count_constant"]),
            acoustic_mean=np.asarray(obj["acoustic_mean"], dtype=np.float64),
            acoustic_std=np.asarray(obj["acoustic_std"], dtype=np.float64),
            acoustic_constant=np.asarray(obj["acoustic_constant"], dtype=bool),
        )


def fit_stats(
    sessions: list[SessionRecord], features: FeatureTable, schema: SchemaSpec
) -> PreprocessStats:
    """Fit count log-min-max bounds and acoustic mean/std (population).

    Count bounds use log(1+x) over every position of the fitting corpus.
    Acoustic moments are taken over the distinct tracks the corpus
    references, each counted once.
    """
    if not sessions:
        raise ValidationError("cannot fit preprocessing stats on an empty corpus")
    stats = PreprocessStats()
    for col in schema.feature_columns:
        if col.kind != "count":
            continue
        logged = [math.log1p(logs[col.name]) for rec in sessions for logs in rec.logs]
        lo, hi = min(logged), max(logged)
        stats.count_min[col.name] = lo
        stats.count_max[col.name] = hi
        stats.count_constant[col.name] = hi <= lo

    tracks = sorted({tid for rec in sessions for tid in rec.track_ids})
    mat = np.stack([features.get(t) for t in tracks])
    stats.acoustic_mean = mat.mean(axis=0)
    stats.acoustic_std = mat.std(axis=0)  # population
    stats.acoustic_constant = stats.acoustic_std <= 0
    return stats


def transform(
    record: SessionRecord,
    features: FeatureTable,
    stats: PreprocessStats,
    schema: SchemaSpec,
) -> np.ndarray:
    """Numeric per-position rows: [L, log_width + feature_dim], float32.

    Categoricals one-hot; counts (log1p - min)/(max - min) clamped to
    [0,1]; booleans 0/1; acoustics (a - mean)/std with constant
    dimensions mapped to 0.
    """
    length = record.length
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
            else:  # boolean 0/1, real
                out[i, offset] = value
        offset += 1

    std = np.where(stats.acoustic_constant, 1.0, stats.acoustic_std)
    for i, tid in enumerate(record.track_ids):
        a = (features.get(tid) - stats.acoustic_mean) / std
        out[i, schema.log_width :] = np.where(stats.acoustic_constant, 0.0, a)
    return out.astype(np.float32)


# -- episodes ----------------------------------------------------------


def split_session(length: int) -> tuple[range, range]:
    """1-based (support, query) positions; support takes the ceil half."""
    if not MIN_SESSION_LEN <= length <= MAX_SESSION_LEN:
        raise ValidationError(
            f"session length {length} outside [{MIN_SESSION_LEN}, {MAX_SESSION_LEN}]"
        )
    t_s = math.ceil(length / 2)
    return range(1, t_s + 1), range(t_s + 1, length + 1)


@dataclass
class Episode:
    """One model-ready session, already split into support and query."""

    session_id: str
    x_support: np.ndarray  # [T_s, full_width] float32
    x_query: np.ndarray  # [T_q, full_width] float32
    y_support: np.ndarray  # int8 [T_s]
    y_query: np.ndarray | None  # int8 [T_q]
    query_logs_kept: bool = False

    @property
    def t_support(self) -> int:
        return self.x_support.shape[0]

    @property
    def t_query(self) -> int:
        return self.x_query.shape[0]


def make_episode(
    record: SessionRecord,
    features: FeatureTable,
    stats: PreprocessStats,
    schema: SchemaSpec,
    keep_query_logs: bool = False,
) -> Episode:
    """Assemble an episode; query rows carry acoustics only (plus the
    query-indicator channel) unless ``keep_query_logs`` is set, in which
    case log fields stay but labels are still withheld."""
    rows = transform(record, features, stats, schema)
    support_pos, query_pos = split_session(record.length)
    t_s = len(support_pos)
    width = schema.full_width
    lw = schema.log_width

    x_s = np.zeros((t_s, width), dtype=np.float32)
    x_s[:, : lw + schema.feature_dim] = rows[:t_s]
    x_s[:, -2] = record.labels[:t_s]

    t_q = len(query_pos)
    x_q = np.zeros((t_q, width), dtype=np.float32)
    if keep_query_logs:
        x_q[:, : lw + schema.feature_dim] = rows[t_s:]
    else:
        x_q[:, lw : lw + schema.feature_dim] = rows[t_s:, lw:]
    x_q[:, -1] = 1.0

    return Episode(
        session_id=record.session_id,
        x_support=x_s,
        x_query=x_q,
        y_support=record.labels[:t_s].copy(),
        y_query=record.labels[t_s:].copy(),
        query_logs_kept=keep_query_logs,
    )


def load_corpus(data_dir, keep_query_logs: bool = False):
    """Convenience loader for a directory holding the three data files."""
    data_dir = Path(data_dir)
    schema = load_schema(data_dir / "schema.json")
    sessions = load_sessions(data_dir / "sessions.csv", schema)
    features = load_features(data_dir / "features.csv", schema)
    return schema, sessions, features


# -- batching ----------------------------------------------------------


@dataclass
class Batch:
    """Padded arrays for a list of episodes.

    Two synchronized views exist: split support/query blocks (metric
    family) and a merged per-session timeline with supports first and
    queries immediately after (sequence family). ``t_support[b]`` gives
    the merged-timeline offset of session b's first query position.
    """

    session_ids: tuple[str, ...]
    sup_x: np.ndarray  # [B, S, D]
    sup_mask: np.ndarray  # [B, S] float32 1=valid
    sup_y: np.ndarray  # [B, S] float32
    qry_x: np.ndarray  # [B, Q, D]
    qry_mask: np.ndarray  # [B, Q]
    qry_y: np.ndarray | None  # [B, Q] float32
    seq_x: np.ndarray  # [B, T, D]
    seq_mask: np.ndarray  # [B, T]
    seq_qmask: np.ndarray  # [B, T] 1 = query position
    seq_y: np.ndarray | None  # [B, T]
    t_support: np.ndarray  # [B] int
    query_logs_kept: bool = False

    @property
    def size(self) -> int:
        return len(self.session_ids)


def make_batch(episodes: list[Episode]) -> Batch:
    if not episodes:
        raise ValidationError("cannot batch an empty episode list")
    b = len(episodes)
    s_max = max(e.t_support for e in episodes)
    q_max = max(e.t_query for e in episodes)
    t_max = max(e.t_support + e.t_query for e in episodes)
    width = episodes[0].x_support.shape[1]
    have_qy = all(e.y_query is not None for e in episodes)
    kept = {e.query_logs_kept for e in episodes}
    if len(kept) > 1:
        raise ValidationError("cannot mix teacher-style and standard episodes in one batch")

    sup_x = np.zeros((b, s_max, width), dtype=np.float32)
    sup_mask = np.zeros((b, s_max), dtype=np.float32)
    sup_y = np.zeros((b, s_max), dtype=np.float32)
    qry_x = np.zeros((b, q_max, width), dtype=np.float32)
    qry_mask = np.zeros((b, q_max), dtype=np.float32)
    qry_y = np.zeros((b, q_max), dtype=np.float32) if have_qy else None
    seq_x = np.zeros((b, t_max, width), dtype=np.float32)
    seq_mask = np.zeros((b, t_max), dtype=np.float32)
    seq_qmask = np.zeros((b, t_max), dtype=np.float32)
    seq_y = np.zeros((b, t_max), dtype=np.float32) if have_qy else None
    t_support = np.zeros(b, dtype=np.int64)

    for i, ep in enumerate(episodes):
        if ep.x_support.shape[1] != width:
            raise ValidationError("episodes in one batch must share the feature width")
        ts, tq = ep.t_support, ep.t_query
        sup_x[i, :ts] = ep.x_support
        sup_mask[i, :ts] = 1.0
        sup_y[i, :ts] = ep.y_support
        qry_x[i, :tq] = ep.x_query
        qry_mask[i, :tq] = 1.0
        if qry_y is not None:
            qry_y[i, :tq] = ep.y_query
        seq_x[i, :ts] = ep.x_support
        seq_x[i, ts : ts + tq] = ep.x_query
        seq_mask[i, : ts + tq] = 1.0
        seq_qmask[i, ts : ts + tq] = 1.0
        if seq_y is not None:
            seq_y[i, :ts] = ep.y_support
            seq_y[i, ts : ts + tq] = ep.y_query
        t_support[i] = ts

    return Batch(
        session_ids=tuple(e.session_id for e in episodes),
        sup_x=sup_x,
        sup_mask=sup_mask,
        sup_y=sup_y,
        qry_x=qry_x,
        qry_mask=qry_mask,
        qry_y=qry_y,
        seq_x=seq_x,
        seq_mask=seq_mask,
        seq_qmask=seq_qmask,
        seq_y=seq_y,
        t_support=t_support,
        query_logs_kept=kept.pop(),
    )


def make_batches(episodes: list[Episode], batch_size: int) -> list[Batch]:
    if batch_size < 1:
        raise ValidationError(f"batch_size must be positive, got {batch_size}")
    return [make_batch(episodes[i : i + batch_size]) for i in range(0, len(episodes), batch_size)]
