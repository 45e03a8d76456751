"""Session/feature file parsing, preprocessing, and episode assembly.

File formats (all header-bearing, comma-separated UTF-8):

* session file — one row per (session, position), as wide as the header;
  it holds the session-id, track-id, position and skip-label columns and
  every schema feature column. Other columns (e.g. dates) are ignored.
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
import gc
import io
import json
import math
import re
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import chain, count, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import SchemaError, ValidationError

MIN_SESSION_LEN = 10
MAX_SESSION_LEN = 20

COLUMN_KINDS = ("categorical", "count", "boolean", "real")

_BOOL_VALUES = {"0": 0, "1": 1, "false": 0, "true": 1}

_BLOCK_ROWS = 4096  # CSV lines parsed at a time
_READ_BYTES = 1 << 20  # file bytes read at a time


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

    # Derived once per instance. cached_property writes the instance
    # __dict__ directly, which a frozen dataclass without slots allows.
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
    def from_json(cls, obj: dict, source: str = "schema") -> "SchemaSpec":
        """Parse a schema object; errors name ``source`` and the offending key."""

        def wrong(key: str, want: str, got) -> SchemaError:
            return SchemaError(f"{source}: key {key!r} must be {want}, got {got!r}")

        if not isinstance(obj, dict):
            raise SchemaError(f"{source} must be a JSON object, got {type(obj).__name__}")
        try:
            columns = obj["columns"]
            if not isinstance(columns, list) or not all(isinstance(c, dict) for c in columns):
                raise wrong("columns", "a list of column objects", columns)
            cols = []
            for c in columns:
                vocabulary = c.get("vocabulary")
                if vocabulary is not None and not isinstance(vocabulary, list):
                    raise wrong("vocabulary", f"a list in column {c['name']!r}", vocabulary)
                cols.append(ColumnSpec(
                    name=c["name"],
                    kind=c["kind"],
                    vocabulary=None if vocabulary is None else tuple(vocabulary),
                ))
            try:
                feature_dim = int(obj["feature_dim"])
            except (TypeError, ValueError):
                raise wrong("feature_dim", "an integer", obj["feature_dim"]) from None
            return cls(
                session_id_col=obj["session_id"],
                track_id_col=obj["track_id"],
                position_col=obj["position"],
                skip_label_col=obj["skip_label"],
                feature_dim=feature_dim,
                columns=tuple(cols),
            )
        except KeyError as exc:
            raise SchemaError(f"{source} missing key {exc}") from exc


def load_schema(path) -> SchemaSpec:
    try:
        obj = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
    return SchemaSpec.from_json(obj, source=f"schema file {path}")


# -- sessions and features ---------------------------------------------


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``starts[b] : starts[b] + counts[b]`` of every b, one run after another."""
    index = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    index += np.arange(len(index))
    return index


@dataclass(frozen=True)
class Sessions:
    """A session corpus as flat per-position columns, sessions in the order the file
    first names them, each one's rows contiguous and positions ascending. ``columns``
    holds the schema feature columns: categorical vocabulary indices, 0/1 booleans,
    float64 counts and reals."""

    ids: np.ndarray  # [N] str (object)
    lengths: np.ndarray  # [N] int64
    track_ids: np.ndarray  # [R] str (object)
    labels: np.ndarray  # [R] int8
    columns: dict[str, np.ndarray]  # name -> [R]
    __iter__ = None  # index it instead: iterating would yield one-session corpora

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    @cached_property
    def t_support(self) -> np.ndarray:
        """Support positions per session: the ceil half."""
        return (self.lengths + 1) // 2

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index) -> Sessions:
        """The sessions of an index array, slice or index, as a corpus."""
        index = np.atleast_1d(np.arange(len(self))[index])
        lengths = self.lengths[index]
        rows = _runs(self.starts[index], lengths)
        columns = {name: values[rows] for name, values in self.columns.items()}
        return Sessions(self.ids[index], lengths, self.track_ids[rows], self.labels[rows], columns)


@dataclass
class FeatureTable:
    """Acoustic vectors: track ``t`` is row ``index[t]`` of ``matrix``."""

    matrix: np.ndarray  # [n_tracks, dim] float64
    index: dict[str, int]

    def rows(self, track_ids) -> np.ndarray:
        """The matrix row of each track id."""
        rows = np.fromiter(map(self.index.get, track_ids, repeat(-1)), np.int64, len(track_ids))
        if rows.size and rows.min() < 0:
            raise ValidationError(f"track {track_ids[rows.argmin()]!r} has no acoustic feature row")
        return rows


class _FirstError:
    """The error of a file's earliest bad row, built once that row is known. Checks run
    in a row-by-row parse's order, each over the rows before the earliest failure so far.
    ``offset`` counts the rows of earlier blocks, ``lines`` holds each row's file line."""

    def __init__(self, path, offset: int, lines: np.ndarray):
        self.path, self.offset, self.lines = path, offset, lines
        self.limit, self.error = len(lines), None

    def check(self, ok: np.ndarray, error) -> None:
        bad = np.flatnonzero(~ok[: self.limit])
        if bad.size:
            self.limit = int(bad[0])
            self.error = error(self.limit, f"{self.path}:{self.lines[self.limit]}")


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit: the cell strings
    and row lists a parse allocates hold no cycles, yet set off costly collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _not_utf8(where: str, byte: int) -> ValidationError:
    return ValidationError(f"{where}: byte 0x{byte:02x} is not UTF-8")


def read_utf8(path) -> str:
    """A file's text; a byte that is not UTF-8 fails with the file and line that hold it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise _not_utf8(f"{path}:{line}", data[exc.start]) from None


def _crlf(data: bytes, ends: np.ndarray) -> np.ndarray:
    """Whether each line, ending at the newline offset in ``ends``, ends in ``\r\n``. Before
    a blank first line ``ends - 1`` is -1: the last byte, which is a newline."""
    return np.frombuffer(data, np.uint8)[ends - 1] == 13


def _plain(data: bytes, ends: np.ndarray) -> bool:
    """Whether splitting at commas and at the newlines ``ends`` reads ``data`` as csv.reader
    does, once each ``\r\n`` line end loses its ``\r``: no quote and no bare carriage
    return."""
    if b'"' in data:
        return False
    return b"\r" not in data or data.count(b"\r") == np.count_nonzero(_crlf(data, ends))


def _line_blocks(fh):
    """The rest of a binary file in blocks of ``_BLOCK_ROWS`` lines, each as its bytes, the
    offset of each line's newline and each line's count of delimiters (its commas and its
    newline). A missing final newline is added; the last block may be empty. One read and
    its scan are held at a time."""
    data = b""
    while True:
        chunk = fh.read(_READ_BYTES)
        data += chunk
        if not chunk and data and not data.endswith(b"\n"):
            data += b"\n"
        arr = np.frombuffer(data, np.uint8)
        marks = np.flatnonzero((arr == 44) | (arr == 10))
        newline = np.flatnonzero(arr[marks] == 10)
        ends, marked = marks[newline], np.diff(newline, prepend=-1)
        start, full = 0, len(ends) // _BLOCK_ROWS * _BLOCK_ROWS
        for k in range(0, full, _BLOCK_ROWS):
            stop = int(ends[k + _BLOCK_ROWS - 1]) + 1
            yield data[start:stop], ends[k : k + _BLOCK_ROWS] - start, marked[k : k + _BLOCK_ROWS]
            start = stop
        if not chunk:
            yield data[start:], ends[full:] - start, marked[full:]
            return
        data = data[start:]


def _split_block(block: bytes, ends: np.ndarray, marked: np.ndarray, line: int, skip_blank: bool):
    """One block of plain lines from file line ``line`` on, as :func:`_rows` yields it: a
    line's cells are its commas plus one, and one split makes the cells. A ``\r\n`` line
    end loses its ``\r`` first, so a line of ``\r\n`` alone is blank."""
    if b"\r" in block:
        crlf = _crlf(block, ends)
        block = np.delete(np.frombuffer(block, np.uint8), ends[crlf] - 1).tobytes()
        ends = ends - np.cumsum(crlf)
    blank = np.diff(ends, prepend=-1) == 1
    kept = np.flatnonzero(~blank) if skip_blank else np.arange(len(ends))
    stop, bad = len(block), None
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:  # split the lines before the one that holds it
            stop = block.rfind(b"\n", 0, exc.start) + 1
            row = int(np.searchsorted(ends[kept], exc.start))
            bad = row, partial(_not_utf8, byte=block[exc.start])
    body = block[:stop]
    if len(kept) < len(ends):  # drop the skipped blank lines: each is one newline byte
        body = np.delete(np.frombuffer(body, np.uint8), ends[blank & (ends < stop)]).tobytes()
    cells = body.decode("utf-8").replace("\n", ",").split(",")
    cells.pop()  # after the last newline
    return line + kept, np.where(blank, 0, marked)[kept], bad, cells


_ESCAPED = re.compile("[\udc80-\udcff]")  # bytes that are not UTF-8, as surrogateescape reads them


def _escaped_byte(row: list[str]) -> int | None:
    """The first byte of a csv row that is not UTF-8, if it holds one."""
    found = _ESCAPED.search("\0".join(row))
    return found and ord(found[0]) - 0xDC00


def _records(reader):
    """csv.reader's rows, ended by the csv.Error of a row it cannot read (a field longer
    than ``csv.field_size_limit()``, say) in that row's place."""
    try:
        yield from reader
    except csv.Error as exc:
        yield exc


def _csv_rows(fh, path, line: int, skip_blank: bool):
    """As :func:`_rows`, from file line ``line + 1`` (a line start) on, with csv.reader
    reading the text: a row's line is the line it ends on. From line 1, the header comes
    first."""
    with io.TextIOWrapper(fh, "utf-8", "surrogateescape", newline="") as text:
        reader = csv.reader(text)
        records = _records(reader)
        if not line:
            header = next(records, None) or []
            if isinstance(header, csv.Error):
                raise ValidationError(f"{path}:{reader.line_num}: {header}")
            if byte := _escaped_byte(header):
                raise _not_utf8(f"{path}:{reader.line_num}", byte)
            yield header
        rows = zip(records, map(attrgetter("line_num"), repeat(reader)))  # row, its end line
        rows = filter(itemgetter(0), rows) if skip_blank else rows
        full = True
        while full:
            block = list(islice(rows, _BLOCK_ROWS))
            full = len(block) == _BLOCK_ROWS
            fault = block.pop() if block and isinstance(block[-1][0], csv.Error) else None
            cells, lines = zip(*block) if block else ((), ())
            flat, bad = list(chain.from_iterable(cells)), None
            if not "".join(flat).isascii():  # an escaped byte is not ASCII
                bad = next(((i, partial(_not_utf8, byte=b)) for i, row in enumerate(cells)
                            if (b := _escaped_byte(row))), None)
            if fault and not bad:  # a row of no cells at the fault's line stands for it
                exc, at = fault
                cells, lines = cells + ([],), lines + (at,)
                bad = len(block), lambda where: ValidationError(f"{where}: {exc}")
            yield (line + np.array(lines, dtype=np.int64),
                   np.fromiter(map(len, cells), np.int64, len(cells)), bad, flat)


def _rows(fh, path, skip_blank: bool):
    """Yield the header's cells, then per block of rows: each row's file line, its cell
    count, the first row that cannot be read (a byte that is not UTF-8, or a row csv.reader
    rejects) and the function that makes its error from its ``file:line`` (or None), and
    at least the cells of the rows before that one, row after row. Plain lines are split by
    :func:`_split_block`; from the first block holding a quote or a carriage return not
    followed by a newline on, csv.reader reads the file."""
    head = fh.readline()
    if not _plain(head, np.flatnonzero(np.frombuffer(head, np.uint8) == 10)):
        fh.seek(0)
        yield from _csv_rows(fh, path, 0, skip_blank)
        return
    try:
        header = head.decode("utf-8").removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError as exc:
        raise _not_utf8(f"{path}:1", head[exc.start]) from None
    yield header.split(",") if header else []
    pos, line = len(head), 2
    for block, ends, marked in _line_blocks(fh):
        if not _plain(block, ends):
            fh.seek(pos)
            yield from _csv_rows(fh, path, line - 1, skip_blank)
            return
        yield _split_block(block, ends, marked, line, skip_blank)
        pos, line = pos + len(block), line + len(ends)


def _blocks(path, skip_blank: bool):
    """Yield the header, then ``(errors, columns)`` per block of rows, freeing each block's
    text before the next. A block's rows stop before a ragged row or one that is not UTF-8;
    once the caller has checked a block, its earliest error is raised. Errors name the
    file's own lines, skipped blank lines included."""
    with open(path, "rb") as fh:
        rows = _rows(fh, path, skip_blank)
        header = next(rows)
        yield header
        offset, width = 0, len(header)
        for lines, widths, bad, cells in rows:
            first = _FirstError(path, offset, lines)
            if bad:
                row, error = bad
                first.check(np.arange(len(lines)) < row, lambda i, where: error(where))
            first.check(widths == width, lambda i, where: ValidationError(f"{where}: ragged row"))
            if first.error:  # the rows before the first bad one: each is ``width`` cells
                cells = cells[: first.limit * width]
            yield first, [cells[j::width] for j in range(width)]
            if first.error:
                raise first.error
            offset += len(lines)


def _parse(raw: Sequence, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A mask of the items (values, or rows of cells) that parse as numbers, and the
    numbers of the items before the first that does not."""
    try:
        return np.array(raw, dtype=dtype), np.ones(len(raw), dtype=bool)
    except (ValueError, OverflowError):  # a lone item fails; of several, try each alone
        ok = np.array([len(raw) > 1 and _parse([v], dtype)[1][0] for v in raw], dtype=bool)
        return np.array(raw[: np.argmin(ok)], dtype=dtype), ok


def _parse_column(raw: Sequence[str], kind: str, vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """One session-file column, converted once, and a mask of its valid values."""
    if kind in ("categorical", "boolean"):
        lookup = _BOOL_VALUES if kind == "boolean" else {v: j for j, v in enumerate(vocabulary)}
        values = np.fromiter(map(lookup.get, raw, repeat(-1)), np.int64, len(raw))
        if kind == "boolean":
            for i in np.flatnonzero(values < 0):  # other spellings, e.g. " True"
                values[i] = _BOOL_VALUES.get(raw[i].strip().lower(), -1)
        return values, values >= 0
    values, ok = _parse(raw, np.int64 if kind == "position" else np.float64)
    if kind != "position":  # a bad number before the first non-numeric value comes first
        ok[: len(values)] &= np.isfinite(values) & ((values >= 0) | (kind != "count"))
    return values, ok


def _value_error(raw: str, column: str, kind: str, where: str) -> Exception:
    """The error for a bad session-file value."""
    at = f"{where}: column {column!r}"
    if kind == "position":
        return ValidationError(f"{where}: position {raw!r} is not an integer")
    if kind == "boolean":
        return ValidationError(f"{at} has non-boolean value {raw!r}")
    if kind == "categorical":
        return SchemaError(f"{at} has value {raw!r} outside the schema vocabulary")
    if not _parse([raw], np.float64)[1][0]:
        return ValidationError(f"{at} has non-numeric value {raw!r}")
    if not math.isfinite(float(raw)):
        return ValidationError(f"{at} has non-finite value {raw!r}")
    return ValidationError(f"{where}: count column {column!r} is negative ({raw})")


@_gc_paused()
def load_sessions(path, schema: SchemaSpec) -> Sessions:
    """Parse a session file into a columnar corpus. Each session's positions must run
    contiguously from 1 and its length lie in [10, 20]. A bad value fails with the
    ``file:line`` and column of the first row that holds one."""
    blocks = _blocks(path, skip_blank=True)  # blank rows: as csv.DictReader
    header = next(blocks)
    checks = [(schema.position_col, "position", None), (schema.skip_label_col, "boolean", None)]
    checks += [(c.name, c.kind, c.vocabulary) for c in schema.feature_columns]
    needed = {schema.session_id_col, schema.track_id_col, *(name for name, _, _ in checks)}
    missing = sorted(needed - set(header))
    if missing:
        raise SchemaError(f"session file {path} lacks schema columns: {missing}")
    parts = []
    # One str per distinct id, so a block's cell strings die with the block.
    canon = {name: {} for name in (schema.session_id_col, schema.track_id_col)}
    for first, columns in blocks:
        raw = dict(zip(header, columns))  # a repeated name keeps its last column
        part = {}
        for name, kind, vocab in checks:
            part[name], ok = _parse_column(raw[name], kind, vocab)
            first.check(ok, lambda i, where: _value_error(raw[name][i], name, kind, where))
        for name, seen_ids in canon.items():
            ids = raw[name]
            part[name] = np.fromiter(map(seen_ids.setdefault, ids, ids), object, len(ids))
        parts.append(part)
    values = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}

    # Sessions numbered by first appearance, one run of equal neighbouring ids at a time:
    # setdefault keeps a seen id's number.
    seen: dict[str, int] = {}
    sids = values[schema.session_id_col]
    runs = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]][: len(sids)])
    numbers = map(seen.setdefault, sids[runs], map(len, repeat(seen)))
    group = np.repeat(np.fromiter(numbers, np.int64, len(runs)), np.diff(runs, append=len(sids)))
    positions, step = values[schema.position_col], np.diff(group)
    in_order = ((step > 0) | ((step == 0) & (np.diff(positions) >= 0))).all()
    order = slice(None) if in_order else np.lexsort((positions, group))
    sessions = Sessions(
        ids=np.array(list(seen), dtype=object),
        lengths=np.bincount(group, minlength=len(seen)),
        track_ids=values[schema.track_id_col][order],
        labels=values[schema.skip_label_col][order].astype(np.int8),
        columns={c.name: values[c.name][order] for c in schema.feature_columns},
    )
    lengths, positions = sessions.lengths, positions[order]
    rank = np.arange(len(group)) - np.repeat(sessions.starts, lengths) + 1
    gaps = np.bincount(group[order], weights=positions != rank, minlength=len(seen))
    wrong_length = (lengths < MIN_SESSION_LEN) | (lengths > MAX_SESSION_LEN)
    for s in np.flatnonzero(wrong_length | (gaps > 0))[:1]:
        sid, start, length = sessions.ids[s], sessions.starts[s], lengths[s]
        if wrong_length[s]:
            raise ValidationError(
                f"session {sid!r} has length {length}, outside "
                f"[{MIN_SESSION_LEN}, {MAX_SESSION_LEN}]"
            )
        got = positions[start : start + length].tolist()
        raise ValidationError(f"session {sid!r} positions are not contiguous from 1: {got}")
    return sessions


@_gc_paused()
def load_features(path, schema: SchemaSpec) -> FeatureTable:
    """Parse a feature file into one ``[n_tracks, feature_dim]`` matrix."""
    blocks = _blocks(path, skip_blank=False)
    header = next(blocks)
    if not header or header[0] != schema.track_id_col:
        raise SchemaError(f"feature file {path} must start with the {schema.track_id_col!r} column")
    if len(header) - 1 != schema.feature_dim:
        raise SchemaError(
            f"feature file {path} has {len(header) - 1} feature columns, "
            f"schema says {schema.feature_dim}"
        )
    index, matrices = {}, []
    for first, (ids, *columns) in blocks:
        firsts = np.fromiter(map(index.setdefault, ids, count(first.offset)), np.int64, len(ids))
        first.check(firsts == first.offset + np.arange(len(ids)), lambda i, where: ValidationError(
            f"{where}: duplicate track id {ids[i]!r}"
        ))
        try:
            matrix = np.array(columns, dtype=np.float64).T
        except (ValueError, OverflowError):  # by rows: a row's cells parse, or fail, together
            matrix, ok = _parse(list(zip(*columns)), np.float64)
            first.check(ok, lambda i, where: ValidationError(f"{where}: non-numeric feature value"))
        matrices.append(matrix.reshape(len(matrix), schema.feature_dim))
        finite = np.isfinite(matrices[-1])
        col = np.argmin(finite, axis=1)  # each row's first non-finite cell, if it has one
        first.check(finite.all(axis=1), lambda i, where: ValidationError(
            f"{where}: column {header[col[i] + 1]!r} has non-finite value {columns[col[i]][i]!r}"
        ))
    return FeatureTable(matrix=np.concatenate(matrices), index=index)


# -- preprocessing -----------------------------------------------------

_STATS_ARRAYS = {"acoustic_mean": np.float64, "acoustic_std": np.float64, "acoustic_constant": bool}


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
        return {k: v.tolist() if k in _STATS_ARRAYS else v for k, v in vars(self).items()}

    @classmethod
    def from_json(cls, obj: dict) -> "PreprocessStats":
        return cls(**{
            k: np.asarray(obj[k], dtype=_STATS_ARRAYS[k]) if k in _STATS_ARRAYS else dict(obj[k])
            for k in (f.name for f in fields(cls))
        })


def _log1p(values: np.ndarray) -> np.ndarray:
    """``math.log1p`` of each value, taken once per distinct value: ``np.log1p``
    may differ in the last bit, and fitted count bounds always used math.log1p."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.log1p(v) for v in distinct.tolist()], dtype=np.float64)[inverse]


def fit_stats(sessions: Sessions, features: FeatureTable, schema: SchemaSpec) -> PreprocessStats:
    """Fit count log-min-max bounds and acoustic mean/std (population).

    Count bounds use log(1+x) over every position of the fitting corpus.
    Acoustic moments are taken over the distinct tracks the corpus references,
    each counted once, in sorted-id order (it fixes the last bit)."""
    if not len(sessions):
        raise ValidationError("cannot fit preprocessing stats on an empty corpus")
    stats = PreprocessStats()
    for col in schema.feature_columns:
        if col.kind == "count":
            logged = _log1p(sessions.columns[col.name])
            lo, hi = float(logged.min()), float(logged.max())
            stats.count_min[col.name], stats.count_max[col.name] = lo, hi
            stats.count_constant[col.name] = hi <= lo

    mat = features.matrix[features.rows(sorted(set(sessions.track_ids.tolist())))]
    stats.acoustic_mean = mat.mean(axis=0)
    stats.acoustic_std = mat.std(axis=0)  # population
    stats.acoustic_constant = stats.acoustic_std <= 0
    return stats


def transform(
    sessions: Sessions, features: FeatureTable, stats: PreprocessStats, schema: SchemaSpec,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Numeric rows of every position: [R, log_width + feature_dim], float32, written
    into ``out`` if given, which must hold zeros.

    Categoricals one-hot; counts (log1p - min)/(max - min) clamped to [0,1];
    booleans 0/1; acoustics (a - mean)/std with constant dimensions mapped to 0."""
    n_rows = len(sessions.labels)
    if out is None:
        out = np.zeros((n_rows, schema.log_width + schema.feature_dim), dtype=np.float32)
    offset = 0
    for col in schema.feature_columns:
        values = sessions.columns[col.name]
        if col.kind == "categorical":
            out[np.arange(n_rows), offset + values] = 1.0
        elif col.kind != "count":  # boolean 0/1, real
            out[:, offset] = values
        elif not stats.count_constant[col.name]:
            lo = stats.count_min[col.name]
            z = (_log1p(values) - lo) / (stats.count_max[col.name] - lo)
            out[:, offset] = np.minimum(1.0, np.maximum(0.0, z))
        offset += col.width

    std = np.where(stats.acoustic_constant, 1.0, stats.acoustic_std)
    scaled = np.where(stats.acoustic_constant, 0.0, (features.matrix - stats.acoustic_mean) / std)
    out[:, schema.log_width :] = scaled.astype(np.float32)[features.rows(sessions.track_ids)]
    return out


# -- episodes ----------------------------------------------------------


def make_episodes(
    sessions: Sessions, features: FeatureTable, stats: PreprocessStats, schema: SchemaSpec,
    keep_query_logs: bool = False,
) -> Batch:
    """Every session's episode. Query rows carry acoustics and the query indicator only,
    or with ``keep_query_logs`` the log fields too; their labels are always withheld."""
    t_support, lengths = sessions.t_support, sessions.lengths
    query = np.arange(len(sessions.labels)) >= np.repeat(sessions.starts + t_support, lengths)
    rows, labels = _stored_rows(len(query), schema.full_width)  # built where they are kept
    x = rows[: len(query)]
    transform(sessions, features, stats, schema, out=x[:, :-2])
    if not keep_query_logs:
        x[query, : schema.log_width] = 0.0
    x[:, -2] = np.where(query, 0, sessions.labels)
    x[:, -1] = query
    labels[: len(query)] = sessions.labels
    return Batch(tuple(sessions.ids), rows, labels, t_support, lengths - t_support, keep_query_logs)


def load_corpus(data_dir):
    """Convenience loader for a directory holding the three data files."""
    data_dir = Path(data_dir)
    schema = load_schema(data_dir / "schema.json")
    sessions = load_sessions(data_dir / "sessions.csv", schema)
    features = load_features(data_dir / "features.csv", schema)
    return schema, sessions, features


# -- batching ----------------------------------------------------------


def prefix_mask(counts: np.ndarray) -> np.ndarray:
    """``[B, max(counts)]`` booleans: True at the first ``counts[b]`` places of row b."""
    return np.arange(counts.max(initial=0)) < counts[:, None]


PACK_ROWS = 16  # a batch's row count is a multiple of this


def _stored_rows(n: int, width: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Zero rows ``[size, width]`` and labels ``[size]`` for ``n`` real rows and the inert
    ones after them, ``size`` the next multiple of :data:`PACK_ROWS`."""
    size = n + -n % PACK_ROWS
    return np.zeros((size, width), dtype), np.zeros(size, dtype)


class HalfRows(NamedTuple):
    """One half of every session, its supports or its queries, as rows stored like a
    :class:`Batch`'s: each session's ``counts[b]`` rows in order, sessions in order, then
    inert zero rows up to a multiple of :data:`PACK_ROWS`."""

    x: np.ndarray  # [n, D]
    y: np.ndarray  # [n]
    counts: np.ndarray  # [B]


class Halves(NamedTuple):
    """A batch's support and query rows with their padded labels, each derived once; read
    by name, like the :class:`Batch` views of the same names."""

    sup: HalfRows
    sup_y: np.ndarray  # [B, S]
    qry: HalfRows
    qry_y: np.ndarray  # [B, Q]


@dataclass
class Batch:
    """Episodes, a whole corpus or a batch of one, stored as their real rows: each
    session's ``t_support`` supports then its ``t_query`` queries, sessions in order, then
    inert zero rows up to a multiple of :data:`PACK_ROWS`. BLAS rounds a GEMM's rows by how
    many share the call, so a layer on the rows gives a real row the same bits in any batch.
    A batch is one gather of its sessions' rows. The halves as rows (``sup`` and ``qry``,
    stored alike), the padded ``[B, ...]`` labels of the halves (``sup_y``, ``qry_y``; any
    row array through :meth:`queries`), the query row indices and the row masks (in ``x``'s
    dtype) are derived each time they are read, so an in-place edit of ``x`` shows in them."""

    session_ids: tuple[str, ...]
    x: np.ndarray  # [N, D] float32
    y: np.ndarray  # [N] float32
    t_support: np.ndarray  # [B] int
    t_query: np.ndarray  # [B] int
    query_logs_kept: bool = False

    @classmethod
    def from_rows(cls, session_ids, t_support, t_query, x, y, query_logs_kept=False) -> Batch:
        """Store rows ``x`` and labels ``y`` with the inert rows appended."""
        n = int((t_support + t_query).sum())
        rows, labels = _stored_rows(n, x.shape[1])
        rows[:n], labels[:n] = x, y
        return cls(tuple(session_ids), rows, labels, t_support, t_query, query_logs_kept)

    @property
    def lengths(self) -> np.ndarray:
        return self.t_support + self.t_query

    def _rows(self, offset, counts: np.ndarray) -> np.ndarray:
        """Rows ``offset[b] : offset[b] + counts[b]`` of each session b, one run after another."""
        return _runs(np.cumsum(self.lengths) - self.lengths + offset, counts)

    def _padded(self, values: np.ndarray, offset, counts: np.ndarray) -> np.ndarray:
        """``[B, max(counts), ...]`` of ``values [N, ...]``: those rows, zero after them."""
        real = prefix_mask(counts)
        out = np.zeros(real.shape + values.shape[1:], dtype=values.dtype)
        out[real] = values[self._rows(offset, counts)]
        return out

    def _half_rows(self, offset, counts: np.ndarray) -> HalfRows:
        rows = self._rows(offset, counts)
        x, y = _stored_rows(len(rows), self.x.shape[1], self.x.dtype)
        np.take(self.x, rows, axis=0, out=x[: len(rows)])
        y[: len(rows)] = self.y[rows]
        return HalfRows(x, y, counts)

    def queries(self, values: np.ndarray) -> np.ndarray:
        """The query half ``[B, Q, ...]`` of ``values [N, ...]``, one per row."""
        return self._padded(values, self.t_support, self.t_query)

    def _row_mask(self, offset, counts: np.ndarray) -> np.ndarray:  # [N]
        out = np.zeros(len(self.x), dtype=self.x.dtype)
        out[self._rows(offset, counts)] = 1
        return out

    real_rows = property(lambda self: self._row_mask(0, self.lengths))  # [N]
    query_rows = property(lambda self: self._row_mask(self.t_support, self.t_query))  # [N]
    query_index = property(lambda self: self._rows(self.t_support, self.t_query))  # [n_q]
    sup_y = property(lambda self: self._padded(self.y, 0, self.t_support))  # [B, S]
    qry_y = property(lambda self: self.queries(self.y))  # [B, Q]
    sup = property(lambda self: self._half_rows(0, self.t_support))  # rows, [n_s, D]
    qry = property(lambda self: self._half_rows(self.t_support, self.t_query))  # [n_q, D]

    def halves(self) -> Halves:
        """The support and query rows and their padded labels at once: a step that reads
        several derives each once. Nothing is cached, so a later edit of the rows shows in
        the next."""
        return Halves(self.sup, self.sup_y, self.qry, self.qry_y)

    def __len__(self) -> int:
        return len(self.session_ids)

    def __getitem__(self, index) -> Batch:
        """The sessions of an index array, slice or index."""
        index = np.atleast_1d(np.arange(len(self))[index])
        t_support, t_query = self.t_support[index], self.t_query[index]
        rows = _runs((np.cumsum(self.lengths) - self.lengths)[index], t_support + t_query)
        return Batch.from_rows(tuple(map(self.session_ids.__getitem__, index.tolist())),
                               t_support, t_query, self.x[rows], self.y[rows],
                               self.query_logs_kept)


class _Batches(Sequence):
    """Batches of ``size`` episodes taken in ``order``, each gathered when it is read."""

    def __init__(self, episodes: Batch, size: int, order: np.ndarray):
        self.episodes, self.size, self.order = episodes, size, order

    def __len__(self) -> int:
        return -(-len(self.order) // self.size)

    def __getitem__(self, i: int) -> Batch:
        start = range(0, len(self.order), self.size)[i]  # negative i counts from the end
        return self.episodes[self.order[start : start + self.size]]

    def __iter__(self):  # by index, so a bad ``order`` raises instead of ending the loop
        return map(self.__getitem__, range(len(self)))


def make_batches(episodes: Batch, batch_size: int, order: np.ndarray | None = None) -> _Batches:
    """Batches of ``batch_size`` episodes in ``order`` (default: as given), gathered when read."""
    if batch_size < 1:
        raise ValidationError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(len(episodes)) if order is None else np.asarray(order)
    return _Batches(episodes, batch_size, order)


def make_batch(episodes: Batch) -> Batch:
    """Every episode of a set, as one batch."""
    if not len(episodes):
        raise ValidationError("cannot batch an empty episode list")
    return make_batches(episodes, len(episodes))[0]
