"""Deterministic synthetic corpora in the challenge file layout.

Each rule wires the skip labels to a different information pathway so
the corresponding model family has something specific to learn:

* ``threshold``  — one global direction w; label = [w . a > 0]. Learnable
  from acoustics alone.
* ``preference`` — each session skips the tracks ranking above its own
  quantile cut along a fresh private direction; only the support labels
  reveal the direction or the cut, so set-style comparison models
  benefit.
* ``markov``     — labels follow a two-step recurrence plus a weak
  acoustic term; only order-aware models can track it.
* ``log_leak``   — the realized label is half-encoded in a count-type
  log column, readable at query time only by a model that is given
  query logs.

Label noise flips each realized label with probability ``noise``; for
``markov`` the flipped value feeds the recurrence, so noise perturbs the
dynamics rather than just the observations.

A config fixes the bytes of every file.  Session i draws from its own
stream, ``rng_stream(seed, "synth", "session", i)``, in a fixed order:
length, tracks, (preference: direction, then quantile), flips,
(log_leak: eta), then the log columns.  No draw depends on a label, so
one loop over the sessions makes only the draws, into tables padded to
``[n, length_high]``; the labels and the CSV text are then array work
over the whole corpus.  A session's rows depend only on the seed, its
index and the track pool, so with ``n_tracks`` fixed the first m
sessions of a larger corpus are the m-session corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .rng import rng_stream

RULES = ("threshold", "preference", "markov", "log_leak")

# markov recurrence in +-1 state coordinates:
# state_t = sign(C1 * state_{t-1} + C2 * state_{t-2} + C_AC * (w . a_t))
MARKOV_C1 = 1.4
MARKOV_C2 = -1.0
MARKOV_C_AC = 0.5

# log_leak: label = [w . a + LEAK_SCALE * eta > 0]; the extra noise eta
# caps acoustic-only accuracy well below the log-informed ceiling.
LEAK_SCALE = 1.5

# preference: each session skips the tracks whose projection onto its
# private direction w lands above the session's own q-quantile, with
# q ~ U(pref_q_low, pref_q_high).  Both the direction and the cut are
# relative to the session, so only the support labels reveal them, and
# session skip rates spread over 1-q instead of pinning at 1/2.
PREF_Q_LOW = 0.25
PREF_Q_HIGH = 0.75

CONTEXT_VOCAB = ("editorial", "personalized", "user_collection")

SESSION_FILE = "sessions.csv"
FEATURE_FILE = "features.csv"
SCHEMA_FILE = "schema.json"

SESSION_HEADER = (
    "session_id,track_id,position,context_type,seek_fwd_count,"
    "pause_count,shuffle,skipped,date"
)
# log columns drawn per position, in draw order, and the exclusive bound
# of each written value
LOG_COLUMNS = ("context", "pause", "shuffle", "seek")
LOG_HIGHS = (len(CONTEXT_VOCAB), 5, 2, 3)

# rows of sessions.csv and features.csv are formatted and written this many at a time
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SynthConfig:
    n_sessions: int
    rule: str = "threshold"
    noise: float = 0.1
    seed: int = 0
    feature_dim: int = 16
    length_low: int = 10
    length_high: int = 20
    n_tracks: int | None = None
    pref_q_low: float = PREF_Q_LOW
    pref_q_high: float = PREF_Q_HIGH

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigurationError(f"unknown rule {self.rule!r}; pick one of {RULES}")
        if self.n_sessions < 1:
            raise ConfigurationError("n_sessions must be positive")
        if not 0.0 <= self.noise < 0.5:
            raise ConfigurationError(f"noise must lie in [0, 0.5), got {self.noise}")
        if not 10 <= self.length_low <= self.length_high <= 20:
            raise ConfigurationError(
                f"session lengths must satisfy 10 <= low <= high <= 20, "
                f"got [{self.length_low}, {self.length_high}]"
            )
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be positive")
        if self.n_tracks is not None and self.n_tracks < 1:
            raise ConfigurationError(f"n_tracks must be positive, got {self.n_tracks}")
        if not 0.0 < self.pref_q_low <= self.pref_q_high < 1.0:
            raise ConfigurationError(
                f"preference quantile range must satisfy 0 < low <= high < 1, "
                f"got [{self.pref_q_low}, {self.pref_q_high}]"
            )

    @property
    def track_count(self) -> int:
        if self.n_tracks is not None:
            return self.n_tracks
        return max(64, min(self.n_sessions, 50_000))


def schema_dict(config: SynthConfig) -> dict:
    return {
        "session_id": "session_id",
        "track_id": "track_id",
        "position": "position",
        "skip_label": "skipped",
        "feature_dim": config.feature_dim,
        "columns": [
            {"name": "context_type", "kind": "categorical", "vocabulary": list(CONTEXT_VOCAB)},
            {"name": "seek_fwd_count", "kind": "count"},
            {"name": "pause_count", "kind": "count"},
            {"name": "shuffle", "kind": "boolean"},
        ],
    }


@dataclass
class _Draws:
    """Every session's draws, positions past its length left at zero."""

    lengths: np.ndarray  # [n] int64
    tracks: np.ndarray  # [n, H] int64 rows of the feature table
    z: np.ndarray  # [n, H] each track's projection onto the session's direction
    flips: np.ndarray  # [n, H] bool label-noise flips
    logs: np.ndarray  # [n, 4, H] int8, LOG_COLUMNS in order
    quantile: np.ndarray | None  # [n] preference cut
    eta: np.ndarray | None  # [n, H] log_leak's extra noise


def _draw(config: SynthConfig, features: np.ndarray, w_global: np.ndarray) -> _Draws:
    """Each session's draws from its own stream, in the fixed order.

    Length, tracks, (preference: direction, then quantile), flips,
    (log_leak: eta), then the four log columns.  No draw depends on a
    label, so the labels can follow over the whole corpus at once.
    """
    n, high, rule = config.n_sessions, config.length_high, config.rule
    d = _Draws(
        lengths=np.empty(n, dtype=np.int64),
        tracks=np.zeros((n, high), dtype=np.int64),
        z=np.zeros((n, high)),
        flips=np.zeros((n, high), dtype=bool),
        logs=np.zeros((n, len(LOG_COLUMNS), high), dtype=np.int8),
        quantile=np.empty(n) if rule == "preference" else None,
        eta=np.zeros((n, high)) if rule == "log_leak" else None,
    )
    bounds = np.array(LOG_HIGHS)
    if rule == "log_leak":
        bounds[LOG_COLUMNS.index("seek")] = 2  # the label adds the rest
    # one call with every position's bound draws what four sized calls of
    # one bound each would, and leaves the stream in the same state
    log_highs = {
        length: np.repeat(bounds, length)
        for length in range(config.length_low, high + 1)
    }
    for i in range(n):
        rng = rng_stream(config.seed, "synth", "session", i)
        length = int(rng.integers(config.length_low, high + 1))
        tracks = rng.integers(0, features.shape[0], size=length)
        w = w_global
        if rule == "preference":
            w = rng.standard_normal(features.shape[1])
            w /= np.linalg.norm(w)
            d.quantile[i] = rng.uniform(config.pref_q_low, config.pref_q_high)
        d.lengths[i] = length
        d.tracks[i, :length] = tracks
        d.z[i, :length] = features[tracks] @ w
        d.flips[i, :length] = rng.random(length) < config.noise
        if rule == "log_leak":
            d.eta[i, :length] = rng.standard_normal(length)
        d.logs[i, :, :length] = rng.integers(0, log_highs[length]).reshape(-1, length)
    return d


def _row_quantiles(values: np.ndarray, lengths: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values[i, :lengths[i]], q[i])`` for every row i, bit for bit.

    The rows of one length are sorted together.  numpy's default
    (linear) method then reads the order statistics below and above
    ``(L - 1) * q`` and interpolates as its ``_lerp`` does: from the
    upper one when the weight is at least 1/2.  ``q < 1`` keeps the
    index below ``L - 1``, so the upper neighbour always exists.
    """
    out = np.empty(len(lengths))
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        ordered = np.sort(values[rows, :length], axis=1)
        index = (length - 1) * q[rows]
        below = np.floor(index)
        gamma = index - below
        lo = below.astype(np.intp)
        a = ordered[np.arange(len(rows)), lo]
        b = ordered[np.arange(len(rows)), lo + 1]
        diff = b - a
        cut = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=cut, where=gamma >= 0.5)
        out[rows] = cut
    return out


def _markov_labels(z: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """The recurrence stepped over positions, every session at once."""
    labels = np.empty(z.shape, dtype=np.int8)
    s_prev = s_prev2 = np.zeros(len(z))  # absent history contributes nothing
    for t in range(z.shape[1]):
        drive = MARKOV_C1 * s_prev + MARKOV_C2 * s_prev2 + MARKOV_C_AC * z[:, t]
        labels[:, t] = (drive > 0) ^ flips[:, t]  # the realized state drives on
        s_prev2, s_prev = s_prev, 2.0 * labels[:, t] - 1.0
    return labels


def _labels(config: SynthConfig, d: _Draws) -> np.ndarray:
    """Realized labels ``[n, H]`` (int8); positions past a session's end are junk."""
    if config.rule == "markov":
        return _markov_labels(d.z, d.flips)
    if config.rule == "threshold":
        clean = d.z > 0
    elif config.rule == "log_leak":
        clean = d.z + LEAK_SCALE * d.eta > 0
    else:
        clean = d.z > _row_quantiles(d.z, d.lengths, d.quantile)[:, None]
    return (clean ^ d.flips).astype(np.int8)


def _write_sessions(path: Path, d: _Draws, labels: np.ndarray, track_ids: list[str]) -> None:
    """sessions.csv, each row as session id + track id + the rest.

    "The rest" (position, log columns, label, date) takes one of a few
    thousand values, so it is formatted once per value and each row picks
    its own by index.
    """
    n, high = labels.shape
    dims = (high, *LOG_HIGHS, 2)
    tails = np.array(
        [
            f"{pos + 1},{CONTEXT_VOCAB[ctx]},{seek},{pause},{shuffle},{label},"
            f"2019-01-{(pos % 28) + 1:02d}\n"
            for pos, ctx, pause, shuffle, seek, label in np.ndindex(dims)
        ],
        dtype=object,
    )
    real = np.arange(high) < d.lengths[:, None]
    positions = np.broadcast_to(np.arange(high), labels.shape)
    code = np.ravel_multi_index((positions, *d.logs.transpose(1, 0, 2), labels), dims)[real]
    session = np.repeat(np.arange(n), d.lengths)
    track = d.tracks[real]
    session_fields = np.array([f"s{i:06d}," for i in range(n)], dtype=object)
    track_fields = np.array([f"{t}," for t in track_ids], dtype=object)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(SESSION_HEADER + "\n")
        for start in range(0, len(code), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = session_fields[session[block]] + track_fields[track[block]] + tails[code[block]]
            fh.write("".join(rows.tolist()))


def _write_features(path: Path, features: np.ndarray, track_ids: list[str]) -> None:
    row = ",".join(["%s"] + ["%.9g"] * features.shape[1]) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write("track_id," + ",".join(f"f{j}" for j in range(features.shape[1])) + "\n")
        for start in range(0, len(features), _BLOCK_ROWS):
            block = zip(track_ids[start:start + _BLOCK_ROWS],
                        features[start:start + _BLOCK_ROWS].tolist())
            fh.write("".join([row % (tid, *vec) for tid, vec in block]))


def generate(config: SynthConfig, out_dir) -> dict[str, Path]:
    """Write sessions/features/schema files; byte-identical per config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    f_dim = config.feature_dim
    n_tracks = config.track_count

    track_rng = rng_stream(config.seed, "synth", "tracks")
    features = track_rng.standard_normal((n_tracks, f_dim))
    track_ids = [f"t{i:05d}" for i in range(n_tracks)]

    w_global = rng_stream(config.seed, "synth", "rule_w").standard_normal(f_dim)
    w_global /= np.linalg.norm(w_global)

    draws = _draw(config, features, w_global)
    labels = _labels(config, draws)
    if config.rule == "log_leak":
        draws.logs[:, LOG_COLUMNS.index("seek")] += labels

    paths = {
        "sessions": out / SESSION_FILE,
        "features": out / FEATURE_FILE,
        "schema": out / SCHEMA_FILE,
    }
    _write_sessions(paths["sessions"], draws, labels, track_ids)
    _write_features(paths["features"], features, track_ids)
    paths["schema"].write_text(
        json.dumps(schema_dict(config), indent=2) + "\n", encoding="utf-8"
    )
    return paths
