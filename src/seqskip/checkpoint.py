"""Versioned binary checkpoint files.

Layout (all integers little-endian):

    magic "SSKP" | uint32 version | uint32 meta_len | meta JSON (UTF-8)
    uint32 param_count
    per parameter:
        uint16 name_len | name UTF-8 | uint8 ndim | ndim * uint32 dims
        raw float32 values, row-major
    uint64 checksum

The checksum is the first 8 bytes of SHA-256 over everything before it,
so any bit flip in the payload is detected at load time.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError

MAGIC = b"SSKP"
VERSION = 1

_CHECKSUM_BYTES = 8


def _checksum(payload: bytes) -> int:
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:_CHECKSUM_BYTES], "little")


def save_checkpoint(path, params: dict, meta: dict | None = None) -> None:
    """Write named arrays (and an optional JSON-able meta dict) to ``path``."""
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<I", len(params)))
    for name, value in params.items():
        arr = np.ascontiguousarray(value, dtype="<f4")
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    payload = b"".join(chunks)
    blob = payload + struct.pack("<Q", _checksum(payload))
    Path(path).write_bytes(blob)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValidationError("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals[0] if len(vals) == 1 else vals


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> float32 array, meta dict).

    Raises ValidationError on bad magic, unknown version, truncation,
    checksum mismatch, or a parameter name that is not UTF-8 or repeats.
    """
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4 + _CHECKSUM_BYTES:
        raise ValidationError("checkpoint file too short")
    payload, tail = blob[:-_CHECKSUM_BYTES], blob[-_CHECKSUM_BYTES:]
    if struct.unpack("<Q", tail)[0] != _checksum(payload):
        raise ValidationError("checkpoint checksum mismatch (file corrupted?)")
    r = _Reader(payload)
    if r.take(len(MAGIC)) != MAGIC:
        raise ValidationError("not a checkpoint file (bad magic)")
    version = r.unpack("<I")
    if version != VERSION:
        raise ValidationError(f"unsupported checkpoint version {version}")
    meta_len = r.unpack("<I")
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"checkpoint meta block unreadable: {exc}") from exc
    params: dict[str, np.ndarray] = {}
    count = r.unpack("<I")
    for _ in range(count):
        name_len = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"checkpoint parameter name is not UTF-8: {exc}") from exc
        if name in params:
            raise ValidationError(f"checkpoint repeats parameter name {name!r}")
        ndim = r.unpack("<B")
        dims = tuple(struct.unpack(f"<{ndim}I", r.take(4 * ndim)))
        n_values = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        raw = r.take(4 * n_values)
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if r.pos != len(payload):
        raise ValidationError("checkpoint has trailing bytes after last parameter")
    return params, meta
