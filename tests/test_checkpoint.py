"""Binary checkpoint format: round trips and corruption detection."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqskip.checkpoint import load_checkpoint, save_checkpoint
from seqskip.errors import ValidationError


def _params():
    rng = np.random.default_rng(0)
    return {
        "layer.w": rng.normal(size=(3, 4)).astype(np.float32),
        "layer.b": np.zeros(4, dtype=np.float32),
        "scalarish": np.array(2.5, dtype=np.float32),  # 0-d
    }


def test_round_trip_values_and_meta(tmp_path):
    path = tmp_path / "m.ckpt"
    meta = {"kind": "seq1eH", "nested": {"a": [1, 2]}}
    save_checkpoint(path, _params(), meta)
    arrays, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(arrays) == {"layer.w", "layer.b", "scalarish"}
    for name, want in _params().items():
        np.testing.assert_array_equal(arrays[name], want)
        assert arrays[name].dtype == np.float32


def test_casts_values_to_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"p": np.arange(3, dtype=np.float64)})
    arrays, meta = load_checkpoint(path)
    assert meta == {}
    np.testing.assert_array_equal(arrays["p"], [0.0, 1.0, 2.0])
    assert arrays["p"].dtype == np.float32


def test_save_is_byte_deterministic(tmp_path):
    save_checkpoint(tmp_path / "a.ckpt", _params(), {"z": 1, "a": 2})
    save_checkpoint(tmp_path / "b.ckpt", _params(), {"a": 2, "z": 1})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_bit_flip_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _params())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="checksum"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _params())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(ValidationError):
        load_checkpoint(path)
    path.write_bytes(blob[:6])
    with pytest.raises(ValidationError, match="too short"):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _params())
    blob = bytearray(path.read_bytes())

    bad = b"XXXX" + bytes(blob[4:-8])
    path.write_bytes(bad + struct.pack("<Q", _checksum_of(bad)))
    with pytest.raises(ValidationError, match="magic"):
        load_checkpoint(path)

    bad = bytes(blob[:4]) + struct.pack("<I", 99) + bytes(blob[8:-8])
    path.write_bytes(bad + struct.pack("<Q", _checksum_of(bad)))
    with pytest.raises(ValidationError, match="version"):
        load_checkpoint(path)


def _checksum_of(payload: bytes) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def _with_name_bytes(tmp_path, first: bytes, second: bytes):
    """A checkpoint of two one-value parameters whose name bytes are these,
    sealed with a recomputed checksum."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"aa": np.ones(1), "bb": np.zeros(1)})
    payload = path.read_bytes()[:-8]
    assert payload.count(b"aa") == payload.count(b"bb") == 1
    payload = payload.replace(b"aa", first).replace(b"bb", second)
    path.write_bytes(payload + struct.pack("<Q", _checksum_of(payload)))
    return path


def test_name_that_is_not_utf8_detected(tmp_path):
    with pytest.raises(ValidationError, match="not UTF-8"):
        load_checkpoint(_with_name_bytes(tmp_path, b"aa", b"\xff\xfe"))


def test_repeated_name_detected(tmp_path):
    arrays, _ = load_checkpoint(_with_name_bytes(tmp_path, b"aa", b"ab"))
    assert set(arrays) == {"aa", "ab"}  # the crafting itself reads back
    with pytest.raises(ValidationError, match="repeats parameter name 'aa'"):
        load_checkpoint(_with_name_bytes(tmp_path, b"aa", b"aa"))


@given(st.lists(
    st.tuples(st.text(st.characters(min_codepoint=97, max_codepoint=122),
                      min_size=1, max_size=12),
              st.integers(1, 5), st.integers(1, 5)),
    min_size=1, max_size=6, unique_by=lambda t: t[0]))
def test_any_name_shape_combination_round_trips(tmp_path_factory, entries):
    rng = np.random.default_rng(1)
    params = {
        name: rng.normal(size=(a, b)).astype(np.float32)
        for name, a, b in entries
    }
    path = tmp_path_factory.mktemp("ck") / "m.ckpt"
    save_checkpoint(path, params)
    arrays, _ = load_checkpoint(path)
    assert set(arrays) == set(params)
    for name in params:
        np.testing.assert_array_equal(arrays[name], params[name])
