"""Tensor files: block header layout, round-trips, corruption handling."""

import io
import json
import struct

import numpy as np
import pytest

from stepalign.tensorio import (FORMAT_VERSION, MAGIC, FormatError, pack_block,
                                read_block, read_tensors, write_tensors)


def _read(buf: bytes, dtype: str = "float32"):
    f = io.BytesIO(buf)
    return read_block(f, dtype), f.tell()


def test_header_layout_and_payload_size():
    m = np.arange(6, dtype=np.float32).reshape(2, 3)
    buf = pack_block(m)
    # 16-byte header then 6 values x 4 bytes = 24 payload bytes
    assert len(buf) == 16 + 24
    magic, version, rows, cols = struct.unpack_from("<4sIII", buf, 0)
    assert magic == MAGIC == b"STAL"
    assert version == FORMAT_VERSION == 1
    assert (rows, cols) == (2, 3)
    assert buf[16:] == struct.pack("<6f", *range(6))  # little-endian row-major


def test_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(17, 5)).astype(np.float32)
    out, end = _read(pack_block(m))
    assert end == 16 + m.size * 4
    assert out.tobytes() == m.tobytes()


def test_float64_blocks_round_trip():
    m = np.array([[1.0, np.pi], [1e-300, -3.5]], dtype=np.float64)
    out, _ = _read(pack_block(m, dtype="float64"), dtype="float64")
    assert out.dtype == np.float64
    assert out.tobytes() == m.tobytes()


def test_zero_row_matrix_allowed():
    m = np.zeros((0, 4), dtype=np.float32)
    out, _ = _read(pack_block(m))
    assert out.shape == (0, 4)


def test_rejects_bad_inputs():
    with pytest.raises(FormatError):
        pack_block(np.zeros(3, dtype=np.float32))  # 1-D
    with pytest.raises(FormatError):
        pack_block(np.array([[np.nan]], dtype=np.float32))
    with pytest.raises(FormatError):
        pack_block(np.array([[np.inf]], dtype=np.float32))


def test_rejects_corrupt_blocks():
    buf = pack_block(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(FormatError, match="magic"):
        _read(b"XXXX" + buf[4:])
    bad_version = buf[:4] + struct.pack("<I", 9) + buf[8:]
    with pytest.raises(FormatError, match="version"):
        _read(bad_version)
    with pytest.raises(FormatError, match="truncated"):
        _read(buf[:-3])
    with pytest.raises(FormatError, match="truncated header"):
        _read(buf[:10])
    # a corrupt row count is caught before any array is allocated
    huge = buf[:8] + struct.pack("<II", 2 ** 32 - 1, 2 ** 32 - 1) + buf[16:]
    with pytest.raises(FormatError, match="truncated payload"):
        _read(huge)


def test_tensor_file_round_trip_mixed_dtypes(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {"b32": rng.normal(size=(3, 4)).astype(np.float32),
              "a64": rng.normal(size=(2, 5)),
              "empty": np.zeros((0, 7), dtype=np.float32)}
    path = tmp_path / "t.bin"
    write_tensors(path, arrays, meta={"epoch": 3, "note": "x"})
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header == {"format_version": 2,
                      "tensors": [["b32", "float32"], ["a64", "float64"],
                                  ["empty", "float32"]],
                      "meta": {"epoch": 3, "note": "x"}}
    back, meta = read_tensors(path)
    assert meta == {"epoch": 3, "note": "x"}
    assert list(back) == list(arrays)  # the caller's order
    for name, a in arrays.items():
        assert back[name].dtype == a.dtype
        assert back[name].shape == a.shape
        assert back[name].tobytes() == a.tobytes()
        assert back[name].flags.writeable


def test_file_round_trip_and_shape_check(tmp_path):
    m = np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "feat.bin"
    write_tensors(path, {"m": m, "t": m.T.copy()})
    back, meta = read_tensors(path)
    assert meta == {}
    assert back["m"].tobytes() == m.tobytes()
    # the same 12 floats, told apart only by the shape in their block header;
    # a block whose shape disagrees with what its reader expects is refused
    # by that reader (see test_corpus for the corpus manifest)
    assert back["m"].shape == (3, 4) and back["t"].shape == (4, 3)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "feat.bin"
    write_tensors(path, {"m": np.ones((1, 2), dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_tensors(path)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(FormatError, match="nope.bin"):
        read_tensors(tmp_path / "nope.bin")


def test_rejects_other_file_versions_and_bad_headers(tmp_path):
    path = tmp_path / "t.bin"
    write_tensors(path, {"m": np.ones((1, 2), dtype=np.float32)})
    whole = path.read_bytes()
    path.write_bytes(pack_block(np.ones((1, 2), dtype=np.float32)))  # a bare block
    with pytest.raises(FormatError, match="header"):
        read_tensors(path)
    path.write_bytes(whole.replace(b'"format_version": 2', b'"format_version": 1'))
    with pytest.raises(FormatError, match="format_version 2"):
        read_tensors(path)


def test_failed_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "t.bin"
    write_tensors(path, {"m": np.ones((1, 2), dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(FormatError, match="non-finite"):
        write_tensors(path, {"ok": np.zeros((2, 2), dtype=np.float32),
                             "bad": np.array([[np.nan]], dtype=np.float32)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]
