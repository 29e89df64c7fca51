"""Binary 2-D tensor blocks: the on-disk unit for feature files and checkpoints.

Block layout (16-byte header, little-endian):
    bytes 0..3   magic b"STAL"
    bytes 4..7   format version (uint32, currently 1)
    bytes 8..11  rows (uint32)
    bytes 12..15 cols (uint32)
followed by rows*cols IEEE-754 floats, row-major. Feature files hold exactly
one float32 block; a checkpoint file is a one-line JSON header naming each
block and its dtype, then those blocks (see checkpoints in the encoder module).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"STAL"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sIII")


class FormatError(ValueError):
    """Raised when a tensor block or container violates the declared layout."""


def pack_block(matrix: np.ndarray, dtype: str = "float32") -> bytes:
    """Serialize a 2-D array into one header+payload block."""
    if matrix.ndim != 2:
        raise FormatError(f"tensor blocks are 2-D, got shape {matrix.shape}")
    data = np.ascontiguousarray(matrix, dtype=np.dtype(dtype))
    if not np.isfinite(data).all():
        raise FormatError("tensor block contains non-finite values")
    rows, cols = data.shape
    header = HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols)
    # '<' forces little-endian regardless of host byte order
    return header + data.astype("<" + np.dtype(dtype).str[1:], copy=False).tobytes()


def unpack_block(buf: bytes, offset: int = 0, dtype: str = "float32",
                 source: str = "<bytes>") -> tuple[np.ndarray, int]:
    """Read one block starting at ``offset``; returns (matrix, next offset)."""
    if len(buf) - offset < HEADER.size:
        raise FormatError(f"{source}: truncated header at offset {offset}")
    magic, version, rows, cols = HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{source}: unsupported format version {version}")
    itemsize = np.dtype(dtype).itemsize
    nbytes = rows * cols * itemsize
    start = offset + HEADER.size
    if len(buf) - start < nbytes:
        raise FormatError(
            f"{source}: truncated payload, expected {nbytes} bytes for "
            f"{rows}x{cols}, found {len(buf) - start}")
    flat = np.frombuffer(buf, dtype="<" + np.dtype(dtype).str[1:],
                         count=rows * cols, offset=start)
    matrix = flat.astype(dtype, copy=True).reshape(rows, cols)
    return matrix, start + nbytes


def write_matrix(path: Path | str, matrix: np.ndarray) -> None:
    """Write a single float32 feature file."""
    Path(path).write_bytes(pack_block(matrix, "float32"))


def read_matrix(path: Path | str, expect_shape: tuple[int, int] | None = None) -> np.ndarray:
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    matrix, end = unpack_block(buf, 0, "float32", source=str(path))
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes after payload")
    if expect_shape is not None and matrix.shape != tuple(expect_shape):
        raise FormatError(
            f"{path}: shape mismatch, manifest says {tuple(expect_shape)}, "
            f"file holds {matrix.shape}")
    return matrix
