"""Tensor files: the one on-disk format of corpus features and checkpoints.

A tensor file is one JSON header line,
``{"format_version": 2, "tensors": [[name, dtype], ...], "meta": {...}}``,
then one block per header entry, in its order. A block is a 16-byte header
(magic b"STAL", block format version 1, rows, cols; little-endian uint32)
and rows*cols little-endian IEEE-754 floats, row-major, float32 or float64
as the header line names them. write_tensors and read_tensors are the only
code that writes or reads these files.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Mapping, Optional

import numpy as np

MAGIC = b"STAL"
FORMAT_VERSION = 1
FILE_FORMAT_VERSION = 2
HEADER = struct.Struct("<4sIII")


class FormatError(ValueError):
    """Raised when a tensor block or file violates the declared layout."""


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


def read_block(f: BinaryIO, dtype: str = "float32",
               source: str = "<bytes>") -> np.ndarray:
    """Read the block at the stream's position straight into a new array."""
    offset = f.tell()
    head = f.read(HEADER.size)
    if len(head) < HEADER.size:
        raise FormatError(f"{source}: truncated header at offset {offset}")
    magic, version, rows, cols = HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{source}: unsupported format version {version}")
    nbytes = rows * cols * np.dtype(dtype).itemsize
    start = offset + HEADER.size
    # the size is checked before allocating, so a corrupt row count fails
    # here instead of asking for an array larger than the file
    available = f.seek(0, os.SEEK_END) - start
    f.seek(start)
    if available < nbytes:
        raise FormatError(
            f"{source}: truncated payload, expected {nbytes} bytes for "
            f"{rows}x{cols}, found {available}")
    matrix = np.empty((rows, cols), dtype="<" + np.dtype(dtype).str[1:])
    f.readinto(matrix)
    return matrix.astype(dtype, copy=False)


def write_tensors(path: Path | str, arrays: Mapping[str, np.ndarray],
                  meta: Optional[dict] = None) -> None:
    """Write named 2-D arrays and metadata as one file, replacing ``path`` atomically.

    float64 arrays are stored as float64 and all others as float32, in the
    caller's order. The file is written to ``<path>.tmp`` and renamed over
    ``path``, so a kill mid-write leaves the previous file intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tensors = [[name, "float64" if a.dtype == np.float64 else "float32"]
               for name, a in arrays.items()]
    header = {"format_version": FILE_FORMAT_VERSION, "tensors": tensors,
              "meta": meta or {}}
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for name, dtype in tensors:
                f.write(pack_block(arrays[name], dtype))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def read_tensors(path: Path | str) -> tuple[dict[str, np.ndarray], dict]:
    """Read the arrays (in saved order) and metadata written by write_tensors.

    Blocks are read one at a time into their arrays; no copy of the whole
    file is held beside them.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            try:
                header = json.loads(f.readline())
            except ValueError as exc:
                raise FormatError(f"{path}: unreadable header ({exc})") from exc
            if (not isinstance(header, dict)
                    or header.get("format_version") != FILE_FORMAT_VERSION):
                raise FormatError(
                    f"{path}: not a format_version {FILE_FORMAT_VERSION} tensor file")
            arrays = {name: read_block(f, dtype, source=str(path))
                      for name, dtype in header["tensors"]}
            end = f.tell()
            trailing = f.seek(0, os.SEEK_END) - end
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if trailing:
        raise FormatError(f"{path}: {trailing} trailing bytes after the last tensor")
    return arrays, header["meta"]
