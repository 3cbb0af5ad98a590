"""Matrix file input/output.

Two on-disk formats are supported:

* a raw little-endian binary format: 4-byte magic ``CDPM``, uint32 row
  count, uint32 column count, then the float64 payload in column-major
  order;
* delimited text (CSV or TSV) with rows as variables and columns as
  samples, an optional header row, and an optional leading row-name
  column.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InputError

MAGIC = b"CDPM"
_HEADER = struct.Struct("<4sII")
# columns formed and written at a time: at 4000 rows, forming and
# transposing 16-column blocks took a third of the time that 64-column
# blocks took, which overflow the cache in the transposed copy
_BLOCK_COLUMNS = 16


@dataclass(frozen=True)
class ColumnBlocks:
    """A rows x cols matrix that is formed a block of columns at a time.

    ``block(cols)`` returns the columns ``cols`` (a slice) of the matrix.
    """

    shape: tuple[int, int]
    block: Callable[[slice], np.ndarray]


def write_matrix_binary(path, a) -> None:
    """Write ``a``, a 2-d array or ``ColumnBlocks``, in the binary matrix format.

    The column-major payload is written a block of columns at a time, so
    neither a transposed copy nor, for ``ColumnBlocks``, the whole matrix
    is ever formed.
    """
    if not isinstance(a, ColumnBlocks):
        dense = np.asarray(a, dtype="<f8")
        if dense.ndim != 2:
            raise InputError(f"expected a 2-d array, got shape {dense.shape}")
        a = ColumnBlocks(dense.shape, lambda cols: dense[:, cols])
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols))
        for start in range(0, cols, _BLOCK_COLUMNS):
            block = a.block(slice(start, start + _BLOCK_COLUMNS))
            # the column-major payload of a block is the row-major buffer of its transpose
            fh.write(np.ascontiguousarray(block.T, dtype="<f8"))


def read_matrix_binary(path) -> np.ndarray:
    # one read of the whole file: on CPython 3.11 a read() of the payload
    # after the header's took 16 ms at 4000 x 400, the whole file 1 ms
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise InputError(f"{path}: truncated header")
    magic, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise InputError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    payload, expected = len(raw) - _HEADER.size, rows * cols * 8
    if payload != expected:
        raise InputError(f"{path}: payload is {payload} bytes, expected {expected}")
    # a writable copy that keeps the file's column-major layout
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return data.reshape((rows, cols), order="F").copy(order="F")


def _parse_text(path) -> np.ndarray:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines()]
    rows: list[list[float]] = []
    delim = None
    header_skipped = False
    name_column = None
    ncols = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if delim is None:
            delim = "\t" if "\t" in line else ","
        tokens = [t.strip() for t in line.split(delim)]
        if not header_skipped and not rows:
            # a first row whose trailing fields are not numeric is a header
            tail = tokens[1:] if len(tokens) > 1 else tokens
            if not all(_is_number(t) for t in tail):
                header_skipped = True
                continue
        if name_column is None:
            name_column = not _is_number(tokens[0])
        vals = tokens[1:] if name_column else tokens
        try:
            row = [float(v) for v in vals]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise InputError(
                f"{path}:{lineno}: expected {ncols} values, found {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_matrix(path) -> np.ndarray:
    """Read a matrix, sniffing the binary magic before falling back to text."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC:
        return read_matrix_binary(path)
    return _parse_text(path)
