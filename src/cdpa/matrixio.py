"""Matrix file input/output.

Two on-disk formats are supported:

* a raw little-endian binary format: 4-byte magic ``CDPM``, uint32 row
  count, uint32 column count, then the float64 payload in column-major
  order;
* delimited text (CSV or TSV) with rows as variables and columns as
  samples, an optional header row, and an optional leading row-name
  column.

``write_matrices`` writes several matrices in one pass over blocks of
columns.  A file that cannot be opened, read or written raises ``InputError``.
"""

from __future__ import annotations

import os
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import InputError

MAGIC = b"CDPM"
_HEADER = struct.Struct("<4sII")
# columns per block: 16 wrote the eleven 4000 x 400 decompose outputs, as two
# concurrent groups, in a median 111 ms (8: 124, 32: 112, 64: 121 ms; ext4, 2
# vCPUs, one BLAS thread) and keep the write's peak below half an output
_BLOCK_COLUMNS = 16


def write_matrices(paths, n: int, columns: Callable[[slice], Iterable[np.ndarray]]) -> None:
    """Write matrices of ``n`` columns each to ``paths`` in the binary format,
    in one pass over blocks of columns.  ``columns(cols)`` gives the columns
    ``cols`` (a slice) of every matrix in the order of ``paths``, each as the
    rows of an array, whose row-major buffer is the column-major payload.  A
    failure to write is raised as ``InputError`` once every file is closed.
    """
    try:
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "wb")) for path in paths]
            for fh, block in zip(files, columns(slice(0, 0))):
                fh.write(_HEADER.pack(MAGIC, block.shape[1], n))
            for start in range(0, n, _BLOCK_COLUMNS):
                for fh, block in zip(files, columns(slice(start, start + _BLOCK_COLUMNS))):
                    fh.write(np.ascontiguousarray(block, dtype="<f8"))
    except OSError as exc:
        raise InputError(f"cannot write matrix files: {exc}") from exc


def write_matrix_binary(path, a) -> None:
    """Write the 2-d array ``a`` in the binary format, a block of columns at a time."""
    dense = np.asarray(a, dtype="<f8")
    if dense.ndim != 2:
        raise InputError(f"expected a 2-d array, got shape {dense.shape}")
    write_matrices([path], dense.shape[1], lambda cols: [dense[:, cols].T])


@contextmanager
def _reading(path):
    """``path`` opened for binary reading; failures raise ``InputError``."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def read_matrix_binary(path) -> np.ndarray:
    """Read a matrix in the binary format into a new column-major array."""
    with _reading(path) as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise InputError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        payload, expected = os.fstat(fh.fileno()).st_size - _HEADER.size, rows * cols * 8
        if payload != expected:
            raise InputError(f"{path}: payload is {payload} bytes, expected {expected}")
        # the row-major buffer of the transpose is the column-major payload
        data = np.empty((rows, cols), dtype="<f8", order="F")
        if fh.readinto(data.T) != expected:
            raise InputError(f"{path}: payload ended early")
    return data


def _parse_text(path) -> np.ndarray:
    with _reading(path) as fh:
        # a leading byte-order mark is dropped; junk bytes fail as unparsable text
        text = fh.read().decode("utf-8-sig", errors="replace")
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
        if not row:
            raise InputError(f"{path}:{lineno}: no numeric values")
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
    with _reading(path) as fh:
        magic = fh.read(len(MAGIC))
    if magic == MAGIC:
        return read_matrix_binary(path)
    return _parse_text(path)
