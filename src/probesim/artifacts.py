"""Bulk text writers for the run artifacts.

Every CSV and PGM artifact is formatted a block of rows at a time: one
``%`` operation over the rows' Python scalars (``ndarray.tolist()``), not
one f-string per line.  ``%.6f`` and ``f"{v:.6f}"`` use the same correctly
rounded conversion, and ``%d`` truncates a float as ``int()`` does, so the
bytes are those of a per-line writer.
"""

from __future__ import annotations

import numpy as np

# Rows formatted per write; one buffer for the whole log would cost more
# memory than the log itself.
CSV_CHUNK_ROWS = 4096


def iter_rows(row_format: str, columns):
    """Text of one ``row_format`` line per row of equal-length 1-D columns,
    CSV_CHUNK_ROWS rows per yielded block."""
    columns = [np.asarray(c) for c in columns]
    k = len(columns)
    n = len(columns[0])
    for start in range(0, n, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, n)
        flat = [None] * ((stop - start) * k)
        for j, col in enumerate(columns):
            flat[j::k] = col[start:stop].tolist()
        yield (row_format * (stop - start)) % tuple(flat)


def format_rows(header: str, row_format: str, columns) -> str:
    """The whole text of a header line and its rows (see iter_rows)."""
    return header + "\n" + "".join(iter_rows(row_format, columns))


def write_rows(path, header: str, row_format: str, columns) -> None:
    """Write a header line and its rows, one block at a time."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(iter_rows(row_format, columns))


def write_pgm(path, values: np.ndarray, peak: float) -> None:
    """ASCII portable graymap of a 2-D array, ``peak`` mapping to 255."""
    scaled = np.clip(values / peak * 255.0, 0, 255).astype(int)
    ny, nx = scaled.shape
    write_rows(path, f"P2\n{nx} {ny}\n255", " ".join(["%d"] * nx) + "\n",
               scaled.T)


def write_counters_csv(path, rows: np.ndarray) -> None:
    """Write a (windows, 4) non-negative integer counter log, one CSV line
    per window."""
    with open(path, "wb") as fh:
        fh.write(b"window_index,zero_count,max_pulse,latched\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            fh.write(format_int_rows(rows[start:start + CSV_CHUNK_ROWS]))


def format_int_rows(rows: np.ndarray) -> bytes:
    """Comma-separated decimal lines of a 2-D non-negative integer array.

    Each column is written into a fixed-width block of ASCII digits, one
    integer division by 10 per digit, into a (line bytes, rows) matrix;
    the leading zeros are then masked out and the kept bytes read off row
    by row.  Widths come from the data.  On a long counter log this is
    several times faster than ``%`` formatting.
    """
    n, cols = rows.shape
    if n == 0:
        return b""
    if int(rows.min()) < 0:
        raise ValueError("format_int_rows needs non-negative integers")
    top = rows.max(axis=0)
    dtype = np.uint32 if int(top.max()) < 2 ** 32 else np.uint64
    ten = dtype(10)
    widths = [len(str(int(v))) for v in top]
    mat = np.full((sum(widths) + cols, n), ord(","), dtype=np.uint8)
    mat[-1] = ord("\n")
    keep = np.ones(mat.shape, dtype=bool)
    offset = 0
    for col, width in enumerate(widths):
        value = rows[:, col].astype(dtype)
        v = value
        for pos in range(offset + width - 1, offset, -1):
            q = v // ten
            mat[pos] = v - q * ten + ord("0")
            v = q
        mat[offset] = v + ord("0")
        # Digit k of a width-w block is a leading zero iff value < 10**(w-1-k).
        for k in range(width - 1):
            keep[offset + k] = value >= dtype(10 ** (width - 1 - k))
        offset += width + 1
    return mat.T[keep.T].tobytes()
