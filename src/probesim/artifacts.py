"""Bulk text writers for the run artifacts.

The CSV and PGM artifacts with fractional values are formatted a block of
rows at a time: one ``%`` operation over the rows' Python scalars
(``ndarray.tolist()``), not one f-string per line.  ``%.6f`` and
``f"{v:.6f}"`` use the same correctly rounded conversion, and ``%d``
truncates a float as ``int()`` does, so the bytes are those of a per-line
writer.  The counter log, all integers and the longest artifact, is
written column by column into a matrix of ASCII digits instead (see
format_int_columns).
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


def write_counters_csv(path, columns) -> None:
    """Write the counter log, one CSV line per window, from its four
    columns: window index, zero count, max pulse and latched flag (see
    format_int_columns for what a column may be)."""
    with open(path, "wb") as fh:
        fh.write(b"window_index,zero_count,max_pulse,latched\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            fh.write(format_int_columns(
                [col[start:start + CSV_CHUNK_ROWS] for col in columns]))


def format_int_columns(columns) -> bytes:
    """Comma-separated decimal lines of equal-length non-negative integer
    columns.

    A column is a 1-D integer array, a bool array (a 0/1 flag) or a range
    of step 1.  Each is written into a fixed-width block of ASCII digits,
    one integer division by 10 per digit, into a (rows, line bytes)
    matrix.  A column's width and the leading zeros it can have follow
    from its smallest and largest value: a range gives them from its ends,
    a bool array is one digit, and an integer array is reduced once.
    Leading zeros are masked out only at the digit positions where some
    value is short, so a block with none is the matrix's bytes as they
    are.
    """
    n = len(columns[0])
    if n == 0:
        return b""
    bounds = [_bounds(col) for col in columns]
    if min(lo for lo, _ in bounds) < 0:
        raise ValueError("format_int_columns needs non-negative integers")
    widths = [len(str(hi)) for _, hi in bounds]
    mat = np.full((n, sum(widths) + len(widths)), ord(","), dtype=np.uint8)
    mat[:, -1] = ord("\n")
    keep = None
    offset = 0
    for col, (lo, hi), width in zip(columns, bounds, widths):
        dtype = np.uint32 if hi < 2 ** 32 else np.uint64
        ten = dtype(10)
        if isinstance(col, range):
            value = np.arange(col.start, col.stop, dtype=dtype)
        else:
            value = col.astype(dtype)
        v = value
        for pos in range(offset + width - 1, offset, -1):
            q = v // ten
            mat[:, pos] = v - q * ten + ord("0")
            v = q
        mat[:, offset] = v + ord("0")
        # Digit k of a width-w block is a leading zero iff value < 10**(w-1-k);
        # no value is short at the digits that lo has.
        for k in range(width - len(str(lo))):
            if keep is None:
                keep = np.ones(mat.shape, dtype=bool)
            keep[:, offset + k] = value >= dtype(10 ** (width - 1 - k))
        offset += width + 1
    return mat.tobytes() if keep is None else mat[keep].tobytes()


def _bounds(col) -> tuple[int, int]:
    """Smallest and largest value of a non-empty column."""
    if isinstance(col, range):
        return col[0], col[-1]
    if col.dtype == bool:
        return 0, 1
    return int(col.min()), int(col.max())
