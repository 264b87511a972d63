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
    of step 1, of at most CSV_CHUNK_ROWS rows.  Each is written into a
    fixed-width block of ASCII digits of a (rows, line bytes) matrix.  A
    column's width and the leading zeros it can have follow from its
    smallest and largest value: a range gives them from its ends, a bool
    array is one digit, and an integer array is reduced once.  A range
    copies its digits from periodic tables (_range_digits); an array takes
    one integer division by 10 per digit, in the narrowest unsigned dtype
    that holds its largest value.  A leading zero is written as a NUL, at
    the digit positions where some value is short, and the NULs are
    deleted from the bytes at the end; a block with none is the matrix's
    bytes as they are.
    """
    n = len(columns[0])
    if n > CSV_CHUNK_ROWS:
        raise ValueError(f"format_int_columns takes at most {CSV_CHUNK_ROWS} rows")
    if n == 0:
        return b""
    bounds = [_bounds(col) for col in columns]
    if min(lo for lo, _ in bounds) < 0:
        raise ValueError("format_int_columns needs non-negative integers")
    widths = [len(str(hi)) for _, hi in bounds]
    mat = np.full((n, sum(widths) + len(widths)), ord(","), dtype=np.uint8)
    mat[:, -1] = ord("\n")
    masked = False
    offset = 0
    for col, (lo, hi), width in zip(columns, bounds, widths):
        # Digit k of a width-w block is a leading zero iff value < 10**(w-1-k);
        # no value is short at the digits that lo has.
        short = width - len(str(lo))
        masked = masked or short > 0
        block = mat[:, offset:offset + width]
        if isinstance(col, range):
            _range_digits(block, col.start, short)
        else:
            _array_digits(block, col, hi, short)
        offset += width + 1
    data = mat.tobytes()
    return data.translate(None, b"\0") if masked else data


# _RANGE_DIGITS[j][t] is the ASCII digit of place 10**j of t, for one period
# of 10**(j + 1) plus a chunk, so that any chunk of a range is one slice.
_RANGE_DIGITS = [
    (np.arange(10 ** (j + 1) + CSV_CHUNK_ROWS) // 10 ** j % 10
     + ord("0")).astype(np.uint8)
    for j in range(4)
]


def _range_digits(block, start: int, short: int) -> None:
    """Digits of start, start + 1, ... into a block of at most
    CSV_CHUNK_ROWS rows, with NULs for the first ``short`` digits where
    they lead.

    Digit j of a range (place 10**j) has period 10**(j + 1): below 10**4
    it is a slice of _RANGE_DIGITS, and from 10**4 up it changes at most
    once in a block shorter than 10**4 rows, so it is two fills.  A range
    rises, so the rows whose value is short of digit j are a prefix, up
    to 10**j - start.
    """
    width = block.shape[1]
    for k in range(width):
        j = width - 1 - k
        unit = 10 ** j
        if j < len(_RANGE_DIGITS):
            phase = start % (10 * unit)
            block[:, k] = _RANGE_DIGITS[j][phase:phase + len(block)]
        else:
            digit, into = divmod(start, unit)
            block[:unit - into, k] = ord("0") + digit % 10
            block[unit - into:, k] = ord("0") + (digit + 1) % 10
        if k < short:
            block[:unit - start, k] = 0


_UINTS = ((8, np.uint8), (16, np.uint16), (32, np.uint32), (64, np.uint64))


def _array_digits(block, col, hi: int, short: int) -> None:
    """Digits of an integer or bool array into a block, with NULs for the
    first ``short`` digits where they lead."""
    dtype = next(t for bits, t in _UINTS if hi >> bits == 0)
    value = col.astype(dtype)
    ten = dtype(10)
    width = block.shape[1]
    v = value
    for k in range(width - 1, -1, -1):
        if k:
            q = v // ten
            digit = v - q * ten + dtype(ord("0"))
            v = q
        else:
            digit = v + dtype(ord("0"))
        if k < short:
            digit *= value >= dtype(10 ** (width - 1 - k))
        block[:, k] = digit


def _bounds(col) -> tuple[int, int]:
    """Smallest and largest value of a non-empty column."""
    if isinstance(col, range):
        return col[0], col[-1]
    if col.dtype == bool:
        return 0, 1
    return int(col.min()), int(col.max())
