"""Bulk text writers for the run artifacts.

Every CSV and PGM artifact is written by one formatter (iter_lines): up to
CSV_CHUNK_ROWS rows at a time, column by column, into a matrix of ASCII
bytes with one comma-separated line per row (a PGM's pixels are one
column, whose lines write_pgm joins into image rows).  Each column is
written with its number of decimal places, or with None for ``%d``, which
truncates a float as ``int()`` does; the bytes are those of one ``%`` per
value.

A float at p places is its sign, its integer part, ``.`` and p zero-padded
digits of the integer n = round-half-even(|v| * 10**p) that ``%.{p}f``
prints; the sign is np.signbit, so -0.0 and tiny negatives print
``-0.000000`` as ``%`` does.  With |v| below 2**52 / 10**p, x = fl(|v| *
10**p) is at most 2**52, so floor(x) and frac = x - floor(x) are exact,
and x lies within half an ulp of the true product.  x and the half
floor(x) + 1/2 are both whole multiples of the ulp of x, so unless frac is
exactly 1/2, x lies at least an ulp from that half and the true product
lies on the same side of it: n is floor(x) + (frac > 1/2).  The few values
with frac exactly 1/2, which a product may have reached by rounding, take
their digits from ``%`` of the one value.  A chunk that holds a non-finite
value, or a magnitude at or past the bound, is formatted by the reference
``%`` expression instead (_percent_chunk).
"""

from __future__ import annotations

import numpy as np

# Rows formatted per write; one buffer for the whole log would cost more
# memory than the log itself.  It must stay below 10**4: _range_digits
# writes each index digit of place 10**4 or more as two fills, one change
# of the digit per chunk (at 16,384 rows, counters.csv would print windows
# 30,000 to 32,767 as 20,000 to 22,767), and sizes _RANGE_DIGITS and
# _RANGE_WORDS by it.
CSV_CHUNK_ROWS = 4096

# Up to this, a double's integer and fractional parts are exact.
_EXACT_BOUND = 2.0 ** 52


def iter_lines(columns, places):
    """Bytes of one line per row of equal-length columns, CSV_CHUNK_ROWS
    rows per yielded chunk.

    A column is a range of step 1, or a 1-D bool, integer or float array.
    ``places[j]`` is column j's number of decimal places, or None for
    ``%d``.
    """
    columns = [np.arange(col.start, col.stop)
               if isinstance(col, range) and (p is not None or col.start < 0)
               else col if isinstance(col, range) else np.asarray(col)
               for col, p in zip(columns, places)]
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        yield _format_chunk([col[start:start + CSV_CHUNK_ROWS]
                             for col in columns], places)


def format_columns(header: str, columns, places) -> bytes:
    """A header line and its rows (see iter_lines)."""
    return (header + "\n").encode() + b"".join(iter_lines(columns, places))


def write_columns(path, header: str, columns, places) -> None:
    """Write a header line and its rows, one chunk at a time."""
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        fh.writelines(iter_lines(columns, places))


def write_pgm(path, values: np.ndarray, peak: float) -> None:
    """ASCII portable graymap of a 2-D array, ``peak`` mapping to 255."""
    scaled = np.clip(values / peak * 255.0, 0, 255).astype(int)
    ny, nx = scaled.shape
    # One pixel per line, in raster order; each image row's lines are then
    # joined with spaces.  Its pixels as one column cost the formatter's
    # array operations once, not once per image column.
    pixels = b"".join(iter_lines([scaled.ravel()], [None])).split(b"\n")
    with open(path, "wb") as fh:
        fh.write(f"P2\n{nx} {ny}\n255\n".encode())
        fh.writelines(b" ".join(pixels[i:i + nx]) + b"\n"
                      for i in range(0, nx * ny, nx))


def write_counters_csv(path, columns) -> None:
    """Write the counter log, one CSV line per window, from its four
    columns: window index, zero count, max pulse and latched flag."""
    write_columns(path, "window_index,zero_count,max_pulse,latched", columns,
                  [None] * 4)


def _percent_chunk(columns, places) -> bytes:
    """The reference: one ``%`` operation over a chunk's Python scalars."""
    values = [list(c) if isinstance(c, range) else c.tolist() for c in columns]
    row = ",".join("%d" if p is None else f"%.{p}f" for p in places) + "\n"
    k, n = len(values), len(values[0])
    flat = [None] * (n * k)
    for j, col in enumerate(values):
        flat[j::k] = col
    return ((row * n) % tuple(flat)).encode()


def _format_chunk(columns, places) -> bytes:
    """Lines of at most CSV_CHUNK_ROWS rows (see iter_lines).

    Each column has a block of the matrix: a sign slot if any of its values
    is negative, the integer digits, ``.`` and the fraction digits if it
    has places, and a comma.  A leading zero or an unused sign slot is
    written as a NUL, and the NULs are deleted from the bytes at the end;
    a chunk with none is the matrix's bytes as they are.  A chunk with a
    value out of range is formatted by the reference instead.
    """
    n = len(columns[0])
    blocks = []
    for col, p in zip(columns, places):
        field = _field(col, p)
        if field is None:
            return _percent_chunk(columns, places)
        _, neg, _, lo, hi = field
        width = len(str(hi))
        size = (neg is not None) + width + (p + 1 if p else 0) + 1
        blocks.append((field, p, width, width - len(str(lo)), size))
    mat = np.full((n, sum(size for *_, size in blocks)), ord(","),
                  dtype=np.uint8)
    masked = False
    offset = 0
    for (whole, neg, frac, _, hi), p, width, short, size in blocks:
        view = mat[:, offset:offset + size]
        offset += size
        signed = neg is not None
        digits = view[:, signed:signed + width]
        if isinstance(whole, range):
            _range_digits(digits, whole.start, short)
        else:
            _array_digits(digits, whole, hi, short)
        if p:
            view[:, signed + width] = ord(".")
            _array_digits(view[:, signed + width + 1:-1], frac,
                          10 ** p - 1, 0)
        if signed:
            # The '-' goes just before the first digit, where a value of d
            # digits has its last leading NUL (the sign slot when d is the
            # width).
            view[:, 0] = 0
            where = np.flatnonzero(neg)
            d = 1 + np.searchsorted(_POWERS[1:width], whole[where],
                                    side="right")
            view[where, width - d] = ord("-")
        masked = masked or short > 0 or signed
    mat[:, -1] = ord("\n")
    data = mat.tobytes()
    return data.translate(None, b"\0") if masked else data


def _field(v, p):
    """(whole, negative, fraction, lo, hi) of a range or an array, or None
    if the chunk needs the reference.

    ``whole`` is the integer part of each magnitude (a range passes through
    as it is), and lo and hi are its smallest and largest value.
    ``negative`` (None if no value is) marks the values written with a '-',
    and ``fraction`` (None without places) holds the p fraction digits as
    an integer below 10**p.
    """
    if isinstance(v, range):
        return v, None, None, v[0], v[-1]
    if p is None and v.dtype == bool:
        return v, None, None, 0, 1
    if p is None and v.dtype.kind in "iu":
        lo, hi = _bounds(v)
        if lo >= 0:
            return v, None, None, lo, hi
        # As uint64, |v| of the smallest int64 is its magnitude.
        whole = np.abs(v.astype(np.int64)).astype(np.uint64)
        return whole, v < 0, None, *_bounds(whole)
    v = v.astype(np.float64, copy=False)
    a = np.abs(v)
    if not (a < _EXACT_BOUND / 10.0 ** (p or 0)).all():
        return None
    if p is None:
        # %d truncates: only a value at or below -1 keeps its sign.
        whole = a.astype(np.uint64)
        return whole, _some(v <= -1.0), None, *_bounds(whole)
    x = a * 10.0 ** p
    floor = np.floor(x)
    frac = x - floor
    fixed = floor.astype(np.uint64) + (frac > 0.5)
    for i in np.flatnonzero(frac == 0.5):
        fixed[i] = int(("%.*f" % (p, a[i])).replace(".", ""))
    scale = np.uint64(10 ** p)
    whole, frac = (fixed // scale, fixed % scale) if p else (fixed, None)
    return whole, _some(np.signbit(v)), frac, *_bounds(whole)


def _some(mask):
    return mask if mask.any() else None


def _bounds(values) -> tuple[int, int]:
    return int(values.min()), int(values.max())


_POWERS = 10 ** np.arange(20, dtype=np.uint64)

# _RANGE_DIGITS[j][t] is the ASCII digit of place 10**j of t, for one period
# of 10**(j + 1) plus a chunk, so that any chunk of a range is one slice.
_RANGE_DIGITS = [
    (np.arange(10 ** (j + 1) + CSV_CHUNK_ROWS) // 10 ** j % 10
     + ord("0")).astype(np.uint8)
    for j in range(4)
]
# _RANGE_WORDS[t] is the four ASCII digits of t % 10**4, most significant
# first, as one native uint32, for 10**4 plus a chunk of t: one store writes
# a row's four low digits.  It is built from the uint8 rows above, whose
# periods divide 10**4.
_RANGE_WORDS = np.stack(
    [np.resize(row[:10 ** (j + 1)], len(_RANGE_DIGITS[-1]))
     for j, row in reversed(list(enumerate(_RANGE_DIGITS)))],
    axis=1).view(np.uint32)[:, 0]


def _range_digits(block, start: int, short: int) -> None:
    """Digits of start, start + 1, ... into a block of at most
    CSV_CHUNK_ROWS rows, with NULs for the first ``short`` digits where
    they lead.

    Digit j of a range (place 10**j) has period 10**(j + 1): below 10**4
    it is a slice of _RANGE_DIGITS, or for a block four or more digits
    wide, the four low digits are one slice of _RANGE_WORDS, one 4-byte
    store per row.  From 10**4 up a digit changes at most once in a block
    shorter than 10**4 rows, so it is two fills.  A range rises, so the
    rows whose value is short of digit j are a prefix, up to 10**j - start.
    """
    width = block.shape[1]
    low = len(_RANGE_DIGITS)
    if width >= low:
        phase = start % 10 ** low
        block[:, width - low:].view(np.uint32)[:, 0] = \
            _RANGE_WORDS[phase:phase + len(block)]
    for k in range(width):
        j = width - 1 - k
        unit = 10 ** j
        if j >= low:
            digit, into = divmod(start, unit)
            block[:unit - into, k] = ord("0") + digit % 10
            block[unit - into:, k] = ord("0") + (digit + 1) % 10
        elif width < low:
            phase = start % (10 * unit)
            block[:, k] = _RANGE_DIGITS[j][phase:phase + len(block)]
        if k < short:
            block[:unit - start, k] = 0


_UINTS = ((8, np.uint8), (16, np.uint16), (32, np.uint32), (64, np.uint64))


def _array_digits(block, value, hi: int, short: int) -> None:
    """Digits of a non-negative integer or bool array into a block with one
    more axis, of the digit, with NULs for the first ``short`` digits where
    they lead.  An array takes one integer division by 10 per digit, in the
    narrowest unsigned dtype that holds its largest value ``hi``."""
    dtype = next(t for bits, t in _UINTS if hi >> bits == 0)
    value = value.astype(dtype)
    ten = dtype(10)
    width = block.shape[-1]
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
