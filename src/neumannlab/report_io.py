"""Result persistence: RFC 4180 CSV and JSON with 17-significant-digit floats.

Every float is written as Python's '%.17g' text (fmt17), which round-trips a
float64.  Solution CSVs are formatted a column at a time by one numpy kernel,
byte for byte equal to '%.17g' for every finite float:

- digits: N = |x| * 10^(16 - X), X the decimal exponent, is formed as a
  double-double with Dekker's error-free product and a table of exact
  (hi, lo) pairs of 10^k, and rounded to 17 digits in int64;
- text: the digits' ASCII bytes are looked up four at a time into a 32-byte
  cell per value; the sign, '0.' and the exponent suffix come from tables
  keyed by X and the sign, and trailing zeros and the point are placed by
  word masks (fmt17_cells);
- rows: the cells of a row and the separators go into one buffer whose 0
  bytes are dropped (fmt17_csv_rows).

A value the kernel cannot round with certainty (a fraction of N within 1e-6
of one half, |x| outside [1e-170, 1e200], or zero) is formatted by fmt17.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["write_json", "write_csv_rows", "fmt17", "fmt17_cells", "fmt17_csv_rows"]


def fmt17(x: float) -> str:
    return f"{x:.17g}"


# |x| the kernel formats: the scaled products below and their Dekker halves
# stay normal and far from overflow, and every exponent has a power of ten
_KERNEL_MIN, _KERNEL_MAX = 1e-170, 1e200
_POW10_MIN = -190  # the tables hold 10^k for k in [_POW10_MIN, -_POW10_MIN]
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit significands
# N below is good to 1e-13; a fraction of N this close to 1/2 is left to
# fmt17, and N this close to 10^16 or 10^17 rounds alike on either exponent
_GUARD = 1e-6
_BLOCK = 8192  # values per pass; bounds the kernel's temporaries to about 2 MB
_EXP_OFFSET = 200  # exponent tables cover X in [-200, 200]; the kernel's X are in [-171, 199]

# A value's text goes into a 32-byte cell of four little-endian words.  Word 0
# holds the prefix (sign, and '0.' and zeros for fixed X < 0) and, in byte 7,
# the leading digit; words 1 and 2 the other 16 digits; word 3 the byte a
# point pushes the last digit into, the exponent suffix ('e-308' at most) in
# bytes 25 to 29 and the separator in bytes 30 and 31.
_CELL = 32  # bytes
_U64 = np.dtype("<u8")
_BYTE, _HALF, _TOP = np.uint64(8), np.uint64(32), np.uint64(56)
_ZEROS = np.frombuffer(b"00000000", dtype=_U64)[0]  # eight ASCII '0'


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = a_h + a_l into halves of at most 26 significant bits."""
    c = _SPLIT * a
    a_h = c - (c - a)
    return a_h, a - a_h


def _words(texts: list[bytes]) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian words, 0-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=_U64)


class _Tables(NamedTuple):
    """The kernel's read-only lookup tables.

    hi, lo: 10^k = hi + lo (lo exact to rounding) at entry k - _POW10_MIN,
        and hi_h + hi_l = hi its Dekker halves;
    quads: entry g < 10^4 holds the four ASCII digits of g, zero-filled.

    By the entry e = X + _EXP_OFFSET of the decimal exponent X, where
    '%.17g' uses fixed notation for -4 <= X < 17:
    prefixes: word 0 at entry 2 e + negative: the sign, and for fixed X < 0
        '0.' and -X - 1 zeros;
    suffixes: word 3 at entry e: 'e' and the signed exponent of at least two
        digits for scientific notation;
    whole: the digits before the point (X + 1 for fixed X >= 0, 0 for fixed
        X < 0, 1 for scientific).

    By a count c of digits, for words 1 and 2 (rows 0 and 1):
    keep: the bytes holding digits before digit c;
    point, move: for a point in place of digit c, the point, and the bytes
        that take the byte before them.
    """

    hi: np.ndarray
    hi_h: np.ndarray
    hi_l: np.ndarray
    lo: np.ndarray
    quads: np.ndarray
    prefixes: np.ndarray
    suffixes: np.ndarray
    whole: np.ndarray
    keep: np.ndarray
    point: np.ndarray
    move: np.ndarray


def _low(m: int) -> int:
    """The mask of the first m bytes of a little-endian word, m clipped to [0, 8]."""
    return (1 << 8 * min(max(m, 0), 8)) - 1


def _pow10(k: int) -> tuple[float, float]:
    """10^k = hi + lo, hi and lo each correctly rounded from exact ratios of
    integers (Python's int / int)."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@functools.cache
def _tables() -> _Tables:
    hi, lo = (np.array(c) for c in zip(*(_pow10(k) for k in range(_POW10_MIN, 1 - _POW10_MIN))))
    quads = np.zeros((10**4, 8), dtype=np.uint8)
    quads[:, :4] = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    exponents = range(-_EXP_OFFSET, _EXP_OFFSET + 1)
    # byte k of word 1 + i holds digit k + 1 + 8 i
    keep, point, move = (np.zeros((2, 18), dtype=_U64) for _ in range(3))
    for i in range(2):
        for c in range(18):
            k = c - 1 - 8 * i
            keep[i, c] = _low(k)
            point[i, c] = ord(".") << 8 * k if 0 <= k < 8 else 0
            move[i, c] = _low(8) ^ _low(k + 1)
    tables = _Tables(
        hi,
        *_split(hi),
        lo,
        quads=quads.view(_U64).ravel(),
        prefixes=_words([b"-" * neg + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"") for x in exponents for neg in (0, 1)]),
        suffixes=_words([b"\0" + (b"" if -4 <= x < 17 else b"e%+03d" % x) for x in exponents]),
        whole=np.array([max(x + 1, 0) if -4 <= x < 17 else 1 for x in exponents]),
        keep=keep,
        point=point,
        move=move,
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = a * 10^(16 - x) as p + t, p = fl(a hi) and t its exact error plus
    a lo (Dekker's product), good to about 2^-104 relative."""
    tables, k = _tables(), 16 - _POW10_MIN - x
    hi, hi_h, hi_l, lo = (tables.hi.take(k), tables.hi_h.take(k), tables.hi_l.take(k), tables.lo.take(k))
    a_h, a_l = _split(a)
    p = a * hi
    return p, (((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l) + a * lo


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 significant digits of each a in [_KERNEL_MIN, _KERNEL_MAX].

    Returns (d, x, tie): the int64 d in [10^16, 10^17) and the decimal
    exponent x with a ~= d * 10^(x - 16), d rounded to nearest, and the rows
    whose rounding is too close to a tie to trust.  x moves by one while the
    unrounded N = a * 10^(16 - x) is outside [10^16 - _GUARD, 10^17 - _GUARD):
    rounding first would print a double just below 10^x, such as 1e-200,
    with too few digits.
    """
    x = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, x)
    rows = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    while rows.size:
        pr, tr = p[rows], t[rows]
        up = (pr > 1e17) | ((pr == 1e17) & (tr >= -_GUARD))
        down = (pr < 1e16) | ((pr == 1e16) & (tr < -_GUARD))
        rows = rows[up | down]
        x[rows] += np.where(up[up | down], 1, -1)
        p[rows], t[rows] = _scaled(a[rows], x[rows])
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    x += carry
    return d, x, np.abs(frac - 0.5) < _GUARD


def _split_digits(d: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """(d // unit, d % unit) for d >= 0; cheaper than np.divmod."""
    q = d // unit
    return q, d - q * unit


def _bytes_used(words: np.ndarray) -> np.ndarray:
    """Bytes of each word up to its last nonzero one (its top byte is below
    16, so the float exponent is exact)."""
    return (np.frexp(words)[1] + 7) // 8


def _insert_point(words: np.ndarray, before: np.ndarray, c: np.ndarray, tables: _Tables, i: int) -> np.ndarray:
    """Word 1 + i with a point in place of digit c and the bytes from there on
    moved one byte up, the top byte of the word before coming in at byte 0."""
    moved = (words << _BYTE) | (before >> _TOP)
    return (words & tables.keep[i].take(c)) | tables.point[i].take(c) | (moved & tables.move[i].take(c))


def _fmt17_block(values: np.ndarray, words: np.ndarray) -> None:
    """Write the cell of fmt17(value) into each row of words (len(values) x 4)."""
    tables = _tables()
    a = np.abs(values)
    fast = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    d, x, tie = _digits17(np.where(fast, a, 1.0))
    fast &= ~tie
    e = x + _EXP_OFFSET
    # the leading digit goes into byte 7, four groups of four of the others
    # into words 1 and 2
    lead, rest = _split_digits(d, 10**16)
    words[:, 0] = tables.prefixes.take(2 * e + (values < 0)) | ((lead + ord("0")).astype(_U64) << _TOP)
    for word, half in zip((words[:, 1], words[:, 2]), _split_digits(rest, 10**8)):
        first, second = _split_digits(half, 10**4)
        word[:] = tables.quads.take(first) | (tables.quads.take(second) << _HALF)
    words[:, 3] = tables.suffixes.take(e)
    # significant digits once trailing zeros are stripped; fixed notation
    # keeps the zeros before the point
    late, early = words[:, 2] ^ _ZEROS, words[:, 1] ^ _ZEROS
    in_late = late != 0
    sig = _bytes_used(np.where(in_late, late, early)) + np.where(in_late, 9, 1)
    whole = tables.whole.take(e)
    kept = np.maximum(sig, whole)
    words[:, 1] &= tables.keep[0].take(kept)
    words[:, 2] &= tables.keep[1].take(kept)
    rows = np.flatnonzero((sig > whole) & (whole > 0))
    at, moved = whole[rows], words[rows]
    words[rows, 1] = _insert_point(moved[:, 1], moved[:, 0], at, tables, 0)
    words[rows, 2] = _insert_point(moved[:, 2], moved[:, 1], at, tables, 1)
    words[rows, 3] = moved[:, 3] | (moved[:, 2] >> _TOP)
    for i in np.flatnonzero(~fast).tolist():
        words[i] = np.frombuffer(fmt17(float(values[i])).encode().ljust(_CELL, b"\0"), dtype=_U64)


def fmt17_cells(values: np.ndarray) -> np.ndarray:
    """The fmt17 text of each float in a cell of four little-endian words
    (32 bytes): the text's bytes in order, interleaved with 0 bytes, and 0
    in the last two."""
    values = np.asarray(values, dtype=float)
    cells = np.empty((len(values), 4), dtype=_U64)
    for start in range(0, len(values), _BLOCK):
        _fmt17_block(values[start : start + _BLOCK], cells[start : start + _BLOCK])
    return cells


def fmt17_csv_rows(first: np.ndarray, values: np.ndarray) -> Iterator[bytes]:
    """CSV rows 'a,b' + CRLF of a column of fmt17_cells and a float column,
    in blocks of bytes; joined, they are '%.17g,%.17g\\r\\n' % (a, b) per row.

    One buffer of _BLOCK rows holds each block's cells while the 0 bytes
    are dropped.
    """
    values = np.asarray(values, dtype=float)
    rows = np.empty((min(_BLOCK, len(values)), 2, 4), dtype=_U64)
    separators = _words([b"\0" * 6 + b",", b"\0" * 6 + b"\r\n"])
    for start in range(0, len(values), _BLOCK):
        stop = min(start + _BLOCK, len(values))
        block = rows[: stop - start]
        block[:, 0] = first[start:stop]
        _fmt17_block(values[start:stop], block[:, 1])
        block[:, :, 3] |= separators
        yield block.tobytes().translate(None, b"\0")


def _dump(obj, fh, indent=0) -> None:
    """Write obj as JSON: floats with fmt17 and nan and inf as null; numpy
    scalars and arrays as their Python values and lists, tuples as lists."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    pad = "  " * indent
    if isinstance(obj, float):
        fh.write(fmt17(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        fh.write("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            fh.write(pad + "  " + json.dumps(str(k)) + ": ")
            _dump(v, fh, indent + 1)
            fh.write(",\n" if i + 1 < len(items) else "\n")
        fh.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        fh.write("[")
        for i, v in enumerate(obj):
            _dump(v, fh, indent)
            if i + 1 < len(obj):
                fh.write(", ")
        fh.write("]")
    else:
        fh.write(json.dumps(obj))


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        _dump(obj, fh)
        fh.write("\n")


def write_csv_rows(path, headers: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(headers) + "\r\n")
        for row in rows:
            cells = []
            for key in headers:
                val = row.get(key)
                if isinstance(val, (float, np.floating)):
                    cells.append(fmt17(float(val)))
                elif val is None:
                    cells.append("")
                else:
                    cells.append(str(val))
            fh.write(",".join(cells) + "\r\n")
