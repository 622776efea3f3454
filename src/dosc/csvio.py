"""Full-precision CSV tables: every value written as ``"%.17g" % value``.

write_csv produces, byte for byte, what ``np.savetxt(path,
np.column_stack(columns), fmt="%.17g", delimiter=",", header=header,
comments="")`` writes, but formats whole arrays at once instead of one
Python float at a time.

A finite nonzero value x with 1e-270 <= |x| < 1e290 is formatted by
numpy.  Its 17 significant digits are q = round(|x| 10^(16-k)) with
k = floor(log10 |x|), so 10^16 <= q < 10^17.  The power 10^(16-k)
comes from a table of double-double values hi + lo, each correctly
rounded from exact integers, and the product |x| hi is taken exactly
as p + err by Dekker's two-product (Veltkamp splitting, no fused
multiply-add).  So

    |x| 10^(16-k) = p + err + |x| lo

to within about 1e-14 absolute, and its fraction rounds q to nearest.
A k that log10 got wrong by one shows as an unrounded q outside
[10^16, 10^17) and is recomputed once.  (D. M. Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", AT&T 1990, rounds
exactly in every case; here the margin below stands in for that.)

Everything else goes to Python's own ``"%.17g" %``: zeros, NaN and
infinities, magnitudes outside the table, and values whose fraction
lies within _HALF_MARGIN of 1/2, where the exact tie rule
(half-to-even) or the 1e-14 error could decide the last digit, and the
rare values whose 17 digits round up to 10^17.

The digits come from a 4-digit lookup table and are laid out as %g
does: fixed notation for -4 <= k < 17, else d.ddde+XX, trailing zeros
stripped in both.  Each value is assembled in a fixed-width row of
bytes, four little-endian 64-bit words: the sign and a "0.000" prefix;
the digits, those after the decimal point moved up one byte; an
"e+308" suffix and the delimiter.  Unused bytes stay zero and are
dropped when the rows are written, a block of about _BLOCK_VALUES
values at a time, so the temporaries stay small.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK_VALUES = 1 << 11
# |x| in [_LOW, _HIGH) takes the numpy path: splitting |x| and the
# powers cannot overflow there, and every lo is a normal number
_LOW, _HIGH = 1e-270, 1e290
# the exponents k the tables cover: floor(log10 |x|) over that range,
# widened by one for log10's rounding and one for the recomputation
_K_MIN, _K_MAX = -272, 291
# the computed fraction is within about 1e-14 of the exact one
_HALF_MARGIN = 1e-9
_SPLIT = 134217729.0          # 2^27 + 1, Veltkamp's splitting constant
_Q_START, _Q_END = 10 ** 16, 10 ** 17

_ZERO, _MINUS = ord("0"), ord("-")


def _word(text: bytes, at: int) -> int:
    """The little-endian word holding ``text`` from byte ``at`` on."""
    return int.from_bytes(text, "little") << (8 * at)


@functools.cache
def _tables():
    """Tables built on first use.

    By exponent k = _K_MIN.._K_MAX:
      - 10^(16-k) as the double-double hi + lo, with hi's Veltkamp
        halves.  They come from integers, and int / int is correctly
        rounded, so hi is the nearest double to 10^(16-k) and lo the
        nearest to the remainder;
      - the %g layout: the prefix word, the number of digits before the
        decimal point (17 when there is none), the fewest digits kept,
        and the suffix word.
    By digit count m = 0..18, each of the three digit words with the
    bytes below m set, and with "." at byte m.
    By 4-digit group g = 0..9999, its ASCII digits as a word and the
    number of its trailing zeros.
    """
    hi, lo, prefix, suffix = [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e = 16 - k
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        h = num / den
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
        prefix.append(_word(b"0." + b"0" * (-k - 1), 1) if -4 <= k < 0 else 0)
        suffix.append(0 if -4 <= k < 17 else _word(b"e%+03d" % k, 2))
    hi = np.array(hi)
    k = np.arange(_K_MIN, _K_MAX + 1)
    integer = (k >= 0) & (k < 17)
    point = np.select([integer, (k >= -4) & (k < 0)], [k + 1, 17], 1)
    layout = (np.array(prefix, np.uint64), point, np.where(integer, k + 1, 1),
              np.array(suffix, np.uint64))

    m = np.arange(19)[:, None] - 8 * np.arange(3)
    below = np.array([[_word(b"\xff" * min(8, max(0, c)), 0) for c in r]
                      for r in m], np.uint64).T
    dot = np.array([[_word(b".", c) if 0 <= c < 8 else 0 for c in r]
                    for r in m], np.uint64).T

    g = np.arange(10000, dtype=np.uint32)
    ascii = sum((g // 10 ** (3 - j) % 10 + _ZERO) << (8 * j) for j in range(4))
    zeros = sum((g % 10 ** j == 0).astype(np.uint8) for j in range(1, 5))
    return (hi, *_split(hi), np.array(lo)), layout, (below, dot), (ascii, zeros)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = high + low into parts short enough that the
    product of any two parts of doubles is exact."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, k: np.ndarray):
    """floor(a 10^(16-k)) and round(a 10^(16-k)) as int64, and the
    fraction that rounded."""
    hi, hi_hi, hi_lo, lo = _tables()[0]
    i = k - _K_MIN
    h, hh, hl = hi[i], hi_hi[i], hi_lo[i]
    p = a * h
    ah, al = _split(a)
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl)
    whole = np.floor(p)
    t = (p - whole) + (err + a * lo[i])
    n = np.floor(t)
    frac = t - n
    below = whole.astype(np.int64) + n.astype(np.int64)
    return below, below + (frac > 0.5), frac


def _significands(a: np.ndarray):
    """17-digit significands q and decimal exponents k of a > 0, with
    a ~ q 10^(k-16), and a mask of the values whose rounding is too
    close to call or whose q is not in [10^16, 10^17)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    below, q, frac = _scaled(a, k)
    # judged before rounding: with k one too large, a 16-digit q can
    # round up to 10^16
    step = (below >= _Q_END).astype(np.int64) - (below < _Q_START)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        _, q[redo], frac[redo] = _scaled(a[redo], k[redo])
    unsure = (np.abs(frac - 0.5) < _HALF_MARGIN) | (q < _Q_START) | (q >= _Q_END)
    return q, k, unsure


def _format(x: np.ndarray, delimiter: np.ndarray) -> np.ndarray:
    """Per value v of x, a zero-padded row of 32 bytes: ``"%.17g" % v``
    and the matching byte of ``delimiter``, which ends the row."""
    a = np.abs(x)
    native = (a >= _LOW) & (a < _HIGH)
    q, k, unsure = _significands(np.where(native, a, 1.0))
    _, (prefix, point, int_digits, suffix), (below, dot), (ascii, zeros) = _tables()
    i = k - _K_MIN

    upper, lower = np.divmod(q, 10 ** 8)
    top, upper = np.divmod(upper, 10 ** 8)
    g1, g2 = np.divmod(upper, 10 ** 4)
    g3, g4 = np.divmod(lower, 10 ** 4)
    # trailing zeros go, but fixed notation keeps every integer digit
    tz = zeros[g4] + (g4 == 0) * (zeros[g3] + (g3 == 0) * (
        zeros[g2] + (g2 == 0) * zeros[g1]))
    keep = np.maximum(17 - tz, int_digits[i])

    # the kept digits as bytes 0..16 of three words; those from the
    # point's place on move up one byte, and the point goes in
    a1, a2, a3, a4 = (ascii[g].astype(np.uint64) for g in (g1, g2, g3, g4))
    digits = [(top + _ZERO).astype(np.uint64) | a1 << 8 | a2 << 40,
              a2 >> 24 | a3 << 8 | a4 << 40,
              a4 >> 24]
    at = point[i]
    has_point = keep > at
    rows = np.empty((x.size, 4), "<u8")
    rows[:, 0] = prefix[i] | np.signbit(x) * np.uint64(_MINUS)
    moved = np.uint64(0)
    for w in range(3):
        d = digits[w] & below[w][keep]
        up = d & ~below[w][at]
        rows[:, 1 + w] = (d ^ up) | up << 8 | moved | dot[w][at] * has_point
        moved = up >> 56
    rows[:, 3] |= suffix[i] | delimiter.astype(np.uint64) << 56
    out = rows.view(np.uint8)

    fallback = np.flatnonzero(~native | unsure)
    for r, value in zip(fallback, x[fallback].tolist()):
        text = ("%.17g" % value).encode("ascii")
        out[r, :-1] = 0
        out[r, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-d ``columns`` to ``path`` as comma-separated
    rows under one ``header`` line, each value as ``"%.17g" % value``."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    n_rows = cols[0].size
    if any(c.ndim != 1 or c.size != n_rows for c in cols):
        raise ValueError("write_csv needs 1-d columns of equal length")
    step = max(1, _BLOCK_VALUES // len(cols))
    delimiter = np.full(len(cols), ord(","), np.uint8)
    delimiter[-1] = ord("\n")
    delimiter = np.tile(delimiter, step)
    with open(path, "wb") as fh:
        fh.write(header.encode("latin-1") + b"\n")
        for start in range(0, n_rows, step):
            x = np.stack([c[start:start + step] for c in cols], axis=1).ravel()
            out = _format(x, delimiter[:x.size])
            fh.write(out[out != 0].tobytes())
