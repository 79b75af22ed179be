"""Exact ``%.17g`` text of whole float64 arrays, as byte fields.

`fields(x)` returns one fixed-width row of bytes per value, the rows in
C order: the text Python's ``'%.17g' % value`` gives, with NUL bytes
around and inside it.
Dropping every NUL of a row gives the text exactly.  An integer below
2**53 is written as ``%d`` writes it: fixed notation, no point.

A float is formatted from its 17 significant digits D and its decimal
exponent k.  k = floor(log10 |x|), corrected by at most one step, and
|x| * 10**(16 - k) is computed in long double, where 10**p is exact for
|p| <= 27 (5**27 < 2**63), so the product or quotient is rounded once,
by at most half an ulp.  D is that result truncated and then rounded
half-up from its fraction.  Every value this cannot prove exact takes
Python's own scalar conversion instead, ``%.16e``, which gives the same
correctly rounded 17 digits and exponent as ``%.17g``: a fraction within
half an ulp of .5 (``%`` rounds an exact decimal tie half-even), zero,
and |16 - k| > 27, which takes in the subnormals and the extremes.
Where long double is plain double, every value takes the scalar path.

Only finite values are formatted: `fields` raises `ValueError` on a NaN
or an infinity.  Each of them fails |16 - k| <= 27, so the check reads
only the values sent to the scalar path.

The text is assembled eight bytes at a time, from D, k and the sign.  A
table holds, for each %g layout (fixed notation with k in -4..16, or
exponent notation) and count of significant digits, every piece the
layout may need: the sign, the "0.000" of a small fixed-notation value,
the digits each followed by a slot that holds the point or NUL, and a
last word for the exponent.  The digits are ANDed into it from a table
of 4-digit words, each digit followed by 0xFF.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fields"]

_EXACT = np.longdouble(2) ** 63 + 1 != np.longdouble(2) ** 63  # a 64-bit mantissa, which holds 10**27
_MAX_SCALE = 27
_POW10 = np.concatenate([[1], np.cumprod(np.full(_MAX_SCALE, 10, dtype=np.longdouble))])

# The ASCII digits of 0..9999, four bytes each.
_FOUR = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
# The mask words, as native words, so that a row of words viewed as bytes
# reads in order: the 10,000 4-digit words with each digit followed by
# 0xFF, which keeps its point slot, then a value's first word, at
# 10,000 + 10 * negative + digit: a byte that keeps the sign when negative,
# five that keep the lead, the digit and its slot.
_MASKS = np.full((10_000 + 20, 8), 0xFF, dtype=np.uint8)
_MASKS[:10_000, ::2] = _FOUR
_MASKS[10_000:10_010, 0] = 0
_MASKS[10_000:10_020, 6] = 48 + np.arange(20) % 10
_MASKS = _MASKS.view(np.uint64).ravel()
_FIRST_MASK = 10_000
# trailing zero digits of each 4-digit word, 4 for 0000
_TRAILING = sum(np.arange(10_000) % 10**j == 0 for j in (1, 2, 3, 4)).astype(np.int8)
del _FOUR

_DIGITS = 17
_LEAD = 6  # the sign and the "0.000" before the first digit
_WIDTH = _LEAD + 2 * _DIGITS + 8  # then the digits and their slots, then one word

# %g writes exponents -4..16 in fixed notation, one layout each, then one
# layout for exponent notation.
_FIXED_LO, _FIXED_HI = -4, _DIGITS - 1
_SCI = _FIXED_HI - _FIXED_LO + 1


def _layouts() -> np.ndarray:
    """The field of each layout and count s of significant digits, at row
    layout * _DIGITS + s - 1, as words: a minus sign for the mask to keep
    or clear, 0xFF where a digit is kept, and the last word NUL."""
    # the digits before the fraction: k + 1 in fixed notation, 1 in exponent notation
    firsts = [k + 1 for k in range(_FIXED_LO, _FIXED_HI + 1)] + [1]
    s = np.arange(1, _DIGITS + 1)
    out = np.zeros((len(firsts), _DIGITS, _WIDTH), dtype=np.uint8)
    out[:, :, 0] = ord("-")
    kept = np.arange(_DIGITS) < np.maximum(s[:, None], np.array(firsts)[:, None, None])
    out[:, :, _LEAD : _WIDTH - 8 : 2] = kept * np.uint8(0xFF)
    for rows, first in zip(out, firsts):
        if first > 0:
            rows[s > first, _LEAD + 2 * first - 1] = ord(".")
        else:  # "0." and -first zeros before the first digit
            rows[:, _LEAD + first - 2 : _LEAD] = np.frombuffer(b"0." + b"0" * -first, dtype=np.uint8)
    return out.reshape(-1, _WIDTH).view(np.uint64)


_LAYOUTS = _layouts()


def _exponents() -> np.ndarray:
    """The last word of exponent notation for each k from _K_MIN to 308:
    "e+XX" or "e-XXX" and NUL."""
    k = np.arange(_K_MIN, 309)
    out = np.zeros((len(k), 8), dtype=np.uint8)
    out[:, 0] = ord("e")
    out[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    out[:, 2:5] = np.abs(k)[:, None] // np.array([100, 10, 1]) % 10 + 48
    short = np.abs(k) < 100  # two digits, no hundreds
    out[short, 2:5] = out[short, 3:6]
    return out.view(np.uint64).ravel()


_K_MIN = -324  # the exponent of the least subnormal
_EXPONENTS = _exponents()


def _scale(ax: np.ndarray, p: np.ndarray) -> np.ndarray:
    """ax * 10**p in long double, rounded once; |p| <= 27."""
    y = np.multiply(ax, _POW10[np.maximum(p, 0)])
    down = np.flatnonzero(p < 0)
    if len(down):
        y[down] = np.divide(ax[down], _POW10[-p[down]])
    return y


def _float_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, exact): each |x| as D * 10**(k - 16) with D a 17-digit int64
    rounded to nearest, and whether that rounding is proven to be the one
    ``%.17g`` makes.  D and k are meaningless where `exact` is false."""
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        k = np.floor(np.log10(ax))
    exact = np.abs(16 - k) <= _MAX_SCALE  # false for 0, nan and inf
    exact &= _EXACT
    ax[~exact] = 1.0
    k = np.where(exact, k, 16).astype(np.int64)
    y = _scale(ax, 16 - k)
    d = y.astype(np.int64)
    off = np.flatnonzero(exact & ((d < 10**16) | (d >= 10**17)))  # log10 was one step out
    if len(off):
        k[off] += np.where(d[off] < 10**16, -1, 1)
        inside = np.abs(16 - k[off]) <= _MAX_SCALE
        y[off] = _scale(np.where(inside, ax[off], 1.0), np.where(inside, 16 - k[off], 0))
        d[off] = y[off].astype(np.int64)
        exact[off] &= inside & (d[off] >= 10**16) & (d[off] < 10**17)
    frac = (y - d).astype(np.float64)  # exact: y >= 2**53 has at most 10 fraction bits
    # y is rounded by at most half its spacing: 2**-11 below 2**54, doubling per binade
    half_ulp = np.ldexp(2.0**-11, (d >= 2**54).view(np.int8) + (d >= 2**55) + (d >= 2**56))
    exact &= np.abs(frac - 0.5) > half_ulp
    d += frac > 0.5
    exact &= d < 10**17  # a carry to 18 digits takes the scalar path (no double in range has one)
    return d, k, exact


def _words(d: np.ndarray) -> np.ndarray:
    """Each int64 0 <= d < 2**63 as five words of 4 decimal digits, most
    significant first, one row per word."""
    words = np.empty((5, len(d)), dtype=np.int64)
    top = d // 10**8
    words[0] = top // 10**8
    eights = np.stack([top - words[0] * 10**8, d - top * 10**8])
    high = eights // 10**4
    words[1::2] = high
    words[2::2] = eights - high * 10**4
    return words


def _scalar_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) of each finite value from Python's own ``%.16e``, which has
    the correctly rounded digits of ``%.17g``."""
    d = np.zeros(len(x), dtype=np.int64)
    k = np.zeros(len(x), dtype=np.int64)
    for i, value in enumerate(x.tolist()):
        mantissa, _, exponent = ("%.16e" % value).partition("e")
        d[i] = int(mantissa.replace(".", "").lstrip("-"))
        k[i] = int(exponent)
    return d, k


def _float_fields(x: np.ndarray) -> np.ndarray:
    d, k, exact = _float_digits(x)
    slow = np.flatnonzero(~exact)
    rest = x[slow]
    if not np.isfinite(rest).all():
        raise ValueError("%.17g fields are made of finite values only")
    d[slow], k[slow] = _scalar_digits(rest)
    fixed = (k >= _FIXED_LO) & (k <= _FIXED_HI)
    layout = np.where(fixed, k - _FIXED_LO, _SCI)
    last = np.where(fixed, 0, _EXPONENTS[k - _K_MIN])
    words = _words(d)
    # trailing zeros of D, from its last word back; its first word is 0..9
    z = np.take(_TRAILING, words[1:])
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    out = np.take(_LAYOUTS, layout * _DIGITS + (_DIGITS - 1 - zeros), axis=0)
    words[0] += _FIRST_MASK + 10 * np.signbit(x)
    for column, word in zip(out.T, words):
        column &= _MASKS[word]
    out[:, -1] = last
    return out.view(np.uint8)


def fields(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % value`` for each finite float64 value of `x`, one
    C-ordered row of uint8 per value: the text's bytes with NUL bytes
    around and inside them; a column that is NUL in every row is left
    out.  A NaN or an infinity raises `ValueError`."""
    out = _float_fields(np.asarray(x, dtype=np.float64).ravel())
    used = np.bitwise_or.reduce(out.view(np.uint64), axis=0)
    return np.compress(used.view(np.uint8) != 0, out, axis=1)
