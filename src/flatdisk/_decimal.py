"""Exact decimal spelling of float64 arrays, shared by the profile and SVG writers.

Both writers spell numbers byte for byte as CPython's correctly rounded %
formatting does, by integer arithmetic in numpy in place of one % per
number.  What they share is Dekker's two-product (T. J. Dekker, Numer.
Math. 18, 1971): with b split into two halves of at most 26 significant
bits (dekker_split), two_product gives hi = a * b rounded and its exact
error lo, so that hi + lo == a * b, barring overflow and underflow.  The
digits come four at a time from one table of the strings "0000" to "9999"
(digit_groups), built on first use, as is this module: importing the
package or the CLI loads neither.

fixed3 spells "%.3f".  For |x| < 1e6, x * 1000 = hi + lo exactly (1000
splits as (1000, 0)), and the digits are those of the integer nearest
hi + lo, a tie going to the even one as CPython rounds.  That integer is
rint(hi) unless hi is a half-integer.  No half-integer can lie strictly
between hi and hi + lo: below 2**52 every half-integer is a double, and it
would be nearer to hi + lo than hi, the nearest double.  Where hi is a
half-integer, the sign of lo picks the side, and lo == 0 is a true tie,
which rint rounds to even.  A value that rounds to zero is written "0.000",
never "-0.000", the SVG writer's rule; as .3f rounds correctly, those are
exactly the x with |x| < 0.0005 (the double nearest 0.0005 lies above it).
Values outside the domain, non-finite or at least 1e6 in magnitude, are
spelled by % one at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_DEKKER_SPLIT = 134217729.0  # 2**27 + 1
_FIXED3_LIMIT = 1e6  # up to 7 integer digits, so a row has room for the sign
# A fixed3 row of 16 bytes: two digit groups of the integer part (bytes 0-7),
# ".ddd" (8-11), the separator (12) and 3 spare bytes.  _KEEP[s] keeps bytes s
# to 12, the spelling that starts at byte s and its separator; s = 13 keeps none.
_SEP = 12
_KEEP = (np.arange(16) >= np.arange(_SEP + 2)[:, None]) & (np.arange(16) <= _SEP)
_TENS = 10 ** np.arange(1, 7)  # integer parts from these up have one more digit


def dekker_split(a):
    """(high, low) with high + low == a, each with at most 26 significant bits."""
    c = _DEKKER_SPLIT * a
    high = c - (c - a)
    return high, a - high


def two_product(a, b, b_high, b_low):
    """(hi, lo) with hi = a * b rounded and hi + lo == a * b exactly; (b_high, b_low) splits b."""
    hi = a * b
    ah, al = dekker_split(a)
    return hi, ((ah * b_high - hi) + ah * b_low + al * b_high) + al * b_low


@functools.cache
def digit_groups():
    """(digits4, point3), read-only uint32 tables of 4 ASCII bytes each:
    the digits of k < 10**4 ("0042"), and "." and the 3 digits of k < 1000 (".042")."""
    k = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for col, unit in enumerate((1000, 100, 10, 1)):  # one column at a time: small temporaries
        digits[:, col] = k // unit % 10 + ord("0")
    point3 = digits[:1000].copy()
    point3[:, 0] = ord(".")
    tables = digits.view(np.uint32).ravel(), point3.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def fixed3(x, sep):
    """(text, ends): the str of "%.3f" % x[i] followed by the character sep[i],
    for every i, with "-0.000" written "0.000"; ends[i] is the offset in text
    just past sep[i].  sep is a uint8 array of ASCII codes as long as x (module
    docstring)."""
    digits4, point3 = digit_groups()
    # few temporaries, each freed or reused in place as soon as it is spent
    hi = np.abs(x)
    ok = hi < _FIXED3_LIMIT  # False for nan
    hi[~ok] = 0.0
    hi *= 1000.0
    n = np.rint(hi)
    hi -= n  # exact: the distance of hi from n, +-0.5 where hi is a half-integer
    tie = np.flatnonzero(np.abs(hi) == 0.5)
    if len(tie):  # lo's sign rounds away from the half-integer; lo == 0 leaves rint's even
        step = np.sign(two_product(np.abs(x[tie]), 1000.0, 1000.0, 0.0)[1])
        n[tie] += np.where(2.0 * hi[tie] == step, step, 0.0)
    neg = np.flatnonzero((x < 0) & (n > 0))
    del hi
    n = n.astype(np.int32)
    whole = n // 1000
    n -= 1000 * whole  # the 3 decimals
    high = whole // 10000
    rows = np.empty((len(x), 4), np.uint32)
    rows[:, 0] = digits4.take(high)
    rows[:, 1] = digits4.take(whole - 10000 * high)
    rows[:, 2] = point3.take(n)
    del n, high
    text = rows.view(np.uint8)
    text[:, _SEP] = sep
    start = 7 - np.searchsorted(_TENS, whole, side="right")  # the first digit
    del whole
    start[neg] -= 1
    text[neg, start[neg]] = ord("-")
    start[~ok] = _SEP + 1
    out = str(text[_KEEP.take(start, axis=0)].data, "ascii")
    ends = np.cumsum(_SEP + 1 - start)
    if ok.all():
        return out, ends
    bad = np.flatnonzero(~ok)
    cuts = ends[bad].tolist()
    spelled = ["%.3f%c" % vs for vs in zip(x[bad].tolist(), sep[bad].tolist())]
    extra = np.zeros(len(x), np.intp)
    extra[bad] = [len(s) for s in spelled]
    pieces = [out[i:j] + s for i, j, s in zip([0] + cuts, cuts, spelled)]
    return "".join(pieces) + out[cuts[-1]:], ends + np.cumsum(extra)
