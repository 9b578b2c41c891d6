"""Exact decimal text of float64 arrays, and the floats of decimal tokens.

fixed3 spells "%.3f" for the SVG writer and rows_to_text "%.17g" for the
profile writer, byte for byte as CPython's correctly rounded % does, and
read_decimals gives the profile reader the floats float() gives, all by
integer arithmetic in numpy on Dekker's two-product (T. J. Dekker, Numer.
Math. 18, 1971): with b split into two halves of at most 26 significant
bits (dekker_split), two_product gives hi = a * b rounded and its exact
error lo, so that hi + lo == a * b, barring overflow and underflow.  The
digits come four at a time from one table of "0000" to "9999"
(digit_groups).  This module and its tables are built on first use:
importing the package or the CLI loads none of them, and writing SVG
builds no "%.17g" tables (g17_tables).

fixed3: for |x| < 1e6, x * 1000 = hi + lo exactly (1000 splits as
(1000, 0)), and the digits are those of the integer nearest hi + lo, a tie
going to the even one as CPython rounds.  That integer is rint(hi) unless
hi is a half-integer.  No half-integer can lie strictly between hi and
hi + lo: below 2**52 every half-integer is a double, and it would be
nearer to hi + lo than hi, the nearest double.  Where hi is a
half-integer, the sign of lo picks the side, and lo == 0 is a true tie,
which rint rounds to even.  A value that rounds to zero is written
"0.000", never "-0.000", the SVG writer's rule; as .3f rounds correctly,
those are exactly the x with |x| < 0.0005 (the double nearest 0.0005 lies
above it).  % spells the rest one at a time: non-finite values and those
at least 1e6 in magnitude.

rows_to_text: for a positive finite x with decimal exponent e in [-6, 16],
10**(16 - e) is an exact double and x * 10**(16 - e) = hi + lo exactly.
hi is then an even integer at least 2**53, so its 17 digits are
hi + rint(lo), rounded half to even as CPython rounds (digits17).  e is
taken from log10 and kept only where hi + lo lies in [1e16, 1e17) and the
17 digits stay below 1e17.  % spells the rest one at a time: zero, -0.0,
negatives, inf, nan, x below 1e-6 or from 1e17 up, and the rare x next to
a power of ten whose log10 gives the wrong e.

read_decimals reads a token as d / 10**k, d its digits and k those after
the point (W. D. Clinger, PLDI 1990; D. Lemire, Softw. Pract. Exper. 51,
2021).  quotients gives a candidate x, kept only where digits17, the
writer's rule, spells x as the token's decimal; as 17 digits round-trip,
float(token) == x.  A token of 18 digits or more, or of over 22 after the
point, fails the check, as does an x outside the writer's exact domain.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_DEKKER_SPLIT = 134217729.0  # 2**27 + 1
_FIXED3_LIMIT = 1e6  # up to 7 integer digits, so a row has room for the sign
# A fixed3 row of 16 bytes: two digit groups of the integer part (bytes 0-7),
# ".ddd" (8-11), the separator (12) and 3 spare bytes.  _KEEP[s] keeps bytes s
# to 12, the spelling that starts at byte s and its separator; s = 13 keeps none.
_FIXED3_SEP = 12
_KEEP = (np.arange(16) >= np.arange(_FIXED3_SEP + 2)[:, None]) & (np.arange(16) <= _FIXED3_SEP)
_TENS = 10 ** np.arange(1, 7)  # integer parts from these up have one more digit

# A "%.17g" row of 8 uint32: the digit groups "000d", "dddd" x 4 of its 17
# significant digits (bytes 0-19, byte 0 a spare "0"), ".e-" and the exponent
# digit of e-05 / e-06 (20-23), and the separator that follows it (24).  A
# number outside the exact domain has its % spelling in bytes 0-23 instead.
_G17_ZERO, _G17_POINT, _G17_E, _G17_MINUS, _G17_EXP, _G17_SEP = 0, 20, 21, 22, 23, 24
_G17_FALLBACK = 23 * 17
_ROWS_PER_BLOCK = 4096  # bounds the temporaries: 1.6 MB of byte positions for 2 columns


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
    text[:, _FIXED3_SEP] = sep
    start = 7 - np.searchsorted(_TENS, whole, side="right")  # the first digit
    del whole
    start[neg] -= 1
    text[neg, start[neg]] = ord("-")
    start[~ok] = _FIXED3_SEP + 1
    out = str(text[_KEEP.take(start, axis=0)].data, "ascii")
    ends = np.cumsum(_FIXED3_SEP + 1 - start)
    if ok.all():
        return out, ends
    bad = np.flatnonzero(~ok)
    cuts = ends[bad].tolist()
    spelled = ["%.3f%c" % vs for vs in zip(x[bad].tolist(), sep[bad].tolist())]
    extra = np.zeros(len(x), np.intp)
    extra[bad] = [len(s) for s in spelled]
    pieces = [out[i:j] + s for i, j, s in zip([0] + cuts, cuts, spelled)]
    return "".join(pieces) + out[cuts[-1]:], ends + np.cumsum(extra)


@functools.cache
def g17_tables():
    """The read-only "%.17g" tables: trailing_zeros4, the trailing zeros of each
    4-digit group; pow10, rows of 10**p for p <= 22 (exact doubles) and of its
    dekker_split; positions, the source-byte positions of each spelling and then
    of the separator; lengths, the spelling lengths.  Row (e + 6) * 17 + nd - 1
    spells a number of decimal exponent e in [-6, 16] and nd significant digits
    as %.17g does: ddd[.ddd] for e >= 0, 0.000ddd for e >= -4, d[.ddd]e-0X below;
    row _G17_FALLBACK + n copies n bytes of a % spelling."""
    trailing_zeros4 = np.zeros(10000, np.uint8)
    for step in (10, 100, 1000, 10000):
        trailing_zeros4[::step] += 1
    pow10 = 10.0 ** np.arange(23)
    digits = list(range(3, 20))
    bodies = []
    for e in range(-6, 17):
        for nd in range(1, 18):
            if e >= 0:
                body = digits[:max(nd, e + 1)]
                if nd > e + 1:
                    body.insert(e + 1, _G17_POINT)
            elif e >= -4:
                body = [_G17_ZERO, _G17_POINT] + [_G17_ZERO] * (-e - 1) + digits[:nd]
            else:
                body = digits[:nd] + [_G17_E, _G17_MINUS, _G17_ZERO, _G17_EXP]
                if nd > 1:
                    body.insert(1, _G17_POINT)
            bodies.append(body)
    bodies += [list(range(n)) for n in range(25)]
    positions = np.zeros((len(bodies), _G17_SEP + 1), np.intp)
    lengths = np.empty(len(bodies), np.uint8)
    for k, body in enumerate(bodies):
        positions[k, :len(body) + 1] = body + [_G17_SEP]
        lengths[k] = len(body)
    tables = SimpleNamespace(trailing_zeros4=trailing_zeros4, positions=positions,
                             lengths=lengths, pow10=np.array([pow10, *dekker_split(pow10)]))
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def rows_to_text(rows):
    """Bytes of each row of the 2-d float array rows as "%.17g %.17g ... %.17g\\n"."""
    sep = np.full(rows.shape[1], ord(" "), np.uint8)
    sep[-1] = ord("\n")
    sep = np.tile(sep, min(len(rows), _ROWS_PER_BLOCK))
    blocks = (rows[i:i + _ROWS_PER_BLOCK].ravel() for i in range(0, len(rows), _ROWS_PER_BLOCK))
    return b"".join(numbers_to_text(x, sep[:len(x)]) for x in blocks)


def digits17(x):
    """(digits, e, ok): "%.17g" % x[i] spells the int64 digits[i] * 10**(e[i] - 16)
    wherever ok[i], which marks x in the exact domain (module docstring)."""
    ok = (x > 0) & (x < np.inf)
    xs = np.where(ok, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.intp)
    ok &= (e >= -6) & (e <= 16)
    xs[~ok], e[~ok] = 1.0, 0
    p = 16 - e  # hi + lo == xs * 10**p exactly: Dekker's two-product, no underflow here
    hi, lo = two_product(xs, *(row[p] for row in g17_tables().pow10))
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # digits == 10**16 also comes from hi + lo in [1e16 - 0.5, 1e16)
    ok &= (digits < 10**17) & ((digits > 10**16) | ((digits == 10**16) & (lo >= 0)))
    return digits, e, ok


def numbers_to_text(x, sep):
    """Bytes of "%.17g" % x[i] followed by the byte sep[i], for every i; sep is a
    uint8 array as long as x.  % spells x outside the exact domain (module docstring)."""
    digits4 = digit_groups()[0]
    tables = g17_tables()
    digits, e, ok = digits17(x)
    src = np.empty((len(x), 8), np.uint32)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    high8 = rest // 10**8
    low8 = rest - high8 * 10**8
    groups = [lead, high8 // 10**4, high8 % 10**4, low8 // 10**4, low8 % 10**4]
    for col, group in enumerate(groups):
        src[:, col] = digits4[group]
    src[:, 5] = np.frombuffer(b".e-0", np.uint32)
    text = src.view(np.uint8)
    text[:, _G17_EXP] = ord("0") - e
    text[:, _G17_SEP] = sep
    zeros = tables.trailing_zeros4[groups[4]]  # trailing zeros after the lead digit
    j = np.flatnonzero(zeros == 4)
    for group in groups[3:0:-1]:
        zeros[j] += tables.trailing_zeros4[group[j]]
        j = j[group[j] == 0]
    spelling = (e + 6) * 17 + (16 - zeros)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        fallback = ["%.17g" % v for v in x[bad].tolist()]
        text[bad, :24] = np.array(fallback, "S24").view(np.uint8).reshape(-1, 24)
        spelling[bad] = _G17_FALLBACK + np.array([len(s) for s in fallback])
    positions = tables.positions.take(spelling, axis=0)
    positions += np.arange(0, text.size, text.shape[1])[:, None]
    chars = text.ravel().take(positions)
    keep = np.arange(_G17_SEP + 1, dtype=np.uint8) <= tables.lengths[spelling][:, None]
    return chars[keep].tobytes()


def quotients(d, k):
    """d / 10**k for int64 d >= 0 and k <= 22: the quotient of d's high bits (an
    exact double), corrected once by its exact remainder.  Checked by read_decimals."""
    high = d & -(2**26)
    p, p_high, p_low = (row[k] for row in g17_tables().pow10)
    q = high / p
    hi, lo = two_product(q, p, p_high, p_low)
    return q + (((high - hi) - lo) + (d - high)) / p


def read_decimals(d, k):
    """(x, exact): x[i] == float() of the decimal d[i] / 10**k[i] wherever exact[i];
    d is an int64 array >= 0, k the digits after the point (module docstring)."""
    pow10 = g17_tables().pow10[0, :18].astype(np.int64)
    x = quotients(d, np.minimum(k, 22))  # k > 22 fails the check on e below
    nd = np.searchsorted(pow10, d, side="right")  # d's digits, 18 from 10**17 up
    digits, e, ok = digits17(x)
    want = d * pow10[17 - np.minimum(nd, 17)]  # the token's 17 digits
    return x, ok & (digits == want) & (e == nd - 1 - k)
