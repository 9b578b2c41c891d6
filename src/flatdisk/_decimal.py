"""Exact decimal text of float64 arrays, and the floats of decimal tokens.

fixed3 spells "%.3f" for the SVG writer, rows_to_text "%.17g" for the
profile writer and g12_rows "%.12g" for `flatdisk project`, byte for byte as
CPython's correctly rounded % does, and read_rows gives the profile and CSV
readers the floats float() gives, all by integer arithmetic in numpy on
Dekker's two-product (T. J. Dekker, Numer. Math. 18, 1971): with b split
into two halves of at most 26 significant bits (dekker_split), two_product
gives hi = a * b rounded and its exact error lo, so that hi + lo == a * b,
barring overflow and underflow.  The digits come four at a time from one
table of "0000" to "9999" (digit_groups).  This module and its tables are
built on first use: importing the package or the CLI loads none of them,
and writing SVG builds no "%.17g" tables (g17_tables).

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

g12_rows: for x of decimal exponent e in [-4, 11] (from log10, kept where hi
lies in [1e11, 1e12)), hi = |x| * 10**(11 - e) rounded is below 2**52, and the
12 digits m are found as fixed3 finds its own; a carry to 10**12 adds one to e.
Floor and subtract split m into groups of four exactly, as m < 1e12 < 2**53.
0 and -0.0 take m = 0 and are spelled "0" and "-0", the sign from signbit.
% spells the rest one at a time: non-finite values and other e.

rows_to_text: for a positive finite x with decimal exponent e in [-6, 16],
10**(16 - e) is an exact double and x * 10**(16 - e) = hi + lo exactly.
hi is then an even integer at least 2**53, so its 17 digits are
hi + rint(lo), rounded half to even as CPython rounds (numbers_to_text).  e is
taken from log10 and kept only where hi + lo lies in [1e16, 1e17) and the
17 digits stay below 1e17.  % spells the rest one at a time: zero, -0.0,
negatives, inf, nan, x below 1e-6 or from 1e17 up, and the rare x next to
a power of ten whose log10 gives the wrong e.

Both g12_rows and rows_to_text give each number a cell that holds every byte
its spelling may need, the digits interleaved with point slots, or its %
spelling.  ANDed with a mask of 0x00 and 0xFF bytes chosen by the spelling,
its NULs deleted by bytes.translate (no kept byte is NUL), it is the text.  A
boolean index by the same masks, runs of one byte, is several times slower.

read_decimals reads a token as d / 10**k, d its digits and k those after
the point (W. D. Clinger, PLDI 1990; D. Lemire, Softw. Pract. Exper. 51,
2021).  Where 0 < d < 2**53 and k <= 22, d and 10**k are exact doubles and
d / 10**k is one correctly rounded division: float(token) itself.
Elsewhere quotients gives a candidate q and remainder r = d - q * 10**k to
within 2**-25: with high = d & -2**26 and q * 10**k = hi + lo (two_product),
only the last two sums of ((high - hi) - lo) + (d - high) round, each below 2**27.
q is kept where |r| < (1/2 - 2**-22) g * 10**k, g the gap from q to its neighbour
on r's side (below a power of two, half the one above).  Off Clinger's path a kept
d is at least 2**53, so g * 10**k >= 1 and the margin exceeds r's error: q is
float(token), and a tie fails.  On Clinger's path g * 10**k can be 3e-7
(224.0696899), too small for the test.  float() reads ties, 0, k > 22, a q that
is not finite, and d == 2**63 - 1, where np.fromstring saturates longer tokens.
read_rows cuts rows into tokens with numpy and negates a leading "-".  It
and g12_rows compare floats, not int64 arrays, and their tables are built
in Python, so that a CSV job pages in few of numpy's loops.
"""

from __future__ import annotations

import functools
from itertools import chain, product

import numpy as np

_DEKKER_SPLIT = 134217729.0  # 2**27 + 1
_FIXED3_LIMIT = 1e6  # up to 7 integer digits, so a row has room for the sign
# A fixed3 row of 16 bytes: two digit groups of the integer part (bytes 0-7),
# ".ddd" (8-11), the separator (12) and 3 spare bytes.  _KEEP[s] keeps bytes s
# to 12, the spelling that starts at byte s and its separator; s = 13 keeps none.
_FIXED3_SEP = 12
_KEEP = np.array([[s <= j <= _FIXED3_SEP for j in range(16)] for s in range(_FIXED3_SEP + 2)])
_TENS = np.array([10**k for k in range(1, 7)])  # integer parts from these up have one more digit

# A "%.17g" cell of 6 int64: "0.000", 17 digits at bytes 5, 7, ..., 37 each followed
# by ".", "e-0" and the exponent digit of e-05 / e-06 (39-42), and the separator (43).
# Keep mask (e + 6) * 17 + nd - 1 spells exponent e in [-6, 16] and nd digits;
# _G17_FALLBACK + n keeps bytes < n, a % spelling and its separator.
_G17_CELL = 48
_G17_FALLBACK = 23 * 17
# A "%.12g" cell of 4 int64: "-0.000", 12 digits at bytes 6, 8, ..., 28 each followed
# by ".", and "," at 31.  Keep mask (neg * 16 + e + 4) * 13 + nd spells sign neg, exponent
# e in [-4, 11] and nd digits (0 and -0.0: e = nd = 0); _G12_FALLBACK + n keeps bytes < n.
_G12_CELL = 32
_G12_FALLBACK = 2 * 16 * 13
_G12_ROWS = 1024  # rows per block: 192 KB of cells and masks
_ROWS_PER_BLOCK = 4096  # bounds the temporaries: 0.8 MB of cells and masks for 2 columns


def dekker_split(a):
    """(high, low) with high + low == a, each with at most 26 significant bits."""
    c = _DEKKER_SPLIT * a
    high = c - (c - a)
    return high, a - high


# 10**p for p <= 22 (exact doubles) and its dekker_split; the trailing zeros of k < 10**4
_POW10 = np.array([10.0**p for p in range(23)])
_POW10 = np.array([_POW10, *dekker_split(_POW10)])
_POW10.flags.writeable = False
_ZEROS4 = bytearray(10000)
for _step in (10, 100, 1000, 10000):
    _ZEROS4[::_step] = bytes(z + 1 for z in _ZEROS4[::_step])
_ZEROS4 = np.frombuffer(bytes(_ZEROS4), np.uint8)


def two_product(a, b, b_high, b_low):
    """(hi, lo) with hi = a * b rounded and hi + lo == a * b exactly; (b_high, b_low) splits b."""
    hi = a * b
    ah, al = dekker_split(a)
    return hi, ((ah * b_high - hi) + ah * b_low + al * b_high) + al * b_low


@functools.cache
def digit_groups():
    """(digits4, point3), read-only uint32 tables of 4 ASCII bytes each:
    the digits of k < 10**4 ("0042"), and "." and the 3 digits of k < 1000 (".042")."""
    digits = b"0123456789"  # built byte by byte in Python: no numpy loops, no temporaries
    return tuple(np.frombuffer(bytes(chain.from_iterable(product(*groups))), np.uint32)
                 for groups in ((digits,) * 4, (b".",) + (digits,) * 3))


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
    """The read-only keep masks of a "%.17g" cell, 6 int64 of 0x00 or 0xFF bytes each:
    one per spelling, ddd[.ddd] for e >= 0, 0.0ddd for e >= -4 and d[.ddd]e-0X below,
    then one per % spelling and separator of 0 to 25 bytes (_G17_CELL)."""
    rows = []
    for e, nd in product(range(-6, 17), range(1, 18)):
        keep = {43} | {5 + 2 * i for i in range(max(nd, e + 1))}  # the separator and digits
        if e < -4:  # "e-0X", and the point after the lead digit if more follow
            keep |= {6, 39, 40, 41, 42} if nd > 1 else {39, 40, 41, 42}
        elif e < 0:  # "0." and -e - 1 zeros
            keep |= set(range(1 - e))
        elif e < nd - 1:  # the point after digit e
            keep.add(6 + 2 * e)
        rows.append(bytes(j in keep for j in range(_G17_CELL)))
    rows += [bytes(j < n for j in range(_G17_CELL)) for n in range(26)]
    return np.frombuffer(b"".join(rows).replace(b"\1", b"\xff"), np.int64).reshape(len(rows), -1)


def rows_to_text(rows):
    """Bytes of each row of the 2-d float array rows as "%.17g %.17g ... %.17g\\n"."""
    sep = np.full(rows.shape[1], ord(" "), np.uint8)
    sep[-1] = ord("\n")
    sep = np.tile(sep, min(len(rows), _ROWS_PER_BLOCK))
    blocks = (rows[i:i + _ROWS_PER_BLOCK].ravel() for i in range(0, len(rows), _ROWS_PER_BLOCK))
    return b"".join(numbers_to_text(x, sep[:len(x)]) for x in blocks)


def numbers_to_text(x, sep):
    """Bytes of "%.17g" % x[i] followed by the byte sep[i], for every i; sep is a
    uint8 array as long as x.  % spells x outside the exact domain (module docstring)."""
    ok = (x > 0) & (x < np.inf)
    xs = np.where(ok, x, 1.0)
    e = np.floor(np.log10(xs))
    ok &= (e >= -6.0) & (e <= 16.0)
    xs[~ok], e[~ok] = 1.0, 0.0
    e = e.astype(np.intp)
    p = 16 - e  # hi + lo == xs * 10**p exactly: Dekker's two-product, no underflow here
    hi, lo = two_product(xs, *(row[p] for row in _POW10))
    units = np.rint(lo)
    digits = hi.astype(np.int64) + units.astype(np.int64)  # "%.17g" is digits * 10**(e - 16)
    # where ok, 10**16 <= digits < 10**17 in float compares: hi is an integer of ulp 2
    # or more, |lo| <= ulp / 2, and digits == 10**16 also comes from hi + lo < 1e16
    ok &= (hi < 1e17) | ((hi == 1e17) & (units < 0))
    ok &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    del xs, p, hi, lo, units  # bounds the block's temporaries
    digits4 = digit_groups()[0]
    lead = digits // 10**16
    rest = digits - lead * 10**16
    high8 = rest // 10**8
    low8 = rest - high8 * 10**8
    groups = [lead, high8 // 10**4, high8 % 10**4, low8 // 10**4, low8 % 10**4]
    text = np.empty((len(x), _G17_CELL // 8), np.int64)
    chars = text.view(np.uint8)
    zero = digits4[:1].tobytes()[:1]  # the table's "0", for "0.000"
    chars[:, :42] = np.frombuffer(zero + b"." + zero * 3 + b"0." * 17 + b"e-0", np.uint8)
    chars[:, 5:39:2] = digits4.take(np.stack(groups, axis=1)).view(np.uint8)[:, 3:]
    chars[:, 42] = ord("0") - e
    chars[:, 43] = sep
    zeros = _ZEROS4[groups[4]]  # trailing zeros after the lead digit
    j = np.flatnonzero(zeros == 4)
    for group in groups[3:0:-1]:
        zeros[j] += _ZEROS4[group[j]]
        j = j[group[j] == 0]
    spelling = (e + 6) * 17 + (16 - zeros)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        spelled = ["%.17g%c" % vs for vs in zip(x[bad].tolist(), sep[bad].tolist())]
        chars[bad, :25] = np.array(spelled, "S25").view(np.uint8).reshape(-1, 25)
        spelling[bad] = [_G17_FALLBACK + len(s) for s in spelled]
    text &= g17_tables().take(spelling, axis=0)  # NUL the bytes not kept
    return text.tobytes().translate(None, b"\0")


def remainder(d, q, k):
    """d - q * 10**k for int64 d >= 0, k <= 22 and q * 10**k near d (module docstring)."""
    high = d & -(2**26)  # an exact double
    hi, lo = two_product(q, *(row[k] for row in _POW10))
    return ((high - hi) - lo) + (d - high)


def quotients(d, k):
    """d / 10**k for int64 d >= 0 and k <= 22: the quotient of d's high bits (an
    exact double), corrected once by its remainder.  Checked by read_decimals."""
    q = (d & -(2**26)) / _POW10[0][k]
    return q + remainder(d, q, k) / _POW10[0][k]


def read_decimals(d, k):
    """(x, exact): x[i] == float() of the decimal d[i] / 10**k[i] wherever exact[i]; d
    is an int64 array >= 0, k floats, the digits after the point (module docstring)."""
    x = d.astype(float)  # exact below 2**53
    k22 = np.minimum(k, 22.0).astype(np.intp)  # k > 22 fails ok below
    ok = (x > 0) & (d < 2**63 - 1) & (k <= 22.0)  # 0, "-", "-." and a saturated d go to float()
    exact = ok & (x < 2.0**53)  # Clinger's path
    x /= _POW10[0].take(k22)
    slow = np.flatnonzero(~exact) if exact.any() else slice(None)  # profiles: all slow
    d, k22 = d[slow], k22[slow]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite q fails the test
        q = x[slow] = quotients(d, k22)
        r = remainder(d, q, k22)
        gap = np.where(r < 0.0, q - np.nextafter(q, 0.0), np.nextafter(q, np.inf) - q)
        exact[slow] = ok[slow] & (np.abs(r) < (0.5 - 2.0**-22) * gap * _POW10[0][k22])
    return x, exact


def read_rows(body, start, sep, parse, block):
    """(2, n) array of the n rows "token<sep>token\\n" of the str body[start:]
    (the last "\\n" optional), read in blocks of about block characters as parse
    (float) reads them; None for a character not in 0-9 . e - + sep "\\n", another
    layout, or a token parse rejects."""
    rows, row = np.empty((2, body.count("\n", start) + 1)), 0
    code, others = ord(sep), b"0123456789.\n" + sep.encode()
    spaced = bytes.maketrans(b"e-+" + sep.encode(), b"000 ")
    while start < len(body):
        end = body.find("\n", start + block) + 1 or len(body)  # 0: no "\n" left
        chunk = body[start:end].encode("ascii", "replace")  # "?" for the others: rejected
        chunk, start = chunk + b"\n"[:body[end - 1] != "\n"], end
        signs = chunk.translate(None, others)
        if signs.translate(None, b"e-+"):
            return None
        a = np.frombuffer(chunk, np.uint8)
        stops = a == code
        stops |= a == ord("\n")
        marks = np.flatnonzero(stops | (a == ord(".")))  # token ends and points, in order
        point = np.flatnonzero(~stops[marks])  # marks[point + 1] ends the point's token
        ends = marks[stops[marks]]
        # the guard above keeps np.fromstring to digits and spaces, where numpy 1.24
        # would warn; an empty token or a lone "." changes the count
        d = np.fromstring(chunk.translate(spaced, b"."), np.int64, sep=" ")
        # rows alternate sep and "\n", and no point follows a point in its token
        if (len(d) != len(ends) or not np.all(stops[marks[point + 1]])
                or a[ends].tobytes() != (sep + "\n").encode() * (len(ends) // 2)):
            return None
        k = np.zeros(len(d))  # digits after the point: token i is d[i] / 10**k[i]
        k[point - np.arange(len(point))] = marks[point + 1] - marks[point] - 1.0
        del stops, marks  # the peak is in read_decimals
        neg = np.flatnonzero(a[np.r_[0, ends[:-1] + 1]] == ord("-")) if signs else []
        if len(neg) < len(signs):  # an exponent, a "+" or an inner "-": left to parse
            marked = (a == ord("-")) | (a == ord("e")) | (a == ord("+"))
            d[np.searchsorted(ends, np.flatnonzero(marked))] = 0
        x, exact = read_decimals(d, k)  # x == float(token) where exact
        x[neg] *= -1.0
        bad = np.flatnonzero(~exact)
        try:  # token 0 starts at ends[-1] + 1 == len(chunk), that is at 0
            x[bad] = [parse(chunk[i % len(chunk):j])
                      for i, j in zip((ends[bad - 1] + 1).tolist(), ends[bad].tolist())]
        except ValueError:
            return None
        rows[:, row:row + len(x) // 2] = x.reshape(-1, 2).T
        row += len(x) // 2
    return rows[:, :row]


@functools.cache
def g12_keep():
    """The read-only keep masks of a "%.12g" cell, 4 int64 of 0x00 or 0xFF bytes each:
    one per spelling, then one per % spelling or tail of 0 to 24 bytes (_G12_CELL)."""
    rows = []
    for neg, e, nd in product((0, 1), range(-4, 12), range(13)):
        keep = {0, 31} if neg else {31}  # "-" and ","
        keep |= set(range(1, 2 - e if e < 0 else 1))  # "0." and -e - 1 zeros
        keep |= {6 + 2 * i for i in range(max(e, nd - 1) + 1)}  # the digits, "0" for nd = 0
        keep |= {7 + 2 * e} if 0 <= e < nd - 1 else set()  # the point
        rows.append(bytes(j in keep for j in range(_G12_CELL)))
    rows += [bytes(j < n for j in range(_G12_CELL)) for n in range(25)]
    return np.frombuffer(b"".join(rows).replace(b"\1", b"\xff"), np.int64).reshape(len(rows), -1)


def g12_rows(rows, tails):
    """Bytes of each row of the 2-d float array rows as "%.12g," per number
    followed by the same row of tails, a uint8 array of at most 24 columns and no NUL."""
    return b"".join(_g12_block(rows[i:i + _G12_ROWS], tails[i:i + _G12_ROWS])
                    for i in range(0, len(rows), _G12_ROWS))


def _g12_block(x, tail):
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 1e-4) & (a < 1e12)  # False for 0, inf and nan
    a[~ok] = 1.0
    ok |= zero  # 0 and -0.0 run as 1.0 until m is set to 0
    e = np.minimum(np.floor(np.log10(a)), 11.0)  # 12 by rounding just below 1e12
    p = (11.0 - e).astype(np.intp)
    hi = a * _POW10[0].take(p)
    ok &= (hi >= 1e11) & (hi < 1e12)  # else log10 missed e, next to a power of ten
    m = np.rint(hi)
    hi -= m  # exact: the distance of hi from m, +-0.5 where hi is a half-integer
    tie = np.flatnonzero(np.abs(hi) == 0.5)
    if len(tie):  # as in fixed3, lo's sign rounds away from the half-integer
        lo = two_product(a.ravel()[tie], *(row.take(p.ravel()[tie]) for row in _POW10))[1]
        m.ravel()[tie] += np.where(2.0 * hi.ravel()[tie] == np.sign(lo), np.sign(lo), 0.0)
    e[m == 1e12] += 1.0  # 99999999999.95 rounds to 100000000000: one digit more
    m[m == 1e12] = 1e11
    ok &= e <= 11.0
    m[zero] = 0.0  # e is 0: no significant digit, spelled "0" or "-0"
    high = np.floor(m / 1e8)  # exact digit groups, as m < 1e12 < 2**53
    m -= high * 1e8
    mid = np.floor(m / 1e4)
    groups = np.stack((high, mid, m - mid * 1e4), axis=-1).astype(np.intp)
    zeros = _ZEROS4.take(groups).astype(float)
    last = zeros[..., 2]  # the trailing zeros of the 12 digits
    last += (last == 4.0) * (zeros[..., 1] + (zeros[..., 1] == 4.0) * zeros[..., 0])
    n, c = x.shape
    spelling = np.full((n, c + 1), _G12_FALLBACK + tail.shape[1] + 0.0)
    spelling[:, :c] = (np.signbit(x) * 16.0 + e + 4.0) * 13.0 + (12.0 - last)
    text = np.empty((n, c + 1, _G12_CELL // 8), np.int64)
    text[:, :c] = np.frombuffer(b"-0.000" + b"0." * 12 + b" ,", np.int64)
    chars = text.view(np.uint8)
    chars[:, :c, 6:30:2] = digit_groups()[0].take(groups).view(np.uint8)
    chars[:, c, :tail.shape[1]] = tail
    if not ok.all():
        bad = np.nonzero(~ok)
        spelled = ["%.12g," % v for v in x[bad].tolist()]
        chars[bad[0], bad[1], :24] = np.array(spelled, "S24").view(np.uint8).reshape(
            len(spelled), -1)
        spelling[bad] = [_G12_FALLBACK + len(s) for s in spelled]
    text &= g12_keep().take(spelling.astype(np.intp), axis=0)  # NUL the bytes not kept
    return text.tobytes().translate(None, b"\0")
