"""Exact decimal text of float64 arrays, and the floats of decimal tokens.

fixed3 spells "%.3f" for the SVG writer and _g_block "%.17g" for the profile
writer (row_blocks) and "%.12g" for `flatdisk project` (g12_rows), byte for
byte as CPython's correctly rounded % does, and read_rows gives the profile and CSV
readers the floats float() gives, all by integer arithmetic in numpy on
Dekker's two-product (T. J. Dekker, Numer. Math. 18, 1971): with b split
into two halves of at most 26 significant bits (dekker_split), two_product
gives hi = a * b rounded and its exact error lo, so that hi + lo == a * b,
barring overflow and underflow.  The digits come four at a time from one
table of "0000" to "9999" (digit_groups).  This module and its tables are
built on first use: importing the package or the CLI loads none of them,
and writing SVG builds no "%g" keep table (g_keep).

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

_g_block spells "%.Ng", n = 12 or 17.  For x of decimal exponent e in [-4, n - 1],
from log10 and kept where hi + lo = |x| * 10**(n - 1 - e) lies in [10**(n - 1), 10**n),
the n digits are m = rint(hi) + rint((hi - rint(hi)) + lo), a carry to 10**n adding
one to e.  From 2**53 up (n = 17) hi is an even integer and m = hi + rint(lo),
rounded half to even as CPython rounds.  Below it (n = 12) hi - rint(hi) is exact,
and lo moves m only where that is +-0.5; lo is then a multiple of 2**-51, so the sum
is exact and lo's sign picks the side (lo == 0 is a true tie, which rint rounded to
even).  So lo is found for every x at n = 17, and at n = 12 only there and where
hi == 10**(n - 1), whose lo tells whether x lies below 10**e.  0 and -0.0 take
m = 0 and e = 0, spelled "0" and "-0", the sign from signbit.  A number's cell of
whole int64 holds "-0.000" and n digit slots, each followed by a point slot, the last
of which no spelling keeps and the separator takes; a row's tail takes one more
cell.  ANDed with a mask of 0x00 and 0xFF bytes chosen by the sign, e and m's
trailing zeros (g_keep), their NULs deleted by bytes.translate (no kept byte is NUL),
the cells are the text; a boolean index by the same masks, runs of one byte, is
several times slower.  % spells the rest into their cells: non-finite values, those
below 1e-4 (the e-05 forms of a profile's smallest angles and values) or from 10**n
up, and the rare x next to a power of ten whose log10 gives the wrong e.

read_decimals reads a token as d / 10**k, d its digits and k those after
the point (W. D. Clinger, PLDI 1990; D. Lemire, Softw. Pract. Exper. 51,
2021).  Where 0 < d < 2**53 and k <= 22, d and 10**k are exact doubles and
d / 10**k is one correctly rounded division: float(token) itself.
Elsewhere corrected takes x = fl(d) / 10**k, the same division, and its remainder
r' = d - x * 10**k to within 2**-25: with high = d & -2**26 and x * 10**k = hi + lo
(two_product), only the last two sums of ((high - hi) - lo) + (d - high) round, each
below 2**27.  It corrects x once, to q = x + r' / 10**k, and gives q's remainder as
r = r' - (q - x) * 10**k, one remainder a token: q - x is at most 2 ulps of x, so it is
exact (Sterbenz) and so is its product with 10**k, as 2 * 5**22 < 2**53.
q is kept where |r| < (1/2 - 2**-22) g * 10**k, g the gap from q to its neighbour
on r's side (below a power of two, half the one above).  Off Clinger's path a kept
d is at least 2**53, so g * 10**k >= 1 and the margin exceeds r's error: q is
float(token), and a tie fails.  On Clinger's path g * 10**k can be 3e-7
(224.0696899), too small for the test.  float() reads ties, 0, k > 22, a q that
is not finite, and d == 2**63 - 1, where np.fromstring saturates longer tokens.
read_rows cuts rows into tokens with numpy and negates a leading "-".  It
compares floats, not int64 arrays, and the tables are built in Python, so
that a CSV job pages in few of numpy's loops.
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

# Rows per writer block.  A profile block of 4,096 rows keeps row_blocks' temporaries
# within test_writer_temporaries_are_bounded; a project block of 1,024 rows keeps each of
# g12_rows' cell and mask arrays (96 KB) under glibc's 128 KB mmap threshold, so a run
# of project jobs takes no page faults in them.
_PROFILE_ROWS = 4096
_PROJECT_ROWS = 1024


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


def remainder(d, q, k):
    """d - q * 10**k for int64 d >= 0, k <= 22 and q * 10**k near d (module docstring)."""
    high = d & -(2**26)  # an exact double
    hi, lo = two_product(q, *(row[k] for row in _POW10))
    return ((high - hi) - lo) + (d - high)


def corrected(d, x, k):
    """(q, r): for int64 d >= 0, k <= 22 and x near d / 10**k, the quotient q of x
    corrected once by its remainder, and q's own remainder r = d - q * 10**k
    (module docstring)."""
    p = _POW10[0][k]
    r = remainder(d, x, k)
    q = x + r / p
    return q, r - (q - x) * p  # exact: q - x is at most 2 ulps and 2 * 5**22 < 2**53


def read_decimals(d, k):
    """(x, exact): x[i] == float() of the decimal d[i] / 10**k[i] wherever exact[i]; d
    is an int64 array >= 0, k floats, the digits after the point (module docstring)."""
    x = d.astype(np.float64)  # exact below 2**53
    k22 = np.minimum(k, 22.0).astype(np.intp)  # k > 22 fails ok below
    ok = (x > 0) & (d < 2**63 - 1) & (k <= 22.0)  # 0, "-", "-." and a saturated d go to float()
    exact = ok & (x < 2.0**53)  # Clinger's path
    x /= _POW10[0].take(k22)
    slow = np.flatnonzero(~exact) if exact.any() else slice(None)  # profiles: all slow
    d, k22 = d[slow], k22[slow]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite q fails the test
        q, r = corrected(d, x[slow], k22)
        x[slow] = q
        gap = np.where(r < 0.0, q - np.nextafter(q, 0.0), np.nextafter(q, np.inf) - q)
        exact[slow] = ok[slow] & (np.abs(r) < (0.5 - 2.0**-22) * gap * _POW10[0][k22])
    return x, exact


def read_rows(body, start, sep, block):
    """(2, n) array of the n rows "token<sep>token\\n" of body[start:], str or bytes
    (the last "\\n" optional), read in blocks of about block characters as float()
    reads them, a str block encoded as it is cut; None for a character not in
    0-9 . e - + sep "\\n", another layout, or a token float() rejects."""
    newline = "\n" if isinstance(body, str) else b"\n"
    rows, row = np.empty((2, body.count(newline, start) + 1)), 0
    code, others = ord(sep), b"0123456789.\n" + sep.encode()
    spaced = bytes.maketrans(b"e-+" + sep.encode(), b"000 ")
    while start < len(body):
        end = body.find(newline, start + block) + 1 or len(body)  # 0: no "\n" left
        chunk, start = body[start:end], end
        if isinstance(chunk, str):
            chunk = chunk.encode("ascii", "replace")  # "?" for the others: rejected
        chunk += b"\n"[:not chunk.endswith(b"\n")]
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
        if len(neg) < len(signs):  # an exponent, a "+" or an inner "-": left to float()
            marked = (a == ord("-")) | (a == ord("e")) | (a == ord("+"))
            d[np.searchsorted(ends, np.flatnonzero(marked))] = 0
        x, exact = read_decimals(d, k)  # x == float(token) where exact
        x[neg] *= -1.0
        bad = np.flatnonzero(~exact)
        try:  # token 0 starts at ends[-1] + 1 == len(chunk), that is at 0
            x[bad] = [float(chunk[i % len(chunk):j])
                      for i, j in zip((ends[bad - 1] + 1).tolist(), ends[bad].tolist())]
        except ValueError:
            return None
        rows[:, row:row + len(x) // 2] = x.reshape(-1, 2).T
        row += len(x) // 2
    return rows[:, :row]


@functools.cache
def g_keep(n):
    """The read-only keep masks of a "%.<n>g" cell, ceil((n + 3) / 4) int64 of 0x00 or
    0xFF bytes each: row (neg * (n + 4) + e + 4) * zs + z spells sign neg, exponent e in
    [-4, n - 1] and digits with z trailing zeros, z < zs = 4 * ceil(n / 4) + 1, and row
    2 * (n + 4) * zs + k keeps the first k bytes, a % spelling or a tail."""
    width = 8 * -(-(n + 3) // 4)  # "-0.000" and n digit and point slots, in whole int64
    rows = []
    for neg, e, z in product((0, 1), range(-4, n), range(4 * -(-n // 4) + 1)):
        nd = max(n - z, 0)  # 0 for 0 and -0.0, spelled with e = 0
        row = bytearray(width)
        row[0] = 255 * neg  # "-"
        if e < 0:
            row[1:2 - e] = b"\xff" * (1 - e)  # "0." and -e - 1 zeros
        last = max(e, nd - 1)  # the digits, "0" for nd = 0
        row[6:7 + 2 * last:2] = b"\xff" * (last + 1)
        if 0 <= e < nd - 1:
            row[7 + 2 * e] = 255  # the point
        row[5 + 2 * n] = 255  # the separator
        rows.append(row)
    rows += [b"\xff" * k + bytes(width - k) for k in range(width + 1)]
    return np.frombuffer(b"".join(rows), np.int64).reshape(len(rows), -1)


def row_blocks(rows):
    """Bytes of each row of the 2-d float array rows as "%.17g %.17g ... %.17g\\n",
    one block of _PROFILE_ROWS rows at a time."""
    sep = b" " * (rows.shape[1] - 1) + b"\n"
    for i in range(0, len(rows), _PROFILE_ROWS):
        yield _g_block(rows[i:i + _PROFILE_ROWS], 17, sep)


def g12_rows(rows, tails):
    """Bytes of each row of the 2-d float array rows as "%.12g," per number
    followed by the same row of tails, a uint8 array of at most 24 columns and no NUL."""
    sep = b"," * rows.shape[1]
    return b"".join(_g_block(rows[i:i + _PROJECT_ROWS], 12, sep, tails[i:i + _PROJECT_ROWS])
                    for i in range(0, len(rows), _PROJECT_ROWS))


def _g_block(x, n, sep, tail=None):
    """Bytes of each row of the 2-d float array x as "%.<n>g" of each number followed
    by the byte sep[j] of its column j, then the same row of the uint8 array tail, if
    given; n is 12 or 17 (module docstring)."""
    keep = g_keep(n)
    groups = -(-n // 4)
    cell, zs = keep.shape[1], 4 * groups + 1
    fallback = 2 * (n + 4) * zs
    rows, c = x.shape
    x = x.ravel()
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 1e-4) & (a < 10.0**n)  # False for 0, inf and nan
    a[~ok] = 1.0
    ok |= zero  # 0 and -0.0 run as 1.0 until m is set to 0
    e = np.minimum(np.floor(np.log10(a)), n - 1.0)  # n by rounding just below 10**n
    p = (n - 1.0 - e).astype(np.intp)
    hi = a * _POW10[0].take(p)
    ok &= (hi >= 10.0 ** (n - 1)) & (hi < 10.0**n)  # else log10 missed e, next to a power of ten
    m = np.rint(hi)
    hi -= m  # exact: the distance of hi from m, +-0.5 where hi is a half-integer
    # hi's error lo moves m where hi is a half-integer or from 2**53 up, and it puts
    # x below 10**e where hi == 10**(n - 1); elsewhere hi + lo rounds to m
    need = slice(None) if 10.0**n > 2.0**53 else np.flatnonzero(
        (np.abs(hi) == 0.5) | (m == 10.0 ** (n - 1)))
    hi[need] += two_product(a[need], *(row.take(p[need]) for row in _POW10))[1]
    ok[need] &= (hi[need] >= 0.0) | (m[need] > 10.0 ** (n - 1))
    m = m.astype(np.int64)
    m[need] += np.rint(hi[need]).astype(np.int64)
    carry = m == 10**n  # 99999999999.95 rounds to 100000000000: e is one more
    e[carry] += 1.0
    m[carry] = 10 ** (n - 1)
    ok &= e < n
    m[zero] = 0  # e is 0: no significant digit, spelled "0" or "-0"
    digits = np.empty((len(m), groups), np.intp)  # groups of four, the first holds the rest
    for k in range(groups - 1, 0, -1):
        high = m // 10**4
        digits[:, k] = m - high * 10**4
        m = high
    digits[:, 0] = m
    z = _ZEROS4.take(digits[:, -1])  # the trailing zeros, group by group from the last
    i = np.flatnonzero(z == 4)
    for k in range(2, groups + 1):
        z[i] += _ZEROS4.take(digits[i, -k])
        i = i[digits[i, -k] == 0]
    t = 0 if tail is None else tail.shape[1]  # a tail takes one more cell
    spelling = np.full((rows, c + (tail is not None)), fallback + t)
    spelling[:, :c] = ((np.signbit(x) * (n + 4.0) + e + 4.0) * zs + z).reshape(rows, c)
    digits4 = digit_groups()[0]
    digit0 = digits4[:1].tobytes()[:1]  # the table's "0", for "-0.000" and the digit slots
    cells = (b"-" + digit0 + b"." + digit0 * 3 + (digit0 + b".") * n)[:5 + 2 * n]
    text = np.empty(spelling.shape + (cell,), np.int64)
    text[:, :c] = np.frombuffer(b"".join(cells.ljust(8 * cell, sep[j:j + 1]) for j in range(c)),
                                np.int64).reshape(c, -1)
    chars = text.view(np.uint8)
    chars[:, :c, 6:6 + 2 * n:2] = digits4.take(digits).view(np.uint8)[:, 4 * groups - n:].reshape(
        rows, c, n)
    if tail is not None:
        chars[:, c, :t] = tail
    if not ok.all():
        bad = np.flatnonzero(~ok)
        spelled = [b"%.*g%c" % (n, v, sep[j]) for v, j in zip(x[bad].tolist(), (bad % c).tolist())]
        bad = (bad // c, bad % c)
        chars[bad] = np.array(spelled, f"S{8 * cell}").view(np.uint8).reshape(len(spelled), -1)
        spelling[bad] = [fallback + len(s) for s in spelled]
    text &= keep.take(spelling, axis=0)  # NUL the bytes not kept
    return text.tobytes().translate(None, b"\0")
