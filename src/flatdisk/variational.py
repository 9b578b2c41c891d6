"""Independent discrete oracle for the minimum-stress radial function.

Two verification routes, neither of which evaluates the closed form:

* ode_residual / residual_sweep plug a radial function into the
  Euler-Lagrange equation

      sin^2(t) f'' + sin(t)cos(t) f' - f = sin(t)cos(t) - sin(t)

  and report how far it is from being a solution.

* solve_discrete minimizes the midpoint-rule discretization of the stress
  functional over interior node values directly, with only f(0) = 0
  imposed, by one banded LAPACK solve of its stationarity conditions.
  The natural boundary condition f'(pi/2) = 1 is not imposed; it emerges
  from the free endpoint, and the resulting profile can be compared
  node-by-node against any candidate solution.

profile_to_text writes a profile as rows of "%.17g %.17g" text, bit-exact
for parse_profile to read back.  The rows are spelled by one numpy kernel,
_rows_to_text, whose bytes equal the % formatting of every number.  For a
positive finite x with decimal exponent e in [-6, 16], 10**(16 - e) is an
exact double, and Dekker's two-product (T. J. Dekker, Numer. Math. 18,
1971), which the module _decimal shares with the SVG writer, splits
x * 10**(16 - e) exactly into hi + lo.  hi is then an even integer at least
2**53, so its 17 digits are hi + rint(lo), rounded half to even as
CPython's correctly rounded conversion rounds.  e is taken from
log10 and kept only where hi + lo lies in [1e16, 1e17) and the 17 digits
stay below 1e17.  Every other number is formatted by % one at a time: zero,
-0.0, negatives, inf, nan, positive x below 1e-6 or from 1e17 up, and the
rare x next to a power of ten whose log10 gives the wrong e.

parse_profile reads the written layout, rows "token token\n" of the
characters 0-9 . e - +, by their digits (_read_rows; W. D. Clinger, PLDI
1990, and D. Lemire, Softw. Pract. Exper. 51, 2021).  np.fromstring reads
each token with its "." dropped as an int64 d, so the token is the decimal
d / 10**k, k its digits after the point.  _quotients gives a candidate x,
kept only where _digits17, the writer's own rule, spells x as the token's
decimal: "%.17g" % x and the token then name one number, and 17 digits
round-trip, so float(token) == x.  float() reads every other token: with a
sign or an exponent, zero, 18 digits or more (np.fromstring saturates at
2**63 - 1), over 22 after the point, or failing the check.  Any other text,
every error included, is read line by line by _parse_lines, to the numbers
float() gives.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .closedform import HALF_PI

__all__ = [
    "RadialProfile",
    "OdeResidualReport",
    "SolverError",
    "ode_residual",
    "residual_sweep",
    "solve_discrete",
    "endpoint_slope",
    "profile_to_text",
    "parse_profile",
    "load_profile",
    "save_profile",
]


class SolverError(RuntimeError):
    """The banded Cholesky solve failed, or gave a non-finite or non-increasing f."""


@dataclass(frozen=True)
class RadialProfile:
    """Radial function sampled on a uniform grid over [0, pi/2]."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.thetas.shape != self.values.shape or self.thetas.ndim != 1:
            raise ValueError("thetas and values must be 1-d arrays of equal length")
        if len(self.thetas) < 2:
            raise ValueError("profile needs at least 2 samples")
        if self.values[0] != 0.0:
            raise ValueError("profile must start at f(0) = 0 exactly")
        steps = np.diff(self.thetas)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
            raise ValueError("theta grid must be uniform")

    def is_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.values) > 0))


@dataclass(frozen=True)
class OdeResidualReport:
    """Residuals of the Euler-Lagrange ODE at a batch of sample angles."""

    grid: np.ndarray
    residuals: np.ndarray
    max_abs: float


def ode_residual(rf, theta):
    """LHS minus RHS of the Euler-Lagrange equation at theta in (0, pi/2].

    rf must provide value, derivative, and second_derivative callables
    (a stress.RadialFunction with second_derivative set qualifies).
    Zero for exact solutions; affine in f.
    """
    if getattr(rf, "second_derivative", None) is None:
        raise ValueError("ode_residual needs a radial function with a second derivative")
    t = np.asarray(theta, dtype=float)
    if np.any(np.atleast_1d(t) <= 0.0) or np.any(np.atleast_1d(t) > HALF_PI):
        raise ValueError("ode_residual is defined on (0, pi/2]")
    s, c = np.sin(t), np.cos(t)
    lhs = (s * s * np.asarray(rf.second_derivative(t), dtype=float)
           + s * c * np.asarray(rf.derivative(t), dtype=float)
           - np.asarray(rf.value(t), dtype=float))
    rhs = s * c - s
    out = lhs - rhs
    return float(out) if out.ndim == 0 else out


def residual_sweep(rf, n_samples: int) -> OdeResidualReport:
    """Residuals at n_samples uniform points in [1e-3, pi/2]."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    grid = np.linspace(1e-3, HALF_PI, n_samples)
    residuals = ode_residual(rf, grid)
    return OdeResidualReport(
        grid=grid, residuals=residuals, max_abs=float(np.max(np.abs(residuals)))
    )


def solve_discrete(n: int) -> RadialProfile:
    """Minimize the discretized stress functional on an n-interval grid.

    Midpoint rule on each interval: with nodes t_0..t_n, midpoints m_i and
    unknowns f_1..f_n (f_0 = 0 eliminated), each interval contributes

        h*sin(m_i) * [ ((f_i - f_{i-1})/h - 1)^2
                     + ((f_i + f_{i-1})/(2 sin m_i) - 1)^2 ].

    The stationarity conditions form a symmetric positive-definite
    tridiagonal system, solved by banded Cholesky factorization (LAPACK
    pbtrf/pbtrs through scipy.linalg.solveh_banded).  Row n has no right
    neighbour, which is exactly the free endpoint that makes the slope
    condition at pi/2 emerge rather than being imposed.
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    h = HALF_PI / n
    thetas = np.linspace(0.0, HALF_PI, n + 1)
    mids = thetas[:-1] + 0.5 * h
    sm = np.sin(mids)           # sin at midpoint of interval i (i = 1..n)
    w = h * sm                  # quadrature weight per interval

    # Per-interval quadratic form in (f_{i-1}, f_i):
    #   d2/dq2 = 2w/h^2 + w/(2 sm^2)   (same for p), cross = -2w/h^2 + w/(2 sm^2)
    #   linear gradient at f=0: dq: -2w/h - w/sm,  dp: +2w/h - w/sm
    a = 2.0 * w / h**2 + w / (2.0 * sm * sm)
    b = -2.0 * w / h**2 + w / (2.0 * sm * sm)
    r_q = 2.0 * w / h + w / sm
    r_p = -2.0 * w / h + w / sm

    diag = np.empty(n)
    diag[:-1] = a[:-1] + a[1:]   # rows 1..n-1 see intervals k and k+1
    diag[-1] = a[-1]             # row n: free endpoint, interval n only
    off = b[1:]                  # coupling (f_k, f_{k+1}) from interval k+1
    rhs = np.empty(n)
    rhs[:-1] = r_q[:-1] + r_p[1:]
    rhs[-1] = r_q[-1]

    # imported here, not at module level, so that importing the package
    # (and the CLI) loads no scipy
    from scipy.linalg import LinAlgError, solveh_banded

    try:
        # upper banded storage: row 0 holds the superdiagonal, padded on the left
        f = solveh_banded(np.vstack((np.concatenate(([0.0], off)), diag)), rhs)
    except LinAlgError as exc:
        raise SolverError(f"banded Cholesky solve failed: {exc}") from None
    if not np.all(np.isfinite(f)):
        raise SolverError("banded Cholesky solve produced non-finite values")
    values = np.concatenate(([0.0], f))
    profile = RadialProfile(thetas=thetas, values=values)
    if not profile.is_strictly_increasing():
        raise SolverError("discrete minimizer is not strictly increasing")
    return profile


def endpoint_slope(profile: RadialProfile) -> float:
    """One-sided three-point slope estimate at theta = pi/2."""
    v = profile.values
    h = profile.thetas[1] - profile.thetas[0]
    return float((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h))


def discrete_objective(profile: RadialProfile) -> float:
    """Midpoint-rule stress objective of a profile on its own grid (no 2 pi)."""
    t, v = profile.thetas, profile.values
    h = t[1] - t[0]
    sm = np.sin(t[:-1] + 0.5 * h)
    slope = np.diff(v) / h
    mean = 0.5 * (v[:-1] + v[1:])
    return float(np.sum(h * sm * ((slope - 1.0) ** 2 + (mean / sm - 1.0) ** 2)))


# --- two-column text serialization -----------------------------------------

def profile_to_text(profile: RadialProfile, comment: str = "") -> str:
    """The profile as text: # header lines, then one "theta f" row per node.

    Each row holds the bytes of "%.17g %.17g\\n" % (theta, f), so
    parse_profile reads back the same floats bit for bit.  comment, if
    given, is a second # line.  The numbers are spelled by _rows_to_text,
    by integer arithmetic from about 1e-6 to below 1e17 and by % elsewhere
    (the module docstring gives the argument).
    """
    lines = ["# flat-disk radial profile: theta f(theta)"]
    if comment:
        lines.append(f"# {comment}")
    rows = _rows_to_text(np.column_stack((profile.thetas, profile.values)))
    return "\n".join(lines) + "\n" + rows.decode("ascii")


_ROWS_PER_BLOCK = 4096  # bounds the temporaries: 1.6 MB of byte positions for 2 columns

# One number's source bytes, a row of 8 uint32: the digit groups "000d",
# "dddd" x 4 of its 17 significant digits (bytes 0-19, byte 0 a spare "0"),
# ".e-" and the exponent digit of e-05 / e-06 (20-23), and the separator
# that follows it (24).  A number outside the exact domain has its %
# spelling in bytes 0-23 instead.
_ZERO, _POINT, _E, _MINUS, _EXP, _SEP = 0, 20, 21, 22, 23, 24
_FALLBACK = 23 * 17


@functools.cache
def _tables():
    """The kernel's read-only tables, built on the first profile written or read.

    In order: the 4 digits of each k < 10**4 as one uint32 (the table of
    _decimal.digit_groups); the trailing zeros of each 4-digit group; 10**p
    for p <= 22 (each an exact double), split high and low by
    _decimal.dekker_split; the source-byte positions of each
    spelling and then of the separator, and the spelling lengths.  Row
    (e + 6) * 17 + nd - 1 spells a number with decimal exponent e in
    [-6, 16] and nd significant digits the way %.17g does: ddd[.ddd] for
    e >= 0, 0.000ddd for e >= -4, d[.ddd]e-0X below; row _FALLBACK + n
    copies n bytes of a % spelling.
    """
    from ._decimal import dekker_split, digit_groups
    digits4 = digit_groups()[0]
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
                    body.insert(e + 1, _POINT)
            elif e >= -4:
                body = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits[:nd]
            else:
                body = digits[:nd] + [_E, _MINUS, _ZERO, _EXP]
                if nd > 1:
                    body.insert(1, _POINT)
            bodies.append(body)
    bodies += [list(range(n)) for n in range(25)]
    positions = np.zeros((len(bodies), _SEP + 1), np.intp)
    lengths = np.empty(len(bodies), np.uint8)
    for k, body in enumerate(bodies):
        positions[k, :len(body) + 1] = body + [_SEP]
        lengths[k] = len(body)
    tables = digits4, trailing_zeros4, pow10, *dekker_split(pow10), positions, lengths
    for table in tables:
        table.flags.writeable = False
    return tables


def _rows_to_text(rows):
    """Bytes of each row of the 2-d float array rows as "%.17g %.17g ... %.17g\\n"."""
    sep = np.full(rows.shape[1], ord(" "), np.uint8)
    sep[-1] = ord("\n")
    sep = np.tile(sep, min(len(rows), _ROWS_PER_BLOCK))
    tables = _tables()
    blocks = (rows[i:i + _ROWS_PER_BLOCK].ravel() for i in range(0, len(rows), _ROWS_PER_BLOCK))
    return b"".join(_numbers_to_text(x, sep[:len(x)], tables) for x in blocks)


def _digits17(x, tables):
    """(digits, e, ok): "%.17g" % x[i] spells the int64 digits[i] * 10**(e[i] - 16)
    wherever ok[i], which marks x in the exact domain (module docstring)."""
    from ._decimal import two_product
    pow10, pow10_high, pow10_low = tables[2:5]
    ok = (x > 0) & (x < np.inf)
    xs = np.where(ok, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.intp)
    ok &= (e >= -6) & (e <= 16)
    xs[~ok], e[~ok] = 1.0, 0
    p = 16 - e  # hi + lo == xs * 10**p exactly: Dekker's two-product, no underflow here
    hi, lo = two_product(xs, pow10[p], pow10_high[p], pow10_low[p])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # digits == 10**16 also comes from hi + lo in [1e16 - 0.5, 1e16)
    ok &= (digits < 10**17) & ((digits > 10**16) | ((digits == 10**16) & (lo >= 0)))
    return digits, e, ok


def _numbers_to_text(x, sep, tables):
    """Bytes of "%.17g" % x[i] followed by the byte sep[i], for every i.

    sep is a uint8 array as long as x, tables those of _tables().  The
    kernel spells x only where the exponent e from log10 is right; % spells
    the rest (module docstring).
    """
    digits4, trailing_zeros4, _, _, _, spellings, spelling_len = tables
    digits, e, ok = _digits17(x, tables)
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
    text[:, _EXP] = ord("0") - e
    text[:, _SEP] = sep
    zeros = trailing_zeros4[groups[4]]  # trailing zeros after the lead digit
    j = np.flatnonzero(zeros == 4)
    for group in groups[3:0:-1]:
        zeros[j] += trailing_zeros4[group[j]]
        j = j[group[j] == 0]
    spelling = (e + 6) * 17 + (16 - zeros)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        fallback = ["%.17g" % v for v in x[bad].tolist()]
        text[bad, :24] = np.array(fallback, "S24").view(np.uint8).reshape(-1, 24)
        spelling[bad] = _FALLBACK + np.array([len(s) for s in fallback])
    positions = spellings.take(spelling, axis=0)
    positions += np.arange(0, text.size, text.shape[1])[:, None]
    chars = text.ravel().take(positions)
    return chars[np.arange(_SEP + 1, dtype=np.uint8) <= spelling_len[spelling][:, None]].tobytes()


_NOT_BLANK = re.compile(r"\S")  # on ASCII text: a character str.isspace() rejects
_READ_BLOCK = 2**16  # bytes per step of _read_rows, cut after a "\n": bounds its temporaries
_SIGNS_TO_ZEROS = bytes.maketrans(b"e-+", b"000")


def _quotients(d, k, tables):
    """d / 10**k for int64 d >= 0 and k <= 22: the quotient of d's high bits (an
    exact double), corrected once by its exact remainder.  Checked by _read_rows."""
    from ._decimal import two_product
    pow10, pow10_high, pow10_low = tables[2:5]
    high = d & -(2**26)
    p = pow10[k]
    q = high / p
    hi, lo = two_product(q, p, pow10_high[k], pow10_low[k])
    return q + (((high - hi) - lo) + (d - high)) / p


def _read_rows(body: str, start: int = 0):
    """(thetas, values) of the non-empty ASCII body[start:] as float() reads it, or
    None if it is not rows "token token\\n" (module docstring), read in blocks of rows."""
    tables = _tables()
    pow10_int = tables[2][:18].astype(np.int64)
    rows, row = np.empty((2, body.count("\n", start))), 0
    while start < len(body):
        end = body.find("\n", start + _READ_BLOCK) + 1 or len(body)  # 0: no "\n" left
        block, start = body[start:end].encode(), end
        signs = block.translate(None, b"0123456789. \n")
        if signs.translate(None, b"e-+"):
            return None
        a = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero(a <= ord(" "))  # " " and "\n", by the guard above
        if (len(ends) % 2 or np.any(a[ends[::2]] != ord(" "))
                or np.any(a[ends[1::2]] != ord("\n"))):
            return None
        dots = np.flatnonzero(a == ord("."))
        token = np.searchsorted(ends, dots)
        # an empty token, a lone "." or bytes after the last "\n" change the count
        d = np.fromstring(block.translate(_SIGNS_TO_ZEROS, b"."), np.int64, sep=" ")
        if len(d) != len(ends) or np.any(np.diff(token) == 0):
            return None
        k = np.zeros(len(ends), np.intp)  # digits after the point: token i is d[i] / 10**k[i]
        k[token] = ends[token] - dots - 1
        if signs:  # a token with a sign or an exponent is left to float()
            marks = (a > ord("9")) | ((a > ord(" ")) & (a < ord(".")))  # e, + and -
            d[np.searchsorted(ends, np.flatnonzero(marks))] = 0
        x = _quotients(d, np.minimum(k, 22), tables)  # k > 22 fails the check on e below
        nd = np.searchsorted(pow10_int, d, side="right")
        digits, e, ok = _digits17(x, tables)
        want = d * pow10_int[17 - np.minimum(nd, 17)]  # the token's 17 digits
        exact = ok & (digits == want) & (e == nd - 1 - k)  # so x == float(token)
        for i in np.flatnonzero(~exact).tolist():
            try:
                x[i] = float(block[ends[i - 1] + 1 if i else 0:ends[i]])
            except ValueError:
                return None
        rows[:, row:row + len(x) // 2] = x.reshape(-1, 2).T
        row += len(x) // 2
    return rows


def _parse_lines(text: str):
    """(thetas, values) of text, read one line at a time.

    Raises ValueError naming the first line without two columns or with a
    value float() rejects.
    """
    thetas, values = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two columns, got {len(parts)}")
        try:
            thetas.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return np.array(thetas), np.array(values)


def parse_profile(text: str) -> RadialProfile:
    """Read the text profile_to_text writes back into a RadialProfile.

    Format: one sample per line, theta and f(theta) as two whitespace-
    separated floats (profile_to_text writes %.17g); blank lines and lines
    whose first non-blank character is # are skipped.  Below its top #
    lines, ASCII text in the written layout is read by _read_rows; any
    other text, and any token float() rejects, is read line by line by
    _parse_lines.  Both give the numbers float() gives, and a bad line
    raises ValueError naming its line number.
    """
    start = 0  # the body: text from start on, past the top # lines, never copied whole
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)  # 0: no "\n" left
    rows = None
    # _read_rows ends lines at "\n" alone, where str.splitlines also ends them
    # at "\r" and the other breaks, also inside the top # lines
    if (text.isascii() and not any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e")
            and _NOT_BLANK.search(text, start)):
        rows = _read_rows(text, start)
    thetas, values = _parse_lines(text) if rows is None else rows
    if len(thetas) < 3:
        raise ValueError("profile needs at least 3 samples")
    return RadialProfile(thetas=thetas, values=values)


def save_profile(profile: RadialProfile, path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_to_text(profile, comment))


def load_profile(path) -> RadialProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())
