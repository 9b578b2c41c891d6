"""Independent discrete oracle for the minimum-stress radial function.

Two verification routes, neither of which evaluates the closed form:

* ode_residual / residual_sweep plug a radial function into the
  Euler-Lagrange equation

      sin^2(t) f'' + sin(t)cos(t) f' - f = sin(t)cos(t) - sin(t)

  and report how far it is from being a solution.

* solve_discrete minimizes the midpoint-rule discretization of the stress
  functional over interior node values directly, with only f(0) = 0
  imposed, by cyclic reduction of its tridiagonal stationarity conditions
  (recursing on the odd rows) and iterative refinement, repeated while a
  step moves f by more than sqrt(eps) max f, at most 4 times.  The natural
  boundary condition f'(pi/2) = 1 is not imposed; it emerges from the free
  endpoint, and the profile can be compared node-by-node against any
  candidate solution.  richardson combines two solves into an O(h^4) profile.

profile_to_text and parse_profile write and read a profile as text: # lines,
then one row "theta f" per node, each number spelled as "%.17g" spells it,
so that it reads back bit for bit.  The module _decimal spells the numbers
and reads them back.  save_profile and load_profile write and read the same
text as UTF-8 bytes, and decode no row that reads.
"""

from __future__ import annotations

import codecs
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
    "richardson",
    "endpoint_slope",
    "profile_to_text",
    "parse_profile",
    "load_profile",
    "save_profile",
]


class SolverError(RuntimeError):
    """Cyclic reduction failed, or gave a non-finite or non-increasing f."""


@dataclass(frozen=True)
class RadialProfile:
    """Radial function sampled at 3 or more points of a uniform grid over [0, pi/2]."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.thetas.shape != self.values.shape or self.thetas.ndim != 1:
            raise ValueError("thetas and values must be 1-d arrays of equal length")
        if len(self.thetas) < 3:
            raise ValueError("profile needs at least 3 samples")
        if self.values[0] != 0.0:
            raise ValueError("profile must start at f(0) = 0 exactly")
        if not np.isfinite(self.thetas).all():  # before np.diff, which warns on inf - inf
            raise ValueError("thetas must be finite")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        with np.errstate(over="ignore"):  # a step past the float range is not uniform
            steps = np.diff(self.thetas)
        if not ((steps > 0).all() and np.allclose(steps, steps[0], rtol=0, atol=1e-12)):
            raise ValueError("theta grid must be uniform and increasing")

    def is_strictly_increasing(self) -> bool:
        return bool(np.all(self.values[1:] > self.values[:-1]))  # np.diff can overflow


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
    tridiagonal system, solved by cyclic reduction.  Its entries, of size
    ~1/h, cancel to O(h), so the float system holds only a rough copy of the
    minimizer.  Iterative refinement, with the residual formed as the
    objective's gradient from differences of f (_gradient), is repeated while
    a step moves f by more than sqrt(eps) max f: one step up to n = 2^17, two
    from 2^18 on.  The error then follows the h^2 law: max |f - closed form|
    * n^2 is 0.121 for n = 2^10 to 2^18, 0.122 at 2^19 and 0.119 at 2^20,
    where the error is 1e-13.  Row n has no right neighbour, which is exactly
    the free endpoint that makes the slope condition at pi/2 emerge rather
    than being imposed.
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    h = HALF_PI / n
    thetas = np.linspace(0.0, HALF_PI, n + 1)
    two_sm = 2.0 * np.sin(thetas[:-1] + 0.5 * h)  # at the midpoint of interval i (i = 1..n)
    # interval i's term has the Hessian [[a, b], [b, a]] in (f_{i-1}, f_i),
    # with a = stiff + mass and b = mass - stiff
    stiff, mass = two_sm / h, h / two_sm
    a = stiff + mass
    solve = _cyclic_reduction(np.append(a[:-1] + a[1:], a[-1]), mass[1:] - stiff[1:])
    rhs = two_sm + h  # minus the gradient at f = 0
    rhs[:-1] += h - two_sm[1:]
    f = solve(rhs)
    tol = 2.0**-26 * f.max()  # sqrt(eps) max f
    for _ in range(4):
        step = solve(-_gradient(f, h, two_sm))
        f += step
        if not np.max(np.abs(step)) > tol:
            break
    if not np.all(np.isfinite(f)):
        raise SolverError("cyclic reduction produced non-finite values")
    values = np.concatenate(([0.0], f))
    profile = RadialProfile(thetas=thetas, values=values)
    if not profile.is_strictly_increasing():
        raise SolverError("discrete minimizer is not strictly increasing")
    return profile


def _gradient(f: np.ndarray, h: float, two_sm: np.ndarray) -> np.ndarray:
    """Gradient of solve_discrete's objective in f_1..f_n, formed interval by interval.

    With sigma = (f_i - f_{i-1})/h - 1 and rho = (f_i + f_{i-1})/(2 sin m_i) - 1,
    interval i adds 2 sin(m_i) sigma + h rho to the f_i entry and
    -2 sin(m_i) sigma + h rho to the f_{i-1} entry.  Differences of
    neighbouring f round to nothing, so the gradient rounds at the size of
    these terms, not at that of the ~1/h matrix entries a product A f sums.
    """
    v = np.concatenate(([0.0], f))
    flux = two_sm * (np.diff(v) / h - 1.0)
    hoop = h * ((v[:-1] + v[1:]) / two_sm - 1.0)
    g = flux + hoop
    g[:-1] += hoop[1:] - flux[1:]
    return g


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray):
    """Solver of the symmetric tridiagonal system with diagonal diag and off-diagonal off.

    Odd-even cyclic reduction (R. W. Hockney, J. ACM 12, 1965): eliminating the
    even rows leaves a system of the same form in the odd rows, half the size,
    on which the reduction recurses.  The returned function scales the even
    rows of a right-hand side, solves the odd rows by the inner solver and
    back-substitutes the even rows.  A pivot that is not positive, which a
    positive-definite system never has, raises SolverError.
    """
    if not np.all(diag > 0):
        raise SolverError("cyclic reduction failed: the system is not positive definite")
    if len(diag) == 1:
        return lambda r: r / diag
    d = diag
    if len(d) % 2 == 0:  # a decoupled row (x = 0) gives each odd row two neighbours
        d, off = np.append(d, 1.0), np.append(off, 0.0)
    pivot, to_left, to_right = d[::2], off[::2], off[1::2]  # to_*: of each odd row
    right, left = to_left / pivot[:-1], to_right / pivot[1:]  # of each even row, over its pivot
    inner = _cyclic_reduction(d[1::2] - right * to_left - left * to_right,
                              -left[:-1] * off[2::2])
    pad = np.zeros(len(d) - len(diag))

    def solve(r: np.ndarray) -> np.ndarray:
        z = np.concatenate((r[::2], pad)) / pivot
        x = inner(r[1::2] - to_left * z[:-1] - to_right * z[1:])
        y = np.empty(len(d))
        y[::2] = z
        y[2::2] -= left * x
        y[:-1:2] -= right * x
        y[1::2] = x
        return y[:len(r)]
    return solve


def richardson(coarse: RadialProfile, fine: RadialProfile) -> RadialProfile:
    """(4 f_fine - f_coarse)/3 on the coarse grid, where fine has half its step.

    For two solve_discrete profiles the h^2 terms of their errors cancel
    (L. F. Richardson, Phil. Trans. R. Soc. A 210, 1911), leaving O(h^4).
    """
    if not np.array_equal(fine.thetas[::2], coarse.thetas):
        raise ValueError("fine must hold the coarse grid and one node between each two")
    return RadialProfile(coarse.thetas, (4.0 * fine.values[::2] - coarse.values) / 3.0)


def endpoint_slope(profile: RadialProfile) -> float:
    """One-sided three-point slope estimate at theta = pi/2."""
    v = profile.values
    h = profile.thetas[1] - profile.thetas[0]
    return float((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h))


# --- two-column text serialization -----------------------------------------

def _header(comment: str) -> str:
    """The # lines of a profile: a title, then comment, if given, which holding a line
    break raises ValueError."""
    if comment and comment.splitlines() != [comment]:
        raise ValueError(f"comment must be one line, got {comment!r}")
    return "# flat-disk radial profile: theta f(theta)\n" + (f"# {comment}\n" if comment else "")


def profile_to_text(profile: RadialProfile, comment: str = "") -> str:
    """The profile as text: # header lines, then one "theta f" row per node.

    Each row holds the bytes of "%.17g %.17g\\n" % (theta, f), so parse_profile
    reads back the same floats bit for bit.  comment, if given, is a second #
    line; one holding a line break raises ValueError.
    """
    from ._decimal import rows_to_text
    rows = rows_to_text(np.column_stack((profile.thetas, profile.values)))
    return _header(comment) + rows.decode("ascii")


_READ_BLOCK = 2**16  # bytes per step of read_rows, cut after a "\n": bounds its temporaries
# the line breaks of str.splitlines but "\n", at which read_rows does not end a line
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _body_rows(text, start: int = 0):
    """(thetas, values) of the body of text[start:], str or bytes: what lies below its
    top # lines, read in place as float() reads it, never copied whole.  None where the
    body is not rows "token token\\n" of 0-9 . e - + (_decimal.read_rows), or where those
    lines hold a line break read_rows would not end a line at, or, in bytes, are not UTF-8."""
    from ._decimal import read_rows
    hash_, newline = ("#", "\n") if isinstance(text, str) else (b"#", b"\n")
    body = start
    while text.startswith(hash_, body):
        body = text.find(newline, body) + 1 or len(text)  # 0: no "\n" left
    head = text[start:body]
    if isinstance(head, bytes):
        try:
            head = head.decode("utf-8")
        except UnicodeDecodeError:
            return None
    return None if any(c in head for c in _BREAKS) else read_rows(text, body, " ", _READ_BLOCK)


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
    lines, which may hold any character but a line break other than "\\n",
    the body goes to _body_rows, its one guard: that declines any character
    but 0-9 . e - + space "\\n", any other layout and any token float()
    rejects, and then _parse_lines reads the whole text line by line.  Both
    give the numbers float() gives; an empty or blank body reads as no
    samples, and a bad line raises ValueError naming its line number.
    """
    rows = _body_rows(text)
    thetas, values = _parse_lines(text) if rows is None else rows
    return RadialProfile(thetas=thetas, values=values)


def save_profile(profile: RadialProfile, path, comment: str = "") -> None:
    """Write the bytes of profile_to_text(profile, comment) in UTF-8 to path, its
    rows a block at a time (_decimal.row_blocks)."""
    from ._decimal import row_blocks
    header = _header(comment).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.writelines(row_blocks(np.column_stack((profile.thetas, profile.values))))


def load_profile(path) -> RadialProfile:
    """parse_profile of the UTF-8 file at path, a leading byte-order mark not read.

    The body of rows below the top # lines is read from the file's bytes by
    _body_rows, whose rules parse_profile's are; any file it declines is
    decoded whole and read line by line (_parse_lines), so its numbers and
    errors, a byte that is not UTF-8 included, are those of the text.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows = _body_rows(data, 3 if data.startswith(codecs.BOM_UTF8) else 0)
    thetas, values = _parse_lines(data.decode("utf-8-sig")) if rows is None else rows
    return RadialProfile(thetas=thetas, values=values)
