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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

HALF_PI = math.pi / 2


class SolverError(RuntimeError):
    """Discrete solve produced non-finite values."""


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
        if self.values[0] != 0.0:
            raise ValueError("profile must start at f(0) = 0 exactly")
        steps = np.diff(self.thetas)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
            raise ValueError("theta grid must be uniform")

    @property
    def n(self) -> int:
        return len(self.thetas) - 1

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
        raise SolverError("tridiagonal elimination produced non-finite values")
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

    Both columns are written with %.17g, so parse_profile reads back the
    same floats bit for bit.  comment, if given, is a second # line.
    """
    lines = ["# flat-disk radial profile: theta f(theta)"]
    if comment:
        lines.append(f"# {comment}")
    rows = np.column_stack((profile.thetas, profile.values)).ravel().tolist()
    return "\n".join(lines) + "\n" + ("%.17g %.17g\n" * len(profile.thetas)) % tuple(rows)


def _split_columns(text: str):
    """(thetas, values) of text, or None.

    Only the layout profile_to_text writes takes this path: # lines at the
    top, then rows of two numbers split by one space, each ended by a
    newline.  The text is split once, and the rows rebuilt from its tokens
    must equal the text below the # lines, which checks every row's column
    count on its own.  None for any other layout, or for a token that
    float() rejects.
    """
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    head = text[:start]
    if len(head.splitlines()) != head.count("\n") or text.find("#", start) >= 0:
        return None
    if "\r" in text or "\t" in text:  # CRLF or tab layouts: skip a split bound to fail
        return None
    tokens = text.split()
    del tokens[:len(head.split())]
    if len(tokens) % 2:
        return None
    rows = ("%s %s\n" * (len(tokens) // 2)) % tuple(tokens)
    if len(rows) != len(text) - start or not text.endswith(rows):
        return None
    try:
        numbers = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return numbers[0::2].copy(), numbers[1::2].copy()


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
    whose first non-blank character is # are skipped.  Text in exactly the
    written layout is split and converted in one pass; any other text is
    read line by line, with the same numbers, and a bad line raises
    ValueError naming its line number.
    """
    thetas, values = _split_columns(text) or _parse_lines(text)
    if len(thetas) < 3:
        raise ValueError("profile needs at least 3 samples")
    return RadialProfile(thetas=thetas, values=values)


def save_profile(profile: RadialProfile, path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_to_text(profile, comment))


def load_profile(path) -> RadialProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())
