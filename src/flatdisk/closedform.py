"""Closed-form radial stretch function and its solution chain.

The flat-disk map sends colatitude theta (0 at the pole, pi/2 at the
equator) to the disk radius f(theta).  The minimum-stress radial function is

    f(theta) = (2 log 2 - (cos theta + 1) log(cos theta + 1)) / sin theta

together with the auxiliary functions that arise while solving the
boundary-value problem: the substitution f = gamma * g with
gamma = 1/sin theta, the integrated function g, its derivative h, and the
two homogeneous solutions beta of the transformed ODE in x = sin theta.

f, f', f'' and g use the half-angle form ln 2 tan(theta/2) - 2 cot(theta/2)
log cos(theta/2) in s = sin(theta/2), c = cos(theta/2), x = s^2 and
log1p(-x) = 2 log c: no term cancels on [0, pi/2], so no series branch is
needed at the pole (Goldberg, "What every computer scientist should know
about floating-point arithmetic", 1991).

All evaluators accept scalars or numpy arrays and are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "TWO_LN2",
    "POLE_SLOPE",
    "clamp_colatitude",
    "eval_f",
    "eval_f_prime",
    "eval_f_second",
    "eval_f_mathematica_form",
    "eval_g",
    "eval_h",
    "eval_gamma",
    "eval_beta_regular",
    "eval_beta_singular",
    "SeriesCoefficients",
    "series_coefficients",
    "eval_beta_series",
]

LN2 = math.log(2.0)
#: disk radius of the flattened hemisphere, f(pi/2) = 2 ln 2
TWO_LN2 = 2.0 * LN2
#: limiting slope f'(0) = (1 + ln 2) / 2
POLE_SLOPE = 0.5 * (1.0 + LN2)

# Colatitude values may stray past [0, pi/2] by float noise from upstream
# degree->radian conversion; anything worse is a caller bug.
CLAMP_TOL = 1e-12

# P(x) = (x + (1-x) log1p(-x)) / x^2 = sum_k x^k / ((k+1)(k+2)) for f'';
# x <= 1/2 on [0, pi/2], so 45 terms reach double precision.
_P_COEFFS = [1.0 / ((k + 1) * (k + 2)) for k in range(45)]


def _vectorized(fn):
    """Run fn on a float ndarray; return a float when the argument was a scalar."""
    @functools.wraps(fn)
    def wrapper(x, *args):
        arr = np.asarray(x, dtype=float)
        out = fn(arr, *args)
        return float(out) if arr.ndim == 0 else out
    return wrapper


def _half_angle(theta):
    """s = sin(theta/2), c = cos(theta/2), x = s^2 and L = log1p(-x) = 2 log c."""
    u = 0.5 * clamp_colatitude(theta)
    s, c = np.sin(u), np.cos(u)
    x = s * s
    return s, c, x, np.log1p(-x)


def _log_ratio(x, L):
    """L / x = log1p(-x) / x, with its limit -1 where x = 0 (theta = 0 or s^2 underflow)."""
    return np.divide(L, x, out=np.full_like(x, -1.0), where=x != 0.0)


def _f(s, c, q):
    """f = s (ln 2/c - c q) with q = log1p(-x)/x."""
    return s * (LN2 / c - c * q)


def _f_prime(c, q):
    """f' = (ln 2/c^2 + 2 + q) / 2 with q = log1p(-x)/x."""
    return 0.5 * (LN2 / (c * c) + (2.0 + q))


@_vectorized
def clamp_colatitude(theta):
    """Validate and clamp a colatitude (radians) into [0, pi/2].

    Values outside the interval by more than CLAMP_TOL raise ValueError;
    smaller excursions are clamped onto the boundary.
    """
    bad = (theta < -CLAMP_TOL) | (theta > math.pi / 2 + CLAMP_TOL)
    if np.any(bad):
        raise ValueError(f"colatitude out of range [0, pi/2]: {theta[bad][0]!r}")
    return np.clip(theta, 0.0, math.pi / 2)


@_vectorized
def eval_f(theta):
    """Minimum-stress disk radius f(theta); total on [0, pi/2].

    f(0) = 0 and f(pi/2) = 2 ln 2.  Evaluated in the half-angle form
    f = ln 2 s/c - (c/s) log1p(-x) = s (ln 2/c - c log1p(-x)/x).
    """
    s, c, x, L = _half_angle(theta)
    return _f(s, c, _log_ratio(x, L))


@_vectorized
def eval_f_prime(theta):
    """Analytic derivative f'(theta); f'(pi/2) = 1, f'(0) = (1+ln 2)/2.

    f' = 1 + ln 2/(2 c^2) + log1p(-x)/(2x) in the half-angle pieces, summed
    so that f'(0) rounds exactly to POLE_SLOPE.
    """
    s, c, x, L = _half_angle(theta)
    return _f_prime(c, _log_ratio(x, L))


def _f_and_prime(theta):
    """(f, f') from one _half_angle and one _log_ratio, equal to eval_f, eval_f_prime."""
    s, c, x, L = _half_angle(theta)
    q = _log_ratio(x, L)
    return _f(s, c, q), _f_prime(c, q)


@_vectorized
def eval_f_second(theta):
    """Analytic second derivative f''(theta); f''(pi/2) = 2 ln 2 - 1.

    f'' = (s/c) (ln 2/c^2 - P(x)) / 2, with P summed as its power series.
    """
    s, c, x, L = _half_angle(theta)
    p = np.polynomial.polynomial.polyval(x, _P_COEFFS)
    return 0.5 * (s / c) * (LN2 / (c * c) - p)


@_vectorized
def eval_f_mathematica_form(theta):
    """Alternate closed form log2*tan(t/2) - 2*cot(t/2)*log(cos(t/2)).

    log(cos(t/2)) is evaluated as log1p(-2 sin^2(t/4)): cos(t/2) itself
    drops the digits of 1 - cos(t/2) ~ t^2/8 to rounding, and is exactly 1
    below t ~ 2e-8.  Raises at theta = 0, where cot is singular; elsewhere
    on (0, pi/2] it agrees with eval_f to a few ulp.
    """
    arr = clamp_colatitude(theta)
    if np.any(arr == 0.0):
        raise ValueError("alternate form is singular at theta = 0")
    half = arr / 2.0
    quarter = np.sin(arr / 4.0)
    log_cos_half = np.log1p(-2.0 * quarter * quarter)
    return LN2 * np.tan(half) - 2.0 * (np.cos(half) / np.sin(half)) * log_cos_half


@_vectorized
def eval_g(theta):
    """Substitution function g(theta) = 2 log 2 - (cos t + 1) log(cos t + 1).

    Evaluated as 2 (x ln 2 - c^2 log1p(-x)) in the half-angle pieces, since
    cos t + 1 = 2 c^2; both terms are nonnegative.
    """
    s, c, x, L = _half_angle(theta)
    return 2.0 * (x * LN2 - c * c * L)


@_vectorized
def eval_h(theta):
    """h(theta) = sin t * (1 + log(cos t + 1)); this is g'."""
    arr = clamp_colatitude(theta)
    return np.sin(arr) * (1.0 + np.log(np.cos(arr) + 1.0))


@_vectorized
def eval_gamma(theta):
    """Singular homogeneous factor gamma(theta) = 1/sin(theta), theta > 0."""
    arr = clamp_colatitude(theta)
    if np.any(arr == 0.0):
        raise ValueError("gamma is singular at theta = 0")
    return 1.0 / np.sin(arr)


@_vectorized
def eval_beta_regular(x):
    """Regular homogeneous solution beta(x) = 2x / (1 + sqrt(1 - x^2))."""
    if np.any(np.abs(x) > 1.0):
        raise ValueError("beta_regular requires |x| <= 1")
    return 2.0 * x / (1.0 + np.sqrt(1.0 - x * x))


@_vectorized
def eval_beta_singular(x):
    """Singular homogeneous solution beta(x) = 1/x, x != 0."""
    if np.any(x == 0.0):
        raise ValueError("beta_singular is undefined at x = 0")
    return 1.0 / x


@dataclass(frozen=True)
class SeriesCoefficients:
    """Odd-index power-series coefficients a1, a3, ..., a_max as exact rationals.

    Even-index coefficients are identically zero and not stored.  The stored
    values satisfy (j+1) a_j = (j-2) a_{j-2} exactly.
    """

    coeffs: tuple  # Fraction for j = 1, 3, 5, ..., max_index
    max_index: int

    def coefficient(self, j: int) -> Fraction:
        """a_j for any index j in range; zero for even j."""
        if j < 1 or j > self.max_index:
            raise IndexError(f"index {j} outside stored range 1..{self.max_index}")
        if j % 2 == 0:
            return Fraction(0)
        return self.coeffs[(j - 1) // 2]

    def as_floats(self) -> np.ndarray:
        return np.array([float(a) for a in self.coeffs])


def series_coefficients(max_index: int) -> SeriesCoefficients:
    """Coefficients of the regular beta power series, a1 = 1, a_j = (j-2)/(j+1) a_{j-2}."""
    if max_index < 1 or max_index % 2 == 0:
        raise ValueError(f"max_index must be odd and >= 1, got {max_index}")
    coeffs = [Fraction(1)]
    for j in range(3, max_index + 1, 2):
        coeffs.append(coeffs[-1] * Fraction(j - 2, j + 1))
    return SeriesCoefficients(coeffs=tuple(coeffs), max_index=max_index)


@_vectorized
def eval_beta_series(x, n_terms: int):
    """Partial sum of the beta power series through j = 2*n_terms - 1.

    Converges to eval_beta_regular(x) for |x| < 1 as n_terms grows.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("beta series requires |x| < 1")
    a = series_coefficients(2 * n_terms - 1).as_floats()
    x2 = x * x
    # Horner in x^2 on the odd-power series
    acc = np.zeros_like(x)
    for coeff in a[::-1]:
        acc = acc * x2 + coeff
    return acc * x
