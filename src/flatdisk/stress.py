"""Stress components and the total-stress functional for radial stretch maps.

A hemisphere flattened to a disk with radial function f carries two stress
components at colatitude theta: the meridional stretch sigma = f' - 1 and
the hoop stretch rho = f/sin(theta) - 1.  The total stress is

    S(f) = integral_0^{pi/2} (sigma^2 + rho^2) * 2 pi sin(theta) dtheta

evaluated here by composite Simpson quadrature.  The second-variation form
4 pi * integral (df'^2 + df^2/sin^2) sin dtheta is also provided; it is
nonnegative for every admissible perturbation, which is what makes the
closed-form critical point the global minimum.  Both integrals go through
one guarded quadrature, _integrate: one grid, one overflow guard, one
non-finite check and one Simpson sum.

A sampled profile enters the functional through its not-a-knot cubic
spline, built here by the same algorithm as scipy.interpolate.CubicSpline.
Its knot slopes come from a numpy tridiagonal elimination that rounds as
LAPACK's gtsv does on these systems, so no scipy module is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import closedform
from .closedform import HALF_PI

__all__ = [
    "RadialFunction",
    "StressReport",
    "StressEvaluationError",
    "closed_form_radial",
    "identity_radial",
    "sine_radial",
    "profile_radial",
    "sigma",
    "rho",
    "total_stress",
    "second_variation",
]


class StressEvaluationError(ValueError):
    """A quadrature sample came out non-finite; carries the offending theta."""

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(f"non-finite stress integrand at theta = {theta!r}")


_SPOT_GRID = np.array([0.2, 0.6, 1.0, 1.4])
_FD_STEP = 1e-5
_WINDOW = 64  # rows per window of _windowed
_WARMUP = 48  # rows each window of _windowed starts early


@dataclass(frozen=True)
class RadialFunction:
    """An admissible radial stretch function with its analytic derivative.

    value and derivative are vectorized callables on [0, pi/2]; the optional
    second_derivative is needed only by ODE-residual evaluation, and the
    optional value_and_derivative gives (value, derivative) with shared work.
    Construction checks value(0) = 0 and spot-checks derivative consistency by
    central differences, to within 1e-6 of the larger of 1 and the largest slope.
    """

    value: Callable
    derivative: Callable
    second_derivative: Optional[Callable] = None
    value_and_derivative: Optional[Callable] = None

    def __post_init__(self):
        v0 = float(self.value(0.0))
        if abs(v0) > 1e-10:
            raise ValueError(f"radial function must vanish at theta=0, got {v0!r}")
        fd = (np.asarray(self.value(_SPOT_GRID + _FD_STEP))
              - np.asarray(self.value(_SPOT_GRID - _FD_STEP))) / (2 * _FD_STEP)
        slope = np.asarray(self.derivative(_SPOT_GRID))
        # the differences round to ~2e-11 * |f|, so the bound scales with the slopes
        if np.max(np.abs(fd - slope)) > 1e-6 * max(1.0, float(np.max(np.abs(slope)))):
            raise ValueError("supplied derivative disagrees with finite differences")


def closed_form_radial() -> RadialFunction:
    """The minimum-stress closed form with analytic derivatives."""
    return RadialFunction(
        value=closedform.eval_f,
        derivative=closedform.eval_f_prime,
        second_derivative=closedform.eval_f_second,
        value_and_derivative=closedform._f_and_prime,  # one half-angle pass for both
    )


def identity_radial(scale: float = 1.0) -> RadialFunction:
    """f(theta) = scale * theta (scale=1 is the equidistant straight line)."""
    return RadialFunction(
        value=lambda t: scale * np.asarray(t, dtype=float),
        derivative=lambda t: scale * np.ones_like(np.asarray(t, dtype=float)),
        second_derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def sine_radial() -> RadialFunction:
    """f(theta) = sin(theta); zero hoop stress, nonzero meridional stress."""
    return RadialFunction(
        value=np.sin,
        derivative=np.cos,
        second_derivative=lambda t: -np.sin(np.asarray(t, dtype=float)),
    )


def profile_radial(profile) -> RadialFunction:
    """Bridge a sampled RadialProfile into the functional by cubic interpolation.

    The interpolant is the not-a-knot cubic spline through the samples, built
    and evaluated by the same algorithm as scipy.interpolate.CubicSpline; its
    value_and_derivative finds each point's piece once for both.
    """
    x = profile.thetas
    powers = _spline_pieces(x, profile.values)
    value, derivative, second = (_piecewise_polynomial(x, c) for c in powers)
    return RadialFunction(value, derivative, second, _piecewise_polynomial(x, *powers[:2]))


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> tuple[Callable, Callable, Callable]:
    """Evaluators of the not-a-knot cubic spline through (x, y) and of its f', f''."""
    return tuple(_piecewise_polynomial(x, c) for c in _spline_pieces(x, y))


def _spline_pieces(x: np.ndarray, y: np.ndarray) -> tuple:
    """The per-power coefficients of the not-a-knot cubic spline through
    (x, y), of its f' and of its f''.

    The knot slopes solve the tridiagonal system _slope_system.  Piece i is
    the cubic Hermite polynomial in (t - x[i]) matching the values and slopes
    at both of its ends.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    s = _tridiagonal(*_slope_system(dx, slope, x))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]
    return (c3, c2, c1, c0), (3 * c3, 2 * c2, c1), (6 * c3, 2 * c2)


def _slope_system(dx: np.ndarray, slope: np.ndarray, x: np.ndarray) -> tuple:
    """(lower, diag, upper, rhs) of CubicSpline's not-a-knot slope system.

    The rows are those of C. de Boor, A Practical Guide to Splines, ch. IV,
    whose end rows make the third derivative continuous at x[1] and x[-2];
    with 3 samples the end rows are those of the parabola through them.
    """
    lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
    upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    rhs = np.concatenate(([0.0], 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]), [0.0]))
    if len(x) == 3:
        lower[-1] = upper[0] = diag[0] = diag[-1] = 1.0
        rhs[0], rhs[-1] = 2 * slope[0], 2 * slope[1]
    else:
        d = upper[0]
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = lower[-1]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return lower, diag, upper, rhs


def _tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solution of the tridiagonal system by Gaussian elimination without pivoting.

    lower and upper are the sub- and superdiagonal.  Row by row this is
    LAPACK's gtsv (behind scipy.linalg.solve_banded((1, 1), ...)) where gtsv
    interchanges no rows, as on the spline system of a uniform grid over
    [0, pi/2], so the two give the same floats there.  Both sweeps run in
    windows (_windowed).
    """
    d, b = _windowed(_eliminate, (np.inf, 0.0),
                     ((diag, 1.0), (rhs, 0.0), (lower, 0.0), (upper, 0.0)))
    x, = _windowed(_substitute, (0.0,), ((d[::-1], 1.0), (b[::-1], 0.0), (upper[::-1], 0.0)))
    return x[::-1]


def _eliminate(new, old, diag, rhs, lower, upper):
    """Forward elimination: the pivot and right-hand side of a row from the row above."""
    m = lower / old[0]
    np.subtract(diag, m * upper, out=new[0])
    np.subtract(rhs, m * old[1], out=new[1])


def _substitute(new, old, diag, rhs, upper):
    """Back substitution: the unknown of a row from the one below it."""
    np.divide(rhs - upper * old[0], diag, out=new[0])


def _windowed(step, initial: tuple, coefficients: tuple) -> list:
    """The states at rows 0..n-1 of the recurrence step, in windows side by side.

    step(new, old, *c) writes into the arrays new the state that follows the
    state old at a row with coefficients c.  coefficients holds (array, fill)
    pairs, each array ending at row n - 1 (a shorter one starts later), and
    the rows before an array's start take its fill, which leaves the state
    initial where it is.  Each window of _WINDOW rows starts _WARMUP >= 1
    rows early from initial: the recurrences here contract (by about 0.27 a
    row on a spline system), so the warm-up ends on the floats of the
    sequential loop.  Each seam is checked; from the first whose warm-up ends
    on other floats, the rows are run one at a time, so the result is always
    the sequential loop's.
    """
    n = len(coefficients[0][0])
    window, warmup = (n, 0) if n <= _WINDOW else (_WINDOW, _WARMUP)
    count = -(-n // window)
    total = count * window + warmup  # rows, counting the fill
    padded = [np.concatenate((np.full(total - len(c), fill), c)) for c, fill in coefficients]
    columns = [sliding_window_view(c, warmup + window)[::window].T for c in padded]
    table = [np.empty((warmup + window, count)) for _ in initial]
    old = tuple(np.full(count, v) for v in initial)
    for new, c in zip(zip(*table), zip(*columns)):
        step(new, old, *c)
        old = new
    out = [t[warmup:].T.ravel()[total - warmup - n:] for t in table]
    # bad[0] + 1 is the first window whose warm-up missed; first, its first row
    bad = np.flatnonzero(np.any([t[warmup - 1, 1:] != t[-1, :-1] for t in table], axis=0))
    first = n - window * (count - 1 - bad[0]) if bad.size else n
    for r in range(first, n):
        step([o[r:r + 1] for o in out], [o[r - 1:r] for o in out],
             *(c[r + total - n:r + total - n + 1] for c in padded))
    return out


def _piecewise_polynomial(x: np.ndarray, *polynomials: tuple) -> Callable:
    """Evaluator of piecewise polynomials with breakpoints x, at one piece search.

    Each polynomial holds one coefficient array per power, highest first,
    with one entry per piece; t lies in piece searchsorted(x[1:-1], t,
    side="right").  A point outside [x[0], x[-1]] uses the nearest end
    piece, and NaN, which sorts last, gives NaN.  The evaluator returns the
    value of each polynomial, or the one value when there is one polynomial.
    """
    inner = x[1:-1]

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(inner, t, side="right")
        s = t - x[i]
        values = []
        for c in polynomials:
            out, z = c[-1][i], 1.0
            for row in c[-2::-1]:  # the sum in increasing powers of s, as PPoly forms it
                z = z * s
                out = out + row[i] * z
            values.append(out)
        return values[0] if len(values) == 1 else tuple(values)
    return evaluate


def sigma(rf: RadialFunction, theta):
    """Meridional (tangential) stress f'(theta) - 1."""
    return _stresses(rf, theta)[0]


def rho(rf: RadialFunction, theta):
    """Hoop stress f(theta)/sin(theta) - 1, with the L'Hopital limit f'(0) - 1 at 0."""
    return _stresses(rf, theta)[1]


def _stresses(rf: RadialFunction, theta):
    """(sigma, rho, sin theta) from one evaluation of f and f'; floats for a scalar theta."""
    theta = np.asarray(closedform.clamp_colatitude(theta), dtype=float)
    both = rf.value_and_derivative or (lambda t: (rf.value(t), rf.derivative(t)))
    f, f_prime = (np.asarray(v, dtype=float) for v in both(theta))
    s = np.sin(theta)
    out = (f_prime - 1.0,
           np.divide(f, s, out=f_prime.copy(), where=theta != 0.0) - 1.0, s)
    return tuple(map(float, out)) if theta.ndim == 0 else out


def _integrate(grid_size: int, integrands: Callable) -> list:
    """Composite-Simpson sums of integrands(thetas) over [0, pi/2].

    The grid has grid_size intervals, rounded up to an even count.  The
    integrands are formed with overflow and invalid-value warnings off; a
    theta where their sum is not finite raises StressEvaluationError instead.
    """
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    n = grid_size + (grid_size % 2)  # Simpson needs an even interval count
    thetas = np.linspace(0.0, HALF_PI, n + 1)
    h = thetas[1] - thetas[0]
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        ys = integrands(thetas)
        bad = ~np.isfinite(sum(ys))
    if np.any(bad):
        raise StressEvaluationError(float(thetas[bad][0]))
    return [h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))
            for y in ys]


@dataclass(frozen=True)
class StressReport:
    """Total stress and its two component integrals for one radial function."""

    total: float
    tangential_part: float
    hoop_part: float
    grid_size: int


def total_stress(rf: RadialFunction, grid_size: int) -> StressReport:
    """Composite-Simpson estimate of the total stress S(f).

    The theta=0 sample of the hoop term uses the L'Hopital limit, so the
    integrand is smooth and the estimate converges at fourth order.
    """
    def integrands(thetas):
        sig, rh, s = _stresses(rf, thetas)
        weight = 2.0 * math.pi * s
        return sig * sig * weight, rh * rh * weight
    tangential, hoop = _integrate(grid_size, integrands)
    return StressReport(tangential + hoop, tangential, hoop, grid_size)


def second_variation(rf: RadialFunction, perturbation: RadialFunction,
                     grid_size: int) -> float:
    """Quadrature of 4 pi * integral (df'^2 + df^2/sin^2) sin dtheta; always >= 0.

    The perturbation must vanish at theta = 0 (the pole value of f is pinned).
    The result does not depend on rf: the stress is a quadratic functional.
    """
    if abs(float(perturbation.value(0.0))) > 1e-10:
        raise ValueError("perturbation must vanish at theta = 0")

    def integrand(thetas):
        dfp = np.asarray(perturbation.derivative(thetas), dtype=float)
        df = np.asarray(perturbation.value(thetas), dtype=float)
        s = np.sin(thetas[1:])  # at theta = 0, df ~ df'(0)*theta, so df^2/sin -> 0
        return (np.concatenate(([0.0], dfp[1:] ** 2 * s + df[1:] ** 2 / s)),)
    return 4.0 * math.pi * _integrate(grid_size, integrand)[0]
