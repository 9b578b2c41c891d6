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
spline, built here by the same algorithm as scipy.interpolate.CubicSpline
(one LAPACK solve from scipy.linalg), so scipy.interpolate is never loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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


@dataclass(frozen=True)
class RadialFunction:
    """An admissible radial stretch function with its analytic derivative.

    value and derivative are vectorized callables on [0, pi/2]; the optional
    second_derivative is needed only by ODE-residual evaluation.  Construction
    checks value(0) = 0 and spot-checks derivative consistency by central
    differences, to within 1e-6 of the larger of 1 and the largest slope.
    """

    value: Callable
    derivative: Callable
    second_derivative: Optional[Callable] = None

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
    and evaluated by the same algorithm as scipy.interpolate.CubicSpline.
    """
    value, derivative, second = _not_a_knot_spline(profile.thetas, profile.values)
    return RadialFunction(value=value, derivative=derivative, second_derivative=second)


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> tuple[Callable, Callable, Callable]:
    """Evaluators of the not-a-knot cubic spline through (x, y) and of its f', f''.

    The knot slopes solve the tridiagonal system of C. de Boor, A Practical
    Guide to Splines, ch. IV, whose end rows make the third derivative
    continuous at x[1] and x[-2]; with 3 samples the spline is the parabola
    through them, with 2 the line.  Piece i is the cubic Hermite polynomial
    in (t - x[i]) matching the values and slopes at both of its ends.
    """
    # imported here, not at module level: the package loads scipy only on
    # the paths that solve a linear system
    from scipy.linalg import solve, solve_banded

    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if n == 2:
        s = np.array([slope[0], slope[0]])
    elif n == 3:  # solved densely, as CubicSpline does, so the slopes round alike
        a = np.array([[1.0, 1.0, 0.0],
                      [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
        s = solve(a, b, overwrite_a=True, overwrite_b=True, check_finite=False)
    else:
        ab = np.zeros((3, n))  # rows: upper diagonal, diagonal, lower diagonal
        b = np.empty(n)
        ab[0, 2:] = dx[:-1]
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[2, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        ab[1, 0] = dx[1]
        ab[0, 1] = d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        ab[1, -1] = dx[-2]
        ab[2, -2] = d
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]
    piece = _piece_finder(x)
    return (_piecewise_polynomial(x, piece, (c3, c2, c1, c0)),
            _piecewise_polynomial(x, piece, (3 * c3, 2 * c2, c1)),
            _piecewise_polynomial(x, piece, (6 * c3, 2 * c2)))


def _piece_finder(x: np.ndarray) -> Callable:
    """Function giving the piece of each t: np.searchsorted(x[1:-1], t, side="right").

    On a uniform grid the piece is floor((t - x[0]) / h) up to one step
    either way, so it is found by arithmetic and checked against its
    bracket x[i] <= t < x[i+1] (open at both ends).  A point that fails the
    check, as on a non-uniform grid or for NaN, is found by searchsorted.
    """
    inner = x[1:-1]
    lower = np.concatenate(([-np.inf], inner))  # bracket of piece i
    upper = np.concatenate((inner, [np.inf]))
    last = len(inner)
    scale = (len(x) - 1) / (x[-1] - x[0])

    def find(t):
        flat = np.ravel(t)
        clipped = np.fmax(np.fmin(flat, x[-1]), x[0])  # NaN becomes x[-1]
        i = np.minimum(((clipped - x[0]) * scale).astype(np.intp), last)
        i += clipped >= upper[i]
        i -= clipped < lower[i]
        missed = np.flatnonzero(~((lower[i] <= flat) & (flat < upper[i])))
        i[missed] = np.searchsorted(inner, flat[missed], side="right")
        return i.reshape(np.shape(t))
    return find


def _piecewise_polynomial(x: np.ndarray, piece: Callable, c: tuple) -> Callable:
    """Evaluator of the piecewise polynomial with breakpoints x, coefficients c.

    c holds one array per power, highest first, with one entry per piece,
    and piece(t) gives each t's piece (see _piece_finder).  A point outside
    [x[0], x[-1]] uses the nearest end piece, and NaN gives NaN.
    """
    def evaluate(t):
        t = np.asarray(t, dtype=float)
        i = piece(t)
        s = t - x[i]
        out, z = c[-1][i], 1.0
        for row in c[-2::-1]:  # the sum in increasing powers of s, as PPoly forms it
            z = z * s
            out = out + row[i] * z
        return out
    return evaluate


def sigma(rf: RadialFunction, theta):
    """Meridional (tangential) stress f'(theta) - 1."""
    theta = closedform.clamp_colatitude(theta)
    out = np.asarray(rf.derivative(theta), dtype=float) - 1.0
    return float(out) if np.ndim(theta) == 0 else out


def rho(rf: RadialFunction, theta):
    """Hoop stress f(theta)/sin(theta) - 1, with the L'Hopital limit f'(0) - 1 at 0."""
    theta = np.asarray(closedform.clamp_colatitude(theta), dtype=float)
    out = np.divide(np.asarray(rf.value(theta), dtype=float), np.sin(theta),
                    out=np.full_like(theta, rf.derivative(0.0)), where=theta != 0.0) - 1.0
    return float(out) if theta.ndim == 0 else out


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
        weight = 2.0 * math.pi * np.sin(thetas)
        sig, rh = sigma(rf, thetas), rho(rf, thetas)
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
