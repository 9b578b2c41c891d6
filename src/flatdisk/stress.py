"""Stress components and the total-stress functional for radial stretch maps.

A hemisphere flattened to a disk with radial function f carries two stress
components at colatitude theta: the meridional stretch sigma = f' - 1 and
the hoop stretch rho = f/sin(theta) - 1.  The total stress is

    S(f) = integral_0^{pi/2} (sigma^2 + rho^2) * 2 pi sin(theta) dtheta

evaluated here by composite Simpson quadrature.  The second-variation form
4 pi * integral (df'^2 + df^2/sin^2) sin dtheta is also provided; it is
nonnegative for every admissible perturbation, which is what makes the
closed-form critical point the global minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import closedform

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

HALF_PI = math.pi / 2


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
    differences.
    """

    value: Callable
    derivative: Callable
    provenance: str = "analytic-test"
    second_derivative: Optional[Callable] = None

    def __post_init__(self):
        v0 = float(self.value(0.0))
        if abs(v0) > 1e-10:
            raise ValueError(f"radial function must vanish at theta=0, got {v0!r}")
        fd = (np.asarray(self.value(_SPOT_GRID + _FD_STEP))
              - np.asarray(self.value(_SPOT_GRID - _FD_STEP))) / (2 * _FD_STEP)
        if np.max(np.abs(fd - np.asarray(self.derivative(_SPOT_GRID)))) > 1e-6:
            raise ValueError("supplied derivative disagrees with finite differences")


def closed_form_radial() -> RadialFunction:
    """The minimum-stress closed form with analytic derivatives."""
    return RadialFunction(
        value=closedform.eval_f,
        derivative=closedform.eval_f_prime,
        second_derivative=closedform.eval_f_second,
        provenance="closed-form",
    )


def identity_radial(scale: float = 1.0) -> RadialFunction:
    """f(theta) = scale * theta (scale=1 is the equidistant straight line)."""
    return RadialFunction(
        value=lambda t: scale * np.asarray(t, dtype=float),
        derivative=lambda t: scale * np.ones_like(np.asarray(t, dtype=float)),
        second_derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        provenance="analytic-test",
    )


def sine_radial() -> RadialFunction:
    """f(theta) = sin(theta); zero hoop stress, nonzero meridional stress."""
    return RadialFunction(
        value=np.sin,
        derivative=np.cos,
        second_derivative=lambda t: -np.sin(np.asarray(t, dtype=float)),
        provenance="analytic-test",
    )


def profile_radial(profile) -> RadialFunction:
    """Bridge a sampled RadialProfile into the functional via cubic interpolation."""
    # imported here, not at module level: scipy.interpolate takes ~0.5 s to
    # import and no other path of the package needs it
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(profile.thetas, profile.values)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    return RadialFunction(
        value=spline, derivative=d1, second_derivative=d2, provenance="sampled"
    )


def sigma(rf: RadialFunction, theta):
    """Meridional (tangential) stress f'(theta) - 1."""
    theta = closedform.clamp_colatitude(theta)
    out = np.asarray(rf.derivative(theta), dtype=float) - 1.0
    return float(out) if np.ndim(theta) == 0 else out


def rho(rf: RadialFunction, theta):
    """Hoop stress f(theta)/sin(theta) - 1, with the L'Hopital limit f'(0) - 1 at 0."""
    theta = np.asarray(closedform.clamp_colatitude(theta), dtype=float)
    scalar = theta.ndim == 0
    t = np.atleast_1d(theta)
    out = np.empty_like(t)
    at_pole = t == 0.0
    if np.any(at_pole):
        out[at_pole] = np.asarray(rf.derivative(0.0), dtype=float) - 1.0
    tt = t[~at_pole]
    out[~at_pole] = np.asarray(rf.value(tt), dtype=float) / np.sin(tt) - 1.0
    return float(out[0]) if scalar else out


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid with an even interval count."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))


def _quadrature_grid(grid_size: int) -> tuple[np.ndarray, float]:
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    n = grid_size + (grid_size % 2)  # Simpson needs an even interval count
    thetas = np.linspace(0.0, HALF_PI, n + 1)
    return thetas, thetas[1] - thetas[0]


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
    thetas, h = _quadrature_grid(grid_size)
    weight = 2.0 * math.pi * np.sin(thetas)
    sig = sigma(rf, thetas)
    rh = rho(rf, thetas)
    tang = sig * sig * weight
    hoop = rh * rh * weight
    bad = ~np.isfinite(tang + hoop)
    if np.any(bad):
        raise StressEvaluationError(float(thetas[bad][0]))
    tangential = _simpson(tang, h)
    hoop_val = _simpson(hoop, h)
    return StressReport(
        total=tangential + hoop_val,
        tangential_part=tangential,
        hoop_part=hoop_val,
        grid_size=grid_size,
    )


def second_variation(rf: RadialFunction, perturbation: RadialFunction,
                     grid_size: int) -> float:
    """Quadrature of 4 pi * integral (df'^2 + df^2/sin^2) sin dtheta; always >= 0.

    The perturbation must vanish at theta = 0 (the pole value of f is pinned).
    The result does not depend on rf: the stress is a quadratic functional.
    """
    if abs(float(perturbation.value(0.0))) > 1e-10:
        raise ValueError("perturbation must vanish at theta = 0")
    thetas, h = _quadrature_grid(grid_size)
    dfp = np.asarray(perturbation.derivative(thetas), dtype=float)
    df = np.asarray(perturbation.value(thetas), dtype=float)
    integrand = np.empty_like(thetas)
    integrand[0] = 0.0  # df ~ df'(0)*theta, so df^2/sin -> 0
    s = np.sin(thetas[1:])
    integrand[1:] = dfp[1:] ** 2 * s + df[1:] ** 2 / s
    bad = ~np.isfinite(integrand)
    if np.any(bad):
        raise StressEvaluationError(float(thetas[bad][0]))
    return 4.0 * math.pi * _simpson(integrand, h)
