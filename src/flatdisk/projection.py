"""Forward/inverse mapping between geographic coordinates and the two-sided disk.

Each hemisphere maps to one face of a unit disk.  In GGV mode the disk
radius is proportional to colatitude (azimuthal equidistant per face); in
stress-minimal mode it follows the minimum-stress radial function,
normalized so the equator lands on the rim (r = 1) in both modes.
Its vectorized functions give a float for a scalar, by the one rule of the
closed-form evaluators (closedform._vectorized).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closedform, stress
from .closedform import HALF_PI

__all__ = [
    "Hemisphere",
    "ProjectionMode",
    "GeoCoord",
    "DiskPoint",
    "normalize_lon",
    "forward",
    "inverse",
    "radial_function",
    "radius_from_colatitude",
    "forward_arrays",
    "inverse_radius",
    "scale_factors",
]

_R_TOL = 1e-12
# Newton stop for inverse_radius.  Newton converges quadratically from pi/2,
# so a step below 1e-11 rad leaves an error of order f''/f' * 1e-22 rad,
# under the rounding of theta.  The 8-step cap bounds the cost.
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 8


class Hemisphere(enum.Enum):
    NORTH = "north"
    SOUTH = "south"


class ProjectionMode(enum.Enum):
    GGV = "ggv"
    STRESS_MINIMAL = "stress-minimal"


@closedform._vectorized
def _wrap(x, period: float):
    """x reduced into (-period/2, period/2] (vectorized; a float for a scalar).

    fmod by period (exact, sign of the argument), then one shift of period
    off the ends; -0.0 and NaN pass through.  Infinite values raise
    ValueError "math domain error", as math.fmod does.
    """
    if np.isinf(x).any():
        raise ValueError("math domain error")
    out = np.fmod(x, period)
    half = 0.5 * period
    return np.where(out <= -half, out + period, np.where(out > half, out - period, out))


def normalize_lon(lon):
    """Longitude in degrees mapped into (-180, 180] by _wrap (vectorized)."""
    return _wrap(lon, 360.0)


@closedform._vectorized
def _unit_radius(r):
    """Disk radius r clamped onto [0, 1] (vectorized; a float for a scalar).

    NaN, or a value more than _R_TOL outside [0, 1], raises ValueError.
    """
    bad = ~((r >= -_R_TOL) & (r <= 1.0 + _R_TOL))
    if np.any(bad):
        raise ValueError(f"disk radius out of range [0, 1]: {float(r[bad][0])!r}")
    return np.clip(r, 0.0, 1.0)


@dataclass(frozen=True)
class GeoCoord:
    """Geographic coordinate in degrees; longitude normalized into (-180, 180]."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat_deg!r}")
        object.__setattr__(self, "lon_deg", normalize_lon(self.lon_deg))


@dataclass(frozen=True)
class DiskPoint:
    """Polar point on one face of the unit two-sided disk (rim at r = 1)."""

    r: float
    phi: float
    side: Hemisphere

    def __post_init__(self):
        object.__setattr__(self, "r", _unit_radius(self.r))
        object.__setattr__(self, "phi", _wrap(self.phi, 2 * math.pi))


@functools.cache
def radial_function(mode: ProjectionMode) -> stress.RadialFunction:
    """The mode's radial function f, built once: theta for GGV, the closed form else."""
    if mode is ProjectionMode.GGV:
        return stress.identity_radial()
    return stress.closed_form_radial()


@closedform._vectorized
def radius_from_colatitude(theta, mode: ProjectionMode):
    """Normalized disk radius of colatitude theta (vectorized; a float for a scalar)."""
    if mode is ProjectionMode.GGV:
        return theta / HALF_PI
    return closedform.eval_f(theta) / closedform.TWO_LN2


def forward_arrays(lat_deg, lon_deg, mode: ProjectionMode):
    """Vectorized forward map: arrays of degrees -> (r, phi, north_mask).

    phi is normalize_lon's exact reduction in radians (+ 0.0 turns -0.0 into
    0.0).  The pole projects to r = 0 with phi = 0 (deterministic tie-break);
    lat = 0 is assigned to the northern face.
    """
    lat = np.asarray(lat_deg, dtype=float)
    north = lat >= 0.0
    theta = np.radians(90.0 - np.abs(lat))
    r = radius_from_colatitude(theta, mode)
    phi = np.where(r == 0.0, 0.0, np.radians(normalize_lon(lon_deg)) + 0.0)
    return r, phi, north


def forward(p: GeoCoord, mode: ProjectionMode) -> DiskPoint:
    """Project a geographic coordinate onto the two-sided disk."""
    r, phi, north = forward_arrays(p.lat_deg, p.lon_deg, mode)
    side = Hemisphere.NORTH if bool(north) else Hemisphere.SOUTH
    return DiskPoint(r=float(r), phi=float(phi), side=side)


@closedform._vectorized
def inverse_radius(r, mode: ProjectionMode):
    """Colatitude theta at which the normalized disk radius is r (a float for a scalar).

    GGV inverts analytically.  Stress-minimal runs Newton's method from
    theta = pi/2, clipped to [0, pi/2]: f is increasing and convex there,
    so the iterates fall monotonically onto the root.  It stops once every
    step is below _NEWTON_TOL rad, or after _NEWTON_MAX_ITER steps.
    """
    r = _unit_radius(r)
    if mode is ProjectionMode.GGV:
        return r * HALF_PI
    target = r * closedform.TWO_LN2
    theta = np.full_like(target, HALF_PI)
    for _ in range(_NEWTON_MAX_ITER):
        f, f_prime = closedform._f_and_prime(theta)
        step = (f - target) / f_prime
        theta = np.clip(theta - step, 0.0, HALF_PI)
        if not np.any(np.abs(step) >= _NEWTON_TOL):
            break
    return theta


def inverse(d: DiskPoint, mode: ProjectionMode) -> GeoCoord:
    """Invert the projection; forward(inverse(d)) reproduces d."""
    theta = inverse_radius(d.r, mode)
    lat = 90.0 - math.degrees(theta)
    if d.side is Hemisphere.SOUTH:
        lat = -lat
    return GeoCoord(lat_deg=lat, lon_deg=math.degrees(d.phi))


def scale_factors(p: GeoCoord, mode: ProjectionMode):
    """(meridian_scale, parallel_scale, area_scale) at a geographic point.

    Reported in unnormalized units: the hemisphere rim sits at pi/2 for GGV
    and at 2 ln 2 for stress-minimal.  The factors are 1 + stress.sigma and
    1 + stress.rho of the mode's radial function, so at the poles both take
    rho's limiting slope f'(0), where the map is isotropic.
    """
    theta = math.radians(90.0 - abs(p.lat_deg))
    rf = radial_function(mode)
    meridian = stress.sigma(rf, theta) + 1.0
    parallel = stress.rho(rf, theta) + 1.0
    return meridian, parallel, meridian * parallel
