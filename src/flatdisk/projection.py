"""Forward/inverse mapping between geographic coordinates and the two-sided disk.

Each hemisphere maps to one face of a unit disk.  In GGV mode the disk
radius is proportional to colatitude (azimuthal equidistant per face); in
stress-minimal mode it follows the minimum-stress radial function,
normalized by f(pi/2) = 2 ln 2.  The equator lands on the rim, r = 1,
exactly in GGV mode; in stress-minimal mode it lands within 1 ulp below
1, because the computed f(pi/2) may round below closedform.TWO_LN2.

forward_arrays takes (lat, lon) in degrees to (r, phi, north) and
inverse_arrays takes them back; the northern face owns the equator.  Every
function takes scalars or arrays and gives Python scalars for scalars, by
the one rule of the closed-form evaluators (closedform._vectorized).
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from . import closedform  # stress loads in the two functions that use it
from .closedform import HALF_PI

__all__ = [
    "Hemisphere",
    "ProjectionMode",
    "normalize_lon",
    "radial_function",
    "radius_from_colatitude",
    "forward_arrays",
    "inverse_radius",
    "inverse_arrays",
    "scale_factors",
]

class Hemisphere(enum.Enum):
    NORTH = "north"
    SOUTH = "south"


class ProjectionMode(enum.Enum):
    GGV = "ggv"
    STRESS_MINIMAL = "stress-minimal"


@closedform._vectorized
def normalize_lon(lon):
    """Longitude in degrees mapped into (-180, 180] (vectorized; a float for a scalar).

    fmod by 360 (exact, sign of the argument), then one shift of 360 off the
    ends; -0.0 and NaN pass through.  Infinite values raise ValueError
    "math domain error", as math.fmod does.
    """
    if np.isinf(lon).any():
        raise ValueError("math domain error")
    out = np.fmod(lon, 360.0)
    return np.where(out <= -180.0, out + 360.0, np.where(out > 180.0, out - 360.0, out))


@functools.cache
def radial_function(mode: ProjectionMode) -> stress.RadialFunction:
    """The mode's radial function f, built once: theta for GGV, the closed form else."""
    from . import stress
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
    """Vectorized forward map: degrees -> (r, phi, north_mask).

    A latitude outside [-90, 90], or NaN, raises ValueError "latitude out of
    range: 91.0"; then an infinite longitude raises normalize_lon's error.
    phi is normalize_lon's exact reduction in radians (+ 0.0 turns -0.0 into
    0.0).  The pole projects to r = 0 with phi = 0 (deterministic tie-break);
    lat = 0 is assigned to the northern face.
    """
    lat = np.asarray(lat_deg, dtype=float)
    abs_lat = np.abs(lat)
    in_range = abs_lat <= 90.0
    if not in_range.all():
        raise ValueError(f"latitude out of range: {float(lat[~in_range][0])!r}")
    north = lat >= 0.0
    r = radius_from_colatitude(np.radians(90.0 - abs_lat), mode)
    phi = np.where(r == 0.0, 0.0, np.radians(normalize_lon(lon_deg)) + 0.0)
    return (float(r), float(phi), bool(north)) if phi.ndim == 0 else (r, phi, north)


# bench/tracing.py wraps this name; it goes when the tracer stops wrapping it
forward = forward_arrays


@closedform._vectorized
def inverse_radius(r, mode: ProjectionMode):
    """Colatitude theta at which the normalized disk radius is r (a float for a scalar).

    r is clamped onto [0, 1]; NaN, or a value more than closedform.CLAMP_TOL
    outside [0, 1], raises ValueError.  GGV inverts analytically.  Stress-minimal
    runs Newton's method in s = sin(theta/2) (closedform._inverse_f), from a
    degree-7 polynomial in r within 1e-7 of the root, so that no step calls sin
    or cos.  It stops once every step, measured in theta, is below 1e-11 rad,
    and takes that last step in theta: two evaluations of f and f'.
    """
    bad = ~((r >= -closedform.CLAMP_TOL) & (r <= 1.0 + closedform.CLAMP_TOL))
    if np.any(bad):
        raise ValueError(f"disk radius out of range [0, 1]: {float(r[bad][0])!r}")
    r = np.clip(r, 0.0, 1.0)
    if mode is ProjectionMode.GGV:
        return r * HALF_PI
    return closedform._inverse_f(r)


def inverse_arrays(r, phi, north, mode: ProjectionMode):
    """Vectorized inverse map: (r, phi, north_mask) -> degrees (lat, lon).

    r follows inverse_radius's rule (clamped within closedform.CLAMP_TOL,
    else ValueError); lon is normalize_lon of phi in degrees.  forward_arrays
    of the result gives back (r, phi, north) up to rounding.
    """
    lat = 90.0 - np.degrees(inverse_radius(r, mode))
    lat = np.where(north, lat, -lat)
    lon = normalize_lon(np.degrees(phi))
    return (float(lat), lon) if lat.ndim == 0 else (lat, lon)


def scale_factors(lat_deg, mode: ProjectionMode):
    """(meridian_scale, parallel_scale, area_scale) at latitudes in degrees.

    Reported in unnormalized units: the hemisphere rim sits at pi/2 for GGV
    and at 2 ln 2 for stress-minimal.  The factors are 1 + stress.sigma and
    1 + stress.rho of the mode's radial function, so at the poles both take
    rho's limiting slope f'(0), where the map is isotropic.
    """
    from . import stress
    theta = np.radians(90.0 - np.abs(lat_deg))
    rf = radial_function(mode)
    meridian = stress.sigma(rf, theta) + 1.0
    parallel = stress.rho(rf, theta) + 1.0
    return meridian, parallel, meridian * parallel
