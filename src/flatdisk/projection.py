"""Forward/inverse mapping between geographic coordinates and the two-sided disk.

Each hemisphere maps to one face of a unit disk.  In GGV mode the disk
radius is proportional to colatitude (azimuthal equidistant per face); in
stress-minimal mode it follows the minimum-stress radial function,
normalized so the equator lands on the rim (r = 1) in both modes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import closedform

__all__ = [
    "Hemisphere",
    "ProjectionMode",
    "GeoCoord",
    "DiskPoint",
    "forward",
    "inverse",
    "radius_from_colatitude",
    "forward_arrays",
    "inverse_radius",
    "scale_factors",
]

HALF_PI = math.pi / 2
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

    @classmethod
    def parse(cls, name: str) -> "ProjectionMode":
        for mode in cls:
            if mode.value == name.lower():
                return mode
        raise ValueError(f"unknown projection mode {name!r}")


@dataclass(frozen=True)
class GeoCoord:
    """Geographic coordinate in degrees; longitude normalized into (-180, 180]."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat_deg!r}")
        lon = math.fmod(self.lon_deg, 360.0)
        if lon <= -180.0:
            lon += 360.0
        elif lon > 180.0:
            lon -= 360.0
        object.__setattr__(self, "lon_deg", lon)


@dataclass(frozen=True)
class DiskPoint:
    """Polar point on one face of the unit two-sided disk (rim at r = 1)."""

    r: float
    phi: float
    side: Hemisphere

    def __post_init__(self):
        if not -_R_TOL <= self.r <= 1.0 + _R_TOL:
            raise ValueError(f"disk radius out of range [0, 1]: {self.r!r}")
        object.__setattr__(self, "r", min(max(self.r, 0.0), 1.0))
        phi = math.fmod(self.phi, 2 * math.pi)
        if phi <= -math.pi:
            phi += 2 * math.pi
        elif phi > math.pi:
            phi -= 2 * math.pi
        object.__setattr__(self, "phi", phi)


def radius_from_colatitude(theta, mode: ProjectionMode):
    """Normalized disk radius as a function of colatitude (vectorized)."""
    if mode is ProjectionMode.GGV:
        return np.asarray(theta, dtype=float) / HALF_PI
    return np.asarray(closedform.eval_f(theta)) / closedform.TWO_LN2


def forward_arrays(lat_deg, lon_deg, mode: ProjectionMode):
    """Vectorized forward map: arrays of degrees -> (r, phi, north_mask).

    The pole projects to r = 0 with phi = 0 (deterministic tie-break);
    lat = 0 is assigned to the northern face.
    """
    lat = np.asarray(lat_deg, dtype=float)
    lon = np.asarray(lon_deg, dtype=float)
    north = lat >= 0.0
    theta = np.radians(90.0 - np.abs(lat))
    theta = np.minimum(theta, HALF_PI)  # guard float noise at the equator
    r = radius_from_colatitude(theta, mode)
    phi = np.where(r == 0.0, 0.0, np.radians(lon))
    phi = np.mod(phi + math.pi, 2 * math.pi) - math.pi
    phi = np.where(phi == -math.pi, math.pi, phi)
    return r, phi, north


def forward(p: GeoCoord, mode: ProjectionMode) -> DiskPoint:
    """Project a geographic coordinate onto the two-sided disk."""
    r, phi, north = forward_arrays(p.lat_deg, p.lon_deg, mode)
    side = Hemisphere.NORTH if bool(north) else Hemisphere.SOUTH
    return DiskPoint(r=float(r), phi=float(phi), side=side)


def inverse_radius(r, mode: ProjectionMode):
    """Colatitude theta such that the normalized disk radius equals r.

    GGV inverts analytically.  Stress-minimal runs Newton's method from
    theta = pi/2, clipped to [0, pi/2]: f is increasing and convex there,
    so the iterates fall monotonically onto the root.  It stops once every
    step is below _NEWTON_TOL rad, or after _NEWTON_MAX_ITER steps.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(np.atleast_1d(arr) < -_R_TOL) or np.any(np.atleast_1d(arr) > 1.0 + _R_TOL):
        raise ValueError("disk radius out of [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    if mode is ProjectionMode.GGV:
        return arr * HALF_PI
    target = arr * closedform.TWO_LN2
    theta = np.full_like(arr, HALF_PI)
    for _ in range(_NEWTON_MAX_ITER):
        step = (closedform.eval_f(theta) - target) / closedform.eval_f_prime(theta)
        theta = np.clip(theta - step, 0.0, HALF_PI)
        if not np.any(np.abs(step) >= _NEWTON_TOL):
            break
    return float(theta) if np.ndim(r) == 0 else theta


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
    and at 2 ln 2 for stress-minimal.  At the poles both factors take the
    limiting slope f'(0), where the map is isotropic.
    """
    theta = math.radians(90.0 - abs(p.lat_deg))
    if mode is ProjectionMode.GGV:
        meridian = 1.0
        parallel = 1.0 if theta == 0.0 else theta / math.sin(theta)
    else:
        meridian = float(closedform.eval_f_prime(theta))
        if theta == 0.0:
            parallel = meridian
        else:
            parallel = float(closedform.eval_f(theta)) / math.sin(theta)
    return meridian, parallel, meridian * parallel
