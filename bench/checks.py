"""Output checks that never call the code under test.

References come from the half-angle closed form written out below,

    f(t) = ln2 * tan(t/2) - cot(t/2) * log1p(-sin^2(t/2)),

which has no cancellation anywhere on [0, pi/2] (max relative error 3.4e-16
against 40-digit mpmath), and from frozen high-precision stress integrals.
Every check raises CheckError with a one-line reason.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

LN2 = math.log(2.0)
TWO_LN2 = 2.0 * LN2
HALF_PI = math.pi / 2
EPS = np.finfo(float).eps

# Total stress S(f) = int_0^{pi/2} (sigma^2 + rho^2) 2 pi sin(t) dt, from
# 40-digit mpmath quadrature of the closed form and of the line f(t) = t.
S_MIN_TANGENTIAL = 0.076339577694240235
S_MIN_HOOP = 0.16929509380336113
S_MIN_TOTAL = 0.24563467149760137
S_GGV_TOTAL = 0.50630725203976464
S_DIFFERENCE = 0.26067258054216327

# The CLI prints 12 significant digits: half a unit of the 12th digit.
PRINT_REL = 5e-12
# Absolute slack on a unit-disk radius or angle, far below a pixel at any size.
R_ABS = 5e-12
ROUNDTRIP_TOL_RAD = 1e-11  # inverse_radius promises an interval below 1e-12 rad
SLOPE_TOL = 1e-6


class CheckError(Exception):
    pass


def f_ref(theta):
    t = np.asarray(theta, dtype=float)
    half = 0.5 * t
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = LN2 * np.tan(half) - (np.cos(half) / s) * np.log1p(-s * s)
    return np.where(t == 0.0, 0.0, out)


def colatitude(lat_deg):
    return np.radians(90.0 - np.abs(np.asarray(lat_deg, dtype=float)))


def radius_ref(lat_deg):
    return f_ref(np.minimum(colatitude(lat_deg), HALF_PI)) / TWO_LN2


def phi_ref(lon_deg, r):
    phi = np.mod(np.radians(lon_deg) + math.pi, 2 * math.pi) - math.pi
    phi = np.where(phi <= -math.pi, math.pi, phi)
    return np.where(r == 0.0, 0.0, phi)


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, rel, abs_, what):
    err = np.abs(np.asarray(got) - np.asarray(want))
    bad = err > rel * np.abs(want) + abs_
    _require(not np.any(bad), f"{what}: {int(np.sum(bad))} value(s) off, worst {float(np.max(err)):.3g}")


# --- project -----------------------------------------------------------------

def check_project(lat, lon, output: str) -> None:
    rows = [line.split(",") for line in output.splitlines()]
    _require(len(rows) == len(lat), f"expected {len(lat)} output lines, got {len(rows)}")
    _require(all(len(row) == 3 for row in rows), "output line without 3 fields")
    r = np.array([float(row[0]) for row in rows])
    phi = np.array([float(row[1]) for row in rows])
    side = np.array([row[2] for row in rows])
    want_side = np.where(lat >= 0.0, "north", "south")
    _require(np.array_equal(side, want_side), "hemisphere side mismatch")
    pole = np.abs(lat) == 90.0
    _require(np.all(r[pole] == 0.0) and np.all(phi[pole] == 0.0), "pole not at r = 0, phi = 0")
    r_want = radius_ref(lat)
    _close(r, r_want, PRINT_REL, R_ABS, "r")
    _close(phi, phi_ref(lon, r_want), PRINT_REL, R_ABS, "phi")


# --- render ------------------------------------------------------------------

MARGIN_PX = 10.0
GUTTER_PX = 20.0
COAST_STROKE = "#1f4e79"
PX_TOL = 2e-3  # coordinates are printed with 3 decimals


def split_pieces(lat, lon, closed):
    """Endpoints and side of each single-hemisphere piece of one polyline.

    Crossings are cut at lat 0 by linear interpolation in (lat, lon); the
    generated inputs never put a vertex exactly on the equator.
    """
    if closed:
        lat, lon = np.append(lat, lat[0]), np.append(lon, lon[0])
    pieces = []
    start = (lat[0], lon[0])
    for i in range(1, len(lat)):
        if (lat[i - 1] > 0) != (lat[i] > 0):
            t = lat[i - 1] / (lat[i - 1] - lat[i])
            cut = (0.0, lon[i - 1] + t * (lon[i] - lon[i - 1]))
            pieces.append((start, cut, lat[i - 1] > 0))
            start = cut
    pieces.append((start, (lat[-1], lon[-1]), lat[-1] > 0))
    return pieces


def _page(lat, lon, north, size_px):
    radius = size_px / 2.0
    cx = MARGIN_PX + radius if north else MARGIN_PX + 3 * radius + GUTTER_PX
    cy = MARGIN_PX + radius
    r = float(radius_ref(lat))
    phi = float(phi_ref(lon, r))
    sign = 1.0 if north else -1.0
    return cx + radius * r * math.cos(sign * phi), cy - radius * r * math.sin(sign * phi), cx, cy


def check_render(rings, svg: bytes, size_px: int) -> None:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from None
    ns = "{http://www.w3.org/2000/svg}"
    coast = [el.get("points") for el in root.iter(f"{ns}polyline")
             if el.get("stroke") == COAST_STROKE]
    want = [p for lat, lon, closed in rings for p in split_pieces(lat, lon, closed)]
    _require(len(coast) == len(want), f"expected {len(want)} coast pieces, got {len(coast)}")
    radius = size_px / 2.0
    for k, (points, (a, b, north)) in enumerate(zip(coast, want)):
        xy = np.array([pair.split(",") for pair in points.split()], dtype=float)
        x0, y0, cx, cy = _page(a[0], a[1], north, size_px)
        x1, y1, _, _ = _page(b[0], b[1], north, size_px)
        inside = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy) <= radius + PX_TOL
        _require(np.all(inside), f"piece {k}: vertex outside its panel")
        _require(abs(xy[0, 0] - x0) <= PX_TOL and abs(xy[0, 1] - y0) <= PX_TOL,
                 f"piece {k}: start vertex off")
        _require(abs(xy[-1, 0] - x1) <= PX_TOL and abs(xy[-1, 1] - y1) <= PX_TOL,
                 f"piece {k}: end vertex off")


# --- verify ------------------------------------------------------------------

def solver_tolerance(n: int) -> float:
    """Allowed max |f_solver - f| on an n-interval grid.

    Two terms: the midpoint rule's O(h^2) discretisation error, and rounding
    in the tridiagonal elimination, which grows with the condition number
    ~ n^2.  The coefficients bound the growth seen from n = 2^12 to 2^20
    (7.2e-9, 2.6e-10 at 2^14, 1.4e-8 at 2^18, 5.7e-7 at 2^20) by 2x to 11x.
    """
    h = HALF_PI / n
    return 0.1 * h * h + 0.01 * EPS * n * n


def _last_number(output: str, label: str) -> float:
    for line in output.splitlines():
        if line.strip().startswith(label):
            return float(line.split()[-1])
    raise CheckError(f"no {label!r} line in output")


def check_profile(text: str, n: int) -> tuple[float, float]:
    """Solver profile file; returns (max deviation, |endpoint slope - 1|)."""
    try:
        data = np.loadtxt(text.splitlines(), comments="#")
    except ValueError as exc:
        raise CheckError(f"profile does not parse: {exc}") from None
    _require(data.shape == (n + 1, 2), f"profile shape {data.shape}, expected {(n + 1, 2)}")
    theta, values = data[:, 0], data[:, 1]
    _close(theta, np.linspace(0.0, HALF_PI, n + 1), 0.0, 1e-15, "profile grid")
    _require(values[0] == 0.0, "profile does not start at f(0) = 0")
    dev = float(np.max(np.abs(values - f_ref(theta))))
    _require(dev <= solver_tolerance(n), f"solver deviation {dev:.3g} > {solver_tolerance(n):.3g}")
    h = theta[1] - theta[0]
    slope_err = abs((3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h) - 1.0)
    _require(slope_err <= SLOPE_TOL, f"endpoint slope off by {slope_err:.3g}")
    return dev, slope_err


def check_solve_output(output: str, n: int) -> None:
    _require(f"({n + 1} samples)" in output, "solve did not report n + 1 samples")


def check_stress_outputs(profile_out: str, compare_out: str) -> None:
    total = _last_number(profile_out, "total")
    _require(total >= S_MIN_TOTAL - 1e-11,
             f"profile stress {total!r} below the minimum {S_MIN_TOTAL!r}")
    _require(total <= S_MIN_TOTAL + 1e-6, f"profile stress {total!r} far above the minimum")
    blocks = compare_out.split("ggv\n")
    _require(len(blocks) == 2, "stress --compare output lacks a ggv block")
    got = [_last_number(blocks[0], "total"), _last_number(blocks[0], "tangential_part"),
           _last_number(blocks[0], "hoop_part"), _last_number(blocks[1], "total"),
           _last_number(compare_out, "difference")]
    want = [S_MIN_TOTAL, S_MIN_TANGENTIAL, S_MIN_HOOP, S_GGV_TOTAL, S_DIFFERENCE]
    _close(got, want, PRINT_REL, 1e-11, "stress --compare")


def check_roundtrip(lat, lon, r, phi, north, theta) -> float:
    """forward_arrays then inverse_radius; returns max |theta - colatitude|."""
    r_want = radius_ref(lat)
    _close(r, r_want, 0.0, R_ABS, "round-trip r")
    _close(phi, phi_ref(lon, r_want), 0.0, 1e-13, "round-trip phi")
    _require(np.array_equal(np.asarray(north), lat >= 0.0), "round-trip side mismatch")
    err = float(np.max(np.abs(np.asarray(theta) - colatitude(lat))))
    _require(err <= ROUNDTRIP_TOL_RAD, f"round-trip error {err:.3g} rad")
    return err
