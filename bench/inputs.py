"""Seeded input generators for the three benchmark workloads.

Every generator takes a numpy Generator built from the run's seed and writes
plain files (CSV, GeoJSON, .npy); the program under test only ever sees those
files.  Counts of each special case are fixed per file, so the work per job
stays roughly constant across seeds; the shares reported by the ``measure_*``
functions are measured on the written data, not copied from the constants.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import commands

# --- project: lat,lon CSV ----------------------------------------------------

PROJECT_FILES = 8
PROJECT_LINES = 2000
PROJECT_POLES = 20        # half north, half south; random longitude
PROJECT_EQUATOR = 20      # lat exactly 0
PROJECT_LON_180 = 8       # lon exactly +-180 (phi must land on +pi)
PROJECT_LON_360 = 2       # lon exactly +-360 (phi must land on 0)


def _alternate(n, value):
    return np.where(np.arange(n) % 2 == 0, value, -value)


def sphere_points(rng, n):
    """Latitudes uniform on the sphere, longitudes uniform in [-360, 360]."""
    lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    return lat, rng.uniform(-360.0, 360.0, n)


def project_rows(rng, n=PROJECT_LINES):
    """sphere_points plus fixed counts of poles, equator points and lon +-180, +-360."""
    lat, lon = sphere_points(rng, n)
    k = PROJECT_POLES
    lat[:k] = _alternate(k, 90.0)
    lat[k:k + PROJECT_EQUATOR] = 0.0
    k += PROJECT_EQUATOR
    lon[k:k + PROJECT_LON_180] = _alternate(PROJECT_LON_180, 180.0)
    k += PROJECT_LON_180
    lon[k:k + PROJECT_LON_360] = _alternate(PROJECT_LON_360, 360.0)
    order = rng.permutation(n)
    return lat[order], lon[order]


def write_project_csv(path: Path, lat, lon) -> None:
    # repr() round-trips exactly, so the program and the checks parse the same floats
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(lat.tolist(), lon.tolist())))


def read_project_csv(text: str):
    rows = np.array([line.split(",") for line in text.splitlines()], dtype=float)
    return rows[:, 0], rows[:, 1]


def measure_points(lat, lon) -> dict:
    n = len(lat)
    return {
        "points": n,
        "poles": float(np.mean(np.abs(lat) == 90.0)),
        "equator_points": float(np.mean(lat == 0.0)),
        "wrapped_longitudes": float(np.mean((lon <= -180.0) | (lon > 180.0))),
        "lon_exactly_180": float(np.mean(np.abs(lon) == 180.0)),
        "lon_exactly_360": float(np.mean(np.abs(lon) == 360.0)),
    }


# --- render: GeoJSON coastlines ----------------------------------------------

STEP_DEG = 0.5            # ground step of every random walk
PLAIN_LINES = 11
PLAIN_POLYGONS = 10
PLAIN_VERTICES = 60
EQUATOR_PAIRS = 2         # LineString + Polygon pairs that cross the equator
EQUATOR_VERTICES = 60
# LineStrings that cross +-180 at |lat| ~ 10 with coarse 2 deg steps, as in
# small-scale coastline data: the crossing chord exceeds the 2 px densify
# threshold, so the renderer's long-way interpolation shows in every job.
ANTIMERIDIAN_LINES = 1
ANTIMERIDIAN_VERTICES = 20
ANTIMERIDIAN_STEP_DEG = 2.0
POLE_RINGS = 2            # Polygons circling a pole at |lat| ~ 80
POLE_RING_VERTICES = 120
RENDER_FILES = 8


def _walk(rng, lat0, lon0, heading, n, turn=0.25, step=STEP_DEG):
    """Persistent random walk with ``step`` degree ground steps; returns (lat, lon)."""
    lat = np.empty(n)
    lon = np.empty(n)
    lat[0], lon[0] = lat0, lon0
    for i in range(1, n):
        heading += rng.normal(0.0, turn)
        lat[i] = lat[i - 1] + step * math.cos(heading)
        lon[i] = lon[i - 1] + step * math.sin(heading) / math.cos(math.radians(lat[i - 1]))
    return lat, lon


def _blob(rng, lat0, lon0, n):
    """Closed noisy loop around (lat0, lon0) with ~STEP_DEG spacing."""
    radius = n * STEP_DEG / (2 * math.pi)
    ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    wobble = np.cumsum(rng.normal(0.0, 0.02, n))
    wobble -= np.linspace(0.0, wobble[-1], n)  # close the loop smoothly
    rad = radius * (1.0 + np.clip(wobble, -0.3, 0.3))
    lat = lat0 + rad * np.sin(ang)
    lon = lon0 + rad * np.cos(ang) / math.cos(math.radians(lat0))
    return lat, lon


def _wrap_lon(lon):
    out = np.mod(lon + 180.0, 360.0) - 180.0
    return np.where(out == -180.0, 180.0, out)


def _crosses_equator(lat):
    return bool(np.any(lat > 0) and np.any(lat < 0))


def _long_way_segments(lon, closed):
    lon = np.append(lon, lon[:1]) if closed else lon
    return int(np.sum(np.abs(np.diff(lon)) > 180.0))


def _plain_ok(lat, lon, closed):
    return (np.all(np.abs(lat) < 85.0) and not _crosses_equator(lat)
            and _long_way_segments(lon, closed) == 0)


def _plain(rng, closed):
    while True:  # redraw until the feature has none of the special properties
        hemi = 1.0 if rng.random() < 0.5 else -1.0
        lat0 = hemi * rng.uniform(15.0, 55.0)
        lon0 = rng.uniform(-120.0, 120.0)
        if closed:
            lat, lon = _blob(rng, lat0, lon0, PLAIN_VERTICES)
        else:
            lat, lon = _walk(rng, lat0, lon0, rng.uniform(0, 2 * math.pi), PLAIN_VERTICES)
        if _plain_ok(lat, lon, closed):
            return lat, lon


def _equator_line(rng):
    while True:
        hemi = 1.0 if rng.random() < 0.5 else -1.0
        lat, lon = _walk(rng, hemi * rng.uniform(2.0, 6.0), rng.uniform(-120.0, 120.0),
                         math.pi / 2 + hemi * math.pi / 2 + rng.normal(0, 0.2),
                         EQUATOR_VERTICES, turn=0.1)
        if _crosses_equator(lat) and _long_way_segments(lon, False) == 0 and np.all(lat != 0):
            return lat, lon


def _equator_polygon(rng):
    while True:
        lat, lon = _blob(rng, rng.uniform(-1.0, 1.0), rng.uniform(-120.0, 120.0),
                         EQUATOR_VERTICES)
        if _crosses_equator(lat) and np.all(lat != 0):
            return lat, lon


def _antimeridian_line(rng):
    while True:
        hemi = 1.0 if rng.random() < 0.5 else -1.0
        lat, lon = _walk(rng, hemi * rng.uniform(9.0, 11.0), 180.0 - rng.uniform(8.0, 30.0),
                         math.pi / 2 + rng.normal(0, 0.02), ANTIMERIDIAN_VERTICES, turn=0.02,
                         step=ANTIMERIDIAN_STEP_DEG)
        lon = _wrap_lon(lon)
        if _long_way_segments(lon, False) == 1 and not _crosses_equator(lat):
            return lat, lon


def _pole_ring(rng):
    hemi = 1.0 if rng.random() < 0.5 else -1.0
    n = POLE_RING_VERTICES
    lon = np.linspace(-180.0, 180.0, n, endpoint=False) + rng.uniform(0.0, 360.0 / n)
    lat = hemi * (80.0 + np.clip(np.cumsum(rng.normal(0.0, 0.05, n)), -0.5, 0.5))
    return lat, _wrap_lon(lon)


def _feature(lat, lon, closed, kind):
    coords = [[float(b), float(a)] for a, b in zip(lat, lon)]
    if closed:
        geom = {"type": "Polygon", "coordinates": [coords + [coords[0]]]}
    else:
        geom = {"type": "LineString", "coordinates": coords}
    return {"type": "Feature", "properties": {"kind": kind}, "geometry": geom}


def render_collection(rng) -> dict:
    """One job's FeatureCollection: fixed counts of every special feature."""
    feats = []
    for _ in range(EQUATOR_PAIRS):
        feats += [_feature(*_equator_line(rng), False, "equator-crosser"),
                  _feature(*_equator_polygon(rng), True, "equator-crosser")]
    feats += [_feature(*_antimeridian_line(rng), False, "antimeridian-crosser")
              for _ in range(ANTIMERIDIAN_LINES)]
    feats += [_feature(*_pole_ring(rng), True, "pole-ring") for _ in range(POLE_RINGS)]
    feats += [_feature(*_plain(rng, False), False, "plain") for _ in range(PLAIN_LINES)]
    feats += [_feature(*_plain(rng, True), True, "plain") for _ in range(PLAIN_POLYGONS)]
    order = rng.permutation(len(feats))
    return {"type": "FeatureCollection", "features": [feats[i] for i in order]}


def feature_rings(doc):
    """Yield (lat, lon, closed) per feature as written (closing vertex dropped)."""
    for feat in doc["features"]:
        geom = feat["geometry"]
        closed = geom["type"] == "Polygon"
        coords = np.array(geom["coordinates"][0] if closed else geom["coordinates"], dtype=float)
        if closed:
            coords = coords[:-1]
        yield coords[:, 1], coords[:, 0], closed


def input_vertices(doc) -> int:
    """Coordinate pairs as written in the file, closing vertices included."""
    total = 0
    for feat in doc["features"]:
        geom = feat["geometry"]
        total += len(geom["coordinates"][0] if geom["type"] == "Polygon" else geom["coordinates"])
    return total


def measure_render(doc) -> dict:
    rings = list(feature_rings(doc))
    n = len(rings)
    return {
        "features": n,
        "vertices": input_vertices(doc),
        "linestrings": sum(not c for _, _, c in rings) / n,
        "equator_crossers": sum(_crosses_equator(lat) for lat, _, _ in rings) / n,
        "pole_rings": sum(c and np.ptp(np.unwrap(np.radians(lon))) >= 2 * math.pi * 0.99
                          for _, lon, c in rings) / n,
        "antimeridian_crossers": sum(_long_way_segments(lon, c) > 0 for _, lon, c in rings) / n,
    }


# --- verify: solver grid and round-trip points --------------------------------

VERIFY_N = 2 ** 15        # solver intervals and stress quadrature grid
VERIFY_POINTS = 2 ** 15   # library round-trip points per job
VERIFY_FILES = 4


# --- one directory of inputs per run -----------------------------------------

def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work``; return the job manifest."""
    rng = np.random.default_rng([seed, {"project": 1, "render": 2, "verify": 3}[workload]])
    inputs, shares = [], []
    if workload == "project":
        for i in range(PROJECT_FILES):
            lat, lon = project_rows(rng)
            path = work / f"project_{i}.csv"
            write_project_csv(path, lat, lon)
            inputs.append({"path": path.name, "units": len(lat)})
            shares.append(measure_points(lat, lon))
        sizes = {"files": PROJECT_FILES, "lines_per_job": PROJECT_LINES}
        unit = "lines"
    elif workload == "render":
        for i in range(RENDER_FILES):
            doc = render_collection(rng)
            path = work / f"render_{i}.geojson"
            path.write_text(json.dumps(doc))
            inputs.append({"path": path.name, "units": input_vertices(doc)})
            shares.append(measure_render(doc))
        sizes = {"files": RENDER_FILES, "features_per_job": len(doc["features"]),
                 "vertices_per_job": inputs[0]["units"], "size_px": commands.SIZE_PX,
                 "graticule_deg": commands.GRATICULE_DEG}
        unit = "vertices"
    elif workload == "verify":
        for i in range(VERIFY_FILES):
            path = work / f"verify_{i}.npy"
            lat, lon = sphere_points(rng, VERIFY_POINTS)
            np.save(path, np.column_stack([lat, lon]))
            shares.append(measure_points(lat, lon))
            inputs.append({"path": path.name, "units": 3 * VERIFY_N + VERIFY_POINTS})
        sizes = {"files": VERIFY_FILES, "n": VERIFY_N, "grid": VERIFY_N,
                 "roundtrip_points": VERIFY_POINTS}
        unit = "nodes+points"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    properties = {k: float(np.mean([s[k] for s in shares])) for k in shares[0]}
    return {"workload": workload, "seed": seed, "inputs": inputs, "sizes": sizes,
            "unit": unit, "properties": properties}


def write_minimal(workload: str, work: Path) -> None:
    """Smallest file input for the cold-start probe (the others are literals)."""
    if workload == "render":
        doc = {"type": "FeatureCollection", "features": [_feature(
            np.array([10.0, 11.0]), np.array([20.0, 21.0]), False, "plain")]}
        (work / "min.geojson").write_text(json.dumps(doc))
