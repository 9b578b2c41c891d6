"""Frozen bytes of `flatdisk render map` on small inputs and on 1,000 rings,
and of `flatdisk render profile`.

The sha256 and length of each SVG, the maps in both modes at the CLI's
default size and graticule, the fixture's map in both modes at two more page
sizes and graticules, and the profile plot at two sizes, are kept in
data/golden/render_map_sha256.json; rerun
`python tests/data/regenerate_render_golden.py` only when a change to the
output is intended.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from flatdisk import cli

DATA = Path(__file__).parent / "data"
HASHES = DATA / "golden" / "render_map_sha256.json"
MANY_RINGS = "many_rings.geojson"
INPUTS = ["fixture_coastline.geojson", "render_antimeridian.geojson",
          "render_equator.geojson", "render_poles.geojson", "render_mixed.geojson",
          MANY_RINGS]
MODES = ["ggv", "stress-minimal"]
# 6000 px pages put coordinates past 10,000, so their integer parts take
# more than one 4-digit group
PROFILE_SIZES = [100, 400, 6000]
# (--size, --graticule) of the extra fixture maps: the smallest page with a
# coarse graticule, and large pages with only the rim and the spokes at 90°
PAGE_OPTIONS = [(100, 30), (1000, 90), (6000, 90)]
# eight directions with exactly representable components, so every
# coordinate of many_rings() is the same double on every platform
DIRECTIONS = [(1.0, 0.0), (0.75, 0.75), (0.0, 1.0), (-0.75, 0.75),
              (-1.0, 0.0), (-0.75, -0.75), (0.0, -1.0), (0.75, -0.75)]


def many_rings() -> dict:
    """1,000 single-ring features from a formula: 600 Polygons, 400 LineStrings.

    Centres step over lat -80..80 and lon -180..179.5, so some rings cross
    the equator and some cross ±180° (their longitudes may pass 180).
    """
    features = []
    for k in range(1000):
        lat0 = -80.0 + (k * 37) % 161
        lon0 = -180.0 + (k * 113) % 360 + 0.5 * (k % 2)
        r = 0.5 + 0.75 * (k % 7)
        ring = [[lon0 + r * du * (1.0 + 0.25 * (j % 3)), lat0 + r * dv * (1.0 + 0.25 * (j % 3))]
                for j, (du, dv) in enumerate(DIRECTIONS * 2) if j < 4 + k % 9]
        if k % 5 < 3:
            geometry = {"type": "Polygon", "coordinates": [ring + [ring[0]]]}
        else:
            geometry = {"type": "LineString", "coordinates": ring}
        features.append({"type": "Feature", "properties": {}, "geometry": geometry})
    return {"type": "FeatureCollection", "features": features}


def input_dir(name: str, workdir: Path) -> Path:
    """The directory that holds input `name`, writing many_rings() to workdir."""
    if name != MANY_RINGS:
        return DATA
    (workdir / MANY_RINGS).write_text(json.dumps(many_rings()))
    return workdir


def page_args(size: int, graticule: int) -> list:
    return ["--size", str(size), "--graticule", str(graticule)]


def render_map_bytes(directory: Path, name: str, mode: str, out: Path,
                     options: list = ()) -> bytes:
    """`flatdisk render map` of directory/name, run there so the header names the file."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["render", "map", "--geojson", name, "--mode", mode,
                             "--out", str(out), *options])
    finally:
        os.chdir(cwd)
    assert code == 0
    return out.read_bytes()


def render_profile_bytes(size: int, out: Path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["render", "profile", "--size", str(size), "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def digest(svg: bytes) -> dict:
    return {"sha256": hashlib.sha256(svg).hexdigest(), "bytes": len(svg)}


def key(name: str, mode: str, options: list = ()) -> str:
    return " ".join([name, mode, *options])


def profile_key(size: int) -> str:
    return f"render profile --size {size}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", INPUTS)
def test_render_map_bytes_are_frozen(tmp_path, name, mode):
    svg = render_map_bytes(input_dir(name, tmp_path), name, mode, tmp_path / "map.svg")
    assert digest(svg) == json.loads(HASHES.read_text())[key(name, mode)]


@pytest.mark.parametrize("size, graticule", PAGE_OPTIONS)
@pytest.mark.parametrize("mode", MODES)
def test_render_map_page_sizes_are_frozen(tmp_path, mode, size, graticule):
    name, options = INPUTS[0], page_args(size, graticule)
    svg = render_map_bytes(DATA, name, mode, tmp_path / "map.svg", options)
    assert digest(svg) == json.loads(HASHES.read_text())[key(name, mode, options)]


@pytest.mark.parametrize("size", PROFILE_SIZES)
def test_render_profile_bytes_are_frozen(tmp_path, size):
    svg = render_profile_bytes(size, tmp_path / "profile.svg")
    assert digest(svg) == json.loads(HASHES.read_text())[profile_key(size)]


def test_many_rings_is_what_it_says():
    features = many_rings()["features"]
    assert len(features) == 1000
    rings = [f["geometry"]["coordinates"] for f in features]
    assert sum(f["geometry"]["type"] == "Polygon" for f in features) == 600
    lats = [pos[1] for ring in rings for pos in (ring[0] if isinstance(ring[0][0], list) else ring)]
    assert min(lats) < -80 and max(lats) > 80 and max(map(abs, lats)) <= 90
