"""Differential tests of the one-pass loader, splitter and SVG writer.

The oracles are the ring-by-ring `load_geojson`/`_polyline` and the
line-by-line `split_at_equator` that the one-pass versions replaced, kept
here verbatim apart from names.  Their lines are OracleLine records, the
(points, closed) of the GeoPolyline of that time: a ring's closing point
dropped and a closed flag in its place (ring_points puts it back).  Seeded
random documents cover all four geometry types, altitudes, consecutive
repeats, closed and unclosed rings, rings that collapse to one point, ±180°
crossers and vertices on the equator; documents with bad features must fail
with the same first error.
"""

import contextlib
import io
import json
import logging
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from flatdisk import cli
from flatdisk import geo_render as gr
from flatdisk.projection import Hemisphere, ProjectionMode

FIXTURE = Path(__file__).parent / "data" / "fixture_coastline.geojson"
N_DOCUMENTS = 320


# --- oracles ------------------------------------------------------------------

class OracleLine(NamedTuple):
    points: np.ndarray
    closed: bool


def oracle_load_geojson(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    lines = []
    skipped = 0
    for idx, feature in enumerate(features):
        try:
            if not isinstance(feature, dict):
                raise ValueError("expected a GeoJSON Feature object")
            geom = feature.get("geometry") or {}
            if not isinstance(geom, dict):
                raise ValueError("expected a GeoJSON geometry object")
            gtype = geom.get("type")
            coords = geom.get("coordinates", [])
            if gtype == "LineString":
                lines.append(oracle_polyline(coords, closed=False))
            elif gtype == "MultiLineString":
                lines.extend(oracle_polyline(part, closed=False) for part in coords)
            elif gtype == "Polygon":
                lines.extend(oracle_polyline(ring, closed=True) for ring in coords)
            elif gtype == "MultiPolygon":
                for poly in coords:
                    lines.extend(oracle_polyline(ring, closed=True) for ring in poly)
            else:
                skipped += 1
                gr.log.warning("feature %d: skipping unsupported geometry %r", idx, gtype)
        except ValueError as exc:
            raise ValueError(f"feature {idx}: {exc}") from None
        except TypeError:
            raise ValueError(f"feature {idx}: {BAD_POSITIONS}") from None
    if skipped:
        gr.log.warning("skipped %d unsupported feature(s)", skipped)
    return lines


BAD_POSITIONS = "expected an array of positions of 2 or more numbers"


def oracle_polyline(coords, closed):
    try:
        lonlat = np.array([pos[:2] for pos in coords], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(BAD_POSITIONS) from None
    if lonlat.ndim != 2 or lonlat.shape[1] != 2:
        raise ValueError(BAD_POSITIONS)
    lon, lat = lonlat.T
    bad = np.flatnonzero(~((np.abs(lat) <= 90.0) & (np.abs(lon) <= 360.0)))
    if len(bad):
        raise ValueError(f"coordinate out of range: ({lon[bad[0]]}, {lat[bad[0]]})")
    if closed and len(lonlat) > 1 and np.array_equal(lonlat[0], lonlat[-1]):
        lonlat = lonlat[:-1]
    return OracleLine(gr.GeoPolyline(points=lonlat[:, ::-1]).points, closed)


def drop_repeats(pts):
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def insert_before(arr, at, rows):
    grow = np.ones(len(arr), dtype=np.intp)
    grow[at] = 2
    out = np.repeat(arr, grow, axis=0)
    out[at + np.arange(len(at))] = rows
    return out


def oracle_split(line):
    pts = line.points
    if line.closed and pts[0].tolist() != pts[-1].tolist():
        pts = np.concatenate([pts, pts[:1]])
    (lat_lo, lon_lo), (lat_hi, lon_hi) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    if lon_hi - lon_lo > 180.0:
        pts = drop_repeats(np.column_stack([pts[:, 0], np.unwrap(pts[:, 1], period=360.0)]))
        if len(pts) < 2:
            return []
    if lat_lo >= 0.0 or lat_hi <= 0.0:
        piece = line if pts is line.points and not line.closed else gr.GeoPolyline._trusted(pts)
        return [(piece, Hemisphere.NORTH if lat_lo >= 0.0 else Hemisphere.SOUTH)]
    lat, lon = pts[:, 0], pts[:, 1]
    sign = np.sign(lat)
    sign = sign[np.maximum.accumulate(np.where(sign != 0, np.arange(len(sign)), 0))]
    cross = np.flatnonzero(sign[1:] * sign[:-1] < 0) + 1
    interp = lat[cross - 1] != 0
    a = cross[interp]
    t = lat[a - 1] / (lat[a - 1] - lat[a])
    cut_lon = lon[a - 1] + t * (lon[a] - lon[a - 1])
    pts = insert_before(pts, a, np.column_stack([np.zeros(len(a)), cut_lon]))
    ends = cross - 1 + np.cumsum(interp)
    starts = np.concatenate([[0], ends]).tolist()
    stops = (ends + 1).tolist() + [len(pts)]
    sides = [Hemisphere.SOUTH if s < 0 else Hemisphere.NORTH
             for s in sign[np.append(cross - 1, -1)].tolist()]
    return [(gr.GeoPolyline._trusted(pts[i:j]), side)
            for i, j, side in zip(starts, stops, sides)]


# --- random documents ---------------------------------------------------------

def random_ring(rng, closed):
    """[lon, lat(, alt)] positions of one ring or line, special cases mixed in."""
    n = int(rng.integers(2, 12))
    kind = int(rng.integers(6))
    lat = rng.uniform(-85, 85) + np.cumsum(rng.normal(0, 8, n))
    lon = rng.uniform(-200, 200) + np.cumsum(rng.normal(0, 20, n))
    if kind == 0:  # vertices on the equator
        lat[rng.random(n) < 0.4] = 0.0
    elif kind == 1:  # across ±180°, written in (-180, 180]
        lon = 180.0 - np.mod(180.0 - (178.0 + np.cumsum(rng.normal(0, 3, n))), 360.0)
    elif kind == 2:  # a small lattice: repeats, zeros and ±180 steps
        lat = rng.choice([-1.0, 0.0, 1.0], n)
        lon = rng.choice([-180.0, -179.0, 179.0, 180.0], n)
    elif kind == 3:  # collapses to one point once unwrapped
        lat = np.full(n, rng.choice([-20.0, 0.0, 20.0]))
        lon = np.resize([180.0, -180.0], n)
    lat = np.clip(lat, -90.0, 90.0).round(int(rng.integers(0, 4)))
    lon = np.clip(lon, -360.0, 360.0).round(int(rng.integers(0, 4)))
    pos = np.column_stack([lon, lat])
    if rng.random() < 0.3:  # consecutive repeats
        pos = np.repeat(pos, rng.integers(1, 3, len(pos)), axis=0)
    ring = pos.tolist()
    if rng.random() < 0.3:  # altitudes on some positions
        ring = [p + [float(rng.integers(-50, 5000))] if rng.random() < 0.5 else p for p in ring]
    if closed and rng.random() < 0.7:
        ring.append(list(ring[0]))
    return ring


def random_feature(rng):
    gtype = str(rng.choice(["LineString", "MultiLineString", "Polygon", "MultiPolygon", "Point"],
                           p=[0.3, 0.2, 0.25, 0.2, 0.05]))
    if gtype == "LineString":
        coords = random_ring(rng, False)
    elif gtype == "MultiLineString":
        coords = [random_ring(rng, False) for _ in range(int(rng.integers(1, 4)))]
    elif gtype == "Polygon":
        coords = [random_ring(rng, True) for _ in range(int(rng.integers(1, 3)))]
    elif gtype == "MultiPolygon":
        coords = [[random_ring(rng, True) for _ in range(int(rng.integers(1, 3)))]
                  for _ in range(int(rng.integers(1, 3)))]
    else:
        coords = [0.0, 0.0]
    return {"type": "Feature", "properties": {}, "geometry": {"type": gtype, "coordinates": coords}}


def random_document(seed):
    rng = np.random.default_rng([seed, 11])
    return [random_feature(rng) for _ in range(int(rng.integers(1, 9)))]


# one bad feature of each kind; each stands in for a whole geometry
BAD_FEATURES = {
    "ragged": {"type": "LineString", "coordinates": [[0, 10], [5, 20, 3], [6]]},
    "ragged ring": {"type": "MultiPolygon",
                    "coordinates": [[[[0, 0], [1, 0], [1, 1], [0, 0]]], [[[0, 0], [1]]]]},
    "non-numeric": {"type": "Polygon", "coordinates": [[[0, 10], ["a", 1], [2, 3], [0, 10]]]},
    "string position": {"type": "LineString", "coordinates": ["12", "34"]},
    "nested position": {"type": "LineString", "coordinates": [[[0, 1], [2, 3]], [[4, 5], [6, 7]]]},
    "null coordinates": {"type": "MultiLineString", "coordinates": None},
    "null ring": {"type": "MultiPolygon", "coordinates": [[[[0, 0], [1, 0], [0, 1]]], None]},
    "empty ring": {"type": "Polygon", "coordinates": [[]]},
    "out of range lat": {"type": "LineString", "coordinates": [[0, 10], [1, 95], [2, 96]]},
    "out of range lon": {"type": "MultiLineString",
                         "coordinates": [[[0, 10], [1, 11]], [[400, 0], [1, 95]]]},
    "nan": {"type": "LineString", "coordinates": [[0, 10], [None, 11]]},
    "one point": {"type": "LineString", "coordinates": [[3, 4]]},
    "repeats only": {"type": "LineString", "coordinates": [[3, 4], [3, 4, 10], [3, 4]]},
    "closed pair": {"type": "Polygon", "coordinates": [[[3, 4], [5, 6]], [[3, 4], [3, 4]]]},
    "range then too few": {"type": "MultiLineString",
                           "coordinates": [[[0, 10], [0, 10]], [[0, 100], [1, 2]]]},
    "range and too few in one ring": {"type": "LineString", "coordinates": [[0, 95], [0, 95]]},
}
BAD_OBJECTS = {"null feature": None, "string geometry": "geometry"}


def bad_feature(name):
    if name in BAD_OBJECTS:
        return {"type": "Feature", "geometry": BAD_OBJECTS[name]} \
            if name != "null feature" else None
    return {"type": "Feature", "properties": {}, "geometry": BAD_FEATURES[name]}


ALL_BAD = sorted(BAD_FEATURES) + sorted(BAD_OBJECTS)


def outcome(load, path, caplog):
    """(lines or error text, warning messages) of one load."""
    caplog.clear()
    with caplog.at_level("WARNING", logger=gr.log.name):
        try:
            result = load(path)
        except ValueError as exc:
            result = str(exc)
    return result, [r.getMessage() for r in caplog.records]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def ring_points(line):
    """An oracle line's points, a ring's first point appended unless it ends on it."""
    pts = line.points
    if line.closed and pts[0].tolist() != pts[-1].tolist():
        pts = np.concatenate([pts, pts[:1]])
    return pts


def geo_polylines(lines):
    return [gr.GeoPolyline._trusted(ring_points(line)) for line in lines]


def assert_same_lines(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        want_points = ring_points(w)
        assert g.points.shape == want_points.shape
        np.testing.assert_array_equal(bits(g.points), bits(want_points))


def conforming(features):
    """Whether every feature is a supported geometry and every Polygon ring
    ends on its first position (RFC 7946), the only documents that the
    loader once read in one pass; it read any other ring by ring."""
    for feature in features:
        gtype, coords = feature["geometry"]["type"], feature["geometry"]["coordinates"]
        if gtype not in ("LineString", "MultiLineString", "Polygon", "MultiPolygon"):
            return False
        polygons = [coords] if gtype == "Polygon" else coords if gtype == "MultiPolygon" else []
        if any(ring[0][:2] != ring[-1][:2] for polygon in polygons for ring in polygon):
            return False
    return True


def write(tmp_path, features, name="doc.geojson"):
    path = tmp_path / name
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def coast(doc):
    return [pts for pts, style, _ in doc.polylines if style == gr._COAST_STYLE]


# --- tests --------------------------------------------------------------------

class TestLoaderAgainstOracle:
    def test_random_documents(self, tmp_path, caplog):
        loaded = 0
        for seed in range(N_DOCUMENTS):
            path = write(tmp_path, random_document(seed))
            want, want_log = outcome(oracle_load_geojson, path, caplog)
            got, got_log = outcome(gr.load_geojson, path, caplog)
            assert got_log == want_log, seed
            if isinstance(want, str):
                assert got == want, seed
            else:
                assert_same_lines(got, want)
                loaded += 1
        assert loaded > N_DOCUMENTS // 2

    @pytest.mark.parametrize("first", ALL_BAD)
    def test_one_bad_feature(self, tmp_path, caplog, first):
        for seed in range(12):
            features = random_document(seed)
            features.insert(seed % (len(features) + 1), bad_feature(first))
            path = write(tmp_path, features)
            want, want_log = outcome(oracle_load_geojson, path, caplog)
            got, got_log = outcome(gr.load_geojson, path, caplog)
            assert isinstance(want, str)
            assert (got, got_log) == (want, want_log), seed

    def test_two_bad_features_of_different_kinds(self, tmp_path, caplog):
        rng = np.random.default_rng(5)
        for seed in range(150):
            first, second = rng.choice(ALL_BAD, 2, replace=False)
            features = random_document(seed)
            features.insert(int(rng.integers(len(features) + 1)), bad_feature(first))
            features.insert(int(rng.integers(len(features) + 1)), bad_feature(second))
            path = write(tmp_path, features)
            want, want_log = outcome(oracle_load_geojson, path, caplog)
            got, got_log = outcome(gr.load_geojson, path, caplog)
            assert isinstance(want, str)
            assert (got, got_log) == (want, want_log), (seed, first, second)

    def test_numeric_strings_and_booleans_convert_as_before(self, tmp_path, caplog):
        features = [{"type": "Feature", "geometry": {
            "type": "LineString", "coordinates": [["1.5", "2"], [True, 3, "x"], [4, " 5 "]]}}]
        path = write(tmp_path, features)
        want, _ = outcome(oracle_load_geojson, path, caplog)
        got, _ = outcome(gr.load_geojson, path, caplog)
        assert_same_lines(got, want)

    @pytest.mark.parametrize("gtype", [["LineString"], {"type": "Polygon"}, 7, 2.5],
                             ids=["list", "dict", "int", "float"])
    def test_non_string_geometry_types_are_skipped(self, tmp_path, caplog, gtype):
        odd = {"type": "Feature", "geometry": {"type": gtype, "coordinates": [[0, 1], [2, 3]]}}
        fixture = json.loads(FIXTURE.read_text())["features"]
        documents = [fixture[:1] + [odd] + fixture[1:]]
        for seed in range(12):
            features = random_document(seed)
            features.insert(seed % (len(features) + 1), odd)
            documents.append(features)
        for k, features in enumerate(documents):
            path = write(tmp_path, features)
            want, want_log = outcome(oracle_load_geojson, path, caplog)
            got, got_log = outcome(gr.load_geojson, path, caplog)
            assert got_log == want_log, k
            if isinstance(want, str):
                assert got == want, k
            else:
                assert_same_lines(got, want)
        assert outcome(gr.load_geojson, write(tmp_path, documents[0]), caplog)[1] == [
            f"feature 1: skipping unsupported geometry {gtype!r}",
            "skipped 1 unsupported feature(s)"]

    def test_every_loaded_document_is_one_array(self, tmp_path, caplog):
        documents = [FIXTURE] + [write(tmp_path, random_document(seed), f"doc{seed}.geojson")
                                 for seed in range(N_DOCUMENTS)]
        loaded = odd = 0
        for path in documents:
            want, want_log = outcome(oracle_load_geojson, path, caplog)
            if isinstance(want, str):
                continue
            got, got_log = outcome(gr.load_geojson, path, caplog)
            assert got_log == want_log, path.name
            assert_same_lines(got, want)
            bases = [line.points.base for line in got]
            assert all(base is not None and base is bases[0] for base in bases), path.name
            loaded += 1
            odd += not conforming(json.loads(path.read_text())["features"])
        assert loaded > N_DOCUMENTS // 2
        assert odd > N_DOCUMENTS // 10  # Point features or Polygon rings left open

    def test_lines_are_views_of_one_array(self, tmp_path):
        features = [random_feature(np.random.default_rng(1)) for _ in range(3)]
        lines = gr.load_geojson(write(tmp_path, features + [
            {"type": "Feature", "geometry": {"type": "LineString",
                                             "coordinates": [[0, 1], [2, 3]]}}]))
        assert all(line.points.base is not None for line in lines)
        assert len({id(line.points.base) for line in lines}) == 1


class TestSplitAgainstOracle:
    def test_random_documents(self, tmp_path):
        for seed in range(N_DOCUMENTS):
            try:
                lines = oracle_load_geojson(write(tmp_path, random_document(seed)))
            except ValueError:
                continue
            want = [piece for line in lines for piece in oracle_split(line)]
            lines = geo_polylines(lines)
            # the public splitter, one line at a time
            got = [piece for line in lines for piece in gr.split_at_equator(line)]
            assert [side for _, side in got] == [side for _, side in want], seed
            for (g, _), (w, _) in zip(got, want):
                np.testing.assert_array_equal(bits(g.points), bits(w.points))
            if not lines:
                continue
            # render_map's one pass over all lines
            pts, pid, south = gr._split(np.concatenate([line.points for line in lines]),
                                        np.array([len(line.points) for line in lines]))
            assert south.tolist() == [side is Hemisphere.SOUTH for _, side in want], seed
            np.testing.assert_array_equal(
                bits(pts), bits(np.concatenate([w.points for w, _ in want] or [np.empty((0, 2))])))
            assert np.bincount(pid, minlength=len(want)).tolist() == \
                [len(w.points) for w, _ in want], seed

    def test_render_map_draws_the_oracle_pieces(self, tmp_path):
        for seed in range(0, N_DOCUMENTS, 4):
            try:
                lines = oracle_load_geojson(write(tmp_path, random_document(seed)))
            except ValueError:
                continue
            pieces = [piece for line in lines for piece in oracle_split(line)]
            latlon = np.concatenate([p.points for p, _ in pieces] or [np.empty((0, 2))])
            pid = np.repeat(np.arange(len(pieces)), [len(p.points) for p, _ in pieces])
            south = np.array([side is Hemisphere.SOUTH for _, side in pieces])
            for mode in ProjectionMode:
                got = coast(gr.render_map(geo_polylines(lines), mode, 15, 100))
                want = gr._densify(latlon, pid, south, mode, 50.0)
                assert len(got) == len(want), seed
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(bits(g), bits(w))

    def test_crossings_never_pair_two_lines(self):
        # each line stays in one hemisphere, but consecutive lines alternate
        lines = [gr.GeoPolyline(points=np.array([[s * 10.0, 0.0], [s * 20.0, 5.0]]))
                 for s in (1, -1, 1, -1)]
        pts, pid, south = gr._split(np.concatenate([line.points for line in lines]),
                                    np.array([2, 2, 2, 2]))
        assert pid.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert south.tolist() == [False, True, False, True]
        np.testing.assert_array_equal(pts, np.concatenate([line.points for line in lines]))

    def test_collapsed_lines_leave_no_piece_and_no_gap_in_ids(self):
        collapse = gr.GeoPolyline(points=np.array([[10.0, 180.0], [10.0, -180.0]]))
        keep = gr.GeoPolyline(points=np.array([[5.0, 0.0], [-5.0, 10.0]]))
        pts, pid, south = gr._split(
            np.concatenate([collapse.points, keep.points, collapse.points]),
            np.array([2, 2, 2]))
        assert pid.tolist() == [0, 0, 1, 1]
        assert south.tolist() == [False, True]
        assert gr.split_at_equator(collapse) == []


class TestSvgText:
    def test_header_keeps_a_minus_zero_source_path(self, tmp_path):
        src = tmp_path / "coast_-0.000_%s.geojson"
        src.write_bytes(FIXTURE.read_bytes())
        out = tmp_path / "map.svg"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["render", "map", "--geojson", str(src), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        assert header.endswith(f"source={src} -->")

    def test_styles_are_written_as_given(self):
        style = 'stroke-dashoffset="-0.000" width="50%"'
        doc = gr.MapDocument(width=10.0, height=10.0,
                             circles=[(1.0, -0.0, 2.0, style)],
                             polylines=[(np.array([[-0.0, 1.0], [2.0, -0.0004]]), style, False),
                                        (np.array([[0.5, 0.5]]), gr._COAST_STYLE, True)],
                             texts=[(-0.0, 3.0, "50% at -0.000 %s %%", style)])
        lines = doc.to_svg().splitlines()
        assert lines[4] == f'<circle cx="1.000" cy="0.000" r="2.000" {style}/>'
        assert lines[5] == f'<polyline points="0.000,1.000 2.000,0.000" {style}/>'
        assert lines[6] == f'<polygon points="0.500,0.500" {gr._COAST_STYLE}/>'
        assert lines[7] == f'<text x="0.000" y="3.000" {style}>50% at -0.000 %s %%</text>'

    def test_empty_polylines(self):
        doc = gr.MapDocument(width=10.0, height=10.0,
                             polylines=[(np.empty((0, 2)), "a", False)])
        assert '<polyline points="" a/>' in doc.to_svg()
        assert "\n\n" not in gr.MapDocument(width=10.0, height=10.0).to_svg()

    def test_rounding_to_zero_boundary(self):
        edge = [math.nextafter(0.0005, 0.0), 0.0005, math.nextafter(0.0005, 1.0),
                math.nextafter(0.0015, 0.0), 0.0015, 0.0625, -0.0625, 1e-300, -5e-324]
        vals = edge + [-v for v in edge]
        doc = gr.MapDocument(width=vals[0], height=vals[-1],
                             circles=[(v, -v, v, "c") for v in vals],
                             polylines=[(np.column_stack([vals, vals[::-1]]), "p", False)],
                             texts=[(v, -v, "t", "s") for v in vals])
        num = lambda v: "0.000" if f"{v:.3f}" == "-0.000" else f"{v:.3f}"
        w, h = num(vals[0]), num(vals[-1])
        assert doc.to_svg().splitlines()[2:] == [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
            *(f'<circle cx="{num(v)}" cy="{num(-v)}" r="{num(v)}" c/>' for v in vals),
            '<polyline points="' + " ".join(f"{num(x)},{num(y)}" for x, y in
                                            zip(vals, vals[::-1])) + '" p/>',
            *(f'<text x="{num(v)}" y="{num(-v)}" s>t</text>' for v in vals),
            "</svg>"]

    def test_warnings_only_before_the_bad_feature(self, tmp_path, caplog):
        point = {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]}}
        path = write(tmp_path, [point, bad_feature("out of range lat"), point])
        with caplog.at_level(logging.WARNING, logger=gr.log.name):
            with pytest.raises(ValueError, match="^feature 1: coordinate out of range"):
                gr.load_geojson(path)
        assert [r.getMessage() for r in caplog.records] == [
            "feature 0: skipping unsupported geometry 'Point'"]
