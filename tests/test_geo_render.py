"""Tests of GeoJSON ingestion, equator splitting, and SVG map rendering."""

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from flatdisk import closedform as cf
from flatdisk import geo_render as gr
from flatdisk import projection as pj
from flatdisk.projection import Hemisphere, ProjectionMode

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_coastline.geojson"
GOLDEN = DATA / "golden" / "fixture_map_ggv_g15.svg"
# frozen from the depth-first densify that the breadth-first one replaced
GOLDEN_STRESS_MINIMAL = DATA / "golden" / "fixture_map_stress-minimal_g15.svg"


def write_geojson(tmp_path, features):
    path = tmp_path / "input.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


class TestLoadGeojson:
    def test_linestring(self, tmp_path):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "LineString",
                         "coordinates": [[0, 10], [5, 20], [10, 30]]},
        }])
        lines = gr.load_geojson(path)
        assert len(lines) == 1
        assert len(lines[0].points) == 3
        # GeoJSON is lon,lat; points are lat,lon
        assert lines[0].points[0].tolist() == [10.0, 0.0]

    def test_polygon_ring_closed(self, tmp_path):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]]},
        }])
        lines = gr.load_geojson(path)
        assert len(lines) == 1
        assert len(lines[0].points) == 5  # the closing point is kept
        assert lines[0].points[0].tolist() == lines[0].points[-1].tolist()

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # RFC 8259 section 8.1 lets a parser ignore a leading UTF-8 BOM
        path = tmp_path / "bom.geojson"
        path.write_bytes(b"\xef\xbb\xbf" + FIXTURE.read_bytes())
        got, want = gr.load_geojson(path), gr.load_geojson(FIXTURE)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert np.array_equal(a.points, b.points)

    def test_empty_collection(self, tmp_path):
        path = write_geojson(tmp_path, [])
        assert gr.load_geojson(path) == []

    def test_unsupported_geometry_skipped(self, tmp_path, caplog):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "Point", "coordinates": [0, 0]},
        }])
        with caplog.at_level("WARNING"):
            assert gr.load_geojson(path) == []
        assert "unsupported" in caplog.text

    def test_out_of_range_coordinate_names_feature(self, tmp_path):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "LineString", "coordinates": [[0, 95], [1, 96]]},
        }])
        with pytest.raises(ValueError, match="feature 0"):
            gr.load_geojson(path)

    def test_altitude_is_ignored(self, tmp_path):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "LineString",
                         "coordinates": [[0, 10, 120.5], [5, 20, -3]]},
        }])
        (line,) = gr.load_geojson(path)
        assert line.points.tolist() == [[10.0, 0.0], [20.0, 5.0]]

    def test_out_of_range_names_first_bad_coordinate(self, tmp_path):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "LineString",
                         "coordinates": [[0, 10], [361, 5], [0, -91], [1, 11]]},
        }])
        with pytest.raises(ValueError) as exc:
            gr.load_geojson(path)
        assert str(exc.value) == "feature 0: coordinate out of range: (361.0, 5.0)"

    def test_object_position_names_feature(self, tmp_path):
        # an object is no position; from Python 3.12 its pos[:2] raises KeyError
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "LineString", "coordinates": [{"x": 1}, [0, 0]]},
        }])
        with pytest.raises(ValueError) as exc:
            gr.load_geojson(path)
        assert str(exc.value) == "feature 0: expected an array of positions of 2 or more numbers"

    @pytest.mark.parametrize("feature", [
        {"type": "Feature", "geometry": {"type": "LineString",
                                         "coordinates": [[0, 10], [5]]}},
        {"type": "Feature", "geometry": {"type": "LineString",
                                         "coordinates": [[0], [5]]}},
        {"type": "Feature", "geometry": {"type": "LineString",
                                         "coordinates": [[0, 10], ["a", 1]]}},
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": None}},
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": [0, 10]}},
        {"type": "Feature", "geometry": {"type": "MultiLineString", "coordinates": None}},
        {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": None}},
        {"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": None}},
        {"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": [None]}},
        {"type": "Feature", "geometry": "LineString"},
        None,
    ])
    def test_malformed_feature_names_feature(self, tmp_path, feature):
        good = {"type": "Feature", "geometry": {"type": "LineString",
                                                "coordinates": [[0, 10], [5, 20]]}}
        path = write_geojson(tmp_path, [good, feature])
        with pytest.raises(ValueError, match=r"^feature 1: expected "):
            gr.load_geojson(path)

    @pytest.mark.parametrize("doc", [[1], {"type": "FeatureCollection", "features": None},
                                     {"type": "Feature", "features": []}])
    def test_not_a_feature_collection(self, tmp_path, doc):
        path = tmp_path / "input.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected a GeoJSON FeatureCollection"):
            gr.load_geojson(path)

    def test_fixture_loads(self):
        lines = gr.load_geojson(FIXTURE)
        assert len(lines) == 5  # 2 LineStrings + 1 Polygon ring + 2 MultiLineString parts

    def test_unclosed_polygon_ring_gets_its_first_point(self, tmp_path):
        path = write_geojson(tmp_path, [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "MultiPolygon",
                         "coordinates": [[[[0, 0], [10, 0], [10, 10]], [[1, 1], [2, 1], [1, 1]]]]},
        }])
        assert [line.points.tolist() for line in gr.load_geojson(path)] == [
            [[0.0, 0.0], [0.0, 10.0], [10.0, 10.0], [0.0, 0.0]],
            [[1.0, 1.0], [1.0, 2.0], [1.0, 1.0]]]


class TestGeoPolyline:
    @pytest.mark.parametrize("bad", [[95.0, 1.0], [-90.5, 1.0], [math.nan, 1.0],
                                     [1.0, math.nan], [1.0, math.inf], [-math.inf, 1.0]])
    def test_bad_coordinate_is_rejected_as_the_loader_does(self, tmp_path, bad):
        lat, lon = bad
        path = tmp_path / "input.geojson"  # json writes nan and inf as NaN and Infinity
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "geometry": {
                "type": "LineString", "coordinates": [[0.0, 10.0], [lon, lat], [2.0, 91.0]]}}]}))
        with pytest.raises(ValueError) as want:
            gr.load_geojson(path)
        with pytest.raises(ValueError) as got:
            gr.GeoPolyline(points=np.array([[10.0, 0.0], bad, [91.0, 2.0]]))
        assert str(got.value) == f"coordinate out of range: ({lon}, {lat})"
        assert f"feature 0: {got.value}" == str(want.value)

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 2)])
    def test_points_must_be_n_by_2(self, shape):
        with pytest.raises(ValueError, match=r"^points must be an \(n, 2\) array"):
            gr.GeoPolyline(points=np.zeros(shape))

    def test_pole_latitudes_and_wide_longitudes_are_accepted(self):
        pts = np.array([[90.0, -720.0], [-90.0, 540.5]])
        np.testing.assert_array_equal(gr.GeoPolyline(points=pts).points, pts)


class TestSplitAtEquator:
    def test_all_north_single_piece(self):
        line = gr.GeoPolyline(points=np.array([[10.0, 0.0], [20.0, 5.0]]))
        pieces = gr.split_at_equator(line)
        assert len(pieces) == 1
        assert pieces[0][1] is Hemisphere.NORTH

    def test_symmetric_crossing_midpoint(self):
        line = gr.GeoPolyline(points=np.array([[-10.0, 0.0], [10.0, 0.0]]))
        pieces = gr.split_at_equator(line)
        assert len(pieces) == 2
        (south, s_side), (north, n_side) = pieces
        assert s_side is Hemisphere.SOUTH and n_side is Hemisphere.NORTH
        assert south.points[-1].tolist() == [0.0, 0.0]
        assert north.points[0].tolist() == [0.0, 0.0]

    def test_interpolated_crossing_longitude(self):
        line = gr.GeoPolyline(points=np.array([[-10.0, 0.0], [30.0, 20.0]]))
        pieces = gr.split_at_equator(line)
        cut = pieces[0][0].points[-1]
        assert cut[0] == 0.0
        assert cut[1] == pytest.approx(5.0)  # t = 10/40 along the lon span

    def test_pieces_single_hemisphere(self):
        lines = gr.load_geojson(FIXTURE)
        for line in lines:
            for piece, side in gr.split_at_equator(line):
                lats = piece.points[:, 0]
                if side is Hemisphere.NORTH:
                    assert np.all(lats >= 0)
                else:
                    assert np.all(lats <= 0)

    def test_concatenation_recovers_shape(self):
        line = gr.GeoPolyline(points=np.array(
            [[15.0, 0.0], [5.0, 4.0], [-5.0, 8.0], [-15.0, 12.0], [5.0, 16.0]]))
        pieces = gr.split_at_equator(line)
        merged = [pieces[0][0].points]
        for piece, _ in pieces[1:]:
            merged.append(piece.points[1:])  # shared cut point
        merged = np.vstack(merged)
        # original vertices appear in order within the merged path
        idx = 0
        for pt in line.points:
            while idx < len(merged) and not np.allclose(merged[idx], pt):
                idx += 1
            assert idx < len(merged)


def reference_split(line):
    """The per-vertex split loop that split_at_equator replaced: its oracle
    on lines whose steps all have |dlon| <= 180."""
    pts = line.points
    pieces = []
    current = [pts[0]]
    sign = 0 if pts[0][0] == 0 else (1 if pts[0][0] > 0 else -1)

    def close(piece_sign):
        side = Hemisphere.SOUTH if piece_sign < 0 else Hemisphere.NORTH
        pieces.append((gr.GeoPolyline(points=np.array(current)), side))

    for prev, nxt in zip(pts[:-1], pts[1:]):
        nxt_sign = 0 if nxt[0] == 0 else (1 if nxt[0] > 0 else -1)
        if nxt_sign == 0 or sign == 0 or nxt_sign == sign:
            current.append(nxt)
            if sign == 0:
                sign = nxt_sign
        elif prev[0] == 0:
            close(sign)
            current = [prev, nxt]
            sign = nxt_sign
        else:
            t = prev[0] / (prev[0] - nxt[0])
            cut = np.array([0.0, prev[1] + t * (nxt[1] - prev[1])])
            current.append(cut)
            close(sign)
            current = [cut, nxt]
            sign = nxt_sign
    close(sign)
    return pieces


def short_steps_line(rng):
    """Random open or closed line with every step |dlon| <= 180, or None.

    Vertices sit exactly on the equator one time in four, a line lies wholly
    on it one time in eight, and longitudes span [-360, 360].
    """
    n = int(rng.integers(2, 30))
    lat = rng.uniform(-40.0, 40.0, n)
    lat[rng.random(n) < 0.25] = 0.0
    if rng.random() < 0.125:
        lat[:] = 0.0
    steps = np.where(rng.random(n) < 0.1, rng.choice([-180.0, 180.0], n),
                     rng.uniform(-180.0, 180.0, n))
    lon = np.clip(rng.uniform(-360.0, 360.0) + np.cumsum(steps), -360.0, 360.0)
    pts = np.column_stack([lat, lon])
    if rng.random() < 0.5:  # closed: it ends on its first point
        pts = np.vstack([pts, pts[:1]])
    try:  # clipping can leave fewer than 2 distinct points
        line = gr.GeoPolyline(points=pts)
    except ValueError:
        return None
    return line if np.all(np.abs(np.diff(line.points[:, 1])) <= 180.0) else None


def crossing_line(rng):
    """A pole ring, or a path across the equator and the antimeridian, with
    some vertices moved by a whole turn of longitude."""
    if rng.random() < 0.5:
        n = int(rng.integers(8, 120))
        lon = np.linspace(-180.0, 180.0, n, endpoint=False) + rng.uniform(0.0, 360.0 / n)
        lon = np.where(lon > 180.0, lon - 360.0, lon)
        lat = rng.choice([-1.0, 1.0]) * (rng.uniform(45.0, 89.0) + rng.normal(0.0, 0.5, n))
        closed = True
    else:
        n = int(rng.integers(2, 40))
        lat = np.linspace(rng.uniform(-30, -1), rng.uniform(1, 30), n) * rng.choice([-1.0, 1.0])
        lon = rng.uniform(150.0, 178.0) + np.cumsum(rng.uniform(0.0, 4.0, n))
        lon = np.where(lon > 180.0, lon - 360.0, lon)
        closed = bool(rng.random() < 0.3)
    turn = rng.random(n) < 0.2
    lon[turn] += np.where(lon[turn] > 0, -360.0, 360.0)
    pts = np.column_stack([np.clip(lat, -90, 90), lon])
    return gr.GeoPolyline(points=np.vstack([pts, pts[:1]]) if closed else pts)


def coast_vertices(doc):
    return [pts for pts, style, _ in doc.polylines if style == gr._COAST_STYLE]


class TestAntimeridian:
    def test_short_steps_match_reference_split(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(3000):
            line = short_steps_line(rng)
            if line is None:
                continue
            got, want = gr.split_at_equator(line), reference_split(line)
            assert [side for _, side in got] == [side for _, side in want]
            for (piece, _), (ref, _) in zip(got, want):
                np.testing.assert_array_equal(piece.points, ref.points)
            checked += 1
        assert checked > 1500

    def test_crossers_split_into_joined_single_hemisphere_pieces(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            line = crossing_line(rng)
            pieces = gr.split_at_equator(line)
            for piece, side in pieces:
                lat, lon = piece.points.T
                assert np.all(lat >= 0) if side is Hemisphere.NORTH else np.all(lat <= 0)
                assert np.all(np.abs(np.diff(lon)) <= 180.0)
            for (a, _), (b, _) in zip(pieces[:-1], pieces[1:]):
                assert a.points[-1].tolist() == b.points[0].tolist()
                assert a.points[-1][0] == 0.0

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_crossers_render_with_short_chords(self, mode, caplog):
        rng = np.random.default_rng(13)
        lines = [crossing_line(rng) for _ in range(60)]
        with caplog.at_level("WARNING", logger=gr.log.name):
            doc = gr.render_map(lines, mode, 15, 400)
        assert not caplog.records  # the cap is not hit, so every chord is short
        for pts in coast_vertices(doc):
            assert np.hypot(*np.diff(pts, axis=0).T).max() <= gr.MAX_CHORD_PX

    def test_cut_on_the_antimeridian(self):
        line = gr.GeoPolyline(points=np.array([[5.0, 179.0], [-5.0, -179.0]]))
        (north, n_side), (south, s_side) = gr.split_at_equator(line)
        assert (n_side, s_side) == (Hemisphere.NORTH, Hemisphere.SOUTH)
        assert north.points[-1].tolist() == south.points[0].tolist()
        lat, lon = north.points[-1]
        assert lat == 0.0 and math.fmod(lon, 360.0) == 180.0

    def test_whole_turns_collapse(self):
        # 180 and -180 are one meridian: the step between them is dropped
        line = gr.GeoPolyline(points=np.array(
            [[10.0, 170.0], [10.0, -180.0], [10.0, 180.0], [10.0, -170.0]]))
        ((piece, side),) = gr.split_at_equator(line)
        assert side is Hemisphere.NORTH
        assert piece.points.tolist() == [[10.0, 170.0], [10.0, 180.0], [10.0, 190.0]]
        point = gr.GeoPolyline(points=np.array([[10.0, 180.0], [10.0, -180.0]]))
        assert gr.split_at_equator(point) == []

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_line_that_collapses_to_a_point_draws_nothing(self, tmp_path, mode):
        # lon 0 and lon 360 are one meridian, so the loaded line has no pieces
        # and the page is that of an empty collection
        path = tmp_path / "turn.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "geometry": {
                "type": "LineString", "coordinates": [[0.0, 10.0], [360.0, 10.0]]}}]}))
        lines = gr.load_geojson(path)
        assert len(lines) == 1
        got = gr.render_map(lines, mode, 15, 400, source="x")
        assert got.to_svg() == gr.render_map([], mode, 15, 400, source="x").to_svg()

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_two_degree_crosser_stays_short(self, mode):
        line = gr.GeoPolyline(points=np.array([[10.0, 179.0], [10.0, -179.0]]))
        (pts,) = coast_vertices(gr.render_map([line], mode, 15, 400))
        assert len(pts) <= 8  # 1,025 the long way round through lon 0

    def test_depth_cap_logged_through_render_map(self, caplog):
        line = gr.GeoPolyline(points=np.array([[0.0, 0.0], [0.0, 179.0]]))
        with caplog.at_level("WARNING", logger=gr.log.name):
            gr.render_map([line], ProjectionMode.GGV, 15, 4000)
        assert not caplog.records
        with caplog.at_level("WARNING", logger=gr.log.name):
            gr.render_map([line], ProjectionMode.GGV, 15, 8000)
        assert [r.getMessage() for r in caplog.records] == [
            "4096 segment(s) still longer than 2 px after 12 subdivision passes"]


class TestRenderMap:
    def test_graticule_circle_count(self):
        svg = gr.render_map([], ProjectionMode.GGV, 30, 400).to_svg()
        assert svg.count("<circle") == 2 * 3  # 90/30 per panel
        # 12 meridian lines per panel
        assert svg.count("<polyline") == 2 * 12

    def test_stress_minimal_parallels_non_uniform(self):
        doc = gr.render_map([], ProjectionMode.STRESS_MINIMAL, 30, 400)
        radii = sorted(c[2] for c in doc.circles[:3])
        panel_r = 200.0
        expected = sorted(
            float(cf.eval_f(math.radians(colat))) / cf.TWO_LN2 * panel_r
            for colat in (30, 60, 90))
        assert radii == pytest.approx(expected, abs=1e-9)

    def test_page_layout(self):
        # two panels of radius 200 inside a 10 px margin, with a 20 px gutter
        doc = gr.render_map([], ProjectionMode.GGV, 90, 400)
        assert (doc.width, doc.height) == (840.0, 420.0)
        assert [c[:3] for c in doc.circles] == [(210.0, 210.0, 200.0), (630.0, 210.0, 200.0)]
        # phi = 90°: up from the centre on the north face, mirrored down on the south
        x, y = gr._to_page(np.ones(2), np.full(2, math.pi / 2), np.array([False, True]), 200.0)
        assert y.tolist() == [10.0, 410.0]
        assert x == pytest.approx([210.0, 630.0], abs=1e-12)

    def test_projected_points_stay_inside_panels(self):
        lines = gr.load_geojson(FIXTURE)
        doc = gr.render_map(lines, ProjectionMode.STRESS_MINIMAL, 15, 400)
        panel_r = 200.0
        centers = [(10.0 + panel_r, 10.0 + panel_r),
                   (10.0 + 3 * panel_r + 20.0, 10.0 + panel_r)]
        for pts, style, _ in doc.polylines:
            dist = min(np.max(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy))
                       for cx, cy in centers)
            assert dist <= panel_r + 1e-6

    def test_equator_pieces_land_on_rim(self):
        line = gr.GeoPolyline(points=np.array([[-10.0, 0.0], [10.0, 0.0]]))
        for piece, side in gr.split_at_equator(line):
            lat, lon = piece.points[-1 if side is Hemisphere.SOUTH else 0]
            r, _, _ = pj.forward_arrays(lat, lon, ProjectionMode.STRESS_MINIMAL)
            assert abs(float(r) - 1.0) < 1e-9

    def test_deterministic_bytes(self):
        lines = gr.load_geojson(FIXTURE)
        a = gr.render_map(lines, ProjectionMode.GGV, 15, 400, source="fx").to_svg()
        b = gr.render_map(gr.load_geojson(FIXTURE), ProjectionMode.GGV, 15, 400,
                          source="fx").to_svg()
        assert a.encode() == b.encode()

    def test_matches_golden_file(self):
        lines = gr.load_geojson(FIXTURE)
        svg = gr.render_map(lines, ProjectionMode.GGV, 15, 400,
                            source="fixture_coastline.geojson").to_svg()
        assert svg.encode() == GOLDEN.read_bytes()

    def test_matches_stress_minimal_golden_file(self):
        lines = gr.load_geojson(FIXTURE)
        svg = gr.render_map(lines, ProjectionMode.STRESS_MINIMAL, 15, 400,
                            source="fixture_coastline.geojson").to_svg()
        assert svg.encode() == GOLDEN_STRESS_MINIMAL.read_bytes()

    def test_rejects_bad_graticule(self):
        with pytest.raises(ValueError):
            gr.render_map([], ProjectionMode.GGV, 25, 400)

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValueError):
            gr.render_map([], ProjectionMode.GGV, 30, 50)


def reference_project_piece(piece, mode, south, radius):
    """Depth-first densify per segment: the oracle for _densify."""
    out = [piece.points[0]]

    def densify(a, b, depth):
        r, phi, _ = pj.forward_arrays(np.array([a[0], b[0]]), np.array([a[1], b[1]]), mode)
        x, y = gr._to_page(r, phi, south, radius)
        if math.hypot(x[1] - x[0], y[1] - y[0]) > gr.MAX_CHORD_PX \
                and depth < gr.MAX_SUBDIV_DEPTH:
            densify(a, 0.5 * (a + b), depth + 1)
            densify(0.5 * (a + b), b, depth + 1)
        else:
            out.append(b)

    for a, b in zip(piece.points[:-1], piece.points[1:]):
        densify(a, b, 0)
    latlon = np.array(out)
    r, phi, _ = pj.forward_arrays(latlon[:, 0], latlon[:, 1], mode)
    return np.column_stack(gr._to_page(r, phi, south, radius))


def random_piece(rng, side):
    """Random walk in one hemisphere; step scales from sub-pixel to whole-disk."""
    n = int(rng.integers(2, 25))
    step = rng.choice([0.2, 2.0, 15.0])
    lat = np.clip(rng.uniform(0, 90) + np.cumsum(rng.normal(0, step, n)), 0.0, 90.0)
    lon = rng.uniform(-360, 360) + np.cumsum(rng.normal(0, step, n))
    sign = -1.0 if side is Hemisphere.SOUTH else 1.0
    return gr.GeoPolyline(points=np.column_stack([sign * lat, lon]))


def densify_pieces(pieces, mode, radius):
    """_densify of (GeoPolyline, Hemisphere) pieces, its arrays built here."""
    latlon = np.concatenate([piece.points for piece, _ in pieces])
    pid = np.repeat(np.arange(len(pieces)), [len(piece.points) for piece, _ in pieces])
    south_piece = np.array([side is Hemisphere.SOUTH for _, side in pieces])
    return gr._densify(latlon, pid, south_piece, mode, radius)


def project_one(piece, mode, south, radius):
    """_densify of a single piece, on the southern face if south."""
    (got,) = densify_pieces([(piece, Hemisphere.SOUTH if south else Hemisphere.NORTH)],
                            mode, radius)
    return got


class TestDensify:
    @pytest.mark.parametrize("mode", list(ProjectionMode))
    @pytest.mark.parametrize("size", [100, 400, 2000])
    def test_matches_depth_first_recursion(self, mode, size):
        radius = size / 2.0
        rng = np.random.default_rng(size)
        for _ in range(20):
            side = Hemisphere.SOUTH if rng.random() < 0.5 else Hemisphere.NORTH
            piece = random_piece(rng, side)
            south = side is Hemisphere.SOUTH
            got = project_one(piece, mode, south, radius)
            want = reference_project_piece(piece, mode, south, radius)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_one_call_for_many_pieces_never_bisects_joins(self, mode):
        rng = np.random.default_rng(7)
        sides = [Hemisphere.NORTH, Hemisphere.SOUTH] * 12
        pieces = [(random_piece(rng, side), side) for side in sides]
        got = densify_pieces(pieces, mode, 200.0)
        assert len(got) == len(pieces)
        for pts, (piece, side) in zip(got, pieces):
            want = reference_project_piece(piece, mode, side is Hemisphere.SOUTH, 200.0)
            np.testing.assert_array_equal(pts, want)
        # each join crosses the gutter, far longer than a chord: had one been
        # bisected, a midpoint would sit at the end of the piece before it
        joins = np.hypot(*(np.array([a[-1] for a in got[:-1]]) -
                           np.array([b[0] for b in got[1:]])).T)
        assert joins.min() > gr.MAX_CHORD_PX

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_depth_cap_segment_matches_recursion(self, mode):
        # 2 degrees of longitude, interpolated the long way round through lon 0;
        # on a 4000 px panel that arc needs more than 2^MAX_SUBDIV_DEPTH chords
        piece = gr.GeoPolyline(points=np.array([[10.0, 179.0], [10.0, -179.0]]))
        got = project_one(piece, mode, False, 2000.0)
        np.testing.assert_array_equal(got, reference_project_piece(piece, mode, False, 2000.0))
        chords = np.hypot(*np.diff(got, axis=0).T)
        assert chords.max() > gr.MAX_CHORD_PX  # the cap, not the chord, stopped it

    def test_depth_cap_hits_are_logged(self, caplog):
        piece = gr.GeoPolyline(points=np.array([[10.0, 179.0], [10.0, -179.0]]))
        with caplog.at_level("WARNING", logger=gr.log.name):
            got = project_one(piece, ProjectionMode.GGV, False, 2000.0)
        capped = int(np.count_nonzero(np.hypot(*np.diff(got, axis=0).T) > gr.MAX_CHORD_PX))
        assert capped > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{capped} segment(s) still longer than 2 px after 12 subdivision passes"]
        # one warning per call, with the count over all pieces
        caplog.clear()
        mirrored = gr.GeoPolyline(points=-piece.points)
        with caplog.at_level("WARNING", logger=gr.log.name):
            densify_pieces([(piece, Hemisphere.NORTH), (mirrored, Hemisphere.SOUTH)],
                           ProjectionMode.GGV, 2000.0)
        assert [r.getMessage() for r in caplog.records] == [
            f"{2 * capped} segment(s) still longer than 2 px after 12 subdivision passes"]

    def test_short_segments_log_nothing(self, caplog):
        piece = gr.GeoPolyline(points=np.array([[10.0, 10.0], [10.5, 10.5]]))
        with caplog.at_level("WARNING", logger=gr.log.name):
            project_one(piece, ProjectionMode.GGV, False, 2000.0)
        assert not caplog.records


def fmt(v):
    """One number as the SVG writes it: 3 decimals, "-0.000" written "0.000"."""
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def oracle_svg_lines(doc):
    """The lines of doc.to_svg() after the header comment, one number at a time."""
    w, h = fmt(doc.width), fmt(doc.height)
    return [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
            *(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" {style}/>'
              for cx, cy, r, style in doc.circles),
            *(f'<{"polygon" if closed else "polyline"} points="'
              + " ".join(f"{fmt(x)},{fmt(y)}" for x, y in pts) + f'" {style}/>'
              for pts, style, closed in doc.polylines),
            *(f'<text x="{fmt(x)}" y="{fmt(y)}" {style}>{text}</text>'
              for x, y, text, style in doc.texts),
            "</svg>"]


def page_of(values):
    """A page with every value in the size, a circle, a polyline and a text.

    Each value is written in every slot of its element: both columns and both
    ends of the polyline, cx, cy and r of the circle, x and y of the text.
    """
    doc = gr.MapDocument(width=values[0], height=values[-1])
    for v in values:
        doc.circles.append((v, -1.0, v, gr._RIM_STYLE))
        doc.circles.append((1.0, v, v, gr._GRATICULE_STYLE))
        doc.polylines.append((np.array([[v, 1.0], [-1.0, v], [v, v]]), gr._COAST_STYLE, False))
        doc.texts.append((v, 2.0, "x", gr._LABEL_STYLE))
        doc.texts.append((-2.0, v, "y", gr._LABEL_STYLE))
    vals = np.array(values)
    doc.polylines.append((np.column_stack([vals, vals[::-1]]), gr._COAST_STYLE, False))
    return doc


class TestFormatPoints:
    """to_svg against the per-number oracle, in every slot that holds a number."""

    ADVERSARIAL = [0.0, -0.0, -0.0004, 0.0004, -0.0005, 0.0005, -0.0015, -1e-9, 1e-9,
                   999.9995, -999.9995, 1e6, -1e6, -10.0, -100.0004, 12.3456,
                   math.nan, -math.nan, math.inf, -math.inf]

    def test_matches_per_vertex_fmt(self):
        doc = page_of(self.ADVERSARIAL)
        assert doc.to_svg().splitlines()[2:] == oracle_svg_lines(doc)
        for v in self.ADVERSARIAL:  # each value alone, also as the page size
            doc = page_of([v])
            assert doc.to_svg().splitlines()[2:] == oracle_svg_lines(doc), v

    def test_matches_per_vertex_fmt_random(self):
        rng = np.random.default_rng(3)
        pts = np.round(rng.normal(0, 1, (5000, 2)) * 10.0 ** rng.integers(-4, 4, (5000, 2)), 4)
        doc = page_of(pts[:50, 0].tolist())
        doc.polylines.append((pts, gr._COAST_STYLE, False))
        assert doc.to_svg().splitlines()[2:] == oracle_svg_lines(doc)


class TestRenderProfilePlot:
    def test_curves_share_endpoints(self):
        doc = gr.render_profile_plot(500)
        # polylines: axis, chord, curve, gap marker
        chord, curve = doc.polylines[1][0], doc.polylines[2][0]
        assert np.allclose(chord[0], curve[0])
        assert np.allclose(chord[-1], curve[-1])

    def test_gap_annotation_value(self):
        doc = gr.render_profile_plot(500)
        label = doc.texts[0][2]
        gap = float(label.split("=")[1])
        assert 0.01 < gap < 0.05

    def test_deterministic(self):
        assert gr.render_profile_plot(500).to_svg() == gr.render_profile_plot(500).to_svg()

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValueError, match="^size_px must be >= 100, got 99$"):
            gr.render_profile_plot(99)


class TestTextEscaping:
    def test_markup_characters_in_text_read_back(self):
        doc = gr.MapDocument(width=10.0, height=10.0, texts=[(1.0, 2.0, "a < b & c > d", "")])
        root = ET.fromstring(doc.to_svg())
        (text,) = root.iter("{http://www.w3.org/2000/svg}text")
        assert text.text == "a < b & c > d"

    def test_percent_and_markup_together(self):
        doc = gr.MapDocument(width=10.0, height=10.0, texts=[(1.0, 2.0, "<5% & %s>", "")])
        assert '>&lt;5% &amp; %s&gt;</text>' in doc.to_svg()
