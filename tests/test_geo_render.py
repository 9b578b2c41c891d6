"""Tests of GeoJSON ingestion, equator splitting, and SVG map rendering."""

import json
import math
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
        assert not lines[0].closed
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
        assert lines[0].closed
        assert len(lines[0].points) == 4  # closing duplicate dropped

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


def reference_project_piece(piece, mode, panel):
    """Depth-first densify per segment: the oracle for _project_pieces."""
    out = [piece.points[0]]

    def densify(a, b, depth):
        r, phi, _ = pj.forward_arrays(np.array([a[0], b[0]]), np.array([a[1], b[1]]), mode)
        x, y = panel.to_page(r, phi)
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
    return np.column_stack(panel.to_page(r, phi))


def random_piece(rng, side):
    """Random walk in one hemisphere; step scales from sub-pixel to whole-disk."""
    n = int(rng.integers(2, 25))
    step = rng.choice([0.2, 2.0, 15.0])
    lat = np.clip(rng.uniform(0, 90) + np.cumsum(rng.normal(0, step, n)), 0.0, 90.0)
    lon = rng.uniform(-360, 360) + np.cumsum(rng.normal(0, step, n))
    sign = -1.0 if side is Hemisphere.SOUTH else 1.0
    return gr.GeoPolyline(points=np.column_stack([sign * lat, lon]))


def project_one(piece, mode, panel):
    """_project_pieces on a single piece drawn on the given panel."""
    side = Hemisphere.SOUTH if panel.sign < 0 else Hemisphere.NORTH
    north, south, _, _ = gr._panels(2 * panel.radius)
    (got,) = gr._project_pieces([(piece, side)], mode, north, south)
    return got


class TestDensify:
    @pytest.mark.parametrize("mode", list(ProjectionMode))
    @pytest.mark.parametrize("size", [100, 400, 2000])
    def test_matches_depth_first_recursion(self, mode, size):
        north, south, _, _ = gr._panels(float(size))
        rng = np.random.default_rng(size)
        for _ in range(20):
            side = Hemisphere.SOUTH if rng.random() < 0.5 else Hemisphere.NORTH
            piece = random_piece(rng, side)
            panel = south if side is Hemisphere.SOUTH else north
            got = project_one(piece, mode, panel)
            want = reference_project_piece(piece, mode, panel)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_one_call_for_many_pieces_never_bisects_joins(self, mode):
        north, south, _, _ = gr._panels(400.0)
        rng = np.random.default_rng(7)
        sides = [Hemisphere.NORTH, Hemisphere.SOUTH] * 12
        pieces = [(random_piece(rng, side), side) for side in sides]
        got = gr._project_pieces(pieces, mode, north, south)
        assert len(got) == len(pieces)
        for pts, (piece, side) in zip(got, pieces):
            panel = south if side is Hemisphere.SOUTH else north
            np.testing.assert_array_equal(pts, reference_project_piece(piece, mode, panel))
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
        north, _, _, _ = gr._panels(4000.0)
        got = project_one(piece, mode, north)
        np.testing.assert_array_equal(got, reference_project_piece(piece, mode, north))
        chords = np.hypot(*np.diff(got, axis=0).T)
        assert chords.max() > gr.MAX_CHORD_PX  # the cap, not the chord, stopped it

    def test_depth_cap_hits_are_logged(self, caplog):
        piece = gr.GeoPolyline(points=np.array([[10.0, 179.0], [10.0, -179.0]]))
        north, south, _, _ = gr._panels(4000.0)
        with caplog.at_level("WARNING", logger=gr.log.name):
            got = project_one(piece, ProjectionMode.GGV, north)
        capped = int(np.count_nonzero(np.hypot(*np.diff(got, axis=0).T) > gr.MAX_CHORD_PX))
        assert capped > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{capped} segment(s) still longer than 2 px after 12 subdivision passes"]
        # one warning per call, with the count over all pieces
        caplog.clear()
        mirrored = gr.GeoPolyline(points=-piece.points)
        with caplog.at_level("WARNING", logger=gr.log.name):
            gr._project_pieces([(piece, Hemisphere.NORTH), (mirrored, Hemisphere.SOUTH)],
                               ProjectionMode.GGV, north, south)
        assert [r.getMessage() for r in caplog.records] == [
            f"{2 * capped} segment(s) still longer than 2 px after 12 subdivision passes"]

    def test_short_segments_log_nothing(self, caplog):
        piece = gr.GeoPolyline(points=np.array([[10.0, 10.0], [10.5, 10.5]]))
        north, _, _, _ = gr._panels(4000.0)
        with caplog.at_level("WARNING", logger=gr.log.name):
            project_one(piece, ProjectionMode.GGV, north)
        assert not caplog.records


class TestFormatPoints:
    ADVERSARIAL = [0.0, -0.0, -0.0004, 0.0004, -0.0005, 0.0005, -0.0015, -1e-9, 1e-9,
                   999.9995, -999.9995, 1e6, -1e6, -10.0, -100.0004, 12.3456,
                   math.nan, -math.nan, math.inf, -math.inf]

    def per_vertex(self, pts):
        return " ".join(f"{gr._fmt(x)},{gr._fmt(y)}" for x, y in pts)

    def test_matches_per_vertex_fmt(self):
        vals = np.array(self.ADVERSARIAL)
        pts = np.column_stack([vals, vals[::-1]])
        assert gr._fmt_points(pts) == self.per_vertex(pts)
        for x in self.ADVERSARIAL:  # every value in both columns and at both ends
            pts = np.array([[x, 1.0], [-1.0, x], [x, x]])
            assert gr._fmt_points(pts) == self.per_vertex(pts)

    def test_matches_per_vertex_fmt_random(self):
        rng = np.random.default_rng(3)
        pts = np.round(rng.normal(0, 1, (5000, 2)) * 10.0 ** rng.integers(-4, 4, (5000, 2)), 4)
        assert gr._fmt_points(pts) == self.per_vertex(pts)


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
