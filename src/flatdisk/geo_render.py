"""Deterministic SVG rendering of two-sided disk maps and the radial profile.

Geometry comes in as GeoJSON polylines, is split at the equator so every
piece lives in a single hemisphere, projected through the chosen mode, and
written into a two-panel SVG (northern face left, southern face right,
mirrored so rim longitudes coincide when the page is folded).  A map job
runs in a fixed number of array passes: the pieces of all lines are
densified together, and each polyline is formatted with one `%` operation.
Output is a pure function of the inputs: rendering twice gives identical
bytes, which makes golden-file regression tests possible.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, closedform, projection
from .projection import Hemisphere, ProjectionMode

__all__ = [
    "GeoPolyline",
    "MapDocument",
    "load_geojson",
    "split_at_equator",
    "render_map",
    "render_profile_plot",
]

TOOL_VERSION = f"flatdisk {__version__}"
GUTTER_PX = 20.0
MARGIN_PX = 10.0
MAX_CHORD_PX = 2.0
MAX_SUBDIV_DEPTH = 12

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeoPolyline:
    """Ordered lat/lon path; consecutive duplicate points are dropped."""

    points: np.ndarray  # shape (n, 2), columns (lat_deg, lon_deg)
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of lat/lon degrees")
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        pts = pts[keep]
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 distinct points")
        object.__setattr__(self, "points", pts)


@dataclass
class MapDocument:
    """Resolution-independent page: styled circles/polylines/text in pixels."""

    width: float
    height: float
    metadata: dict = field(default_factory=dict)
    circles: list = field(default_factory=list)   # (cx, cy, r, style)
    polylines: list = field(default_factory=list)  # (points ndarray, style, closed)
    texts: list = field(default_factory=list)      # (x, y, string, style)

    def to_svg(self) -> str:
        """The page as SVG text, every number with 3 decimals and no "-0.000".

        The points of each polyline are written in one `%` operation.
        """
        opts = " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f"<!-- {TOOL_VERSION} | {opts} -->",
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">',
            f'<rect width="{_fmt(self.width)}" height="{_fmt(self.height)}" fill="white"/>',
        ]
        for cx, cy, r, style in self.circles:
            out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {style}/>')
        for pts, style, closed in self.polylines:
            coords = _fmt_points(pts)
            tag = "polygon" if closed else "polyline"
            out.append(f'<{tag} points="{coords}" {style}/>')
        for x, y, text, style in self.texts:
            out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" {style}>{text}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_svg())


def _fmt(v: float) -> str:
    # 3 decimals: sub-pixel accuracy with byte-stable diffs
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _fmt_points(pts) -> str:
    """`x,y x,y ...` with _fmt's rule, in one `%` operation over all vertices.

    A `.3f` token has exactly 3 decimals and a sign only in front, so
    "-0.000" can only occur as a whole token and one replace applies the rule.
    """
    s = " ".join(["%.3f,%.3f"] * len(pts)) % tuple(np.ravel(pts).tolist())
    return s.replace("-0.000", "0.000")


# --- GeoJSON ingestion ------------------------------------------------------

def load_geojson(path) -> list[GeoPolyline]:
    """Read a FeatureCollection into polylines.

    LineString/MultiLineString become open polylines; Polygon/MultiPolygon
    rings become closed ones.  Unsupported geometry types are skipped with a
    logged warning; malformed features and out-of-range coordinates abort
    with the feature index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    lines: list[GeoPolyline] = []
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
                lines.append(_polyline(coords, closed=False))
            elif gtype == "MultiLineString":
                lines.extend(_polyline(part, closed=False) for part in coords)
            elif gtype == "Polygon":
                lines.extend(_polyline(ring, closed=True) for ring in coords)
            elif gtype == "MultiPolygon":
                for poly in coords:
                    lines.extend(_polyline(ring, closed=True) for ring in poly)
            else:
                skipped += 1
                log.warning("feature %d: skipping unsupported geometry %r", idx, gtype)
        except ValueError as exc:
            raise ValueError(f"feature {idx}: {exc}") from None
        except TypeError:  # null or too shallowly nested coordinates of a Multi*/Polygon
            raise ValueError(f"feature {idx}: {_BAD_POSITIONS}") from None
    if skipped:
        log.warning("skipped %d unsupported feature(s)", skipped)
    return lines


_BAD_POSITIONS = "expected an array of positions of 2 or more numbers"


def _polyline(coords, closed: bool) -> GeoPolyline:
    try:  # lon, lat of each position; a third number (altitude) is ignored
        lonlat = np.array([pos[:2] for pos in coords], dtype=float)
    except (TypeError, ValueError):  # null, ragged or non-numeric positions
        raise ValueError(_BAD_POSITIONS) from None
    if lonlat.ndim != 2 or lonlat.shape[1] != 2:
        raise ValueError(_BAD_POSITIONS)
    lon, lat = lonlat.T
    bad = np.flatnonzero(~((np.abs(lat) <= 90.0) & (np.abs(lon) <= 360.0)))
    if len(bad):
        raise ValueError(f"coordinate out of range: ({lon[bad[0]]}, {lat[bad[0]]})")
    if closed and len(lonlat) > 1 and np.array_equal(lonlat[0], lonlat[-1]):
        lonlat = lonlat[:-1]
    return GeoPolyline(points=lonlat[:, ::-1], closed=closed)


# --- equator splitting ------------------------------------------------------

def split_at_equator(line: GeoPolyline):
    """Cut a polyline into single-hemisphere pieces.

    At every equator crossing a point at exactly lat 0 is interpolated
    linearly in (lat, lon) and shared by both pieces, so the rim joins up
    across the two faces.  Returns a list of (GeoPolyline, Hemisphere).
    """
    pts = line.points
    if line.closed:
        pts = np.vstack([pts, pts[:1]])
    pieces: list[tuple[GeoPolyline, Hemisphere]] = []
    current = [pts[0]]
    sign = 0 if pts[0][0] == 0 else (1 if pts[0][0] > 0 else -1)

    def close(piece_sign):
        side = Hemisphere.SOUTH if piece_sign < 0 else Hemisphere.NORTH
        pieces.append((GeoPolyline(points=np.array(current)), side))

    for prev, nxt in zip(pts[:-1], pts[1:]):
        nxt_sign = 0 if nxt[0] == 0 else (1 if nxt[0] > 0 else -1)
        if nxt_sign == 0 or sign == 0 or nxt_sign == sign:
            current.append(nxt)
            if sign == 0:
                sign = nxt_sign
        elif prev[0] == 0:
            # prev sits on the equator: break there, prev shared by both pieces
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


# --- panels and projection to page coordinates ------------------------------

@dataclass(frozen=True)
class _Panel:
    cx: float  # an array of per-vertex values when a job's faces are mapped together
    cy: float
    radius: float
    sign: float  # -1 on the southern face, drawn mirrored with phi -> -phi

    def to_page(self, r, phi):
        x = self.cx + self.radius * np.asarray(r) * np.cos(self.sign * np.asarray(phi))
        y = self.cy - self.radius * np.asarray(r) * np.sin(self.sign * np.asarray(phi))
        return x, y


def _panels(size_px: float):
    radius = size_px / 2.0
    cy = MARGIN_PX + radius
    north = _Panel(cx=MARGIN_PX + radius, cy=cy, radius=radius, sign=1.0)
    south = _Panel(cx=MARGIN_PX + 3 * radius + GUTTER_PX, cy=cy, radius=radius, sign=-1.0)
    width = 2 * size_px + GUTTER_PX + 2 * MARGIN_PX
    height = size_px + 2 * MARGIN_PX
    return north, south, width, height


def _project_pieces(pieces, mode: ProjectionMode, north: _Panel, south: _Panel):
    """Project (GeoPolyline, Hemisphere) pieces with adaptive densification.

    All pieces are concatenated, with a piece id per vertex, and bisected
    breadth-first together: each pass projects the new midpoints in one
    call and halves every segment whose page chord exceeds MAX_CHORD_PX,
    for at most MAX_SUBDIV_DEPTH passes.  A segment joining two pieces is
    never split.  A segment short enough to keep is never split later, so
    every segment split in pass k is k halvings deep, and the vertices and
    their order are those of a depth-first recursion over each input
    segment.  Segments still longer than MAX_CHORD_PX after the last pass
    are kept, and their count over all pieces is logged as one warning.
    Returns one (n, 2) array of page points per piece.
    """
    if not pieces:
        return []
    latlon = np.concatenate([piece.points for piece, _ in pieces])
    pid = np.repeat(np.arange(len(pieces)), [len(piece.points) for piece, _ in pieces])
    south_piece = np.array([side is Hemisphere.SOUTH for _, side in pieces])
    cx = np.where(south_piece, south.cx, north.cx)
    sign = np.where(south_piece, south.sign, north.sign)

    def to_page(points, ids):
        r, phi, _ = projection.forward_arrays(points[:, 0], points[:, 1], mode)
        panel = _Panel(cx=cx[ids], cy=north.cy, radius=north.radius, sign=sign[ids])
        return np.column_stack(panel.to_page(r, phi))

    xy = to_page(latlon, pid)
    for depth in range(MAX_SUBDIV_DEPTH + 1):
        long = np.hypot(*np.diff(xy, axis=0).T) > MAX_CHORD_PX
        at = np.flatnonzero(long & (pid[1:] == pid[:-1]))
        if not len(at) or depth == MAX_SUBDIV_DEPTH:
            break
        mid = 0.5 * (latlon[at] + latlon[at + 1])
        latlon = np.insert(latlon, at + 1, mid, axis=0)
        xy = np.insert(xy, at + 1, to_page(mid, pid[at]), axis=0)
        pid = np.insert(pid, at + 1, pid[at])
    if len(at):
        log.warning("%d segment(s) still longer than %g px after %d subdivision passes",
                    len(at), MAX_CHORD_PX, MAX_SUBDIV_DEPTH)
    return np.split(xy, np.flatnonzero(np.diff(pid)) + 1)


_RIM_STYLE = 'fill="none" stroke="black" stroke-width="1.5"'
_GRATICULE_STYLE = 'fill="none" stroke="#999999" stroke-width="0.5"'
_COAST_STYLE = 'fill="none" stroke="#1f4e79" stroke-width="1"'


def render_map(lines, mode: ProjectionMode, graticule_deg: int,
               size_px: int, source: str = "") -> MapDocument:
    """Two-sided disk map: north face left, mirrored south face right.

    Graticule parallels are concentric circles at the projected radii of
    each latitude multiple of graticule_deg (the rim is the equator);
    meridians are radial lines at equal angles.  Each line is split at the
    equator, and the pieces of all lines are projected and densified
    together by _project_pieces, so a job makes a fixed number of
    projection calls and logs at most one depth-cap warning.
    """
    if size_px < 100:
        raise ValueError(f"size_px must be >= 100, got {size_px}")
    if graticule_deg <= 0 or 90 % graticule_deg != 0:
        raise ValueError(f"graticule_deg must divide 90, got {graticule_deg}")
    north, south, width, height = _panels(float(size_px))
    doc = MapDocument(width=width, height=height, metadata={
        "mode": mode.value, "graticule": graticule_deg,
        "size": size_px, "source": source or "-",
    })
    # parallels: one circle per graticule step of colatitude, rim included
    colat = np.arange(graticule_deg, 91, graticule_deg)
    radii = projection.radius_from_colatitude(np.radians(colat), mode).tolist()
    phi = np.radians(np.arange(0, 360, graticule_deg))[:, None]
    for panel in (north, south):
        doc.circles.extend((panel.cx, panel.cy, r * panel.radius,
                            _RIM_STYLE if c == 90 else _GRATICULE_STYLE)
                           for c, r in zip(colat.tolist(), radii))
        spokes = np.stack(panel.to_page(np.array([0.0, 1.0]), phi), axis=-1)
        doc.polylines.extend((spoke, _GRATICULE_STYLE, False) for spoke in spokes)
    pieces = [piece for line in lines for piece in split_at_equator(line)]
    doc.polylines.extend((pts, _COAST_STYLE, False)
                         for pts in _project_pieces(pieces, mode, north, south))
    return doc


_CURVE_STYLE = 'fill="none" stroke="black" stroke-width="1.5"'
_CHORD_STYLE = 'fill="none" stroke="red" stroke-width="1.5"'
_GAP_STYLE = 'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="4,3"'
_LABEL_STYLE = 'font-family="sans-serif" font-size="12" fill="black"'


def render_profile_plot(size_px: int, n_samples: int = 512) -> MapDocument:
    """Radial function vs the straight chord from (0,0) to (pi/2, 2 ln 2).

    The maximum vertical gap between the two curves is drawn as a dashed
    segment and annotated with its value.
    """
    if size_px < 100:
        raise ValueError(f"size_px must be >= 100, got {size_px}")
    width = float(size_px)
    height = 0.75 * size_px
    margin = 30.0
    thetas = np.linspace(0.0, math.pi / 2, n_samples)
    f = np.asarray(closedform.eval_f(thetas))
    chord = thetas * closedform.TWO_LN2 / (math.pi / 2)

    sx = (width - 2 * margin) / (math.pi / 2)
    sy = (height - 2 * margin) / closedform.TWO_LN2
    to_x = lambda t: margin + t * sx
    to_y = lambda v: height - margin - v * sy

    doc = MapDocument(width=width, height=height,
                      metadata={"plot": "radial-profile", "size": size_px})
    axis = 'fill="none" stroke="black" stroke-width="1"'
    doc.polylines.append((np.array([[to_x(0), to_y(closedform.TWO_LN2)],
                                    [to_x(0), to_y(0)],
                                    [to_x(math.pi / 2), to_y(0)]]), axis, False))
    doc.polylines.append((np.column_stack([to_x(thetas), to_y(chord)]),
                          _CHORD_STYLE, False))
    doc.polylines.append((np.column_stack([to_x(thetas), to_y(f)]),
                          _CURVE_STYLE, False))
    gaps = chord - f
    i = int(np.argmax(gaps))
    doc.polylines.append((np.array([[to_x(thetas[i]), to_y(f[i])],
                                    [to_x(thetas[i]), to_y(chord[i])]]),
                          _GAP_STYLE, False))
    doc.texts.append((to_x(thetas[i]) + 5.0, 0.5 * (to_y(f[i]) + to_y(chord[i])),
                      f"max gap = {gaps[i]:.5f}", _LABEL_STYLE))
    return doc
