"""Deterministic SVG rendering of two-sided disk maps and the radial profile.

Geometry comes in as GeoJSON polylines, is split at the equator so every
piece lives in a single hemisphere (taking the short way across ±180°, where
the disk needs no cut), projected through the chosen mode, and
written into a two-panel SVG (northern face left, southern face right,
mirrored so rim longitudes coincide when the page is folded).  A map job
runs one array pass per stage, whatever its ring count: `load_geojson`
reads the rings of every document into one array and checks them with one
mask each, `render_map` splits all lines at the equator together and
densifies all pieces together, carrying a line or piece id per vertex, and
`MapDocument.to_svg` spells every number of the page with one call of an
exact numpy `%.3f` kernel (_decimal.fixed3), so one rule formats them all.
One page transform (_to_page) places both faces: the graticule and the
coastlines alike go through it.
Output is a pure function of the inputs: rendering twice gives identical
bytes, which makes golden-file regression tests possible.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from itertools import chain

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
PROFILE_SAMPLES = 512

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeoPolyline:
    """Ordered lat/lon path, a ring if it ends on its first point; repeats are dropped."""

    points: np.ndarray  # shape (n, 2), columns (lat_deg, lon_deg)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of lat/lon degrees")
        bad = ~((np.abs(pts[:, 0]) <= 90.0) & np.isfinite(pts[:, 1]))  # lon may pass ±180
        if bad.any():
            raise ValueError("coordinate out of range: ({1}, {0})".format(*pts[bad.argmax()]))
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        pts = pts[keep]
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 distinct points")
        object.__setattr__(self, "points", pts)

    @classmethod
    def _trusted(cls, points: np.ndarray) -> "GeoPolyline":
        """A polyline of points already known to pass the checks."""
        line = object.__new__(cls)
        object.__setattr__(line, "points", points)
        return line


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

        All the numbers of the page (width and height, circles, text x/y,
        polyline points) are spelled by one call of _decimal.fixed3, which
        writes each as "%.3f" does, into one ASCII text: the points of each
        polyline are one slice of it, "x,y x,y ...".  Styles are attribute
        fragments and go in as given; a text string has its `&`, `<` and `>`
        escaped.  The header is an XML comment, so its text never holds "--".
        """
        from ._decimal import fixed3

        opts = " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        comment = re.sub("-(?=-)", "- ", f"{TOOL_VERSION} | {opts}")
        head = [self.width, self.height]
        for cx, cy, r, _ in self.circles:
            head += cx, cy, r
        head += [v for x, y, _, _ in self.texts for v in (x, y)]
        points = [pts for pts, _, _ in self.polylines]
        numbers = np.concatenate([head, np.concatenate(points).ravel() if points else []])
        sep = np.full(len(numbers), ord(" "), np.uint8)
        sep[len(head)::2] = ord(",")
        text, ends = fixed3(numbers, sep)
        # the numbers of polyline k start at bounds[k] in text (number i at ends[i - 1])
        bounds = ends[len(head) - 1 + 2 * np.cumsum([0] + [len(pts) for pts in points])].tolist()
        w, h, *words = text[:bounds[0]].split()
        it = iter(words)  # three numbers per circle, then two per text
        xml = lambda s: s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f"<!-- {comment} -->",
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
        ]
        lines += [f'<circle cx="{cx}" cy="{cy}" r="{r}" {style}/>'
                  for (*_, style), cx, cy, r in zip(self.circles, it, it, it)]
        lines += [f'<{"polygon" if closed else "polyline"} points="{text[i:j - 1]}" {style}/>'
                  for (_, style, closed), i, j in zip(self.polylines, bounds, bounds[1:])]
        lines += [f'<text x="{x}" y="{y}" {style}>{xml(string)}</text>'
                  for (*_, string, style), x, y in zip(self.texts, it, it)]
        lines.append("</svg>\n")
        return "\n".join(lines)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_svg())


# --- GeoJSON ingestion ------------------------------------------------------

_BAD_POSITIONS = "expected an array of positions of 2 or more numbers"


def load_geojson(path) -> list[GeoPolyline]:
    """Read a FeatureCollection into polylines, all of them views of one array.

    LineString/MultiLineString become open polylines; Polygon/MultiPolygon
    rings become rings, ending on their first point (appended if missing).
    Unsupported geometry types are skipped with a logged warning; malformed
    features and out-of-range coordinates abort with the feature index.

    One walk over the features lists the rings, stopping at a feature that
    is not an object or whose coordinates cannot be walked; _gather puts
    them in one lon/lat array, and one mask each finds the rings with a
    coordinate outside ±360° lon or ±90° lat and those with fewer than 2
    points once repeats are dropped.  The first error in feature and ring
    order is raised (in a ring: positions not of 2 or more numbers, then
    range, then distinct points), after logging each skipped feature before
    it; a load that succeeds logs their count.
    """
    import json  # here, so that render profile loads no json
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not read
        doc = json.load(fh)
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    rings, owner, closed, skipped = [], [], [], []  # owner and closed: one per ring
    stop = None  # (feature index, error text) where the walk stopped
    for idx, feature in enumerate(features):
        try:
            if not isinstance(feature, dict):
                raise ValueError("expected a GeoJSON Feature object")
            geom = feature.get("geometry") or {}
            if not isinstance(geom, dict):
                raise ValueError("expected a GeoJSON geometry object")
            gtype, coords = geom.get("type"), geom.get("coordinates", [])
            if gtype == "LineString":  # == and not a dict lookup: a type may be unhashable
                coords = [coords]
            elif gtype == "MultiPolygon":
                coords = chain.from_iterable(coords)
            elif gtype != "MultiLineString" and gtype != "Polygon":
                skipped.append((idx, gtype))
                continue
            n = len(rings)
            rings += coords
            owner += [idx] * (len(rings) - n)
            closed += [gtype.endswith("Polygon")] * (len(rings) - n)
        except ValueError as exc:
            stop = idx, str(exc)
            break
        except TypeError:  # null or too shallowly nested coordinates
            owner += [idx] * (len(rings) - len(owner))  # rings += kept those before the error
            stop = idx, _BAD_POSITIONS
            break
    lonlat, counts = _gather(rings)
    stops = np.cumsum(counts)
    starts = stops - counts
    z = lonlat.view(complex).ravel()  # lon + i lat: one != compares both coordinates
    keep = np.ones(len(z), dtype=bool)
    keep[1:] = z[1:] != z[:-1]
    keep[starts] = True
    kept = np.concatenate([[0], np.cumsum(keep)])  # points kept before each index
    out = ~((np.abs(lonlat[:, 0]) <= 360.0) & (np.abs(lonlat[:, 1]) <= 90.0))
    out_ring = np.logical_or.reduceat(out, starts)
    bad = np.append(out_ring | (kept[stops] - kept[starts] < 2), len(counts) < len(rings))
    if bad.any():  # the first bad ring, counting the one _gather stopped at
        ring = bad.argmax()
        if ring == len(counts):
            stop = owner[ring], _BAD_POSITIONS
        elif out_ring[ring]:
            stop = owner[ring], "coordinate out of range: ({}, {})".format(*lonlat[out.argmax()])
        else:
            stop = owner[ring], "polyline needs at least 2 distinct points"
    for idx, gtype in skipped:
        if stop and idx > stop[0]:
            break
        log.warning("feature %d: skipping unsupported geometry %r", idx, gtype)
    if stop:
        raise ValueError("feature {}: {}".format(*stop))
    if skipped:
        log.warning("skipped %d unsupported feature(s)", len(skipped))
    # a Polygon ring not ending on its first point gets it after its last kept one
    open_ring = np.array(closed, dtype=bool) & (z[stops - 1] != z[starts])
    take = _insert_after(np.flatnonzero(keep), kept[stops[open_ring]] - 1, starts[open_ring])
    latlon = lonlat[:, ::-1].take(take, axis=0)
    ends = (kept[stops] + np.cumsum(open_ring)).tolist()
    return [GeoPolyline._trusted(latlon[i:j]) for i, j in zip([0] + ends, ends)]


def _gather(rings):
    """The positions of rings as one (n, 2) lon/lat array and each ring's count,
    up to the first ring that is not an array of positions of 2 or more numbers.

    C-level walks list every position, take each ring's and position's length
    with `list.__len__` (which rejects a non-array) and convert all their
    numbers, altitudes included, with one np.fromiter; the first two of each
    position are then picked by index.  Only if this raises are the rings
    read one at a time, as `np.array([pos[:2] for pos in ring])` reads them.
    """
    try:
        positions = list(chain.from_iterable(rings))
        counts = np.fromiter(map(list.__len__, rings), np.intp, len(rings))
        sizes = np.fromiter(map(list.__len__, positions), np.intp, len(positions))
        numbers = np.fromiter(chain.from_iterable(positions), float, sizes.sum())
        if counts.all() and (sizes >= 2).all():
            if len(numbers) > 2 * len(sizes):  # altitudes: keep lon, lat of each position
                numbers = numbers[(np.cumsum(sizes) - sizes)[:, None] + np.arange(2)]
            return numbers.reshape(-1, 2), counts
    except (TypeError, ValueError, OverflowError):
        pass
    arrays = []
    for ring in rings:
        try:
            lonlat = np.array([pos[:2] for pos in ring], dtype=float)
        except (TypeError, ValueError, OverflowError, KeyError):  # ragged, non-numeric, huge
            break  # or an object, whose pos[:2] raises KeyError from Python 3.12
        if lonlat.ndim != 2 or lonlat.shape[1] != 2:
            break
        arrays.append(lonlat)
    return np.concatenate(arrays + [np.empty((0, 2))]), np.array(list(map(len, arrays)), np.intp)


# --- equator splitting ------------------------------------------------------

def _insert_after(arr: np.ndarray, at: np.ndarray, rows) -> np.ndarray:
    """A copy of arr with rows[k] placed after row at[k], for sorted `at`.

    `np.repeat` doubles every row arr[at[k]] and rows[k] overwrites the
    second copy, which now sits at at[k] + k + 1: one scatter, several times
    faster than np.insert on the few-thousand-row arrays of a map job.
    """
    grow = np.ones(len(arr), dtype=np.intp)
    grow[at] = 2
    out = np.repeat(arr, grow, axis=0)
    out[at + np.arange(len(at)) + 1] = rows
    return out


def split_at_equator(line: GeoPolyline):
    """Cut a polyline into single-hemisphere pieces, the short way across ±180°.

    Returns a list of (GeoPolyline, Hemisphere); a ring is cut like any other
    line, its last point being its first.  render_map runs the same body
    (_split) on all its lines at once, and its docstring has the rules.
    """
    pts, piece, south = _split(line.points, np.array([len(line.points)]))
    return [(GeoPolyline._trusted(p), Hemisphere.SOUTH if s else Hemisphere.NORTH)
            for p, s in zip(_runs(pts, piece), south.tolist())]


def _runs(arr: np.ndarray, ids: np.ndarray) -> list:
    """Views of arr, one per run of equal ids."""
    cut = (np.flatnonzero(np.diff(ids)) + 1).tolist()
    return [arr[i:j] for i, j in zip([0] + cut, cut + [len(arr)])]


def _split(pts: np.ndarray, counts: np.ndarray):
    """Equator pieces of lines given as their concatenated lat/lon points.

    Line i has counts[i] points (at least 1); a ring is a line that ends on
    its first point, so its pieces join up like those of any line.  A line
    whose longitudes span more than 180° is unwrapped (`np.unwrap`, period
    360, one line at a time), so a step of more than 180° becomes its
    complement and a step of exactly ±180° is kept as written; other lines
    are kept exactly.  Pieces carry these continuous longitudes, which may
    leave (-180, 180]; `projection.forward_arrays` reduces phi.  Points that
    coincide after unwrapping are dropped, as GeoPolyline drops repeats, and
    a line that collapses to one point gives no piece.

    Equator crossings of all lines are found at once from the sign of lat,
    each zero taking the sign of the last nonzero lat before it on its line;
    a step joining two lines is never a crossing.  At a crossing a point at
    exactly lat 0 is interpolated linearly in (lat, lon) and shared by both
    pieces, so the rim joins up across the two faces; where the vertex before
    the crossing lies on the equator, that vertex is shared instead.  A
    piece is southern where that sign is negative at its last vertex other
    than a cut point, so a line on the equator is northern.

    Returns the pieces' points concatenated, the piece id of each point and
    whether each piece lies on the southern face.
    """
    starts = np.cumsum(counts) - counts
    first = np.zeros(len(pts), dtype=bool)  # the point starts a line
    first[starts] = True
    lon = pts[:, 1]
    wide = np.maximum.reduceat(lon, starts) - np.minimum.reduceat(lon, starts) > 180.0
    if wide.any():  # else no step can exceed 180
        pts = pts.copy()  # the caller's points stay as they are
        for i, n in zip(starts[wide].tolist(), counts[wide].tolist()):
            pts[i:i + n, 1] = np.unwrap(pts[i:i + n, 1], period=360.0)
        line = np.repeat(np.arange(len(counts)), counts)
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = ~(wide[line[1:]] & ~first[1:] & np.all(pts[1:] == pts[:-1], axis=1))
        keep &= ~(wide & (np.add.reduceat(keep.astype(np.intp), starts) < 2))[line]
        pts, first = pts[keep], first[keep]
    lat = pts[:, 0]
    sign = np.sign(lat)
    sign = sign[np.maximum.accumulate(np.where((sign != 0) | first, np.arange(len(sign)), 0))]
    c = np.flatnonzero((sign[1:] * sign[:-1] < 0) & ~first[1:])  # the vertex before each crossing
    piece_end = np.ones(len(pts), dtype=bool)
    piece_end[:-1] = first[1:]
    piece_end[c] = True
    south = sign[piece_end] < 0
    # each piece ends on a point that the next one starts on: a cut point,
    # placed twice after c, or else c itself, on the equator, placed once more
    interp = lat[c] != 0
    a = c[interp]
    t = lat[a] / (lat[a] - lat[a + 1])
    cut = np.column_stack([np.zeros(len(a)), pts[a, 1] + t * (pts[a + 1, 1] - pts[a, 1])])
    extra = 1 + interp
    grow = np.ones(len(pts), dtype=np.intp)
    grow[c] += extra
    nxt = c + np.cumsum(extra)  # where the point that starts the next piece lands
    pts = np.repeat(pts, grow, axis=0)
    pts[nxt[interp] - 1] = cut
    pts[nxt[interp]] = cut
    piece_start = np.repeat(first, grow)
    piece_start[nxt - 1] = False  # a cut point, or a c on the equator: never a line start
    piece_start[nxt] = True
    return pts, np.cumsum(piece_start) - 1, south


# --- projection to page coordinates -----------------------------------------

def _to_page(r, phi, south, radius: float):
    """Page (x, y) of disk points (r, phi) on panels of the given radius.

    The northern face is the left panel; where `south` is true the point is
    on the right panel, mirrored (phi -> -phi) so rim longitudes coincide
    when the page is folded.  Takes arrays, broadcast together, or scalars.
    """
    cx = np.where(south, MARGIN_PX + 3 * radius + GUTTER_PX, MARGIN_PX + radius)
    phi = np.where(south, -phi, phi)
    return cx + radius * r * np.cos(phi), (MARGIN_PX + radius) - radius * r * np.sin(phi)


def _densify(latlon, pid, south_piece, mode: ProjectionMode, radius: float):
    """Project pieces to the page with adaptive densification.

    latlon holds the points of all pieces, pid the piece id of each point
    (ids run 0, 1, ... in order) and south_piece[k] whether piece k is drawn
    on the southern face; _to_page places them on panels of the given
    radius.  All pieces are bisected breadth-first together: each pass
    projects the new midpoints in one call and halves every segment whose
    page chord exceeds MAX_CHORD_PX, for at most MAX_SUBDIV_DEPTH passes.
    A segment joining two pieces is never split.
    A segment short enough to keep is never split later, so every segment
    split in pass k is k halvings deep, and the vertices and their order are
    those of a depth-first recursion over each input segment.  A pass places
    the midpoints into lat/lon, page points and piece ids with one scatter
    each (_insert_after).  Segments still longer than MAX_CHORD_PX after the
    last pass are kept, and their count over all pieces is logged as one
    warning.  Returns one (n, 2) array of page points per piece.
    """
    if not len(latlon):
        return []

    def to_page(points, ids):
        r, phi, _ = projection.forward_arrays(points[:, 0], points[:, 1], mode)
        return np.column_stack(_to_page(r, phi, south_piece[ids], radius))

    xy = to_page(latlon, pid)
    for depth in range(MAX_SUBDIV_DEPTH + 1):
        long = np.hypot(*np.diff(xy, axis=0).T) > MAX_CHORD_PX
        at = np.flatnonzero(long & (pid[1:] == pid[:-1]))
        if not len(at) or depth == MAX_SUBDIV_DEPTH:
            break
        mid = 0.5 * (latlon[at] + latlon[at + 1])
        xy = _insert_after(xy, at, to_page(mid, pid[at]))
        latlon = _insert_after(latlon, at, mid)
        pid = _insert_after(pid, at, pid[at])
    if len(at):
        log.warning("%d segment(s) still longer than %g px after %d subdivision passes",
                    len(at), MAX_CHORD_PX, MAX_SUBDIV_DEPTH)
    return _runs(xy, pid)


_RIM_STYLE = 'fill="none" stroke="black" stroke-width="1.5"'
_GRATICULE_STYLE = 'fill="none" stroke="#999999" stroke-width="0.5"'
_COAST_STYLE = 'fill="none" stroke="#1f4e79" stroke-width="1"'


def render_map(lines, mode: ProjectionMode, graticule_deg: int,
               size_px: int, source: str = "") -> MapDocument:
    """Two-sided disk map: north face left, mirrored south face right.

    Graticule parallels are concentric circles at the projected radii of
    each latitude multiple of graticule_deg (the rim is the equator);
    meridians are radial lines at equal angles.  The points of all lines are
    concatenated once and split at the equator in one pass (_split, the body
    of split_at_equator), and all pieces are projected and densified
    together (_densify), so a job makes a fixed number of projection calls
    and logs at most one depth-cap warning.
    """
    if size_px < 100:
        raise ValueError(f"size_px must be >= 100, got {size_px}")
    if graticule_deg <= 0 or 90 % graticule_deg != 0:
        raise ValueError(f"graticule_deg must divide 90, got {graticule_deg}")
    radius = size_px / 2.0
    doc = MapDocument(width=2 * size_px + GUTTER_PX + 2 * MARGIN_PX,
                      height=size_px + 2 * MARGIN_PX, metadata={
        "mode": mode.value, "graticule": graticule_deg,
        "size": size_px, "source": source or "-",
    })
    # parallels: one circle per graticule step of colatitude, rim included
    colat = np.arange(graticule_deg, 91, graticule_deg)
    radii = projection.radius_from_colatitude(np.radians(colat), mode).tolist()
    phi = np.radians(np.arange(0, 360, graticule_deg))[:, None]
    for south in (False, True):
        spokes = np.stack(_to_page(np.array([0.0, 1.0]), phi, south, radius), axis=-1)
        cx, cy = spokes[0, 0].tolist()  # every spoke starts at the centre, r = 0
        doc.circles.extend((cx, cy, r * radius, _RIM_STYLE if c == 90 else _GRATICULE_STYLE)
                           for c, r in zip(colat.tolist(), radii))
        doc.polylines.extend((spoke, _GRATICULE_STYLE, False) for spoke in spokes)
    if lines:
        pieces = _split(np.concatenate([line.points for line in lines]),
                        np.array([len(line.points) for line in lines]))
        doc.polylines.extend((pts, _COAST_STYLE, False)
                             for pts in _densify(*pieces, mode, radius))
    return doc


_CHORD_STYLE = 'fill="none" stroke="red" stroke-width="1.5"'
_GAP_STYLE = 'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="4,3"'
_LABEL_STYLE = 'font-family="sans-serif" font-size="12" fill="black"'


def render_profile_plot(size_px: int) -> MapDocument:
    """Radial function vs the straight chord from (0,0) to (pi/2, 2 ln 2).

    The maximum vertical gap between the two curves is drawn as a dashed
    segment and annotated with its value.  Both use PROFILE_SAMPLES points.
    """
    if size_px < 100:
        raise ValueError(f"size_px must be >= 100, got {size_px}")
    width = float(size_px)
    height = 0.75 * size_px
    margin = 30.0
    thetas = np.linspace(0.0, closedform.HALF_PI, PROFILE_SAMPLES)
    f = np.asarray(closedform.eval_f(thetas))
    chord = thetas * closedform.TWO_LN2 / closedform.HALF_PI

    sx = (width - 2 * margin) / closedform.HALF_PI
    sy = (height - 2 * margin) / closedform.TWO_LN2
    to_x = lambda t: margin + t * sx
    to_y = lambda v: height - margin - v * sy

    doc = MapDocument(width=width, height=height,
                      metadata={"plot": "radial-profile", "size": size_px})
    axis = 'fill="none" stroke="black" stroke-width="1"'
    doc.polylines.append((np.array([[to_x(0), to_y(closedform.TWO_LN2)],
                                    [to_x(0), to_y(0)],
                                    [to_x(closedform.HALF_PI), to_y(0)]]), axis, False))
    doc.polylines.append((np.column_stack([to_x(thetas), to_y(chord)]),
                          _CHORD_STYLE, False))
    doc.polylines.append((np.column_stack([to_x(thetas), to_y(f)]),
                          _RIM_STYLE, False))
    gaps = chord - f
    i = int(np.argmax(gaps))
    doc.polylines.append((np.array([[to_x(thetas[i]), to_y(f[i])],
                                    [to_x(thetas[i]), to_y(chord[i])]]),
                          _GAP_STYLE, False))
    doc.texts.append((to_x(thetas[i]) + 5.0, 0.5 * (to_y(f[i]) + to_y(chord[i])),
                      f"max gap = {gaps[i]:.5f}", _LABEL_STYLE))
    return doc
