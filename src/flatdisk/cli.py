"""Command-line interface: evaluate, solve, stress, project, render.

Angles are degrees at this boundary and radians inside the library.  Exit
codes: 0 success, 1 runtime/data error, 2 usage error.  All numeric output
uses 12 significant digits so stdout is diff-stable.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import compress, count

import numpy as np

from . import closedform, geo_render, projection, stress, variational
from .projection import ProjectionMode

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _num(x: float) -> str:
    return format(float(x), ".12g")


def cmd_eval(args) -> int:
    theta_deg = args.theta_deg
    if not 0.0 <= theta_deg <= 90.0:
        raise UsageError(f"colatitude must be in [0, 90] degrees, got {theta_deg}")
    t = math.radians(theta_deg)
    f = closedform.eval_f(t)
    fp = closedform.eval_f_prime(t)
    rows = [
        ("theta_deg", theta_deg),
        ("theta_rad", t),
        ("f", f),
        ("f_prime", fp),
        ("g", closedform.eval_g(t)),
        ("h", closedform.eval_h(t)),
        ("sigma", fp - 1.0),
        ("rho", (fp - 1.0) if t == 0.0 else (f / math.sin(t) - 1.0)),
    ]
    for name, value in rows:
        print(f"{name:>10s}  {_num(value)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.n < 16:
        raise UsageError(f"--n must be >= 16, got {args.n}")
    profile = variational.solve_discrete(args.n)
    try:
        variational.save_profile(profile, args.out, comment=f"solve_discrete n={args.n}")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    deviation = np.max(np.abs(profile.values - closedform.eval_f(profile.thetas)))
    slope = variational.endpoint_slope(profile)
    print(f"wrote {args.out} ({args.n + 1} samples)")
    print(f"max deviation from closed form  {_num(deviation)}")
    print(f"endpoint slope estimate         {_num(slope)}")
    return EXIT_OK


def _radial_from_args(args) -> stress.RadialFunction:
    if args.profile:
        try:
            profile = variational.load_profile(args.profile)
        except OSError as exc:
            raise RuntimeError(f"cannot read {args.profile}: {exc}") from None
        except ValueError as exc:
            raise RuntimeError(f"{args.profile}: {exc}") from None
        if not profile.is_strictly_increasing():
            raise RuntimeError(f"{args.profile}: profile is not strictly increasing")
        return stress.profile_radial(profile)
    mode = ProjectionMode.parse(args.mode)
    if mode is ProjectionMode.GGV:
        return stress.identity_radial()
    return stress.closed_form_radial()


def _print_report(label: str, report: stress.StressReport) -> None:
    print(f"{label}")
    print(f"  total            {_num(report.total)}")
    print(f"  tangential_part  {_num(report.tangential_part)}")
    print(f"  hoop_part        {_num(report.hoop_part)}")


def cmd_stress(args) -> int:
    if args.compare:
        s_min = stress.total_stress(stress.closed_form_radial(), args.grid)
        s_ggv = stress.total_stress(stress.identity_radial(), args.grid)
        _print_report("stress-minimal", s_min)
        _print_report("ggv", s_ggv)
        print(f"difference (ggv - stress-minimal)  {_num(s_ggv.total - s_min.total)}")
        return EXIT_OK
    report = stress.total_stress(_radial_from_args(args), args.grid)
    _print_report(args.profile or args.mode, report)
    return EXIT_OK


# every byte but the two separators of a lat,lon row
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")


def _one_comma_rows(rows: list) -> int:
    """How many leading rows have exactly one comma each.

    Joined by newlines, the rows pass when their separators alone read
    ",\n,\n...,": a row with no comma or two breaks the alternation, so
    each row is checked on its own and miscounts cannot cancel out.
    """
    seps = "\n".join(rows).encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if seps == (b",\n" * len(rows))[:-1]:
        return len(rows)
    return next(k for k, row in enumerate(rows) if row.count(",") != 1)


def _floats(tokens: list) -> np.ndarray:
    """float() of each token, up to the first one that float() rejects."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        good = []
        for token in tokens:
            try:
                good.append(float(token))
            except ValueError:
                break
        return np.array(good)


def _row_error(row: str) -> str:
    """The error text the one-row path gives for a rejected lat,lon row."""
    parts = row.split(",")
    if len(parts) != 2:
        return "expected lat,lon"
    try:
        projection.GeoCoord(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"row {row!r} passes the one-row check")


def cmd_project(args) -> int:
    """Project lat,lon rows from stdin to r,phi,side rows on stdout.

    All of stdin is read, then parsed and checked in one array pass: blank
    and # lines are dropped, each row must have one comma, all fields go
    through float() at once, and masks find the first bad row (wrong field
    count, a field float() rejects, lat outside [-90, 90] or NaN, infinite
    lon).  The rows before it are projected in one call and written; the
    bad row's error text comes from GeoCoord on that row alone, so it reads
    as it always has ("line 5: latitude out of range: 91.0").
    """
    mode = ProjectionMode.parse(args.mode)
    lines = list(map(str.strip, sys.stdin.read().split("\n")))
    is_row = [line and line[0] != "#" for line in lines]
    rows = list(compress(lines, is_row))
    n = _one_comma_rows(rows)
    values = _floats(",".join(rows[:n]).split(",") if n else [])
    n = len(values) // 2  # a row whose lat or lon float() rejects ends the run
    lat, lon = values[0:2 * n:2], values[1:2 * n:2]
    bad = np.flatnonzero(~((lat >= -90.0) & (lat <= 90.0)) | np.isinf(lon))
    if bad.size:
        n = int(bad[0])
    if n:
        r, phi, north = projection.forward_arrays(lat[:n], projection.normalize_lon(lon[:n]), mode)
        cells = [None] * (3 * n)
        cells[0::3] = np.clip(r, 0.0, 1.0).tolist()  # DiskPoint's clamp of float noise at the rim
        cells[1::3] = phi.tolist()
        cells[2::3] = np.where(north, projection.Hemisphere.NORTH.value,
                               projection.Hemisphere.SOUTH.value).tolist()
        sys.stdout.write(("%.12g,%.12g,%s\n" * n) % tuple(cells))
    if n < len(rows):
        lineno = list(compress(count(1), is_row))[n]
        print(f"error: line {lineno}: {_row_error(rows[n])}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_render(args) -> int:
    if args.target == "profile":
        doc = geo_render.render_profile_plot(args.size)
    else:
        mode = ProjectionMode.parse(args.mode)
        try:
            lines = geo_render.load_geojson(args.geojson)
        except OSError as exc:
            print(f"error: cannot read {args.geojson}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except ValueError as exc:
            print(f"error: {args.geojson}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        doc = geo_render.render_map(lines, mode, args.graticule, args.size,
                                    source=args.geojson)
    try:
        doc.save(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatdisk",
        description="Stress-minimizing flat-disk map projection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the radial function chain at one colatitude")
    p.add_argument("theta_deg", type=float, help="colatitude in degrees, 0..90")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="run the discrete variational solver")
    p.add_argument("--n", type=int, default=1024, help="grid intervals (>= 16)")
    p.add_argument("--out", required=True, help="output profile path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stress", help="total stress of a mode or a profile file")
    p.add_argument("--mode", default="stress-minimal", choices=["ggv", "stress-minimal"])
    p.add_argument("--profile", help="radial profile file instead of --mode")
    p.add_argument("--grid", type=int, default=1024, help="quadrature grid size")
    p.add_argument("--compare", action="store_true",
                   help="print both modes and their difference")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("project", help="project lat,lon CSV from stdin to r,phi,side CSV")
    p.add_argument("--mode", default="stress-minimal", choices=["ggv", "stress-minimal"])
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("render", help="render an SVG map or profile plot")
    p.add_argument("target", choices=["map", "profile"])
    p.add_argument("--mode", default="stress-minimal", choices=["ggv", "stress-minimal"])
    p.add_argument("--geojson", help="input FeatureCollection (map target)")
    p.add_argument("--graticule", type=int, default=15, help="graticule spacing, degrees")
    p.add_argument("--size", type=int, default=400, help="panel size in pixels")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "render" and args.target == "map" \
            and not args.geojson:
        parser.error("render map requires --geojson")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, variational.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
