"""Command-line interface: evaluate, solve, stress, project, render.

Angles are degrees at this boundary and radians inside the library.  Exit
codes: 0 success, 1 runtime/data error, 2 usage error.  All numeric output
uses 12 significant digits so stdout is diff-stable.
"""

from __future__ import annotations

import argparse
import array
import functools
import math
import sys

import numpy as np

# stress, variational and geo_render load in the commands that run them
from . import closedform, projection
from .projection import ProjectionMode

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _num(x: float) -> str:
    return format(float(x), ".12g")


def _read(load, path):
    """load(path); OSError or ValueError becomes a RuntimeError naming path."""
    try:
        return load(path)
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise RuntimeError(f"{path}: {exc}") from None


def _write(save, path) -> None:
    """save(path); OSError becomes a RuntimeError naming path."""
    try:
        save(path)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from None


def cmd_eval(args) -> int:
    theta_deg = args.theta_deg
    if not 0.0 <= theta_deg <= 90.0:
        raise UsageError(f"colatitude must be in [0, 90] degrees, got {theta_deg}")
    from . import stress
    t = math.radians(theta_deg)
    rf = projection.radial_function(ProjectionMode.STRESS_MINIMAL)
    rows = [
        ("theta_deg", theta_deg),
        ("theta_rad", t),
        ("f", closedform.eval_f(t)),
        ("f_prime", closedform.eval_f_prime(t)),
        ("g", closedform.eval_g(t)),
        ("h", closedform.eval_h(t)),
        ("sigma", stress.sigma(rf, t)),
        ("rho", stress.rho(rf, t)),
    ]
    for name, value in rows:
        print(f"{name:>10s}  {_num(value)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.n < 16:
        raise UsageError(f"--n must be >= 16, got {args.n}")
    from . import variational
    profile = variational.solve_discrete(args.n)
    comment = f"solve_discrete n={args.n}"
    _write(lambda path: variational.save_profile(profile, path, comment=comment), args.out)
    deviation = np.max(np.abs(profile.values - closedform.eval_f(profile.thetas)))
    slope = variational.endpoint_slope(profile)
    print(f"wrote {args.out} ({args.n + 1} samples)")
    # only the digits above f's rounding (2.2e-16 near f = 1.4), which any
    # backward-stable solve shares up to n = 2^18: three of the deviation,
    # and nine decimals of the slope, whose formula multiplies it by 4/h
    print(f"max deviation from closed form  {deviation:.3g}")
    print(f"endpoint slope estimate         {slope:.9f}")
    return EXIT_OK


def _profile_stress(path, grid_size: int) -> stress.StressReport:
    """Total stress of the profile file at path, through its spline.

    The grid must run from theta = 0 to pi/2 (to within closedform.CLAMP_TOL),
    or the spline would extrapolate its end pieces over the rest.
    """
    from . import stress, variational
    profile = variational.load_profile(path)
    if not profile.is_strictly_increasing():
        raise ValueError("profile is not strictly increasing")
    thetas = profile.thetas
    if thetas[0] != 0.0 or abs(thetas[-1] - closedform.HALF_PI) > closedform.CLAMP_TOL:
        raise ValueError("profile must run from theta = 0 to pi/2")
    return stress.total_stress(stress.profile_radial(profile), grid_size)


def _print_report(label: str, report: stress.StressReport) -> None:
    print(f"{label}")
    print(f"  total            {_num(report.total)}")
    print(f"  tangential_part  {_num(report.tangential_part)}")
    print(f"  hoop_part        {_num(report.hoop_part)}")


def cmd_stress(args) -> int:
    if args.grid < 16:
        raise UsageError(f"grid_size must be >= 16, got {args.grid}")
    from . import stress
    if args.compare:
        s_min, s_ggv = (stress.total_stress(projection.radial_function(mode), args.grid)
                        for mode in (ProjectionMode.STRESS_MINIMAL, ProjectionMode.GGV))
        _print_report("stress-minimal", s_min)
        _print_report("ggv", s_ggv)
        print(f"difference (ggv - stress-minimal)  {_num(s_ggv.total - s_min.total)}")
        return EXIT_OK
    if args.profile:
        # everything computed from the file's data fails as "<path>: ..."
        report = _read(lambda path: _profile_stress(path, args.grid), args.profile)
    else:
        rf = projection.radial_function(ProjectionMode(args.mode))
        report = stress.total_stress(rf, args.grid)
    _print_report(args.profile or args.mode, report)
    return EXIT_OK


def cmd_project(args) -> int:
    """Project lat,lon rows from stdin to r,phi,side rows on stdout.

    ASCII rows "lat,lon\\n" of 0-9 . e - + with lat in [-90, 90] and lon finite
    are read by _decimal.read_rows as float() reads them and written by
    _write_projected; any other stdin goes to _project_lines.
    """
    mode = ProjectionMode(args.mode)
    text = _read(lambda _: sys.stdin.read(), "<stdin>")
    from ._decimal import read_rows
    rows = read_rows(text, 0, ",", 2**17)  # 128 KB blocks
    if rows is None or not np.all((rows[0] >= -90.0) & (rows[0] <= 90.0)) \
            or np.isinf(rows[1]).any():
        return _project_lines(text, mode)
    _write_projected(rows[0], rows[1], mode)
    return EXIT_OK


def _write_projected(lat, lon, mode: ProjectionMode) -> None:
    """Project lat, lon in one forward_arrays call and write each point to stdout
    by _decimal.g12_rows, as "%.12g,%.12g,%s\\n" % (r, phi, side) would."""
    from ._decimal import g12_rows
    r, phi, north = projection.forward_arrays(lat, lon, mode)
    sides = np.array([f"{side.value}\n" for side in projection.Hemisphere], "S")  # north first
    # the north mask, read as 0 or 1, takes each tail from "south\n", "north\n"
    tails = sides.view(np.uint8).reshape(2, -1)[::-1].take(north.view(np.uint8), axis=0)
    sys.stdout.write(g12_rows(np.column_stack((r, phi)), tails).decode("ascii"))


def _project_lines(text: str, mode: ProjectionMode) -> int:
    """cmd_project on any text, read one line at a time.

    Blank and # lines are skipped; every other line must be lat,lon, each
    field read by float(), lat in [-90, 90] and lon finite.  The rows before
    the first bad line go to _write_projected, as canonical rows do, and the
    bad line raises its error; forward_arrays on that row alone words a value
    out of range, so it reads "line 5: latitude out of range: 91.0".
    """
    lats, lons = array.array("d"), array.array("d")  # numpy reads them without a copy
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise ValueError("expected lat,lon")
            lat, lon = float(parts[0]), float(parts[1])
            if not -90.0 <= lat <= 90.0 or math.isinf(lon):
                projection.forward_arrays(lat, lon, mode)  # raises the row's error
        except ValueError as exc:
            _write_projected(lats, lons, mode)
            raise RuntimeError(f"line {lineno}: {exc}") from None
        lats.append(lat)
        lons.append(lon)
    _write_projected(lats, lons, mode)
    return EXIT_OK


def cmd_render(args) -> int:
    if args.size < 100:
        raise UsageError(f"size_px must be >= 100, got {args.size}")
    if args.target == "map" and (args.graticule <= 0 or 90 % args.graticule != 0):
        raise UsageError(f"graticule_deg must divide 90, got {args.graticule}")
    from . import geo_render
    if args.target == "profile":
        doc = geo_render.render_profile_plot(args.size)
    else:
        lines = _read(geo_render.load_geojson, args.geojson)
        doc = geo_render.render_map(lines, ProjectionMode(args.mode), args.graticule,
                                    args.size, source=args.geojson)
    _write(doc.save, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The flatdisk argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="flatdisk",
        description="Stress-minimizing flat-disk map projection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [mode.value for mode in ProjectionMode]

    p = sub.add_parser("eval", help="evaluate the radial function chain at one colatitude")
    p.add_argument("theta_deg", type=float, help="colatitude in degrees, 0..90")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="run the discrete variational solver")
    p.add_argument("--n", type=int, default=1024, help="grid intervals (>= 16)")
    p.add_argument("--out", required=True, help="output profile path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stress", help="total stress of a mode or a profile file")
    p.add_argument("--mode", default="stress-minimal", choices=modes)
    p.add_argument("--profile", help="radial profile file instead of --mode")
    p.add_argument("--grid", type=int, default=1024, help="quadrature grid size")
    p.add_argument("--compare", action="store_true",
                   help="print both modes and their difference")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("project", help="project lat,lon CSV from stdin to r,phi,side CSV")
    p.add_argument("--mode", default="stress-minimal", choices=modes)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("render", help="render an SVG map or profile plot")
    p.add_argument("target", choices=["map", "profile"])
    p.add_argument("--mode", default="stress-minimal", choices=modes)
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
    except RuntimeError as exc:  # variational.SolverError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
