"""The CLI invocations each workload's job makes, shared by the worker and
the cold-start probe.  Imports nothing heavy, so the probe can time
``import flatdisk.cli`` from a clean interpreter."""

MODE = "stress-minimal"
SIZE_PX = 400
GRATICULE_DEG = 15


def project_argv():
    return ["project", "--mode", MODE]


def render_argv(geojson, svg):
    return ["render", "map", "--geojson", str(geojson), "--mode", MODE,
            "--graticule", str(GRATICULE_DEG), "--size", str(SIZE_PX), "--out", str(svg)]


def verify_argvs(n, profile):
    return [["solve", "--n", str(n), "--out", str(profile)],
            ["stress", "--profile", str(profile), "--grid", str(n)],
            ["stress", "--compare", "--grid", str(n)]]
