"""Cold start: time ``import flatdisk.cli`` and one minimal job in this
fresh interpreter, and print both as JSON.

Usage: python3 bench/probe.py <workload> <work-dir>   (PYTHONPATH=src)
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import commands


def main(workload, work):
    t0 = time.perf_counter()
    import flatdisk.cli as cli
    t1 = time.perf_counter()
    out = io.StringIO()
    saved = sys.stdin
    try:
        with contextlib.redirect_stdout(out):
            if workload == "project":
                sys.stdin = io.StringIO("45.0,30.0\n-90.0,200.0\n")
                codes = [cli.main(commands.project_argv())]
            elif workload == "render":
                codes = [cli.main(commands.render_argv(work / "min.geojson", work / "min.svg"))]
            else:
                codes = [cli.main(argv) for argv in commands.verify_argvs(16, work / "min_profile.txt")]
                from flatdisk import projection
                mode = projection.ProjectionMode.STRESS_MINIMAL
                r, _, _ = projection.forward_arrays([45.0, -10.0], [30.0, 200.0], mode)
                projection.inverse_radius(r, mode)
    finally:
        sys.stdin = saved
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "codes": codes,
                      "module": cli.__file__}))


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
