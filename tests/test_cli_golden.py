"""Frozen (exit code, stdout, stderr) of every `flatdisk` command but `render`.

The matrix covers `eval` at 14 colatitudes, `solve --n 4096`, `stress` in
both modes and `--compare` at two grids and on the solved profile, `project`
in both modes on two 2,000-row inputs built from a formula, and every error
and usage line that test_cli.py's TestFailuresAreErrorLines and
TestBadValuesAreUsageErrors check.  All commands run in one working
directory with relative paths, so the paths they print do not depend on
where it is.  `render`'s SVG bytes are frozen by test_render_golden.py.

The expected outputs are kept in data/golden/cli_outputs.json; text of up
to MAX_TEXT characters is kept as is, longer text as its sha256 and length.
Rerun `python tests/data/regenerate_cli_golden.py` only when a change to the
output is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from flatdisk import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "cli_outputs.json"
FIXTURE = "fixture_coastline.geojson"
PROFILE = "p4096.txt"
MAX_TEXT = 2048
ROWS = 2000

EVAL_ANGLES = ["0", "1e-9", "1e-6", "0.01", "1", "5", "15", "30", "33.3", "45", "60",
               "89.99", "90", "120"]
GRIDS = ["1024", "4096"]
MODES = ["ggv", "stress-minimal"]


def project_rows_a() -> list:
    """Lat in 0.1° steps over [-90, 90], lon in 0.5° steps over [-360, 360].

    Row 1990 has lat 91, so the run stops there with a range error.
    """
    rows = [f"{(k * 7) % 1801 / 10 - 90:.1f},{(k * 13) % 1441 / 2 - 360:g}"
            for k in range(ROWS)]
    rows[1990] = "91,0"
    return rows


def project_rows_b() -> list:
    """Lats and lons of many digits, up to ±1,003° of lon, with comments and
    blank lines between the rows; exact poles, equator and ±180/±360 first.

    Row 1995 has a lon that float() rejects.
    """
    rows = ["90,180", "-90,-180", "0,360", "0,-360", "-0.0,-0.0", "0,180", "0,-180"]
    for k in range(len(rows), ROWS):
        lat = ((k * 7919) % 180001 - 90000) / 1000
        lon = ((k * 104729) % 2000001 - 1000000) / 997
        rows.append(f" {lat!r} , {lon!r} " if k % 3 else f"{lat!r},{lon!r}")
    rows[1995] = "10,east"
    return [row + ("\n# comment\n" if k % 100 == 99 else "\n\n" if k % 250 == 7 else "")
            for k, row in enumerate(rows)]


PROJECT_INPUTS = {"rows_a": project_rows_a, "rows_b": project_rows_b}


def matrix() -> list:
    """(argv, stdin name or None) of every frozen run, in the order they run.

    `solve` writes the profile that the `stress --profile` runs read.
    """
    runs = [(["eval", deg], None) for deg in EVAL_ANGLES]
    runs.append((["solve", "--n", "4096", "--out", PROFILE], None))
    for grid in GRIDS:
        runs.append((["stress", "--compare", "--grid", grid], None))
        runs += [(["stress", "--mode", mode, "--grid", grid], None) for mode in MODES]
        runs.append((["stress", "--profile", PROFILE, "--grid", grid], None))
    runs += [(["project", "--mode", mode], name) for name in PROJECT_INPUTS for mode in MODES]
    render = ["--geojson", FIXTURE, "--out", "o.svg"]
    runs += [(argv, None) for argv in [
        # TestFailuresAreErrorLines
        ["stress", "--profile", "missing.txt"],
        ["render", "map", "--geojson", "missing.geojson", "--out", "o.svg"],
        ["render", "profile", "--out", "nodir/o.svg"],
        ["render", "map", "--geojson", FIXTURE, "--out", "nodir/o.svg"],
        ["solve", "--n", "32", "--out", "nodir/p.txt"],
        # TestBadValuesAreUsageErrors
        ["render", "map", "--size", "50", *render],
        ["render", "profile", "--size", "10", "--out", "o.svg"],
        ["render", "map", "--graticule", "7", *render],
        ["stress", "--grid", "1"],
        ["stress", "--grid", "1", "--compare"],
    ]]
    return runs


def key(argv: list, stdin) -> str:
    return " ".join(argv) + (f" < {stdin}" if stdin else "")


def prepare(workdir: Path) -> None:
    """Put the fixture and the `project` inputs in workdir."""
    shutil.copy(DATA / FIXTURE, workdir / FIXTURE)
    for name, rows in PROJECT_INPUTS.items():
        (workdir / name).write_text("\n".join(rows()) + "\n")


def run(argv: list, stdin, workdir: Path) -> tuple:
    """(exit code, stdout, stderr) of `flatdisk argv < stdin`, run in workdir."""
    out, err = io.StringIO(), io.StringIO()
    cwd, sys_stdin = os.getcwd(), sys.stdin
    os.chdir(workdir)
    sys.stdin = io.StringIO((workdir / stdin).read_text() if stdin else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
        sys.stdin = sys_stdin
    return code, out.getvalue(), err.getvalue()


def frozen(text: str):
    """text itself up to MAX_TEXT characters, else its sha256 and length."""
    if len(text) <= MAX_TEXT:
        return text
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def entry(code: int, out: str, err: str) -> dict:
    return {"code": code, "stdout": frozen(out), "stderr": frozen(err)}


def run_all(workdir: Path) -> dict:
    """The golden entry of every run of the matrix, keyed by its command line."""
    prepare(workdir)
    return {key(argv, stdin): entry(*run(argv, stdin, workdir)) for argv, stdin in matrix()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("cli_golden"))


@pytest.mark.parametrize("name", [key(argv, stdin) for argv, stdin in matrix()])
def test_cli_output_is_frozen(outputs, name):
    assert outputs[name] == json.loads(GOLDEN.read_text())[name]


def test_golden_file_holds_the_matrix_and_nothing_else():
    assert list(json.loads(GOLDEN.read_text())) == [key(argv, stdin) for argv, stdin in matrix()]


def test_project_inputs_cover_the_edges():
    for rows in PROJECT_INPUTS.values():
        lines = "\n".join(rows()).splitlines()
        pairs = [line.split(",") for line in lines if line.strip() and line[0] != "#"]
        assert len(pairs) == ROWS
        good = [(float(lat), float(lon)) for lat, lon in pairs[:1990]]
        lats = {lat for lat, _ in good}
        lons = {lon for _, lon in good}
        assert {-90.0, 0.0, 90.0} <= lats
        assert {-360.0, -180.0, 180.0, 360.0} <= lons
