"""End-to-end tests of the flatdisk command-line interface."""

import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flatdisk import cli, projection

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_coastline.geojson"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_equator(self, capsys):
        code, out, _ = run(capsys, "eval", "90")
        assert code == 0
        f_line = next(l for l in out.splitlines() if l.strip().startswith("f "))
        assert f_line.split()[-1].startswith("1.38629436112")

    def test_pole(self, capsys):
        code, out, _ = run(capsys, "eval", "0")
        assert code == 0
        f_line = next(l for l in out.splitlines() if l.strip().startswith("f "))
        assert float(f_line.split()[-1]) == 0.0

    # 12-digit values checked against mpmath; at 0.01 deg the full-angle
    # formula would print f_prime wrong from its 8th digit
    @pytest.mark.parametrize("deg, want", [
        ("45", {"f": "0.669394881651"}),
        ("0.01", {"f": "0.000147754965151", "f_prime": "0.846573591015",
                  "g": "2.57881061496e-08"}),
    ], ids=["45", "0.01"])
    def test_midlatitude(self, capsys, deg, want):
        code, out, _ = run(capsys, "eval", deg)
        assert code == 0
        rows = dict(l.split() for l in out.splitlines())
        assert float(rows["f"]) == pytest.approx(float(want["f"]), abs=1e-9)
        for name, value in want.items():
            assert rows[name] == value

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "120")
        assert code == 2
        assert "usage error" in err

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run(capsys, "eval", "33.3")
        _, out2, _ = run(capsys, "eval", "33.3")
        assert out1 == out2


class TestSolve:
    def test_writes_profile_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "profile.txt"
        code, out, _ = run(capsys, "solve", "--n", "256", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        dev_line = next(l for l in out.splitlines() if "max deviation" in l)
        assert float(dev_line.split()[-1]) < 1e-3

    def test_n_1024_tight_deviation(self, capsys, tmp_path):
        out_path = tmp_path / "profile.txt"
        code, out, _ = run(capsys, "solve", "--n", "1024", "--out", str(out_path))
        assert code == 0
        dev_line = next(l for l in out.splitlines() if "max deviation" in l)
        assert float(dev_line.split()[-1]) < 1e-4

    def test_below_minimum_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "solve", "--n", "8", "--out", str(tmp_path / "p.txt"))
        assert code == 2

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--n", "32",
                           "--out", str(tmp_path / "nodir" / "p.txt"))
        assert code == 1
        assert "cannot write" in err


class TestStress:
    def test_compare_orders_modes(self, capsys):
        code, out, _ = run(capsys, "stress", "--compare", "--grid", "512")
        assert code == 0
        totals = [float(l.split()[-1]) for l in out.splitlines() if "total " in l]
        assert totals[0] < totals[1]  # stress-minimal beats ggv

    def test_grid_convergence(self, capsys):
        def total(grid):
            _, out, _ = run(capsys, "stress", "--mode", "stress-minimal", "--grid", grid)
            return float(next(l for l in out.splitlines() if "total" in l).split()[-1])
        assert abs(total("512") - total("1024")) < 1e-8

    def test_flat_profile_rejected(self, capsys, tmp_path):
        path = tmp_path / "flat.txt"
        thetas = np.linspace(0, math.pi / 2, 33)
        path.write_text("\n".join(f"{t:.17g} 0" for t in thetas) + "\n")
        code, _, err = run(capsys, "stress", "--profile", str(path))
        assert code == 1
        assert "not strictly increasing" in err

    def test_malformed_profile_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n0.1\n")
        code, _, err = run(capsys, "stress", "--profile", str(path))
        assert code == 1
        assert "line 2" in err


class TestProject:
    def test_round_trip_values(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("45,30\n0,-180\n90,0\n"))
        code, out, _ = run(capsys, "project", "--mode", "ggv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert float(rows[0][0]) == pytest.approx(0.5)
        assert rows[0][2] == "north"
        assert float(rows[1][0]) == pytest.approx(1.0)
        assert float(rows[2][0]) == 0.0

    def test_bad_input_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("45\n"))
        code, _, err = run(capsys, "project")
        assert code == 1
        assert "line 1" in err


# stdout, stderr and exit code of `project` frozen from the per-line scalar
# implementation that the batched one replaced
PROJECT_CASES = {
    "edge_values": (
        "# header\n\n90,0\n-90,45\n-0.0,-0.0\n0,180\n0,-180\n30,360\n-30,-360\n10,nan\n",
        0,
        "0,0,north\n0,0,south\n1,0,north\n1,3.14159265359,north\n1,3.14159265359,north\n"
        "0.648108152493,0,north\n0.648108152493,0,south\n0.877779072391,nan,north\n",
        ""),
    "nan_lat": ("45,30\nnan,0\n", 1, "0.482866338077,0.523598775598,north\n",
                "error: line 2: latitude out of range: nan\n"),
    "inf_lon": ("45,30\n10,inf\n", 1, "0.482866338077,0.523598775598,north\n",
                "error: line 2: math domain error\n"),
    "lat_91_after_rows": (
        "45,30\n\n# c\n-10,20\n91,0\n5,5\n", 1,
        "0.482866338077,0.523598775598,north\n0.877779072391,0.349065850399,south\n",
        "error: line 5: latitude out of range: 91.0\n"),
    "three_fields": ("45,30\n1,2,3\n", 1, "0.482866338077,0.523598775598,north\n",
                     "error: line 2: expected lat,lon\n"),
    "empty_stdin": ("", 0, "", ""),
    "underscore_then_inf_lat": ("1_0,5\n1e500,0\n", 1, "0.877779072391,0.0872664625997,north\n",
                                "error: line 2: latitude out of range: inf\n"),
    "one_field_then_three": ("45\n1,2,3\n", 1, "", "error: line 1: expected lat,lon\n"),
}


def reference_project(text, mode):
    """(exit code, stdout, stderr) of the per-line project loop the array pass replaced."""
    out, lats, lons, error = "", [], [], ""
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            error = f"error: line {lineno}: expected lat,lon\n"
            break
        try:
            p = projection.GeoCoord(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            error = f"error: line {lineno}: {exc}\n"
            break
        lats.append(p.lat_deg)
        lons.append(p.lon_deg)
    if lats:
        r, phi, north = projection.forward_arrays(
            lats, lons, projection.ProjectionMode.parse(mode))
        for a, b, c in zip(np.clip(r, 0.0, 1.0), phi, north):
            out += f"{cli._num(a)},{cli._num(b)},{'north' if c else 'south'}\n"
    return (1 if error else 0), out, error


# fields that float(), GeoCoord or the row split treat specially
_FUZZ_FIELDS = ["0", "-0.0", "45", "90", "-90", "90.0000001", "91", "180", "-180", "360",
                "-540", "179.99999999999997", "1e500", "-1e500", "inf", "-inf", "nan", "NaN",
                "1_0", "1__0", " 45 ", "\t3", "+5", "0x10", "1e-320", "x", "", "#", "\u0663",
                "\xa0", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\udcff"]


def _fuzz_line(rng):
    if rng.random() < 0.75:
        return f"{rng.uniform(-90, 90)!r},{rng.uniform(-400, 400)!r}"
    k = rng.choice([0, 1, 2, 2, 2, 3])
    if k == 0:
        return rng.choice(["", "  ", "# c", "  # x,y", "#", "\t"])
    return ",".join(rng.choice(_FUZZ_FIELDS) + rng.choice(["", "", "", "5", " "])
                    for _ in range(k))


def project_fuzz_corpus(seed=20261018, n=300):
    """Seeded stdin texts: mostly valid rows, some bad, blank or # lines, mixed line ends."""
    rng = random.Random(seed)
    corpus = [
        "45\n1,2,3\n5,5\n",               # 1-field then 3-field: counts must not cancel
        "45,30\r\n-10,20\r\n91,0\r\n",  # \r\n line ends
        "1_0,5\n 45 , 10 \n1e500,0\n",
        "10,inf\n", "10,-inf\n", "nan,0\n",
        "45,30\n# mid\n\n  # indented\n-10,20\n",
        "45,30\n-10,20\n\n\n  \n",         # blank last lines
    ]
    for _ in range(n):
        end = rng.choice(["\n", "\n", "\r\n", "\n\n"])
        lines = [_fuzz_line(rng) for _ in range(rng.randint(0, 12))]
        corpus.append(end.join(lines) + rng.choice([end, "", "\n  \n"]))
    return corpus


class TestProjectEdgeCases:
    @pytest.mark.parametrize("name", sorted(PROJECT_CASES))
    def test_frozen_output(self, capsys, monkeypatch, name):
        stdin, want_code, want_out, want_err = PROJECT_CASES[name]
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert run(capsys, "project") == (want_code, want_out, want_err)

    @pytest.mark.parametrize("name", sorted(PROJECT_CASES))
    def test_frozen_cases_match_reference(self, name):
        stdin, want_code, want_out, want_err = PROJECT_CASES[name]
        assert reference_project(stdin, "stress-minimal") == (want_code, want_out, want_err)

    @pytest.mark.parametrize("mode", ["ggv", "stress-minimal"])
    def test_fuzz_corpus_matches_reference(self, capsys, monkeypatch, mode):
        corpus = project_fuzz_corpus()
        codes = set()
        for text in corpus:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            got = run(capsys, "project", "--mode", mode)
            assert got == reference_project(text, mode), repr(text)
            codes.add(got[0])
        assert codes == {0, 1}

    def test_large_input_matches_reference(self, capsys, monkeypatch):
        rng = np.random.default_rng(5)
        lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 5000)))
        lon = rng.uniform(-720.0, 720.0, 5000)
        text = "".join(f"{a!r},{b!r}\n" for a, b in zip(lat.tolist(), lon.tolist()))
        text += "# tail\n12,1e400\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        got = run(capsys, "project")
        assert got == reference_project(text, "stress-minimal")
        assert got[2] == "error: line 5002: math domain error\n"

    def test_ggv_edge_values(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(PROJECT_CASES["edge_values"][0]))
        assert run(capsys, "project", "--mode", "ggv") == (0, (
            "0,0,north\n0,0,south\n1,0,north\n1,3.14159265359,north\n"
            "1,3.14159265359,north\n0.666666666667,0,north\n0.666666666667,0,south\n"
            "0.888888888889,nan,north\n"), "")


def test_cli_import_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, flatdisk.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


class TestRender:
    def test_profile_plot(self, capsys, tmp_path):
        out_path = tmp_path / "profile.svg"
        code, _, _ = run(capsys, "render", "profile", "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<?xml")
        assert 'stroke="red"' in svg and 'stroke="black"' in svg

    def test_map_matches_golden(self, capsys, tmp_path):
        out_path = tmp_path / "map.svg"
        code, _, _ = run(capsys, "render", "map", "--mode", "ggv", "--graticule", "15",
                         "--size", "400", "--geojson", str(FIXTURE),
                         "--out", str(out_path))
        assert code == 0
        golden = DATA / "golden" / "fixture_map_ggv_g15.svg"
        # golden render passes source=basename; CLI passes full path, so compare
        # everything after the header comment line
        got = out_path.read_text().splitlines()[2:]
        want = golden.read_text().splitlines()[2:]
        assert got == want

    def test_missing_geojson(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "map", "--geojson",
                           str(tmp_path / "missing.geojson"),
                           "--out", str(tmp_path / "o.svg"))
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("feature", [
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": [[0, 1], [2]]}},
        {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": None}},
        None,
    ])
    def test_malformed_geojson_is_error_line(self, capsys, tmp_path, feature):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
        code, out, err = run(capsys, "render", "map", "--geojson", str(path),
                             "--out", str(tmp_path / "o.svg"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: feature 0: expected ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o.svg").exists()

    def test_map_without_geojson_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["render", "map", "--out", str(tmp_path / "o.svg")])
        assert exc.value.code == 2
