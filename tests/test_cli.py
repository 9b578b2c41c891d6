"""End-to-end tests of the flatdisk command-line interface."""

import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from flatdisk import cli, projection, variational

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

    # sigma = f' - 1 and rho = f/sin - 1 (pole limit f'(0) - 1) of the
    # double colatitude, 12 digits agreeing with 60-digit mpmath
    @pytest.mark.parametrize("deg, sigma, rho", [
        ("0", "-0.15342640972", "-0.15342640972"),
        ("1e-9", "-0.15342640972", "-0.15342640972"),
        ("0.01", "-0.153426408985", "-0.153426405177"),
        ("45", "-0.134594884912", "-0.0533326797855"),
        ("89.99", "-6.74058565605e-05", "0.386119855189"),
    ])
    def test_stress_rows(self, capsys, deg, sigma, rho):
        code, out, _ = run(capsys, "eval", deg)
        assert code == 0
        rows = dict(l.split() for l in out.splitlines())
        assert (rows["sigma"], rows["rho"]) == (sigma, rho)

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

    @pytest.mark.parametrize("n", ["32", "4096", "32768"])
    def test_stdout_does_not_depend_on_the_solver(self, capsys, monkeypatch, tmp_path, n):
        # two backward-stable solvers, each refined once, agree to ~1e-15
        # relative; the printed digits are those they share: cyclic reduction's
        # and LAPACK's banded Cholesky (pbtrf/pbtrs)
        from scipy.linalg import solveh_banded

        def cholesky(diag, off):
            banded = np.vstack((np.concatenate(([0.0], off)), diag))
            return lambda rhs: solveh_banded(banded, rhs)
        argv = ["solve", "--n", n, "--out", str(tmp_path / "p.txt")]
        want = run(capsys, *argv)
        monkeypatch.setattr(variational, "_cyclic_reduction", cholesky)
        assert run(capsys, *argv) == want

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

    def test_profile_with_a_byte_order_mark(self, capsys, tmp_path):
        plain, marked = tmp_path / "p.txt", tmp_path / "bom.txt"
        assert cli.main(["solve", "--n", "64", "--out", str(plain)]) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        want = run(capsys, "stress", "--profile", str(plain))
        got = run(capsys, "stress", "--profile", str(marked))
        assert (got[0], got[2]) == (want[0], want[2]) == (0, "")
        assert got[1].split("\n", 1)[1] == want[1].split("\n", 1)[1]  # line 1 is the path

    def test_overflowing_profile_is_error_line(self, capsys, tmp_path):
        # f = 1e200 * theta: f'^2 overflows in the stress integrand
        path = tmp_path / "big.txt"
        thetas = np.linspace(0, math.pi / 2, 65).tolist()
        path.write_text("".join(f"{t!r} {1e200 * t!r}\n" for t in thetas))
        code, out, err = run(capsys, "stress", "--profile", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: non-finite stress integrand at theta = 0.0\n"


    @pytest.mark.parametrize("thetas", [
        pytest.param([0.0, 0.5, 1.0, 1.5], id="short"),
        pytest.param(np.linspace(0.0, 3.0, 33).tolist(), id="past"),
        pytest.param(np.linspace(0.1, math.pi / 2, 33).tolist(), id="late-start"),
        pytest.param(np.linspace(0.0, math.pi / 2 + 1e-11, 33).tolist(), id="overshoot"),
    ])
    def test_profile_off_the_quarter_turn_rejected(self, capsys, tmp_path, thetas):
        path = tmp_path / "short.txt"
        path.write_text("".join(f"{t!r} {0.5 * k!r}\n" for k, t in enumerate(thetas)))
        code, out, err = run(capsys, "stress", "--profile", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: profile must run from theta = 0 to pi/2\n"

    def test_profile_within_tolerance_of_pi_2_scores(self, capsys, tmp_path):
        for n, end in [(64, math.pi / 2 + 5e-13), (64, math.pi / 2 - 5e-13)]:
            path = tmp_path / "p.txt"
            thetas = np.linspace(0.0, end, n + 1)
            path.write_text("".join(f"{t!r} {2 * t!r}\n" for t in thetas.tolist()))
            code, out, err = run(capsys, "stress", "--profile", str(path))
            assert (code, err) == (0, "")
            assert out.startswith(f"{path}\n  total  ")

    @pytest.mark.parametrize("rows, err", [
        ("0 0\ninf 1\ninf 2\n", "thetas must be finite"),
        ("0 0\n0 1\n0 2\n", "theta grid must be uniform and increasing"),
    ], ids=["inf", "zero-steps"])
    def test_bad_theta_grid_is_one_error_line(self, tmp_path, rows, err):
        # under -W error a numpy warning would end the run with a traceback
        (tmp_path / "f").write_text(rows)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-W", "error", "-m", "flatdisk.cli",
                              "stress", "--profile", "f"],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: f: {err}\n")


    def test_non_finite_values_are_one_error_line(self, tmp_path):
        # np.diff(values) warned on inf - inf before the check; under -W error a
        # warning would end the run with a traceback
        (tmp_path / "g").write_text("0 0\n0.78539816339744828 inf\n1.5707963267948966 inf\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-W", "error", "-m", "flatdisk.cli",
                              "stress", "--profile", "g"],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (res.returncode, res.stdout, res.stderr) == (
            1, "", "error: g: values must be finite\n")


class TestFailuresAreErrorLines:
    # exit 1, empty stdout and one "error:" line on stderr, never a traceback
    ENOENT = "[Errno 2] No such file or directory: '{tmp}/"

    @pytest.mark.parametrize("argv, err", [
        (["stress", "--profile", "{tmp}/missing.txt"],
         "cannot read {tmp}/missing.txt: " + ENOENT + "missing.txt'"),
        (["render", "map", "--geojson", "{tmp}/missing.geojson", "--out", "{tmp}/o.svg"],
         "cannot read {tmp}/missing.geojson: " + ENOENT + "missing.geojson'"),
        (["render", "profile", "--out", "{tmp}/nodir/o.svg"],
         "cannot write {tmp}/nodir/o.svg: " + ENOENT + "nodir/o.svg'"),
        (["render", "map", "--geojson", str(FIXTURE), "--out", "{tmp}/nodir/o.svg"],
         "cannot write {tmp}/nodir/o.svg: " + ENOENT + "nodir/o.svg'"),
        (["solve", "--n", "32", "--out", "{tmp}/nodir/p.txt"],
         "cannot write {tmp}/nodir/p.txt: " + ENOENT + "nodir/p.txt'"),
    ], ids=["stress-missing-profile", "render-missing-geojson", "render-profile-unwritable",
            "render-map-unwritable", "solve-unwritable"])
    def test_frozen(self, capsys, tmp_path, argv, err):
        code, out, got = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert (code, out, got) == (1, "", "error: " + err.replace("{tmp}", str(tmp_path)) + "\n")

    @pytest.mark.parametrize("data, err", [
        (b"# c\xff\n0 0\n1 1\n2 2\n", "byte 0xff in position 3: invalid start byte"),
        (b"# c\n0 0\n1 \xff\n2 2\n", "byte 0xff in position 10: invalid start byte"),
        # the position is counted after the byte-order mark
        (b"\xef\xbb\xbf# c\n0 0\n10 \xff\n2 2\n", "byte 0xff in position 11: invalid start byte"),
        (b"# \xe9t\xe9\n0 0\n1 1\n2 2\n", "byte 0xe9 in position 2: invalid continuation byte"),
    ], ids=["comment", "body", "body-after-bom", "latin-1-comment"])
    def test_undecodable_profile(self, capsys, tmp_path, data, err):
        # a profile is UTF-8 throughout, its # lines too: the error names the first bad byte
        path = tmp_path / "p.txt"
        path.write_bytes(data)
        code, out, got = run(capsys, "stress", "--profile", str(path))
        assert (code, out, got) == (1, "", f"error: {path}: 'utf-8' codec can't decode {err}\n")


class TestBadValuesAreUsageErrors:
    # exit 2 and one "usage error:" line, as for `solve --n 8`, not a traceback
    @pytest.mark.parametrize("argv, err", [
        (["render", "map", "--size", "50"], "size_px must be >= 100, got 50"),
        (["render", "profile", "--size", "10"], "size_px must be >= 100, got 10"),
        (["render", "map", "--graticule", "7"], "graticule_deg must divide 90, got 7"),
        (["stress", "--grid", "1"], "grid_size must be >= 16, got 1"),
        (["stress", "--grid", "1", "--compare"], "grid_size must be >= 16, got 1"),
    ], ids=["map-size", "profile-size", "graticule", "grid", "grid-compare"])
    def test_frozen(self, capsys, tmp_path, argv, err):
        out_path = tmp_path / "o.svg"
        if argv[0] == "render":
            argv = argv + ["--geojson", str(FIXTURE), "--out", str(out_path)]
        code, out, got = run(capsys, *argv)
        assert (code, out, got) == (2, "", f"usage error: {err}\n")
        assert not out_path.exists()


class TestParserReuse:
    def test_back_to_back_runs_match_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        svg = tmp_path / "map.svg"
        jobs = [
            (["eval", "45"], ""),
            (["eval", "95"], ""),
            (["solve"], ""),  # argparse's own usage error: SystemExit(2)
            (["project", "--mode", "ggv"], "45,30\n0,-180\n91,0\n"),
            (["render", "map", "--geojson", str(FIXTURE), "--out", str(svg)], ""),
        ]

        def run_all(fresh):
            results = []
            for argv, stdin in jobs:
                if fresh:
                    cli.build_parser.cache_clear()
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results, svg.read_bytes()

        fresh = run_all(fresh=True)
        reused = run_all(fresh=False)
        assert reused == fresh
        assert [code for code, _, _ in reused[0]] == [0, 2, 2, 1, 0]
        assert cli.build_parser() is cli.build_parser()


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

    def test_undecodable_stdin_is_an_error_line(self, capsys, monkeypatch):
        # a strict UTF-8 stdin, the default under a UTF-8 locale, fails as files do
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff45,1\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "project")
        assert (code, out) == (1, "")
        assert err == ("error: <stdin>: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n")


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
    # phi is the radian value of the reduced longitude, 12 digits agreeing
    # with mpmath; a reduction that adds pi first drops the low bits of small phi
    "tiny_lon": (
        "45,1e-8\n45,-1e-8\n10,1e-12\n-10,359.9999999\n", 0,
        "0.482866338077,1.74532925199e-10,north\n0.482866338077,-1.74532925199e-10,north\n"
        "0.877779072391,1.74532925199e-14,north\n0.877779072391,-1.74532964443e-09,south\n",
        ""),
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
            lat, lon = float(parts[0]), float(parts[1])
        except ValueError as exc:
            error = f"error: line {lineno}: {exc}\n"
            break
        if not -90.0 <= lat <= 90.0:
            error = f"error: line {lineno}: latitude out of range: {lat!r}\n"
            break
        if math.isinf(lon):
            error = f"error: line {lineno}: math domain error\n"
            break
        lats.append(lat)
        lons.append(lon)
    if lats:
        r, phi, north = projection.forward_arrays(
            lats, lons, projection.ProjectionMode(mode))
        for a, b, c in zip(np.clip(r, 0.0, 1.0), phi, north):
            out += f"{cli._num(a)},{cli._num(b)},{'north' if c else 'south'}\n"
    return (1 if error else 0), out, error


# fields that float(), the lat/lon checks or the row split treat specially
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


def canonical_csv(seed):
    """A repr-float lat,lon CSV of every token kind the array pass reads, without
    a last "\\n": signs, integers, -0.0, poles, lon +-180, +-360, +-540 and
    15 to 17 significant digits."""
    rng = np.random.default_rng(seed)
    lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 600)))
    lon = rng.uniform(-540.0, 540.0, 600)
    rows = [f"{a!r},{b!r}" for a, b in zip(lat.tolist(), lon.tolist())]
    rows += [f"{a:.15g},{b:.16g}" for a, b in zip(lat[:100].tolist(), lon[:100].tolist())]
    rows += ["90,-180", "-90,180", "0,360", "-45,-360", "12,540", "-12,-540", "-0.0,-0.0",
             "90.0,0.0", "-90.0,-0.0", "0.0,180.0", "-0.0,-180.0", "45.5,-540.0"]
    rng.shuffle(rows)
    return "\n".join(rows)


class TestProjectArrayPass:
    """Canonical CSVs go through the exact array pass alone: the line path raises."""

    @pytest.mark.parametrize("mode", ["ggv", "stress-minimal"])
    def test_matches_reference(self, capsys, monkeypatch, mode):
        text = canonical_csv(22)
        tokens = text.replace("\n", ",").split(",")
        digits = {len(t.lstrip("-").replace(".", "").lstrip("0")) for t in tokens}
        assert {15, 16, 17} <= digits and not text.endswith("\n") and "-0.0" in tokens
        want = reference_project(text, mode)
        monkeypatch.setattr(cli, "_project_lines", reject_line_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "project", "--mode", mode) == want
        assert want[0] == 0 and want[1].count("\n") == len(tokens) // 2

    @pytest.mark.parametrize("text", ["45,30\n\n", "45,30\r\n", " 45,30\n", "# c\n45,30\n",
                                      "45,30,1\n", "91,0\n", "45,1e400\n", "4_5,30\n",
                                      "45,\u0663\n", "45,3-0\n", "45,.\n"])
    def test_other_text_takes_the_line_path(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        monkeypatch.setattr(cli, "_project_lines", reject_line_path)
        with pytest.raises(AssertionError, match="line path"):
            cli.main(["project"])

    def test_exponents_and_plus_signs_go_to_float(self, capsys, monkeypatch):
        # tokens with an exponent or a "+" stay in the array pass, read by float()
        text = "45,+30\n-1e1,3.5e2\n+0.5,-1e-8\n"
        want = reference_project(text, "stress-minimal")
        monkeypatch.setattr(cli, "_project_lines", reject_line_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "project") == want


def reject_line_path(text, mode):
    raise AssertionError(f"line path reached: {text!r}")


@pytest.mark.parametrize("text, rows", [("# lat,lon\n45,30\n-10,-0.0\n0,-180\n", 3),
                                        ("# c\n45,30\n91,0\n", 1), ("# c\n", 0)])
def test_line_path_writes_through_g12_rows(capsys, monkeypatch, text, rows):
    # a #-led CSV takes the line path, and its rows are spelled by the array pass's writer
    from flatdisk import _decimal
    calls = []
    project_lines, g12_rows = cli._project_lines, _decimal.g12_rows

    def lines_spy(text, mode):
        calls.append("lines")
        return project_lines(text, mode)

    def g12_spy(values, tails):
        calls.append(len(values))
        return g12_rows(values, tails)

    want = reference_project(text, "stress-minimal")
    monkeypatch.setattr(cli, "_project_lines", lines_spy)
    monkeypatch.setattr(_decimal, "g12_rows", g12_spy)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "project") == want
    assert calls == ["lines", rows]


def test_cli_import_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, flatdisk.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def _fresh_run(code, *args):
    """Last stdout line of code run in a fresh interpreter, which imports numpy first
    and binds ``before`` to the modules loaded by then."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-W", "error", "-c",
                          "import sys, numpy\nbefore = set(sys.modules)\n" + code, *args],
                         env=env, capture_output=True, text=True, check=True)
    return res.stdout.splitlines()[-1]


def _loaded_by(code, *args):
    """The modules code loads in a fresh interpreter beyond those numpy loads."""
    return set(_fresh_run(code + "\nprint(*(set(sys.modules) - before))", *args).split())


# what `from flatdisk import *` bound before stress and variational loaded lazily
STAR_NAMES = sorted([
    "TWO_LN2", "POLE_SLOPE", "eval_f", "eval_f_prime", "eval_f_second",
    "eval_f_mathematica_form", "eval_g", "eval_h", "eval_gamma", "eval_beta_regular",
    "eval_beta_singular", "series_coefficients", "eval_beta_series",
    "Hemisphere", "ProjectionMode",
    "RadialFunction", "StressReport", "total_stress", "second_variation",
    "RadialProfile", "solve_discrete", "residual_sweep",
    "closedform", "projection", "stress", "variational",
])


class TestModulesLoaded:
    def test_project_loads_no_other_command_module(self):
        loaded = _loaded_by("import io\nfrom flatdisk import cli\n"
                            "sys.stdin = io.StringIO('45,10\\n-30,20\\n')\n"
                            "assert cli.main(['project']) == 0")
        assert {"flatdisk.cli", "flatdisk._decimal"} <= loaded
        assert not loaded & {"flatdisk.geo_render", "flatdisk.stress", "flatdisk.variational",
                             "json", "fractions", "scipy"}

    def test_render_map_loads_neither_stress_nor_variational(self, tmp_path):
        loaded = _loaded_by("from flatdisk import cli\n"
                            "assert cli.main(['render', 'map', '--geojson', sys.argv[1],"
                            " '--out', sys.argv[2]]) == 0", str(FIXTURE), str(tmp_path / "m.svg"))
        assert "flatdisk.geo_render" in loaded
        assert not loaded & {"flatdisk.stress", "flatdisk.variational", "scipy"}

    def test_render_profile_loads_no_json(self, tmp_path):
        loaded = _loaded_by("from flatdisk import cli\n"
                            "assert cli.main(['render', 'profile', '--out', sys.argv[1]]) == 0",
                            str(tmp_path / "p.svg"))
        assert "flatdisk.geo_render" in loaded
        assert not loaded & {"json", "flatdisk.stress", "flatdisk.variational", "scipy"}

    def test_eval_solve_and_stress_load_no_scipy(self, tmp_path):
        # each command in its own fresh interpreter; project and render are above
        profile = tmp_path / "p.txt"
        variational.save_profile(variational.solve_discrete(64), profile)
        for argv in (["eval", "45"], ["solve", "--n", "64", "--out", str(tmp_path / "q.txt")],
                     ["stress", "--profile", str(profile)], ["stress", "--compare"]):
            loaded = _loaded_by("import contextlib, io\nfrom flatdisk import cli\n"
                                "with contextlib.redirect_stdout(io.StringIO()):\n"
                                "    assert cli.main(sys.argv[1:]) == 0", *argv)
            assert "flatdisk.cli" in loaded
            assert "scipy" not in loaded, argv

    def test_package_import_leaves_stress_and_variational_unloaded(self):
        loaded = _loaded_by("import flatdisk")
        assert {"flatdisk.closedform", "flatdisk.projection"} <= loaded
        assert not loaded & {"flatdisk.stress", "flatdisk.variational"}

    def test_lazy_names_resolve_on_first_use(self):
        code = ("import flatdisk\n"
                "lazy = {'stress', 'variational', 'total_stress', 'RadialProfile'}\n"
                "assert lazy <= set(dir(flatdisk)), dir(flatdisk)\n"
                "total = flatdisk.stress.total_stress\n"
                "from flatdisk import total_stress, RadialProfile, solve_discrete\n"
                "assert total is total_stress\n"
                "assert solve_discrete is flatdisk.variational.solve_discrete\n"
                "assert RadialProfile is sys.modules['flatdisk.variational'].RadialProfile\n"
                "try:\n"
                "    flatdisk.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(exc)")
        assert _fresh_run(code) == "module 'flatdisk' has no attribute 'no_such_name'"

    def test_star_import_binds_the_same_names(self):
        code = ("old = {*globals(), 'old'}\nfrom flatdisk import *\n"
                "print(*sorted(globals().keys() - old))")
        assert _fresh_run(code).split() == STAR_NAMES


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

    def test_huge_integer_coordinate_is_error_line(self, capsys, tmp_path):
        path = tmp_path / "huge.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "LineString",
                                             "coordinates": [[10**400, 1], [2, 3]]}}]}))
        code, out, err = run(capsys, "render", "map", "--geojson", str(path),
                             "--out", str(tmp_path / "o.svg"))
        assert (code, out) == (1, "")
        assert err == (f"error: {path}: feature 0: "
                       "expected an array of positions of 2 or more numbers\n")

    def test_huge_integer_altitude_is_ignored(self, capsys, tmp_path):
        svgs = []
        for altitude in ([10**400], []):
            path = tmp_path / "coast.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [
                {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [
                    [[0, 10] + altitude, [40, -20], [80, 10], [0, 10]]]}}]}))
            code, _, err = run(capsys, "render", "map", "--geojson", str(path),
                               "--out", str(tmp_path / "o.svg"))
            assert (code, err) == (0, "")
            svgs.append((tmp_path / "o.svg").read_bytes())
        assert svgs[0] == svgs[1]

    @pytest.mark.parametrize("name, written", [
        pytest.param("a--b.geojson", "a- -b.geojson", id="two"),
        pytest.param("a---b.geojson", "a- - -b.geojson", id="three"),
    ])
    def test_dashes_in_source_keep_the_header_a_comment(self, capsys, tmp_path, monkeypatch,
                                                         name, written):
        # XML forbids "--" inside a comment: the header writes "- " for each "-" before "-"
        (tmp_path / name).write_bytes(FIXTURE.read_bytes())
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "render", "map", "--geojson", name, "--out", "map.svg")
        assert code == 0
        ET.parse(tmp_path / "map.svg")
        got = (tmp_path / "map.svg").read_text().splitlines()
        golden = (DATA / "golden" / "fixture_map_stress-minimal_g15.svg").read_text()
        want = golden.splitlines()
        assert got[1] == want[1].replace("source=fixture_coastline.geojson",
                                         f"source={written}")
        assert got[:1] + got[2:] == want[:1] + want[2:]

    def test_map_without_geojson_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["render", "map", "--out", str(tmp_path / "o.svg")])
        assert exc.value.code == 2
