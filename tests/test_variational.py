"""Tests of the ODE residual evaluator and the independent discrete solver."""

import _pyio
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from flatdisk import cli, closedform as cf
from flatdisk import _decimal, stress, variational as va


class TestOdeResidual:
    def test_closed_form_annihilates_residual(self):
        rf = stress.closed_form_radial()
        assert abs(va.ode_residual(rf, math.pi / 4)) < 1e-15

    def test_identity_residual_is_sin_minus_theta(self):
        rf = stress.identity_radial()
        got = va.ode_residual(rf, math.pi / 4)
        assert got == pytest.approx(math.sin(math.pi / 4) - math.pi / 4, abs=1e-13)

    def test_sine_residual_matches_symbolic_reduction(self):
        # with f = sin: residual = sin(t) * (2 cos(t) + 1) * (cos(t) - 1),
        # re-derived by hand from the ODE and checked numerically here
        rf = stress.sine_radial()
        for t in (0.3, math.pi / 3, 1.4):
            expected = math.sin(t) * (2 * math.cos(t) + 1) * (math.cos(t) - 1)
            assert va.ode_residual(rf, t) == pytest.approx(expected, abs=1e-13)

    def test_residual_affine_in_f(self):
        # residual(f1 + f2) + residual(0) = residual(f1) + residual(f2)
        zero = stress.RadialFunction(
            value=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            second_derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        f1, f2 = stress.sine_radial(), stress.identity_radial()
        f12 = stress.RadialFunction(
            value=lambda t: f1.value(t) + np.asarray(f2.value(t)),
            derivative=lambda t: f1.derivative(t) + np.asarray(f2.derivative(t)),
            second_derivative=lambda t: f1.second_derivative(t) + np.asarray(f2.second_derivative(t)))
        t = np.linspace(0.05, math.pi / 2, 100)
        lhs = va.ode_residual(f12, t) + va.ode_residual(zero, t)
        rhs = va.ode_residual(f1, t) + va.ode_residual(f2, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_requires_second_derivative(self):
        no_second = stress.RadialFunction(value=np.sin, derivative=np.cos)
        with pytest.raises(ValueError):
            va.ode_residual(no_second, 0.5)

    def test_open_domain(self):
        with pytest.raises(ValueError):
            va.ode_residual(stress.sine_radial(), 0.0)


class TestResidualSweep:
    def test_closed_form_sweep(self):
        report = va.residual_sweep(stress.closed_form_radial(), 1000)
        assert report.max_abs < 1e-15
        assert len(report.grid) == 1000

    def test_identity_sweep_max_at_equator(self):
        report = va.residual_sweep(stress.identity_radial(), 1000)
        # |sin t - t| is maximized at t = pi/2
        assert report.max_abs == pytest.approx(math.pi / 2 - 1.0, abs=1e-9)

    def test_minimal_sweep(self):
        report = va.residual_sweep(stress.closed_form_radial(), 2)
        assert len(report.residuals) == 2

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            va.residual_sweep(stress.closed_form_radial(), 1)


def reference_solve(n):
    """The oracle for solve_discrete: its minimizer to 40 digits, from its float inputs.

    Adds each interval's 2x2 quadratic form in (f_{i-1}, f_i) into a
    tridiagonal system with f_0 = 0 eliminated, then eliminates without
    pivoting, all in 40-digit decimal arithmetic.  Its only inputs are the
    float h and the float sines of the midpoints, from the same numpy calls
    as in solve_discrete, so it measures the solver's rounding and nothing
    else: the system is ill-conditioned (~n^2), and a float assembly would
    measure its own rounding instead.  Returns the node values f_0..f_n.
    """
    h_float = (math.pi / 2) / n
    thetas = np.linspace(0.0, math.pi / 2, n + 1)
    sines = np.sin(thetas[:-1] + 0.5 * h_float).tolist()
    with localcontext(Context(prec=40)):
        h = Decimal(h_float)
        zero = Decimal(0)
        diag, off, rhs = [zero] * n, [zero] * (n - 1), [zero] * n
        for i, sine in enumerate(sines, start=1):
            sm = Decimal(sine)
            w = h * sm
            a = 2 * w / (h * h) + w / (2 * sm * sm)
            b = -2 * w / (h * h) + w / (2 * sm * sm)
            if i > 1:  # unknown f_{i-1} is row i-2
                diag[i - 2] += a
                off[i - 2] += b
                rhs[i - 2] += -2 * w / h + w / sm
            diag[i - 1] += a
            rhs[i - 1] += 2 * w / h + w / sm
        for i in range(1, n):
            m = off[i - 1] / diag[i - 1]
            diag[i] -= m * off[i - 1]
            rhs[i] -= m * rhs[i - 1]
        x = [zero] * n
        x[-1] = rhs[-1] / diag[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (rhs[i] - off[i] * x[i + 1]) / diag[i]
    return np.array([0.0] + [float(v) for v in x])


def max_error(profile):
    return float(np.max(np.abs(profile.values - cf.eval_f(profile.thetas))))


def discrete_objective(profile):
    """Midpoint-rule stress objective of a profile on its own grid (no 2 pi)."""
    t, v = profile.thetas, profile.values
    h = t[1] - t[0]
    sm = np.sin(t[:-1] + 0.5 * h)
    slope = np.diff(v) / h
    mean = 0.5 * (v[:-1] + v[1:])
    return float(np.sum(h * sm * ((slope - 1.0) ** 2 + (mean / sm - 1.0) ** 2)))


class TestSolveDiscrete:
    @pytest.mark.parametrize("n", [16, 1024, 2**15])
    def test_matches_thomas_reference(self, n):
        want = reference_solve(n)
        got = va.solve_discrete(n).values
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-14, atol=0)

    def test_error_follows_the_h2_law(self):
        # the refined solve carries no rounding that grows with n: its error
        # times n^2 is the midpoint rule's constant, 0.12106, within 1 %
        scaled = [max_error(va.solve_discrete(n)) * n * n for n in 2 ** np.arange(10, 19)]
        assert max(scaled) / min(scaled) < 1.01
        assert min(scaled) > 0.12
        # at 2^20 (two refinement steps) it reads 0.1189: an error of 1.1e-13,
        # which rounding moves by a few ulp of f
        assert abs(max_error(va.solve_discrete(2**20)) * 2**40 / 0.12106 - 1) < 0.025

    def test_richardson_cancels_the_h2_term(self):
        coarse, fine = va.solve_discrete(2**12), va.solve_discrete(2**13)
        extrapolated = va.richardson(coarse, fine)
        assert np.array_equal(extrapolated.thetas, coarse.thetas)
        assert max_error(extrapolated) <= 1e-13
        with pytest.raises(ValueError, match="^fine must hold the coarse grid"):
            va.richardson(coarse, va.solve_discrete(2**12 + 1))

    def test_endpoint_converges_to_disk_radius(self):
        profile = va.solve_discrete(1024)
        assert abs(profile.values[-1] - cf.TWO_LN2) < 1e-4

    def test_matches_closed_form_at_every_node(self):
        profile = va.solve_discrete(1024)
        err = np.max(np.abs(profile.values - cf.eval_f(profile.thetas)))
        assert err < 1e-4

    def test_second_order_convergence(self):
        errs = {}
        for n in (16, 32):
            profile = va.solve_discrete(n)
            errs[n] = np.max(np.abs(profile.values - cf.eval_f(profile.thetas)))
        ratio = errs[16] / errs[32]
        assert 4 * 0.7 <= ratio <= 4 * 1.3

    def test_profile_invariants(self):
        profile = va.solve_discrete(64)
        assert profile.values[0] == 0.0
        assert profile.is_strictly_increasing()

    def test_emergent_natural_boundary(self):
        assert abs(va.endpoint_slope(va.solve_discrete(4096)) - 1.0) < 5e-3

    def test_endpoint_slope_needs_three_samples(self):
        # every profile has them: a 2-sample one cannot be built
        with pytest.raises(ValueError, match="^profile needs at least 3 samples$"):
            va.RadialProfile(thetas=np.array([0.0, 0.5]), values=np.array([0.0, 0.5]))
        profile = va.RadialProfile(thetas=np.array([0.0, 0.5, 1.0]),
                                   values=np.array([0.0, 1.0, 2.0]))
        assert va.endpoint_slope(profile) == 2.0

    def test_discrete_optimality_beats_sampled_closed_form(self):
        profile = va.solve_discrete(256)
        candidate = va.RadialProfile(thetas=profile.thetas,
                                     values=cf.eval_f(profile.thetas))
        assert discrete_objective(profile) <= discrete_objective(candidate)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            va.solve_discrete(8)

    def test_non_finite_solution_names_the_banded_solve(self, monkeypatch):
        monkeypatch.setattr(va, "_cyclic_reduction",
                            lambda diag, off: lambda rhs: np.full_like(rhs, np.nan))
        with pytest.raises(va.SolverError,
                           match="^cyclic reduction produced non-finite values$"):
            va.solve_discrete(64)

    def test_failed_factorization_is_solver_error(self, monkeypatch):
        # the system is positive definite; negated, its first pivot is not positive
        solver = va._cyclic_reduction
        monkeypatch.setattr(va, "_cyclic_reduction", lambda diag, off: solver(-diag, off))
        with pytest.raises(va.SolverError, match="^cyclic reduction failed: the system is not "
                                                 "positive definite$"):
            va.solve_discrete(64)

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_reduced_pivot_that_is_not_positive_is_solver_error(self, n):
        # every pivot of the first level is 1, and the odd rows' reduced pivots are
        # 1 - 2*2 - 2*2 = -7 and, at n = 4, 1 - 2*2 = -3: there the first level holds
        # a decoupled row, and the failing level has two rows, an even size
        with pytest.raises(va.SolverError, match="^cyclic reduction failed: the system is not "
                                                 "positive definite$"):
            va._cyclic_reduction(np.ones(n), np.full(n - 1, 2.0))

    def test_non_increasing_solution_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(va, "_cyclic_reduction", lambda diag, off: lambda rhs: -np.abs(rhs))
        with pytest.raises(va.SolverError,
                           match="^discrete minimizer is not strictly increasing$"):
            va.solve_discrete(64)

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 2**12 + 1])
    def test_cyclic_reduction_solves_odd_and_even_sizes(self, n):
        rng = np.random.default_rng(n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, n)  # diagonally dominant: positive definite
        x = rng.normal(size=n)
        rhs = diag * x
        rhs[:-1] += off * x[1:]
        rhs[1:] += off * x[:-1]
        np.testing.assert_allclose(va._cyclic_reduction(diag, off)(rhs), x, rtol=0, atol=1e-14)


def reference_parse(text):
    """(thetas, values) of a profile text by the per-line loop parse_profile replaced."""
    thetas, values = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two columns, got {len(parts)}")
        try:
            thetas.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return np.array(thetas), np.array(values)


def assert_parses_as_reference(text):
    """parse_profile(text) gives reference_parse's numbers bit for bit, or its error text."""
    try:
        thetas, values = reference_parse(text)
        if len(thetas) < 3:
            raise ValueError("profile needs at least 3 samples")
        want = va.RadialProfile(thetas, values)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            va.parse_profile(text)
        return
    got = va.parse_profile(text)
    assert got.thetas.view(np.int64).tolist() == want.thetas.view(np.int64).tolist(), repr(text)
    assert got.values.view(np.int64).tolist() == want.values.view(np.int64).tolist(), repr(text)


def odd_layouts():
    """Texts at the edges of the digit reader, around the rows "0 0", "10 2", "20 4".

    Each ASCII character, the non-ASCII line breaks and spaces, full-width
    digits and a lone surrogate go inside a token, between tokens, at a line
    start and into the # header; then come "\r" line ends, numbers that
    float() reads but the digit reader leaves to it, mid-row #, one, three
    and four columns, a last row cut short, and empty and blank texts.  Last
    come value tokens at the edges of its exact check, written in place of
    "2" and "4": 18 to 20 digits (np.fromstring saturates), signs, lone
    points, exponents, exact ties between two doubles, 17 digits on each
    side of a power of ten, and 17 digits one unit either side of the
    midpoint of two adjacent doubles.
    """
    marks = [chr(c) for c in range(128)] + ["\x85", "\u2028", "\u2029", "\xa0", "\uff11\uff10",
                                            "\udcff"]
    for mark in marks:
        for row in (f"1{mark}0 2", f"10{mark}2", f"{mark}10 2"):
            yield f"# h\n0 0\n{row}\n20 4\n"
        yield f"# h{mark}0 0\n10 2\n20 4\n"
    yield from [
        "\uff10 \uff10\n\uff11\uff10 \uff12\n\uff12\uff10 \uff14\n",
        "0 0\r10 2\r20 4\r", "# h\r0 0\r10 2\r20 4\r", "# h\n0 0\r\n10 2\r20 4",
        "0 0\n1_0 2\n20 4\n", "0 0\n0x1p3 2\n20 4\n", "0 0\n10 2\n20 1e400\n",
        "0 0\n10 # 2\n20 4\n", "0 0\n10 2 # c\n20 4\n", "0 0\n10 2#\n20 4\n", "0 0 # c\n",
        "0 0 0\n10 2 1\n20 4 2\n", "0 0 0\n", "0\n10\n20\n",
        "0 0 10 2\n20 4\n", "0 0\n10 2 20 4\n", "0 0\n10 2\n20 ", "0 0\n10 2\n20",
        "0\x0c1\n2 3\n", "0\u20281\n", "0 0\r1 2\r",
        "", " ", "\n\n", " \t\n\n", "# h\n", "# h\n \n\t\n", "# h", "#",
    ]
    tokens = ["9" * 18, "1" + "0" * 17, "9" * 19, "9223372036854775807", "9223372036854775808",
              "9" * 20, "12345678901234567.8", "1.2345678901234567891", "0.000", "-0.0", ".5",
              "5.", "+5.0", "1.2.3", "0.5.0", "1.2.5", "1e5", "1.5e-05", ".", "-", "e", "1.5e",
              "--1", "1-2",
              "4503599627370496.5", "4503599627370497.5", "9007199254740993", "9007199254740995"]
    for e in range(-7, 18):
        tokens += [format(Decimal(f"9.9999999999999999e{e - 1}"), "f"),
                   format(Decimal(f"1.0000000000000001e{e}"), "f"),
                   "%.17g" % np.nextafter(10.0**e, 0), "%.17g" % np.nextafter(10.0**e, np.inf)]
    rng = np.random.default_rng(17)
    lows = np.concatenate(([1.0, 0.1, 1e-6, 2.0**-20, 9.5e16], 10.0 ** rng.uniform(-6, 17, 60)))
    for low in lows.tolist():
        with localcontext(Context(prec=100)):  # exact for these doubles
            mid = (Decimal(low) + Decimal(float(np.nextafter(low, np.inf)))) / 2
        with localcontext(Context(prec=17)):
            mid17 = +mid
            unit = Decimal(1).scaleb(mid17.adjusted() - 16)
            tokens += [format(mid17 - unit, "f"), format(mid17 + unit, "f")]
    for first, second in zip(tokens, tokens[1:] + tokens[:1]):
        yield f"0 0\n10 {first}\n20 {second}\n"


def reject_line_reader(text):
    raise AssertionError("the line reader was called")


def read_rows(body):
    """(thetas, values) of a profile body as _body_rows reads it below the # lines."""
    return _decimal.read_rows(body, 0, " ", va._READ_BLOCK)


class TestProfileSerialization:
    def test_round_trip(self, tmp_path):
        profile = va.solve_discrete(32)
        path = tmp_path / "profile.txt"
        va.save_profile(profile, path, comment="test")
        loaded = va.load_profile(path)
        assert np.array_equal(loaded.thetas, profile.thetas)
        assert np.array_equal(loaded.values, profile.values)

    def test_text_format(self):
        profile = va.solve_discrete(16)
        text = va.profile_to_text(profile)
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert len([l for l in lines if not l.startswith("#")]) == 17

    @pytest.mark.parametrize("n", [16, 4096, 2**15])
    def test_text_matches_per_row_formatting(self, n):
        # the text must give the bytes of a per-row f-string
        profile = va.solve_discrete(n)
        want = "# flat-disk radial profile: theta f(theta)\n# run 7\n" + "".join(
            f"{t:.17g} {v:.17g}\n" for t, v in zip(profile.thetas, profile.values))
        text = va.profile_to_text(profile, comment="run 7")
        assert text == want
        back = va.parse_profile(text)
        assert np.array_equal(back.thetas.view(np.int64), profile.thetas.view(np.int64))
        assert np.array_equal(back.values.view(np.int64), profile.values.view(np.int64))

    @pytest.mark.parametrize("comment", ["first\nsecond", "a\r b", "a\x1e1 2", "end\n"])
    def test_comment_with_a_line_break_is_rejected(self, comment):
        with pytest.raises(ValueError, match="^comment must be one line, got "):
            va.profile_to_text(va.solve_discrete(16), comment=comment)

    def test_saved_lines_end_in_newline_alone(self, tmp_path, monkeypatch):
        # open() as on a platform whose text mode writes "\r\n" for "\n"
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(va, "open", _pyio.open, raising=False)
        profile, path = va.solve_discrete(16), tmp_path / "p.txt"
        va.save_profile(profile, path, comment="c")
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("ascii") == va.profile_to_text(profile, comment="c")

    @pytest.mark.parametrize("comment", ["", "θ grid"], ids=["no-comment", "non-ascii"])
    @pytest.mark.parametrize("n", [16, 4096, 2**15])
    def test_streamed_save_is_the_text(self, tmp_path, n, comment):
        # save_profile writes the header, then the rows one block at a time
        profile, path = va.solve_discrete(n), tmp_path / "p.txt"
        va.save_profile(profile, path, comment=comment)
        assert path.read_bytes() == va.profile_to_text(profile, comment=comment).encode()

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_load_reads_the_rows_as_bytes(self, tmp_path, monkeypatch, mark):
        # a non-ASCII comment, after a byte-order mark or not, leaves the rows to the
        # digit reader: the file is never decoded whole
        profile, path = va.solve_discrete(4096), tmp_path / "p.txt"
        path.write_bytes(mark + va.profile_to_text(profile, comment="θ grid").encode())
        monkeypatch.setattr(va, "parse_profile", reject_line_reader)
        got = va.load_profile(path)
        assert np.array_equal(got.thetas.view(np.int64), profile.thetas.view(np.int64))
        assert np.array_equal(got.values.view(np.int64), profile.values.view(np.int64))

    def test_load_of_crlf_lines_is_the_text(self, tmp_path):
        # "\r" is not read as bytes: the decoded text goes to the line reader
        profile, path = va.solve_discrete(64), tmp_path / "p.txt"
        path.write_bytes(va.profile_to_text(profile, comment="c").replace("\n", "\r\n").encode())
        got = va.load_profile(path)
        assert np.array_equal(got.values.view(np.int64), profile.values.view(np.int64))

    def test_cli_comment_round_trips(self, tmp_path):
        path = tmp_path / "p.txt"
        assert cli.main(["solve", "--n", "64", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.splitlines()[1] == "# solve_discrete n=64"
        want = va.solve_discrete(64).values
        assert np.array_equal(va.parse_profile(text).values.view(np.int64), want.view(np.int64))

    def test_parse_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            va.parse_profile("# header\n0 0\n0.1 0.2 0.3\n")

    @pytest.mark.parametrize("n", [16, 4096, 2**15])
    def test_parse_matches_per_line_reference(self, n, monkeypatch):
        profile = va.solve_discrete(n)
        text = va.profile_to_text(profile, comment=f"n={n}")
        thetas, values = reference_parse(text)
        monkeypatch.setattr(va, "_parse_lines", reject_line_reader)  # np.loadtxt reads it all
        got = va.parse_profile(text)
        assert np.array_equal(got.thetas.view(np.int64), thetas.view(np.int64))
        assert np.array_equal(got.values.view(np.int64), values.view(np.int64))
        assert np.array_equal(got.values, profile.values)

    @pytest.mark.parametrize("text, message", [
        ("0 0\n0.1\n0.2 0.3 0.4\n", "line 2: expected two columns, got 1"),
        ("0.1\n0.2 0.3 0.4\n1 2\n", "line 1: expected two columns, got 1"),  # counts cancel
        ("# h\n0 0\n1 x\n2 2\n", "line 3: could not convert string to float: 'x'"),
        ("0 0\n1 2\n", "profile needs at least 3 samples"),
    ])
    def test_parse_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            va.parse_profile(text)

    @pytest.mark.parametrize("text", [
        "0\t0\n1_0 2\n2_0\t4\n",
        "# h\n\n0 0\n  1_0   2  \n\n2e1 4\n",
        "0 0\r\n10 2\r\n20 4\r\n",
        "0 0\n# mid\n10 2\n20 4",
        "# a\r0 0\n10 2\n20 4\n",  # \r ends the comment line
    ])
    def test_other_layouts_parse_as_per_line(self, text):
        got = va.parse_profile(text)
        thetas, values = reference_parse(text)
        assert got.thetas.tolist() == thetas.tolist() == [0.0, 10.0, 20.0]
        assert got.values.tolist() == values.tolist() == [0.0, 2.0, 4.0]

    def test_fuzzed_layouts_match_reference(self):
        rng = random.Random(8)
        seps = [" ", "  ", "\t", " \t"]
        ends = ["\n", "\r\n", "\n\n", "\n# c\n", "\n \n"]
        for _ in range(300):
            rows = [[repr(float(k)), repr(0.5 * k)] for k in range(rng.randint(2, 6))]
            for row in rows:
                if rng.random() < 0.1:
                    row.append(rng.choice(["1", "x", "#"]) if rng.random() < 0.7 else "")
                if rng.random() < 0.05:
                    row.pop()
                if rng.random() < 0.05:
                    row[0] = rng.choice(["1_0", "nan", "-0", "x"])
            text = rng.choice(["", "# h\n", "#\n# h2\n"]) + "".join(
                rng.choice(["", " "]) + rng.choice(seps).join(row) + rng.choice(ends)
                for row in rows)
            assert_parses_as_reference(text)
        for text in odd_layouts():
            assert_parses_as_reference(text)

    def test_profile_rejects_unequal_shapes(self):
        with pytest.raises(ValueError, match="^thetas and values must be 1-d arrays of equal"):
            va.RadialProfile(thetas=np.zeros(3), values=np.zeros(4))

    def test_header_without_newline_is_too_short(self):
        # "# header" with no newline ends inside the header; the body below it
        # is empty and holds no rows
        with pytest.raises(ValueError, match="at least 3 samples"):
            va.parse_profile("# header")
        va.parse_profile(va.profile_to_text(va.solve_discrete(16)))  # one # line, no comment

    def test_profile_requires_zero_origin(self):
        with pytest.raises(ValueError):
            va.RadialProfile(thetas=np.array([0.0, 0.5, 1.0]),
                             values=np.array([0.1, 0.5, 1.0]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_profile_rejects_fewer_than_two_samples(self, n):
        with pytest.raises(ValueError, match="^profile needs at least 3 samples$"):
            va.RadialProfile(thetas=np.zeros(n), values=np.zeros(n))

    @pytest.mark.parametrize("thetas", [[0.0, math.inf, math.inf], [0.0, 0.5, math.nan],
                                        [-math.inf, 0.0, math.inf]])
    def test_profile_rejects_non_finite_thetas(self, thetas):
        # no "invalid value" RuntimeWarning either: the suite turns warnings into errors
        with pytest.raises(ValueError, match="^thetas must be finite$"):
            va.RadialProfile(thetas=thetas, values=[0.0, 1.0, 2.0])

    @pytest.mark.parametrize("thetas", [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.0, 1e-13, 0.0],
                                        [0.0, 0.5, 1.5]])
    def test_profile_rejects_steps_not_positive_and_equal(self, thetas):
        with pytest.raises(ValueError, match="^theta grid must be uniform and increasing$"):
            va.RadialProfile(thetas=thetas, values=[0.0, 1.0, 2.0])

    def test_smallest_profile_the_writer_writes_reads_back(self):
        profile = va.RadialProfile([0.0, 0.25 * math.pi, 0.5 * math.pi], [0.0, 0.5, 1.5])
        got = va.parse_profile(va.profile_to_text(profile))
        assert got.thetas.tolist() == profile.thetas.tolist()
        assert got.values.tolist() == profile.values.tolist()

    def test_sampled_profile_bridges_into_stress(self):
        # oracle output must be scoreable by the same functional
        profile = va.solve_discrete(512)
        rf = stress.profile_radial(profile)
        s_sampled = stress.total_stress(rf, 1024).total
        s_closed = stress.total_stress(stress.closed_form_radial(), 1024).total
        assert s_sampled == pytest.approx(s_closed, abs=1e-5)


def assert_spelled_as_percent(x):
    """The kernel's text of x, one number a row, is "%.17g" % v for every v."""
    x = np.asarray(x, dtype=float)
    got = _decimal.rows_to_text(x.reshape(-1, 1)).decode("ascii").split("\n")
    want = ["%.17g" % v for v in x.tolist()] + [""]
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


class TestExactSpelling:
    """_decimal.rows_to_text against CPython's "%.17g", byte for byte.

    The suite turns warnings into errors, so each case also shows that no
    input, in the kernel's domain or outside it, raises a RuntimeWarning.
    """

    @pytest.mark.parametrize("n", [16, 1024, 4096, 2**15])
    def test_solver_profiles(self, n):
        profile = va.solve_discrete(n)
        assert_spelled_as_percent(np.concatenate((profile.thetas, profile.values)))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(15)
        anywhere = rng.integers(0, 2**64, 500_000, dtype=np.uint64)  # signs, nan, inf, subnormals
        # 2**-24 to 2**61: the exact domain [1e-6, 1e17) and a binade or more past each end
        exponent = rng.integers(1023 - 24, 1023 + 61, 500_000).astype(np.uint64)
        mantissa = rng.integers(0, 2**52, 500_000, dtype=np.uint64)
        near = (exponent << np.uint64(52)) | mantissa
        assert_spelled_as_percent(np.concatenate((anywhere, near)).view(np.float64))

    def test_exact_ties_round_half_to_even(self):
        rng = np.random.default_rng(16)
        k = rng.integers(2**50, 2**51, 20_000).astype(float)
        # x * 10**(16 - e) = m * 5**p / 2 with m odd: halfway between two 17-digit values
        ties = []
        for p in range(2, 23):
            m = rng.integers(-(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53), 500)
            ties.append(np.ldexp((m | 1).astype(float), -(p + 1)))
        assert_spelled_as_percent(np.concatenate([k + 0.25, k + 0.75, *ties]))

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-9, 20)])
        tens = np.concatenate([tens, 9 * tens, 5 * tens])
        assert_spelled_as_percent(np.concatenate(
            [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]))

    def test_values_outside_the_domain(self):
        assert_spelled_as_percent([0.0, -0.0, -1.5, 5e-324, 1e-300, 1e300, np.inf, -np.inf,
                                   np.nan, 0.5, 1e-6, 9.999999999999999e16, 1e17, 2.0**-1074])


class TestExactReading:
    """The body reader against float(), bit for bit, and against the line reader's error texts."""

    @pytest.mark.parametrize("n", [16, 1024, 4096, 2**15, 2**18])
    def test_solver_profiles(self, n, monkeypatch):
        profile = va.solve_discrete(n)
        text = va.profile_to_text(profile, comment=f"n={n}")
        monkeypatch.setattr(va, "_parse_lines", reject_line_reader)
        got = va.parse_profile(text)
        assert np.array_equal(got.thetas.view(np.int64), profile.thetas.view(np.int64))
        assert np.array_equal(got.values.view(np.int64), profile.values.view(np.int64))

    def test_only_zeros_and_exponents_reach_float(self, monkeypatch):
        # every other token of a solver profile, or a power of ten, passes the exact check
        body = va.profile_to_text(va.solve_discrete(2**15)).partition("\n")[2]
        body += "1 10\n0.01 100000\n"
        seen = []
        monkeypatch.setattr(_decimal, "float", lambda token: seen.append(token) or float(token),
                            raising=False)
        read_rows(body)
        assert seen == [b"0", b"0"] + [t.encode() for t in body.split() if "e" in t]
        assert len(seen) == 6

    def test_wrong_quotients_are_never_kept(self, monkeypatch):
        # a candidate one ulp off, ten times too large or infinite fails the
        # check, so its token goes to float() like any other
        body = va.profile_to_text(va.solve_discrete(1024)).partition("\n")[2]
        body += "0.5 0.5\n0.5 1\n1 1\n"
        corrected = _decimal.corrected

        def wrong(d, x, k):
            q = corrected(d, x, k)[0]
            q[0::3] = np.nextafter(q[0::3], np.inf)
            q[1::3] *= 10
            q[2::3] = np.inf
            with np.errstate(invalid="ignore"):  # inf - inf
                return q, _decimal.remainder(d, q, k)  # each with its true remainder

        monkeypatch.setattr(_decimal, "corrected", wrong)
        want = np.array([float(t) for t in body.split()])
        assert np.array_equal(read_rows(body).T.ravel().view(np.int64), want.view(np.int64))

    def test_random_bit_patterns(self):
        # the finite values of TestExactSpelling.test_random_bit_patterns, two a row
        rng = np.random.default_rng(15)
        anywhere = rng.integers(0, 2**64, 500_000, dtype=np.uint64)
        exponent = rng.integers(1023 - 24, 1023 + 61, 500_000).astype(np.uint64)
        mantissa = rng.integers(0, 2**52, 500_000, dtype=np.uint64)
        near = (exponent << np.uint64(52)) | mantissa
        x = np.concatenate((anywhere, near)).view(np.float64)
        x = x[np.isfinite(x)]
        for rows in np.array_split(x[:len(x) // 2 * 2].reshape(-1, 2), 10):
            body = _decimal.rows_to_text(rows).decode("ascii")
            want = np.array([float(t) for t in body.split()])
            got = read_rows(body)
            assert np.array_equal(got.T.ravel().view(np.int64), want.view(np.int64))

    def test_non_ascii_comment(self, monkeypatch):
        # the top # lines may hold any character but a line break: the rows are still
        # read in blocks, not by the line reader
        profile = va.solve_discrete(4096)
        monkeypatch.setattr(va, "_parse_lines", reject_line_reader)
        got = va.parse_profile(va.profile_to_text(profile, comment="θ grid"))
        assert np.array_equal(got.thetas.view(np.int64), profile.thetas.view(np.int64))
        assert np.array_equal(got.values.view(np.int64), profile.values.view(np.int64))

    def test_rows_across_a_block_cut(self, monkeypatch):
        profile = va.solve_discrete(4096)
        text = va.profile_to_text(profile)
        mark = text.index("\n") + 1 + va._READ_BLOCK
        first = text.rindex("\n", 0, mark) + 1  # the row that holds the mark
        cut = text.index("\n", mark) + 1  # the first row of the next block
        assert first < mark < cut - 1
        with monkeypatch.context() as patch:
            patch.setattr(va, "_parse_lines", reject_line_reader)
            got = va.parse_profile(text)
        assert np.array_equal(got.values.view(np.int64), profile.values.view(np.int64))
        lineno = text.count("\n", 0, cut) + 1
        for start, line in ((first, lineno - 1), (cut, lineno)):
            for bad in ("x", ".", "1.2.3", "1e"):
                broken = text[:start] + bad + text[text.index(" ", start):]
                with pytest.raises(ValueError, match=f"^line {line}: could not convert string "
                                                     f"to float: '{re.escape(bad)}'$"):
                    va.parse_profile(broken)
        assert_parses_as_reference(text[:cut] + "1 2 3" + text[text.index("\n", cut):])

    def test_temporaries_are_bounded(self):
        text = va.profile_to_text(va.solve_discrete(2**15), comment="n=32768")
        va.parse_profile(text)  # builds the tables
        tracemalloc.start()
        try:
            va.parse_profile(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.28 MB measured, less than the 1.29 MB text: parse_profile reads the
        # text below its # lines in place, so the peak is the 0.5 MB result and
        # one block's temporaries.  Any whole-text temporary, such as a copy of
        # the text below each # line, would add 1.3 MB.
        assert peak - len(text) < 500_000

    def test_writer_temporaries_are_bounded(self):
        profile = va.solve_discrete(2**15)
        rows = np.column_stack((profile.thetas, profile.values))
        _decimal.rows_to_text(rows)  # builds the tables
        tracemalloc.start()
        try:
            text = _decimal.rows_to_text(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.49 MB measured, and 1.93 MB for a writer that gathers its bytes by
        # position (1.6 MB of positions a 4,096-row block).  The join holds the
        # blocks and its result at once: twice the text.
        assert peak - 2 * len(text) < 750_000


def test_import_leaves_scipy_unloaded():
    src = Path(va.__file__).resolve().parents[1]
    code = "import sys, flatdisk.variational; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
