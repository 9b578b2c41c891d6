"""Tests of the ODE residual evaluator and the independent discrete solver."""

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flatdisk import closedform as cf
from flatdisk import stress, variational as va


class TestOdeResidual:
    def test_closed_form_annihilates_residual(self):
        rf = stress.closed_form_radial()
        assert abs(va.ode_residual(rf, math.pi / 4)) < 1e-10

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
        assert report.max_abs < 1e-9
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
    """Pure-Python assembly and Thomas elimination: the oracle for solve_discrete.

    Adds each interval's 2x2 quadratic form in (f_{i-1}, f_i) into a
    tridiagonal system with f_0 = 0 eliminated, then eliminates without
    pivoting.  The system is ill-conditioned at large n, so the grid and
    its sines come from the same numpy calls as in solve_discrete: the two
    then solve bit-identical systems.  Returns the node values f_0..f_n.
    """
    h = (math.pi / 2) / n
    thetas = np.linspace(0.0, math.pi / 2, n + 1)
    sines = np.sin(thetas[:-1] + 0.5 * h).tolist()
    diag, off, rhs = [0.0] * n, [0.0] * (n - 1), [0.0] * n
    for i, sm in enumerate(sines, start=1):
        w = h * sm
        a = 2.0 * w / h**2 + w / (2.0 * sm * sm)
        b = -2.0 * w / h**2 + w / (2.0 * sm * sm)
        if i > 1:  # unknown f_{i-1} is row i-2
            diag[i - 2] += a
            off[i - 2] += b
            rhs[i - 2] += -2.0 * w / h + w / sm
        diag[i - 1] += a
        rhs[i - 1] += 2.0 * w / h + w / sm
    for i in range(1, n):
        m = off[i - 1] / diag[i - 1]
        diag[i] -= m * off[i - 1]
        rhs[i] -= m * rhs[i - 1]
    x = [0.0] * n
    x[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - off[i] * x[i + 1]) / diag[i]
    return np.array([0.0] + x)


class TestSolveDiscrete:
    @pytest.mark.parametrize("n", [16, 1024, 2**15])
    def test_matches_thomas_reference(self, n):
        want = reference_solve(n)
        got = va.solve_discrete(n).values
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0)

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

    def test_discrete_optimality_beats_sampled_closed_form(self):
        profile = va.solve_discrete(256)
        candidate = va.RadialProfile(thetas=profile.thetas,
                                     values=cf.eval_f(profile.thetas))
        assert va.discrete_objective(profile) <= va.discrete_objective(candidate)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            va.solve_discrete(8)


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

    @pytest.mark.parametrize("n", [16, 4096])
    def test_text_matches_per_row_formatting(self, n):
        # the one-call "%" formatting must give the bytes of a per-row f-string
        profile = va.solve_discrete(n)
        want = "# flat-disk radial profile: theta f(theta)\n# run 7\n" + "".join(
            f"{t:.17g} {v:.17g}\n" for t, v in zip(profile.thetas, profile.values))
        assert va.profile_to_text(profile, comment="run 7") == want

    def test_parse_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            va.parse_profile("# header\n0 0\n0.1 0.2 0.3\n")

    @pytest.mark.parametrize("n", [16, 4096, 2**15])
    def test_parse_matches_per_line_reference(self, n):
        profile = va.solve_discrete(n)
        text = va.profile_to_text(profile, comment=f"n={n}")
        assert va._split_columns(text) is not None  # the one-split path is taken
        got = va.parse_profile(text)
        thetas, values = reference_parse(text)
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
            try:
                thetas, values = reference_parse(text)
                if len(thetas) < 3:
                    raise ValueError("profile needs at least 3 samples")
                want = va.RadialProfile(thetas, values)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    va.parse_profile(text)
                continue
            got = va.parse_profile(text)
            assert got.thetas.tolist() == want.thetas.tolist(), repr(text)
            assert got.values.tolist() == want.values.tolist(), repr(text)

    def test_profile_requires_zero_origin(self):
        with pytest.raises(ValueError):
            va.RadialProfile(thetas=np.array([0.0, 0.5, 1.0]),
                             values=np.array([0.1, 0.5, 1.0]))

    def test_sampled_profile_bridges_into_stress(self):
        # oracle output must be scoreable by the same functional
        profile = va.solve_discrete(512)
        rf = stress.profile_radial(profile)
        s_sampled = stress.total_stress(rf, 1024).total
        s_closed = stress.total_stress(stress.closed_form_radial(), 1024).total
        assert s_sampled == pytest.approx(s_closed, abs=1e-5)


def test_import_leaves_scipy_unloaded():
    src = Path(va.__file__).resolve().parents[1]
    code = "import sys, flatdisk.variational; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
