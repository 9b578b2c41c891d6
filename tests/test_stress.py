"""Tests of the stress components, total-stress quadrature, and second variation."""

import math

import numpy as np
import pytest

from flatdisk import cli
from flatdisk import closedform as cf
from flatdisk import stress
from flatdisk import variational as va

POLE_SLOPE = 0.5 * (1 + math.log(2))


def random_perturbations(count, seed=42):
    """Smooth admissible perturbations: low-order sine combinations, delta(0)=0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(-1.0, 1.0, size=4)
        out.append(stress.RadialFunction(
            value=lambda t, c=c: sum(ck * np.sin((k + 1) * np.asarray(t, dtype=float))
                                     for k, ck in enumerate(c)),
            derivative=lambda t, c=c: sum(ck * (k + 1) * np.cos((k + 1) * np.asarray(t, dtype=float))
                                          for k, ck in enumerate(c)),
        ))
    return out


def perturbed(rf, delta, eps):
    return stress.RadialFunction(
        value=lambda t: np.asarray(rf.value(t)) + eps * np.asarray(delta.value(t)),
        derivative=lambda t: np.asarray(rf.derivative(t)) + eps * np.asarray(delta.derivative(t)),
    )


class TestRadialFunction:
    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            stress.RadialFunction(value=lambda t: np.asarray(t) + 0.1,
                                  derivative=lambda t: np.ones_like(np.asarray(t)))

    def test_rejects_inconsistent_derivative(self):
        with pytest.raises(ValueError):
            stress.RadialFunction(value=np.sin,
                                  derivative=lambda t: np.ones_like(np.asarray(t, dtype=float)))

    @pytest.mark.parametrize("scale", [1e6, 1e100])
    def test_accepts_large_sampled_line(self, scale):
        # the spot check's finite differences round to ~2e-11 * |f|
        thetas = np.linspace(0.0, math.pi / 2, 65)
        rf = stress.profile_radial(va.RadialProfile(thetas, scale * thetas))
        want = stress.total_stress(stress.identity_radial(scale), 1024).total
        assert stress.total_stress(rf, 1024).total == want


class TestSigma:
    def test_closed_form_at_equator(self):
        assert stress.sigma(stress.closed_form_radial(), math.pi / 2) == pytest.approx(0.0, abs=1e-13)

    def test_identity_everywhere_zero(self):
        rf = stress.identity_radial()
        assert np.allclose(stress.sigma(rf, np.linspace(0, math.pi / 2, 64)), 0.0)

    def test_closed_form_at_pole(self):
        assert stress.sigma(stress.closed_form_radial(), 0.0) == pytest.approx(
            POLE_SLOPE - 1.0, abs=1e-13)


class TestRho:
    def test_identity_at_quarter_pi(self):
        got = stress.rho(stress.identity_radial(), math.pi / 4)
        assert got == pytest.approx((math.pi / 4) / math.sin(math.pi / 4) - 1.0, abs=1e-13)

    def test_sine_everywhere_zero(self):
        rf = stress.sine_radial()
        t = np.linspace(0, math.pi / 2, 64)
        assert np.max(np.abs(stress.rho(rf, t))) < 1e-13

    def test_closed_form_pole_limit(self):
        got = stress.rho(stress.closed_form_radial(), 0.0)
        assert got == pytest.approx(POLE_SLOPE - 1.0, abs=1e-13)
        # equals sigma there
        assert got == pytest.approx(stress.sigma(stress.closed_form_radial(), 0.0))

    def test_pole_in_array_matches_scalar(self):
        rf = stress.closed_form_radial()
        t = np.array([0.0, 0.3, 0.0, 1.2])
        got = stress.rho(rf, t)
        assert got[0] == got[2] == stress.rho(rf, 0.0)
        assert np.array_equal(got[[1, 3]], cf.eval_f(t[[1, 3]]) / np.sin(t[[1, 3]]) - 1.0)


def reference_spline(x, y):
    """scipy's CubicSpline and its first two derivatives, the reference only."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(x, y)
    return spline, spline.derivative(1), spline.derivative(2)


def not_a_knot_spline(x, y):
    """Evaluators of profile_radial's not-a-knot cubic spline through (x, y) and of
    its f', f'', on any grid x."""
    return tuple(stress._piecewise_polynomial(x, c) for c in stress._spline_pieces(x, y))


def probe_points(x):
    """The knots, the midpoints, points beyond both ends, and NaN."""
    span = x[-1] - x[0]
    return np.concatenate([x, 0.5 * (x[:-1] + x[1:]),
                           [x[0] - 0.3 * span, x[0] - 1e-3, x[-1] + 1e-3, x[-1] + 0.3 * span,
                            np.nan]])


def assert_spline_close(got, want):
    # bit-equal on current scipy; 1e-14 relative leaves room for other releases
    for g, w in zip(got, want):
        scale = np.max(np.abs(w), where=np.isfinite(w), initial=0.0)
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-14 * scale, equal_nan=True)


class TestProfileSpline:
    """profile_radial's not-a-knot spline against scipy.interpolate.CubicSpline."""

    @pytest.mark.parametrize("n", [3, 4, 17, 2**15])
    def test_matches_cubic_spline_on_profile(self, n):
        thetas = np.linspace(0.0, math.pi / 2, n)
        profile = va.RadialProfile(thetas, cf.eval_f(thetas))
        rf = stress.profile_radial(profile)
        t = probe_points(thetas)
        got = [rf.value(t), rf.derivative(t), rf.second_derivative(t)]
        assert_spline_close(got, [ref(t) for ref in reference_spline(thetas, profile.values)])

    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_scalar_input(self, n):
        thetas = np.linspace(0.0, math.pi / 2, n)
        rf = stress.profile_radial(va.RadialProfile(thetas, cf.eval_f(thetas)))
        refs = reference_spline(thetas, rf.value(thetas))
        for t in (0.0, 0.7, math.pi / 2, -0.2, 2.0, math.nan):
            got = [rf.value(t), rf.derivative(t), rf.second_derivative(t)]
            assert all(np.ndim(g) == 0 for g in got)
            assert_spline_close(got, [ref(t) for ref in refs])

    def test_matches_cubic_spline_on_nonuniform_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.5
            y = rng.normal(size=n)
            t = np.concatenate([probe_points(x), rng.uniform(x[0] - 2, x[-1] + 2, 40)])
            got = [f(t) for f in not_a_knot_spline(x, y)]
            assert_spline_close(got, [ref(t) for ref in reference_spline(x, y)])

    def test_line_and_parabola_are_exact(self):
        x = np.array([0.0, 0.5, 1.5])
        value, derivative, second = not_a_knot_spline(x, 2 * x * x - x)
        t = np.array([-1.0, 0.25, 1.0, 3.0])
        assert np.allclose(value(t), 2 * t * t - t, rtol=0, atol=1e-14)
        assert np.allclose(derivative(t), 4 * t - 1, rtol=0, atol=1e-14)
        assert np.allclose(second(t), 4.0, rtol=0, atol=1e-14)
        value, derivative, second = not_a_knot_spline(x, 3 * x)
        assert np.array_equal(value(t), 3 * t)
        assert np.array_equal(derivative(t), np.full(4, 3.0))
        assert np.array_equal(second(t), np.zeros(4))

    def test_stress_profile_stdout_frozen(self, capsys, tmp_path):
        # the profile is the refined solve's; the digits are those the
        # scipy.interpolate.CubicSpline version of profile_radial prints for it
        path = tmp_path / "p.txt"
        assert cli.main(["solve", "--n", "4096", "--out", str(path)]) == 0
        capsys.readouterr()
        want = {"1024": ("  total            0.2456346715\n"
                         "  tangential_part  0.076339571171\n"
                         "  hoop_part        0.169295100329\n"),
                "4096": ("  total            0.245634671498\n"
                         "  tangential_part  0.0763395711705\n"
                         "  hoop_part        0.169295100327\n")}
        for grid, body in want.items():
            assert cli.main(["stress", "--profile", str(path), "--grid", grid]) == 0
            assert capsys.readouterr().out == f"{path}\n{body}"


def sequential_elimination(lower, diag, upper, rhs):
    """Gaussian elimination without pivoting, one row at a time: the reference
    for stress._tridiagonal, and LAPACK gtsv's loop wherever it interchanges no rows."""
    lower, upper, d, b = lower.tolist(), upper.tolist(), diag.tolist(), rhs.tolist()
    for i in range(1, len(d)):
        m = lower[i - 1] / d[i - 1]
        d[i] -= m * upper[i - 1]
        b[i] -= m * b[i - 1]
    x = [0.0] * len(d)
    x[-1] = b[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = (b[i] - upper[i] * x[i + 1]) / d[i]
    return np.array(x)


def profile_system(n):
    """The slope system of the spline through the closed form at n uniform knots."""
    x = np.linspace(0.0, math.pi / 2, n)
    dx = np.diff(x)
    return stress._slope_system(dx, np.diff(cf.eval_f(x)) / dx, x)


class TestTridiagonal:
    """stress._tridiagonal, the windowed elimination behind the spline's slopes."""

    @pytest.mark.parametrize("n", [3, 17, 64, 65, 1025, 2**15 + 1])
    def test_equals_the_sequential_loop(self, n):
        system = profile_system(n)
        assert np.array_equal(stress._tridiagonal(*system), sequential_elimination(*system))

    @pytest.mark.parametrize("warmup, repairs", [(1, True), (48, False)])
    def test_a_short_warmup_is_repaired(self, monkeypatch, warmup, repairs):
        # a row run on its own, by the repair loop, is a step on 1-element arrays
        sizes = []

        def eliminate(new, old, *c):
            sizes.append(new[0].size)
            step(new, old, *c)
        step = stress._eliminate
        monkeypatch.setattr(stress, "_eliminate", eliminate)
        monkeypatch.setattr(stress, "_WARMUP", warmup)
        system = profile_system(1025)
        got = stress._tridiagonal(*system)
        assert (1 in sizes) is repairs
        assert np.array_equal(got, sequential_elimination(*system))

    @pytest.mark.parametrize("n", [3, 4, 17, 1025, 2**15 + 1])
    def test_equals_lapack_on_profile_systems(self, n):
        from scipy.linalg import solve_banded

        lower, diag, upper, rhs = profile_system(n)
        banded = np.vstack((np.concatenate(([0.0], upper)), diag, np.concatenate((lower, [0.0]))))
        assert np.array_equal(stress._tridiagonal(lower, diag, upper, rhs),
                              solve_banded((1, 1), banded, rhs))


class TestTotalStress:
    def test_sine_profile_analytic_value(self):
        # rho = 0 and sigma = cos - 1; 2 pi * int (cos-1)^2 sin = 2 pi / 3
        report = stress.total_stress(stress.sine_radial(), 1024)
        assert report.total == pytest.approx(2 * math.pi / 3, abs=1e-9)
        assert report.hoop_part == pytest.approx(0.0, abs=1e-12)

    def test_zero_profile_analytic_value(self):
        # sigma = rho = -1: integrand is constant 2, total = 4 pi
        zero = stress.RadialFunction(
            value=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        report = stress.total_stress(zero, 1024)
        assert report.total == pytest.approx(4 * math.pi, abs=1e-9)

    def test_minimizer_beats_straight_line(self):
        s_min = stress.total_stress(stress.closed_form_radial(), 1024).total
        s_ggv = stress.total_stress(stress.identity_radial(), 1024).total
        assert 0 < s_min < s_ggv

    @pytest.mark.parametrize("c", [0.8, 0.9, 1.0, 1.1])
    def test_minimizer_beats_rescaled_lines(self, c):
        s_min = stress.total_stress(stress.closed_form_radial(), 1024).total
        assert s_min < stress.total_stress(stress.identity_radial(c), 1024).total

    def test_parts_sum_to_total(self):
        report = stress.total_stress(stress.closed_form_radial(), 512)
        assert report.total == pytest.approx(report.tangential_part + report.hoop_part,
                                             abs=1e-12)

    def test_grid_refinement_converges(self):
        rf = stress.closed_form_radial()
        for n in (512, 1024):
            a = stress.total_stress(rf, n).total
            b = stress.total_stress(rf, 2 * n).total
            assert abs(a - b) < 1e-8

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            stress.total_stress(stress.identity_radial(), 8)

    def test_nonfinite_sample_reports_theta(self):
        bad = stress.RadialFunction(
            value=lambda t: np.where(np.asarray(t) > 1.45, np.inf, np.asarray(t, dtype=float)),
            derivative=lambda t: np.ones_like(np.asarray(t, dtype=float)))
        with pytest.raises(stress.StressEvaluationError) as err:
            stress.total_stress(bad, 64)
        assert err.value.theta > 1.45

    def test_overflowing_integrand_is_evaluation_error(self):
        # f' = 1e200 squares to inf: one StressEvaluationError, no numpy warning
        with pytest.raises(stress.StressEvaluationError) as err:
            stress.total_stress(stress.identity_radial(1e200), 64)
        assert err.value.theta == 0.0


class TestSecondVariation:
    def test_zero_perturbation(self):
        zero = stress.RadialFunction(
            value=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        assert stress.second_variation(zero, 512) == 0.0

    def test_sine_perturbation_analytic_value(self):
        # 4 pi * int (cos^2 + 1) sin dtheta = 16 pi / 3
        got = stress.second_variation(stress.sine_radial(), 1024)
        assert got == pytest.approx(16 * math.pi / 3, abs=1e-8)

    def test_nonnegative_for_random_perturbations(self):
        for delta in random_perturbations(100):
            assert stress.second_variation(delta, 256) >= 0.0

    def test_rejects_pinned_origin_violation(self):
        # RadialFunction construction itself refuses value(0) != 0
        with pytest.raises(ValueError):
            stress.RadialFunction(value=np.cos,
                                  derivative=lambda t: -np.sin(np.asarray(t, dtype=float)))

    def test_second_variation_guards_origin_directly(self):
        class Duck:
            value = staticmethod(lambda t: np.cos(np.asarray(t, dtype=float)))
            derivative = staticmethod(lambda t: -np.sin(np.asarray(t, dtype=float)))

        with pytest.raises(ValueError, match="vanish"):
            stress.second_variation(Duck(), 256)

    def test_overflow_is_a_stress_evaluation_error(self):
        # the squared slope overflows; no RuntimeWarning may come first
        with pytest.raises(stress.StressEvaluationError):
            stress.second_variation(stress.identity_radial(1e200), 64)


class TestMinimizerVariationalProperties:
    """Finite-difference minimality of the closed form, no ODE involved."""

    def test_first_variation_vanishes(self):
        rf = stress.closed_form_radial()
        eps = 1e-3
        for delta in random_perturbations(100, seed=7):
            s_plus = stress.total_stress(perturbed(rf, delta, eps), 1024).total
            s_minus = stress.total_stress(perturbed(rf, delta, -eps), 1024).total
            assert abs(s_plus - s_minus) / (2 * eps) < 1e-6

    def test_convexity_along_random_directions(self):
        rf = stress.closed_form_radial()
        eps = 1e-3
        s0 = stress.total_stress(rf, 1024).total
        for delta in random_perturbations(100, seed=11):
            s_plus = stress.total_stress(perturbed(rf, delta, eps), 1024).total
            s_minus = stress.total_stress(perturbed(rf, delta, -eps), 1024).total
            assert s_plus + s_minus - 2 * s0 >= -1e-9

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_quadratic_identity_independent_of_eps(self, eps):
        rf = stress.closed_form_radial()
        s0 = stress.total_stress(rf, 1024).total
        for delta in random_perturbations(5, seed=3):
            s_plus = stress.total_stress(perturbed(rf, delta, eps), 1024).total
            s_minus = stress.total_stress(perturbed(rf, delta, -eps), 1024).total
            quad = (s_plus - 2 * s0 + s_minus) / eps**2
            sv = stress.second_variation(delta, 1024)
            assert quad == pytest.approx(sv, rel=1e-6, abs=1e-6)
