"""Tests for the closed-form solution chain.

Reference values were computed independently with 40-, 50- and 60-digit
mpmath and frozen here; none comes from the code under test.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flatdisk import closedform as cf
from flatdisk.projection import ProjectionMode, radius_from_colatitude

TWO_LN2 = 2 * math.log(2)
# mpmath, 40 digits
F_QUARTER_PI = 0.6693948816513365819727208843362434229369
G_QUARTER_PI = 0.4733336601072265328449263293238894538328
H_QUARTER_PI = 1.085267485459641239866389011446608696613
BETA_HALF = 0.5358983848622454129451073169882552661144
POLE_SLOPE = 0.5 * (1 + math.log(2))

# (theta, f, f', f'', g) at exactly these doubles: mpmath at 60 digits, from
# the full-angle form (derivatives checked against mpmath.diff), printed to
# 25.  The log grid spans [1e-9, pi/2] and brackets 1e-4 tightly, so a
# series branch switching there would show.
MPMATH_REF = [
    (1e-09, "8.465735902799727074426143e-10", "8.465735902799726547327595e-1", "4.828679513998633039861541e-11", "8.465735902799727600274692e-19"),
    (3.1622776601683795e-09, "2.677100752230896328121188e-9", "8.4657359027997265495005e-1", "1.526962535523058443504434e-10", "8.465735902799727551095569e-18"),
    (1e-08, "8.465735902799726732258834e-9", "8.465735902799726571229558e-1", "4.828679513998633205748461e-10", "8.46573590279972676828811e-17"),
    (3.162277660168379e-08, "2.677100752230896073208365e-8", "8.465735902799726788520136e-1", "1.526962535523059439854235e-9", "8.465735902799724462365685e-16"),
    (1e-07, "8.465735902799726968775545e-8", "8.465735902799728961425918e-1", "4.828679513998669445855651e-9", "8.465735902799712476125173e-15"),
    (3.162277660168379e-07, "2.677100752230898592696549e-7", "8.465735902799750690483731e-1", "1.526962535523175051594648e-8", "8.465735902799592745044487e-14"),
    (1e-06, "8.465735902799806641987526e-7", "8.465735902799967981061861e-1", "4.828679514002325410095272e-8", "8.465735902798395302913192e-13"),
    (3.162277660168379e-06, "2.67710075223115054151491e-6", "8.465735902802140886843169e-1", "1.526962535534736225636003e-7", "8.465735902786421012924685e-12"),
    (1e-05, "8.465735902807775038799393e-6", "8.465735902823869944657077e-1", "4.828679514367922447574752e-7", "8.46573590266668013294302e-11"),
    (3.1622776601683795e-05, "2.677100752256345710187169e-5", "8.465735903041160522878415e-1", "1.526962536690853793684372e-6", "8.465735901469249615093331e-10"),
    (9.99999999999e-05, "8.465735903596040790803836e-5", "8.465735905214066313312881e-1", "4.828679550922735901967097e-6", "8.465735889478015281447284e-9"),
    (0.0001, "8.465735903604506873625141e-5", "8.46573590521406631331771e-1", "4.828679550927564779465603e-6", "8.465735889494947447031835e-9"),
    (0.00010000000000010001, "8.465735903612972956446445e-5", "8.465735905214066313322539e-1", "4.828679550932393656964108e-6", "8.465735889511879612616403e-9"),
    (0.0002, "1.693147181203769331664231e-4", "8.465735912457085722799155e-1", "9.657359323428722818123312e-6", "3.386294339832243121372564e-8"),
    (0.00031622776601683794, "2.677100754775833837452029e-4", "8.465735926943125040302635e-1", "1.526962652302597281536321e-5", "8.465735769751928447283027e-8"),
    (0.001, "8.465735983277737087760129e-4", "8.465736144233794569363642e-1", "4.828683206892797242147547e-5", "8.465734572321810598830572e-7"),
    (0.0031622776601683794, "2.677101006725236038793465e-3", "8.465738317148715795882198e-1", "1.526974213508039254308519e-4", "8.46572259802736780643258e-6"),
    (0.01, "8.465743950783563744089236e-3", "8.465760047120536384539947e-1", "4.82904881324668705796856e-4", "8.465602855756527843769916e-5"),
    (0.03162277660168379, "2.677126207446212630224815e-2", "8.465977429114309351301635e-1", "1.528130644978035033147587e-3", "8.464405500405369927657162e-4"),
    (0.1, "8.466542531532408541408978e-2", "8.468159491364604879672798e-1", "4.865707942941202971576726e-3", "8.45243868108566168258555e-3"),
    (0.31622776601683794, "2.679704835682680867873631e-1", "8.490819314998517339098197e-1", "1.646943388514573536446691e-2", "8.333442377313598666384835e-2"),
    (1.0, "8.567337281308635861621102e-1", "8.818762990177819871010789e-1", "9.740166798840248688150209e-2", "7.20916573928418448705899e-1"),
    (1.5, "1.316409898047970482904587", "9.749943818031923179421728e-1", "3.22291976992353851062165e-1", "1.313112273618804976024743"),
    (1.5707963257948965, "1.386294360119890475054901", "9.999999996137055837642631e-1", "3.862943601198904763274896e-1", "1.386294360119890474361753"),
    (1.5707963267948966, "1.386294361119890557602124", "9.999999999999999763462924e-1", "3.862943611198905576021243e-1", "1.386294361119890557602124"),
]


class TestColatitude:
    def test_clamps_float_noise(self):
        assert cf.clamp_colatitude(-1e-13) == 0.0
        assert cf.clamp_colatitude(math.pi / 2 + 1e-13) == math.pi / 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cf.clamp_colatitude(-1e-6)
        with pytest.raises(ValueError):
            cf.clamp_colatitude(math.pi / 2 + 1e-6)

    @pytest.mark.parametrize("theta", [1.6, np.array([0.5, 1.6, -1.0])])
    def test_error_spells_a_plain_float(self, theta):
        # numpy 2 spells a float64 element as np.float64(1.6)
        with pytest.raises(ValueError, match=r"^colatitude out of range \[0, pi/2\]: 1\.6$"):
            cf.clamp_colatitude(theta)


class TestEvalF:
    def test_equator_is_two_ln2(self):
        assert cf.eval_f(math.pi / 2) == pytest.approx(TWO_LN2, abs=1e-14)

    def test_pole_is_zero(self):
        assert cf.eval_f(0.0) == 0.0

    def test_quarter_pi(self):
        assert cf.eval_f(math.pi / 4) == pytest.approx(F_QUARTER_PI, abs=1e-14)

    def test_tiny_angle_slope(self):
        assert cf.eval_f(1e-9) / 1e-9 == pytest.approx(POLE_SLOPE, rel=1e-12)

    def test_small_angle_branch_matches_reference(self):
        # mpmath 30-digit reference on both sides of 1e-4, where a Taylor
        # branch once met the cancellation-prone full-angle formula
        taylor_side = {
            0.5e-4: 4.23286795150046076347588967229e-5,
            0.9e-4: 7.61916231310643845441889015335e-5,
        }
        for t, want in taylor_side.items():
            assert cf.eval_f(t) == pytest.approx(want, rel=1e-14)
        direct_side = {
            1.1e-4: 9.31230949415086127695754561917e-5,
            2.0e-4: 1.69314718120376925052569560032e-4,
        }
        for t, want in direct_side.items():
            assert cf.eval_f(t) == pytest.approx(want, rel=1e-14)

    def test_strictly_increasing(self):
        f = cf.eval_f(np.linspace(0, math.pi / 2, 10_000))
        assert np.all(np.diff(f) > 0)

    def test_finite_and_nonnegative(self):
        f = cf.eval_f(np.linspace(0, math.pi / 2, 1000))
        assert np.all(np.isfinite(f)) and np.all(f >= 0)


class TestMpmathReference:
    # bounds: the smallest power of ten at least twice the error measured,
    # 2.2e-16 (2 ulp) for f, f' and g and 1.1e-15 (8 ulp) for f''
    @pytest.mark.parametrize("column, fn, bound", [
        (1, cf.eval_f, 1e-15), (2, cf.eval_f_prime, 1e-15), (3, cf.eval_f_second, 1e-14),
        (4, cf.eval_g, 1e-15),
    ], ids=["f", "f_prime", "f_second", "g"])
    def test_relative_error(self, column, fn, bound):
        theta = np.array([row[0] for row in MPMATH_REF])
        want = np.array([float(row[column]) for row in MPMATH_REF])
        assert np.max(np.abs(fn(theta) / want - 1.0)) <= bound
        for t, w in zip(theta.tolist(), want.tolist()):
            assert fn(t) == pytest.approx(w, rel=bound, abs=0)

    def test_exact_pole_values(self):
        for t in (0.0, np.array([0.0, 1e-3])):
            assert np.asarray(cf.eval_f(t)).flat[0] == 0.0
            assert np.asarray(cf.eval_f_prime(t)).flat[0] == cf.POLE_SLOPE
            assert np.asarray(cf.eval_f_second(t)).flat[0] == 0.0
            assert np.asarray(cf.eval_g(t)).flat[0] == 0.0

    def test_below_squared_underflow(self):
        # sin^2(theta/2) underflows to 0 here, yet f = f'(0) theta holds
        for t in (1e-170, 1e-200):
            assert cf.eval_f(t) == pytest.approx(POLE_SLOPE * t, rel=1e-15)
            assert cf.eval_f_prime(t) == cf.POLE_SLOPE

    def test_scalar_in_float_out(self):
        for fn in (cf.clamp_colatitude, cf.eval_f, cf.eval_f_prime, cf.eval_f_second,
                   cf.eval_g, cf.eval_h, cf.eval_gamma, cf.eval_beta_regular,
                   cf.eval_beta_singular, cf.eval_f_mathematica_form):
            assert type(fn(0.5)) is float
            assert type(fn(np.float64(0.5))) is float
            assert type(fn(np.array(0.5))) is float
            got = fn([0.5, 0.25])
            assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert type(cf.eval_beta_series(0.5, 3)) is float


# theta, f, f' and f / (2 ln 2) at 2,006 seeded doubles theta, by mpmath to 30
# digits (tests/data/regenerate_closed_form_table.py)
CLOSED_FORM_TABLE = Path(__file__).parent / "data" / "closed_form_mpmath.txt"


def ulp_errors(got, want):
    """|got - want| in ulps of want, decimal strings, each by exact rational arithmetic."""
    return [float(abs(Fraction(g) - Fraction(w)) / Fraction(math.ulp(float(w))))
            for g, w in zip(got.tolist(), want)]


class TestUlpBudget:
    # bounds: the smallest power of ten at least twice the largest error on the
    # table, 2.17 ulp for f, 2.34 for f' and 2.73 for the radius
    @pytest.mark.parametrize("column, fn", [
        (1, cf.eval_f), (2, cf.eval_f_prime),
        (3, lambda t: radius_from_colatitude(t, ProjectionMode.STRESS_MINIMAL)),
    ], ids=["f", "f_prime", "radius"])
    def test_within_ten_ulp_of_the_mpmath_table(self, column, fn):
        rows = [line.split() for line in CLOSED_FORM_TABLE.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) >= 2000
        theta = np.array([float(row[0]) for row in rows])
        assert max(ulp_errors(fn(theta), [row[column] for row in rows])) <= 10


class TestDerivatives:
    def test_prime_at_equator(self):
        assert cf.eval_f_prime(math.pi / 2) == pytest.approx(1.0, abs=1e-13)

    def test_prime_at_pole(self):
        assert cf.eval_f_prime(0.0) == pytest.approx(POLE_SLOPE, abs=1e-14)

    def test_prime_matches_finite_difference(self):
        t = np.linspace(0.01, math.pi / 2 - 0.01, 200)
        step = 1e-6
        fd = (cf.eval_f(t + step) - cf.eval_f(t - step)) / (2 * step)
        assert np.max(np.abs(fd - cf.eval_f_prime(t))) < 1e-8

    def test_second_matches_finite_difference(self):
        # step balances truncation against rounding amplified by 1/step^2
        t = np.linspace(0.05, math.pi / 2 - 0.01, 200)
        step = 3e-4
        fd = (cf.eval_f(t + step) - 2 * cf.eval_f(t) + cf.eval_f(t - step)) / step**2
        assert np.max(np.abs(fd - cf.eval_f_second(t))) < 1e-5

    def test_endpoint_slopes_by_finite_difference(self):
        step = 1e-6
        near_pole = (cf.eval_f(2 * step) - cf.eval_f(0.0)) / (2 * step)
        assert near_pole == pytest.approx(POLE_SLOPE, abs=1e-6)
        equator = (cf.eval_f(math.pi / 2) - cf.eval_f(math.pi / 2 - 2 * step)) / (2 * step)
        assert equator == pytest.approx(1.0, abs=1e-6)


    def test_fused_f_and_prime_bit_identical(self):
        t = np.concatenate([[0.0, 1e-300, 1e-9, math.pi / 2],
                            np.random.default_rng(4).uniform(0.0, math.pi / 2, 4096)])
        f, fp = cf._f_and_prime(t)
        assert np.array_equal(f.view(np.int64), cf.eval_f(t).view(np.int64))
        assert np.array_equal(fp.view(np.int64), cf.eval_f_prime(t).view(np.int64))


class TestMathematicaForm:
    def test_equator(self):
        assert cf.eval_f_mathematica_form(math.pi / 2) == pytest.approx(TWO_LN2, abs=1e-13)

    def test_agrees_with_main_form(self):
        t = np.geomspace(1e-9, math.pi / 2, 1000)
        rel = np.abs(cf.eval_f_mathematica_form(t) / cf.eval_f(t) - 1.0)
        assert np.max(rel) < 1e-14

    def test_singular_at_zero(self):
        with pytest.raises(ValueError):
            cf.eval_f_mathematica_form(0.0)


class TestSubstitutionChain:
    def test_g_boundary_values(self):
        assert cf.eval_g(0.0) == 0.0
        assert cf.eval_g(math.pi / 2) == pytest.approx(TWO_LN2, abs=1e-14)
        assert cf.eval_g(math.pi / 4) == pytest.approx(G_QUARTER_PI, abs=1e-14)

    def test_g_increasing(self):
        g = cf.eval_g(np.linspace(0, math.pi / 2, 2000))
        assert np.all(np.diff(g) > 0)

    def test_h_values(self):
        assert cf.eval_h(0.0) == 0.0
        assert cf.eval_h(math.pi / 2) == pytest.approx(1.0, abs=1e-14)
        assert cf.eval_h(math.pi / 4) == pytest.approx(H_QUARTER_PI, abs=1e-14)

    def test_h_is_derivative_of_g(self):
        t = np.linspace(0.01, math.pi / 2 - 0.01, 500)
        step = 1e-5
        fd = (cf.eval_g(t + step) - cf.eval_g(t - step)) / (2 * step)
        assert np.max(np.abs(fd - cf.eval_h(t))) < 1e-8

    def test_gamma_values(self):
        assert cf.eval_gamma(math.pi / 2) == pytest.approx(1.0)
        assert cf.eval_gamma(math.pi / 6) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            cf.eval_gamma(0.0)

    def test_f_equals_gamma_times_g(self):
        t = np.linspace(1e-3, math.pi / 2, 2000)
        gap = np.abs(cf.eval_f(t) - cf.eval_gamma(t) * cf.eval_g(t))
        assert np.max(gap) < 1e-13


class TestBetaSolutions:
    def test_regular_values(self):
        assert cf.eval_beta_regular(0.0) == 0.0
        assert cf.eval_beta_regular(1.0) == pytest.approx(2.0)
        assert cf.eval_beta_regular(0.5) == pytest.approx(BETA_HALF, abs=1e-14)

    def test_regular_is_odd(self):
        x = np.linspace(0, 1, 50)
        assert np.allclose(cf.eval_beta_regular(-x), -cf.eval_beta_regular(x))

    def test_regular_domain(self):
        with pytest.raises(ValueError):
            cf.eval_beta_regular(1.0 + 1e-9)

    def test_singular_values(self):
        assert cf.eval_beta_singular(1.0) == 1.0
        assert cf.eval_beta_singular(0.5) == 2.0
        with pytest.raises(ValueError):
            cf.eval_beta_singular(0.0)

    @pytest.mark.parametrize("beta", [cf.eval_beta_regular, cf.eval_beta_singular])
    def test_both_satisfy_homogeneous_ode(self, beta):
        # x^2 (1-x^2) b'' + x (1-2x^2) b' - b = 0.  Five-point stencils with a
        # scale-relative step keep the 1/x candidate accurate near x = 0.05.
        x = np.linspace(0.05, 0.95, 200)
        h = 1e-3 * x
        b = beta(x)
        bm2, bm1, bp1, bp2 = (beta(x + k * h) for k in (-2, -1, 1, 2))
        b1 = (bm2 - 8 * bm1 + 8 * bp1 - bp2) / (12 * h)
        b2 = (-bm2 + 16 * bm1 - 30 * b + 16 * bp1 - bp2) / (12 * h * h)
        resid = x**2 * (1 - x**2) * b2 + x * (1 - 2 * x**2) * b1 - b
        assert np.max(np.abs(resid)) < 1e-6


class TestSeries:
    def test_first_coefficients(self):
        sc = cf.series_coefficients(5)
        assert sc.coefficient(1) == Fraction(1)
        assert sc.coefficient(3) == Fraction(1, 4)
        assert sc.coefficient(5) == Fraction(1, 8)
        assert sc.coefficient(2) == Fraction(0)

    def test_recurrence_exact_in_rationals(self):
        sc = cf.series_coefficients(201)
        for j in range(3, 202, 2):
            assert (j + 1) * sc.coefficient(j) == (j - 2) * sc.coefficient(j - 2)

    @pytest.mark.parametrize("j", [0, -1, 6])
    def test_coefficient_outside_stored_range(self, j):
        with pytest.raises(IndexError, match=f"^index {j} outside stored range 1..5$"):
            cf.series_coefficients(5).coefficient(j)

    def test_rejects_even_or_nonpositive(self):
        for bad in (0, -3, 4):
            with pytest.raises(ValueError):
                cf.series_coefficients(bad)

    def test_partial_sum_at_zero(self):
        assert cf.eval_beta_series(0.0, 7) == 0.0

    def test_convergence_moderate(self):
        # terms through j = 9
        got = cf.eval_beta_series(0.5, 5)
        assert got == pytest.approx(cf.eval_beta_regular(0.5), abs=1e-4)

    def test_convergence_near_edge(self):
        # terms through j = 201
        got = cf.eval_beta_series(0.9, 101)
        assert got == pytest.approx(cf.eval_beta_regular(0.9), abs=1e-6)

    def test_series_domain(self):
        with pytest.raises(ValueError):
            cf.eval_beta_series(1.0, 5)
        with pytest.raises(ValueError):
            cf.eval_beta_series(0.5, 0)
