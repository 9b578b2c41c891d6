"""Tests of the forward/inverse disk projection and local scale factors."""

import math
from pathlib import Path

import numpy as np
import pytest

from flatdisk import closedform as cf
from flatdisk import projection as pj
from flatdisk import stress
from flatdisk.projection import ProjectionMode

GGV = ProjectionMode.GGV

# r and theta with f(theta) = 2 ln 2 * r, by mpmath to 30 digits
# (tests/data/regenerate_inverse_radius_table.py)
INVERSE_RADIUS_TABLE = Path(__file__).parent / "data" / "inverse_radius_mpmath.txt"

# mpmath: f(pi/4) / (2 ln 2)
R_LAT45_SM = 0.4828663380774189255223317641965867382511


class TestGeoCoord:
    """The rules of a geographic coordinate, as forward_arrays checks them."""

    def test_normalizes_longitude(self):
        assert pj.forward_arrays(10.0, 200.0, GGV)[1] == pytest.approx(math.radians(-160.0))
        assert pj.forward_arrays(10.0, -180.0, GGV)[1] == pytest.approx(math.radians(180.0))

    def test_rejects_bad_latitude(self):
        for mode in ProjectionMode:
            with pytest.raises(ValueError):
                pj.forward_arrays(91.0, 0.0, mode)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    @pytest.mark.parametrize("lat, text", [
        (91.0, "91.0"), (-90.5, "-90.5"), (math.nan, "nan"),
        (np.array([10.0, -90.0, 90.0, -90.5, 91.0]), "-90.5"),
        (np.array([0.0, math.nan, 91.0]), "nan"),
    ])
    def test_latitude_check(self, mode, lat, text):
        # GGV gave r < 0 for lat 91, and NaN went through in both modes
        with pytest.raises(ValueError, match=f"^latitude out of range: {text}$"):
            pj.forward_arrays(lat, np.zeros_like(lat), mode)


class TestNormalizeLon:
    @pytest.mark.parametrize("lon, want", [
        (180.0, 180.0), (-180.0, 180.0), (360.0, 0.0), (-360.0, -0.0), (540.0, 180.0),
        (-540.0, 180.0), (-0.0, -0.0), (0.0, 0.0), (181.0, -179.0), (-181.0, 179.0),
        (719.9999999999999, -1.1368683772161603e-13),
    ])
    def test_scalar(self, lon, want):
        got = pj.normalize_lon(lon)
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_nan_passes_through(self):
        assert math.isnan(pj.normalize_lon(float("nan")))
        assert np.isnan(pj.normalize_lon(np.array([1.0, np.nan])))[1]

    @pytest.mark.parametrize("lon", [math.inf, -math.inf])
    def test_infinity_raises_like_geocoord(self, lon):
        for arg in (lon, np.array([0.0, lon])):
            with pytest.raises(ValueError, match="math domain error"):
                pj.normalize_lon(arg)
        for mode in ProjectionMode:
            with pytest.raises(ValueError, match="math domain error"):
                pj.forward_arrays(0.0, lon, mode)

    def test_array_matches_scalar_rule(self):
        rng = np.random.default_rng(3)
        lon = np.concatenate([rng.uniform(-1e3, 1e3, 2000), np.arange(-720.0, 721.0, 90.0)])
        got = pj.normalize_lon(lon)
        want = [pj.normalize_lon(x) for x in lon.tolist()]
        assert got.tolist() == want
        assert np.all((got > -180.0) & (got <= 180.0))
        # one point at a time, forward_arrays reduces each longitude by the same rule
        assert [pj.forward_arrays(0.0, x, GGV)[1] for x in lon.tolist()] == \
            np.radians(want).tolist()


class TestDiskPoint:
    """The rules of a point on the disk, as inverse_arrays checks them."""

    def test_clamps_radius_noise(self):
        for mode in ProjectionMode:
            assert pj.inverse_radius(1.0 + 1e-13, mode) == math.pi / 2
            assert pj.inverse_arrays(1.0 + 1e-13, 0.0, True, mode) == \
                pj.inverse_arrays(1.0, 0.0, True, mode)

    def test_rejects_radius_out_of_range(self):
        with pytest.raises(ValueError):
            pj.inverse_arrays(1.01, 0.0, True, GGV)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="disk radius out of range"):
            pj.inverse_arrays(math.nan, 0.0, True, GGV)

    @pytest.mark.parametrize("phi, want", [
        (-math.pi, math.pi), (math.pi, math.pi), (3 * math.pi, math.pi), (-0.0, -0.0),
        (2 * math.pi + 0.5, 0.5),
    ])
    def test_wraps_phi_into_half_open_turn(self, phi, want):
        # phi is reduced in degrees, as a longitude, so phi outside the turn
        # carries the rounding of its own degree value
        _, got = pj.inverse_arrays(0.5, phi, True, GGV)
        assert got == pj.normalize_lon(math.degrees(phi)) and -180.0 < got <= 180.0
        assert got == pytest.approx(math.degrees(want), abs=1e-13)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf])
    def test_infinite_phi_raises(self, phi):
        with pytest.raises(ValueError, match="math domain error"):
            pj.inverse_arrays(0.5, phi, True, GGV)


class TestForward:
    def test_pole_is_center(self):
        assert pj.forward_arrays(90.0, 123.0, GGV) == (0.0, 0.0, True)

    def test_ggv_midlatitude(self):
        r, phi, north = pj.forward_arrays(45.0, 30.0, GGV)
        assert r == pytest.approx(0.5, abs=1e-14)
        assert phi == pytest.approx(math.pi / 6, abs=1e-14)
        assert north is True

    def test_stress_minimal_midlatitude(self):
        r, phi, _ = pj.forward_arrays(45.0, 30.0, ProjectionMode.STRESS_MINIMAL)
        assert r == pytest.approx(R_LAT45_SM, abs=1e-13)
        assert phi == pytest.approx(math.pi / 6)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_scalars_in_scalars_out(self, mode):
        # a scalar gives Python scalars, as every closedform evaluator does
        assert [type(x) for x in pj.forward_arrays(45.0, 30.0, mode)] == [float, float, bool]
        assert [type(x) for x in pj.inverse_arrays(0.5, 0.5, False, mode)] == [float, float]
        r, phi, north = pj.forward_arrays(np.array([45.0]), np.array([30.0]), mode)
        assert r.shape == phi.shape == north.shape == (1,)
        lat, lon = pj.inverse_arrays(r, phi, north, mode)
        assert lat.shape == lon.shape == (1,)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    @pytest.mark.parametrize("lon", [-180.0, -90.0, 0.0, 90.0, 180.0])
    def test_equator_maps_to_rim(self, mode, lon):
        assert pj.forward_arrays(0.0, lon, mode)[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mode, lowest", [(GGV, 1.0),
                                              (ProjectionMode.STRESS_MINIMAL, 1.0 - 2**-53)])
    def test_equator_radius_is_one_or_one_ulp_below(self, mode, lowest):
        # eval_f(pi/2) rounds 1 ulp below TWO_LN2, so stress-minimal may land inside the rim
        lon = np.array([-180.0, -90.0, 0.0, 90.0, 180.0])
        r, _, _ = pj.forward_arrays(np.zeros_like(lon), lon, mode)
        scalar = pj.forward_arrays(0.0, 10.0, mode)[0]
        assert np.all((lowest <= r) & (r <= 1.0)) and lowest <= scalar <= 1.0
        assert lowest <= pj.radius_from_colatitude(cf.HALF_PI, mode) <= 1.0

    def test_equator_owned_by_north(self):
        assert pj.forward_arrays(0.0, 10.0, GGV)[2] is True

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_phi_is_reduced_longitude_in_radians(self, mode):
        # reduced in degrees, exactly, then converted: no bits lost to a shift by pi
        rng = np.random.default_rng(9)
        lon = np.concatenate([rng.uniform(-1e3, 1e3, 4000), [1e-8, -1e-12, 359.9999999],
                              [180.0, -180.0, 540.0, -540.0, -0.0, -360.0]])
        _, phi, _ = pj.forward_arrays(np.full_like(lon, 10.0), lon, mode)
        want = np.radians(pj.normalize_lon(lon))
        assert phi.tolist() == want.tolist()
        assert not np.signbit(phi[-2:]).any()  # lon -0.0 and -360 give +0.0


class TestInverse:
    def test_center_is_pole(self):
        lat, _ = pj.inverse_arrays(0.0, 0.0, True, GGV)
        assert lat == pytest.approx(90.0)

    def test_rim_is_equator(self):
        lat, lon = pj.inverse_arrays(1.0, math.pi / 6, False, GGV)
        assert lat == pytest.approx(0.0, abs=1e-12)
        assert lon == pytest.approx(30.0, abs=1e-10)

    def test_stress_minimal_bisection(self):
        lat, lon = pj.inverse_arrays(R_LAT45_SM, math.pi / 6, True,
                                     ProjectionMode.STRESS_MINIMAL)
        assert lat == pytest.approx(45.0, abs=1e-8)
        assert lon == pytest.approx(30.0, abs=1e-8)

    def test_rejects_radius_out_of_range(self):
        with pytest.raises(ValueError):
            pj.inverse_radius(1.5, GGV)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    @pytest.mark.parametrize("r", [1.5, -1e-9, math.nan, np.array([0.5, math.nan])])
    def test_radius_rule_matches_disk_point(self, mode, r):
        # the same rule and message as inverse_arrays, NaN included
        with pytest.raises(ValueError, match="disk radius out of range"):
            pj.inverse_radius(r, mode)
        with pytest.raises(ValueError, match="disk radius out of range"):
            pj.inverse_arrays(r, 0.0, True, mode)


# (r, theta): r is a double, theta the colatitude with f(theta) = 2 ln 2 * r
# exactly, solved by mpmath at 80 digits and printed to 40
INVERSE_RADIUS_REF = [
    (6.106737602222409e-10, "1.000000000000000097400688622686109241322e-9"),
    (6.106737602222467e-07, "1.000000000000000001063701662557932921363e-6"),
    (6.106737602802934e-05, "9.999999999999999462372435405631802489047e-5"),
    (6.107348276563331e-05, "1.00010000000000005706961309547368891522e-4"),
    (0.00012213475209089025, "1.999999999999999999573050488381592494156e-4"),
    (0.0006106737660275022, "1.000000000000000084317643543498267032407e-3"),
    (0.30610553102069415, "5.000000000000000002776308561856908605668e-1"),
    (0.6180027504683552, "1.000000000000000042669753192060623723574"),
    (0.9999999992786524, "1.570796325794896441820021184345523323112"),
]


class TestInverseRadius:
    def test_stress_minimal_matches_mpmath(self):
        r = np.array([r for r, _ in INVERSE_RADIUS_REF])
        want = np.array([float(t) for _, t in INVERSE_RADIUS_REF])
        got = pj.inverse_radius(r, ProjectionMode.STRESS_MINIMAL)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-15

    def test_exact_endpoints(self):
        for mode in ProjectionMode:
            assert pj.inverse_radius(0.0, mode) == 0.0
            assert pj.inverse_radius(1.0, mode) == math.pi / 2
            # a scalar gives a float in both modes, as every closedform evaluator does
            assert type(pj.inverse_radius(0.5, mode)) is float
            assert type(pj.radius_from_colatitude(0.5, mode)) is float
            assert pj.inverse_radius(0.5, mode=mode) == pj.inverse_radius(0.5, mode)
            got = pj.inverse_radius(np.array([0.0, 1.0]), mode)
            assert got.tolist() == [0.0, math.pi / 2]
            assert pj.inverse_radius(np.array([]), mode).shape == (0,)


    @pytest.mark.parametrize("shape", [(), (32768,)])
    def test_fixed_point_of_the_public_newton_step(self, shape):
        # a Newton step in theta through eval_f and eval_f_prime, the public
        # evaluators, moves the result by at most their own rounding
        rng = np.random.default_rng(9)
        for r in (rng.uniform(0.0, 1.0, shape), 10.0 ** rng.uniform(-300.0, 0.0, shape)):
            theta = pj.inverse_radius(r, ProjectionMode.STRESS_MINIMAL)
            step = (cf.eval_f(theta) - r * cf.TWO_LN2) / cf.eval_f_prime(theta)
            assert np.all(np.abs(step) <= 5.0 * np.spacing(theta))

    def test_two_evaluations_of_f(self, monkeypatch):
        # the start is within 1e-7 of the root, so the second step is below the tolerance
        cf._inverse_start()  # built once, by its own Newton runs from GGV's start
        calls = []
        f = cf._f
        monkeypatch.setattr(cf, "_f", lambda *args: calls.append(1) or f(*args))
        r = np.random.default_rng(10).uniform(0.0, 1.0, 32768)
        pj.inverse_radius(r, ProjectionMode.STRESS_MINIMAL)
        assert len(calls) == 2

    def test_within_two_ulp_of_the_mpmath_table(self):
        # the theta-space Newton from GGV's start that this loop replaced reads
        # 2 ulp at most and 2.7 % of the rows above 1 ulp on this table
        rows = [line.split() for line in INVERSE_RADIUS_TABLE.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) >= 1000
        r = np.array([float(a) for a, _ in rows])
        want = np.array([float(t) for _, t in rows])  # the double nearest theta
        got = pj.inverse_radius(r, ProjectionMode.STRESS_MINIMAL)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 2
        assert np.mean(ulps > 1) <= 0.027


class TestRoundTrip:
    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_bulk_round_trip(self, mode):
        rng = np.random.default_rng(2024)
        lat = rng.uniform(-90.0, 90.0, 100_000)
        lon = rng.uniform(-180.0, 180.0, 100_000)
        r, phi, north = pj.forward_arrays(lat, lon, mode)
        lat_back, lon_back = pj.inverse_arrays(r, phi, north, mode)
        theta = pj.inverse_radius(r, mode)
        assert lat_back.tolist() == np.where(north, 90.0 - np.degrees(theta),
                                             np.degrees(theta) - 90.0).tolist()
        dlon = np.abs((lon_back - lon + 180.0) % 360.0 - 180.0)
        assert np.max(np.abs(lat_back - lat)) < 1e-8
        assert np.max(dlon) < 1e-8


class TestProperties:
    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_longitude_equivariance(self, mode):
        delta = 37.0
        for lat, lon in [(20.0, 10.0), (65.0, -120.0), (-45.0, 170.0)]:
            a_r, a_phi, _ = pj.forward_arrays(lat, lon, mode)
            b_r, b_phi, _ = pj.forward_arrays(lat, lon + delta, mode)
            dphi = (b_phi - a_phi) % (2 * math.pi)
            assert dphi == pytest.approx(math.radians(delta), abs=1e-12)
            assert b_r == pytest.approx(a_r, abs=1e-14)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_hemisphere_symmetry(self, mode):
        for lat, lon in [(20.0, 10.0), (65.0, -120.0), (5.0, 170.0)]:
            n_r, n_phi, n_north = pj.forward_arrays(lat, lon, mode)
            s_r, s_phi, s_north = pj.forward_arrays(-lat, lon, mode)
            assert s_north is False and n_north is True
            assert s_r == pytest.approx(n_r, abs=1e-14)
            assert s_phi == pytest.approx(n_phi, abs=1e-14)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_radius_monotone_in_colatitude(self, mode):
        lats = np.linspace(90.0, 0.0, 500)
        r, _, _ = pj.forward_arrays(lats, np.zeros_like(lats), mode)
        assert np.all(np.diff(r) > 0)


class TestScaleFactors:
    def test_ggv_equator(self):
        m, p, a = pj.scale_factors(0.0, GGV)
        assert m == 1.0
        assert p == pytest.approx(math.pi / 2)
        assert a == pytest.approx(math.pi / 2)

    def test_ggv_pole(self):
        assert pj.scale_factors(90.0, GGV) == \
            pytest.approx((1.0, 1.0, 1.0))

    def test_stress_minimal_equator(self):
        m, p, a = pj.scale_factors(0.0, ProjectionMode.STRESS_MINIMAL)
        assert m == pytest.approx(1.0, abs=1e-13)
        assert p == pytest.approx(cf.TWO_LN2, abs=1e-13)
        assert a == pytest.approx(cf.TWO_LN2, abs=1e-12)

    def test_stress_minimal_pole_isotropic(self):
        m, p, a = pj.scale_factors(90.0, ProjectionMode.STRESS_MINIMAL)
        assert m == pytest.approx(cf.POLE_SLOPE, abs=1e-14)
        assert p == m
        assert a == pytest.approx(m * m)

    def test_cross_check_against_stress_module(self):
        # meridian/parallel scales are sigma+1, rho+1 of the closed form
        rf = stress.closed_form_radial()
        for lat in (5.0, 22.5, 45.0, 70.0, 89.0):
            theta = math.radians(90.0 - lat)
            m, p, _ = pj.scale_factors(lat, ProjectionMode.STRESS_MINIMAL)
            assert m == stress.sigma(rf, theta) + 1.0
            assert p == stress.rho(rf, theta) + 1.0

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_array_matches_scalars(self, mode):
        lats = [-90.0, -45.0, 0.0, 5.0, 22.5, 89.0, 90.0]
        got = pj.scale_factors(np.array(lats), mode)
        for k, lat in enumerate(lats):
            assert [a[k] for a in got] == list(pj.scale_factors(lat, mode))
