"""Tests of the forward/inverse disk projection and local scale factors."""

import math

import numpy as np
import pytest

from flatdisk import closedform as cf
from flatdisk import projection as pj
from flatdisk import stress
from flatdisk.projection import GeoCoord, DiskPoint, Hemisphere, ProjectionMode

# mpmath: f(pi/4) / (2 ln 2)
R_LAT45_SM = 0.4828663380774189255223317641965867382511


class TestGeoCoord:
    def test_normalizes_longitude(self):
        assert GeoCoord(10.0, 200.0).lon_deg == pytest.approx(-160.0)
        assert GeoCoord(10.0, -180.0).lon_deg == pytest.approx(180.0)

    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            GeoCoord(91.0, 0.0)


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
        with pytest.raises(ValueError, match="math domain error"):
            GeoCoord(0.0, lon)

    def test_array_matches_scalar_rule(self):
        rng = np.random.default_rng(3)
        lon = np.concatenate([rng.uniform(-1e3, 1e3, 2000), np.arange(-720.0, 721.0, 90.0)])
        got = pj.normalize_lon(lon)
        want = [pj.normalize_lon(x) for x in lon.tolist()]
        assert got.tolist() == want
        assert np.all((got > -180.0) & (got <= 180.0))
        assert [GeoCoord(0.0, x).lon_deg for x in lon.tolist()] == want


class TestDiskPoint:
    def test_clamps_radius_noise(self):
        assert DiskPoint(1.0 + 1e-13, 0.0, Hemisphere.NORTH).r == 1.0

    def test_rejects_radius_out_of_range(self):
        with pytest.raises(ValueError):
            DiskPoint(1.01, 0.0, Hemisphere.NORTH)


class TestForward:
    def test_pole_is_center(self):
        d = pj.forward(GeoCoord(90.0, 123.0), ProjectionMode.GGV)
        assert d.r == 0.0 and d.phi == 0.0 and d.side is Hemisphere.NORTH

    def test_ggv_midlatitude(self):
        d = pj.forward(GeoCoord(45.0, 30.0), ProjectionMode.GGV)
        assert d.r == pytest.approx(0.5, abs=1e-14)
        assert d.phi == pytest.approx(math.pi / 6, abs=1e-14)
        assert d.side is Hemisphere.NORTH

    def test_stress_minimal_midlatitude(self):
        d = pj.forward(GeoCoord(45.0, 30.0), ProjectionMode.STRESS_MINIMAL)
        assert d.r == pytest.approx(R_LAT45_SM, abs=1e-13)
        assert d.phi == pytest.approx(math.pi / 6)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    @pytest.mark.parametrize("lon", [-180.0, -90.0, 0.0, 90.0, 180.0])
    def test_equator_maps_to_rim(self, mode, lon):
        assert pj.forward(GeoCoord(0.0, lon), mode).r == pytest.approx(1.0, abs=1e-14)

    def test_equator_owned_by_north(self):
        assert pj.forward(GeoCoord(0.0, 10.0), ProjectionMode.GGV).side is Hemisphere.NORTH


class TestInverse:
    def test_center_is_pole(self):
        g = pj.inverse(DiskPoint(0.0, 0.0, Hemisphere.NORTH), ProjectionMode.GGV)
        assert g.lat_deg == pytest.approx(90.0)

    def test_rim_is_equator(self):
        g = pj.inverse(DiskPoint(1.0, math.pi / 6, Hemisphere.SOUTH), ProjectionMode.GGV)
        assert g.lat_deg == pytest.approx(0.0, abs=1e-12)
        assert g.lon_deg == pytest.approx(30.0, abs=1e-10)

    def test_stress_minimal_bisection(self):
        g = pj.inverse(DiskPoint(R_LAT45_SM, math.pi / 6, Hemisphere.NORTH),
                       ProjectionMode.STRESS_MINIMAL)
        assert g.lat_deg == pytest.approx(45.0, abs=1e-8)
        assert g.lon_deg == pytest.approx(30.0, abs=1e-8)

    def test_rejects_radius_out_of_range(self):
        with pytest.raises(ValueError):
            pj.inverse_radius(1.5, ProjectionMode.GGV)


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
        mode = ProjectionMode.STRESS_MINIMAL
        assert pj.inverse_radius(0.0, mode) == 0.0
        assert pj.inverse_radius(1.0, mode) == math.pi / 2
        assert type(pj.inverse_radius(0.5, mode)) is float
        got = pj.inverse_radius(np.array([0.0, 1.0]), mode)
        assert got.tolist() == [0.0, math.pi / 2]
        assert pj.inverse_radius(np.array([]), mode).shape == (0,)


    @pytest.mark.parametrize("shape", [(), (32768,)])
    def test_bit_identical_to_separate_f_and_prime(self, shape):
        # the fused Newton step must take exactly the steps eval_f / eval_f_prime give
        rng = np.random.default_rng(9)
        r = rng.uniform(0.0, 1.0, shape)
        theta = np.full_like(r, math.pi / 2)
        target = r * cf.TWO_LN2
        for _ in range(8):
            step = (cf.eval_f(theta) - target) / cf.eval_f_prime(theta)
            theta = np.clip(theta - step, 0.0, math.pi / 2)
            if not np.any(np.abs(step) >= 1e-11):
                break
        got = pj.inverse_radius(r, ProjectionMode.STRESS_MINIMAL)
        assert np.array_equal(np.asarray(got).view(np.int64), theta.view(np.int64))


class TestRoundTrip:
    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_bulk_round_trip(self, mode):
        rng = np.random.default_rng(2024)
        lat = rng.uniform(-90.0, 90.0, 100_000)
        lon = rng.uniform(-180.0, 180.0, 100_000)
        r, phi, north = pj.forward_arrays(lat, lon, mode)
        theta = pj.inverse_radius(r, mode)
        lat_back = np.where(north, 90.0 - np.degrees(theta), np.degrees(theta) - 90.0)
        lon_back = np.degrees(phi)
        dlon = np.abs((lon_back - lon + 180.0) % 360.0 - 180.0)
        assert np.max(np.abs(lat_back - lat)) < 1e-8
        assert np.max(dlon) < 1e-8


class TestProperties:
    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_longitude_equivariance(self, mode):
        delta = 37.0
        for lat, lon in [(20.0, 10.0), (65.0, -120.0), (-45.0, 170.0)]:
            a = pj.forward(GeoCoord(lat, lon), mode)
            b = pj.forward(GeoCoord(lat, lon + delta), mode)
            dphi = (b.phi - a.phi) % (2 * math.pi)
            assert dphi == pytest.approx(math.radians(delta), abs=1e-12)
            assert b.r == pytest.approx(a.r, abs=1e-14)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_hemisphere_symmetry(self, mode):
        for lat, lon in [(20.0, 10.0), (65.0, -120.0), (5.0, 170.0)]:
            n = pj.forward(GeoCoord(lat, lon), mode)
            s = pj.forward(GeoCoord(-lat, lon), mode)
            assert s.side is Hemisphere.SOUTH and n.side is Hemisphere.NORTH
            assert s.r == pytest.approx(n.r, abs=1e-14)
            assert s.phi == pytest.approx(n.phi, abs=1e-14)

    @pytest.mark.parametrize("mode", list(ProjectionMode))
    def test_radius_monotone_in_colatitude(self, mode):
        lats = np.linspace(90.0, 0.0, 500)
        r, _, _ = pj.forward_arrays(lats, np.zeros_like(lats), mode)
        assert np.all(np.diff(r) > 0)


class TestScaleFactors:
    def test_ggv_equator(self):
        m, p, a = pj.scale_factors(GeoCoord(0.0, 0.0), ProjectionMode.GGV)
        assert m == 1.0
        assert p == pytest.approx(math.pi / 2)
        assert a == pytest.approx(math.pi / 2)

    def test_ggv_pole(self):
        assert pj.scale_factors(GeoCoord(90.0, 0.0), ProjectionMode.GGV) == \
            pytest.approx((1.0, 1.0, 1.0))

    def test_stress_minimal_equator(self):
        m, p, a = pj.scale_factors(GeoCoord(0.0, 0.0), ProjectionMode.STRESS_MINIMAL)
        assert m == pytest.approx(1.0, abs=1e-13)
        assert p == pytest.approx(cf.TWO_LN2, abs=1e-13)
        assert a == pytest.approx(cf.TWO_LN2, abs=1e-12)

    def test_stress_minimal_pole_isotropic(self):
        m, p, a = pj.scale_factors(GeoCoord(90.0, 0.0), ProjectionMode.STRESS_MINIMAL)
        assert m == pytest.approx(cf.POLE_SLOPE, abs=1e-14)
        assert p == m
        assert a == pytest.approx(m * m)

    def test_cross_check_against_stress_module(self):
        # meridian/parallel scales are sigma+1, rho+1 of the closed form
        rf = stress.closed_form_radial()
        for lat in (5.0, 22.5, 45.0, 70.0, 89.0):
            theta = math.radians(90.0 - lat)
            m, p, _ = pj.scale_factors(GeoCoord(lat, 0.0), ProjectionMode.STRESS_MINIMAL)
            assert abs(m - (stress.sigma(rf, theta) + 1.0)) < 1e-12
            assert abs(p - (stress.rho(rf, theta) + 1.0)) < 1e-12
