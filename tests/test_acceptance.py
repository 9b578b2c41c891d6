"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every expected number here was produced by an independent
computation (extended-precision evaluation, closed-form integrals, or the
discrete solver) before being frozen.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from flatdisk import closedform as cf
from flatdisk import geo_render as gr
from flatdisk import projection as pj
from flatdisk import stress
from flatdisk import variational as va
from flatdisk.projection import ProjectionMode

DATA = Path(__file__).parent / "data"


def report(name, detail):
    print(f"PASS  {name}: {detail}")


def test_01_endpoint_value():
    got = cf.eval_f(math.pi / 2)
    assert abs(got - 1.3862943611198906) < 1e-15
    report("endpoint value", f"f(pi/2) = {got!r}, |err| < 1e-15")


def test_02_ode_verification():
    rep = va.residual_sweep(stress.closed_form_radial(), 1000)
    assert rep.max_abs < 1e-15
    report("ODE verification", f"max |residual| = {rep.max_abs:.3e} < 1e-15")


def test_03_oracle_agreement():
    errs = {}
    for n in (512, 1024):
        profile = va.solve_discrete(n)
        errs[n] = float(np.max(np.abs(profile.values - cf.eval_f(profile.thetas))))
    assert errs[1024] < 1e-4
    ratio = errs[512] / errs[1024]
    assert 4 * 0.7 <= ratio <= 4 * 1.3
    report("oracle agreement",
           f"max error n=1024: {errs[1024]:.3e} < 1e-4, ratio 512/1024 = {ratio:.3f}")


def test_04_emergent_natural_boundary():
    slope = va.endpoint_slope(va.solve_discrete(4096))
    assert abs(slope - 1.0) < 5e-3
    report("natural boundary", f"free-endpoint slope = {slope:.8f}, |err| < 5e-3")


def test_05_form_equivalence():
    t = np.geomspace(1e-9, math.pi / 2, 1000)
    gap = float(np.max(np.abs(cf.eval_f_mathematica_form(t) / cf.eval_f(t) - 1.0)))
    assert gap < 1e-14
    report("form equivalence", f"max |f_alt / f - 1| = {gap:.3e} < 1e-14")


def test_06_minimality():
    s_min = stress.total_stress(stress.closed_form_radial(), 1024).total
    s_line = stress.total_stress(stress.identity_radial(), 1024).total
    assert s_min < s_line
    for c in (0.8, 0.9, 1.1):
        assert s_min < stress.total_stress(stress.identity_radial(c), 1024).total
    rng = np.random.default_rng(123)
    worst = math.inf
    for _ in range(100):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        delta = stress.RadialFunction(
            value=lambda t, c=coeffs: sum(
                ck * np.sin((k + 1) * np.asarray(t, dtype=float))
                for k, ck in enumerate(c)),
            derivative=lambda t, c=coeffs: sum(
                ck * (k + 1) * np.cos((k + 1) * np.asarray(t, dtype=float))
                for k, ck in enumerate(c)))
        sv = stress.second_variation(delta, 512)
        worst = min(worst, sv)
        assert sv >= 0.0
    report("minimality",
           f"S* = {s_min:.6f} < S(line) = {s_line:.6f}; min 2nd variation = {worst:.3e} >= 0")


def test_07_near_linearity():
    t = np.linspace(0.0, math.pi / 2, 100_000)
    gap = t * cf.TWO_LN2 / (math.pi / 2) - np.asarray(cf.eval_f(t))
    max_gap = float(np.max(gap))
    assert 0.01 < max_gap < 0.05
    at_quarter = math.log(2) - float(cf.eval_f(math.pi / 4))
    # independently: ln 2 - f(pi/4) = 0.02375229890860873 (40-digit mpmath)
    assert abs(at_quarter - 0.02375229890860873) < 1e-15
    report("near-linearity",
           f"max chord gap = {max_gap:.6f} in (0.01, 0.05); gap(pi/4) = {at_quarter:.8f}")


def test_08_series():
    got = cf.eval_beta_series(0.9, 101)  # terms through j = 201
    want = cf.eval_beta_regular(0.9)
    assert abs(got - want) < 1e-6
    sc = cf.series_coefficients(201)
    for j in range(3, 202, 2):
        assert (j + 1) * sc.coefficient(j) == (j - 2) * sc.coefficient(j - 2)
    report("series", f"|partial sum - closed form| = {abs(got - want):.3e} < 1e-6; "
           "recurrence exact in rationals through j = 201")


def test_09_projection_round_trip():
    rng = np.random.default_rng(99)
    lat = rng.uniform(-90.0, 90.0, 100_000)
    lon = rng.uniform(-180.0, 180.0, 100_000)
    worst = 0.0
    for mode in ProjectionMode:
        r, phi, north = pj.forward_arrays(lat, lon, mode)
        theta = pj.inverse_radius(r, mode)
        lat_back = np.where(north, 90.0 - np.degrees(theta), np.degrees(theta) - 90.0)
        dlon = np.abs((np.degrees(phi) - lon + 180.0) % 360.0 - 180.0)
        err = max(float(np.max(np.abs(lat_back - lat))), float(np.max(dlon)))
        assert err < 1e-13
        worst = max(worst, err)
    report("round trip", f"worst error over 2x10^5 points = {worst:.3e} deg < 1e-13")


def test_10_rendering_determinism():
    fixture = DATA / "fixture_coastline.geojson"
    golden = (DATA / "golden" / "fixture_map_ggv_g15.svg").read_bytes()
    renders = [
        gr.render_map(gr.load_geojson(fixture), ProjectionMode.GGV, 15, 400,
                      source="fixture_coastline.geojson").to_svg().encode()
        for _ in range(2)
    ]
    assert renders[0] == renders[1]
    assert renders[0] == golden
    report("rendering determinism",
           f"two renders byte-identical and match golden ({len(golden)} bytes)")
