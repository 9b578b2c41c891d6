"""Rewrite inverse_radius_mpmath.txt, the reference colatitudes of inverse_radius.

Each row is a double r and the colatitude theta in [0, pi/2] with
f(theta) = 2 ln 2 * r exactly, f the minimum-stress radius, solved by mpmath
at 80 digits and printed to 30 significant digits.  The r are seeded: spread
over [0, 1], log-spread down to 1e-12, and crowded next to the rim.  Needs
mpmath; the tests only read the table.  Run from the repository root:

    python tests/data/regenerate_inverse_radius_table.py
"""

from pathlib import Path

import mpmath as mp
import numpy as np

TABLE = Path(__file__).parent / "inverse_radius_mpmath.txt"


def radii():
    rng = np.random.default_rng(20261021)
    r = np.concatenate([
        [0.0, 1.0, 0.5, np.nextafter(1.0, 0.0), 5e-324, 1e-300],
        rng.uniform(0.0, 1.0, 1200),
        10.0 ** rng.uniform(-12.0, -1.0, 500),
        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 300),
    ])
    return sorted(set(r.tolist()))


def colatitude(r):
    """theta with f(theta) = 2 ln 2 * r, f in the half-angle form (no cancellation)."""
    if r in (0.0, 1.0):
        return r * mp.pi / 2
    target = 2 * mp.log(2) * mp.mpf(r)

    def f(theta):
        s, c = mp.sin(theta / 2), mp.cos(theta / 2)
        return s * (mp.log(2) / c - c * mp.log1p(-s * s) / (s * s))

    # f is convex from f(0) = 0, between its pole slope (1 + ln 2)/2 and the chord to
    # (pi/2, 2 ln 2): the root lies between GGV's inverse r pi/2 and target / f'(0)
    bracket = (mp.mpf(r) * mp.pi / 2, 2 * target / (1 + mp.log(2)))
    theta = mp.findroot(lambda t: f(t) - target, bracket, solver="anderson")
    assert abs(f(theta) - target) <= mp.mpf(10) ** -70 * max(target, 1e-300)
    return theta


def main() -> None:
    mp.mp.dps = 80
    rows = ["# r theta: f(theta) = 2 ln 2 * r exactly, theta by mpmath at 80 digits",
            "# regenerate with tests/data/regenerate_inverse_radius_table.py"]
    rows += [f"{r!r} {mp.nstr(colatitude(r), 30, min_fixed=-1, max_fixed=-1)}"
             for r in radii()]
    TABLE.write_text("\n".join(rows) + "\n")
    print(f"wrote {TABLE} ({len(rows) - 2} rows)")


if __name__ == "__main__":
    main()
