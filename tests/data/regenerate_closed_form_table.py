"""Rewrite closed_form_mpmath.txt, the reference values of eval_f and eval_f_prime.

Each row is a double theta in [0, pi/2], then f(theta), f'(theta) and the
normalized radius f(theta) / (2 ln 2), f the minimum-stress radius, evaluated
by mpmath at 50 digits at the exact double theta and printed to 30
significant digits.  The theta are seeded as those of
inverse_radius_mpmath.txt: spread over [0, pi/2], log-spread down to 1e-12,
and crowded next to pi/2.  Needs mpmath; the tests only read the table.  Run
from the repository root:

    python tests/data/regenerate_closed_form_table.py
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np

TABLE = Path(__file__).parent / "closed_form_mpmath.txt"


def colatitudes():
    rng = np.random.default_rng(20261022)
    half_pi = math.pi / 2
    theta = np.concatenate([
        [0.0, half_pi, 0.5 * half_pi, np.nextafter(half_pi, 0.0), 5e-324, 1e-300],
        rng.uniform(0.0, half_pi, 1200),
        10.0 ** rng.uniform(-12.0, -1.0, 500),
        half_pi - 10.0 ** rng.uniform(-15.0, -1.0, 300),
    ])
    return sorted(set(theta.tolist()))


def f(theta):
    """f in the half-angle form, in which no term cancels on (0, pi/2]."""
    s, c = mp.sin(theta / 2), mp.cos(theta / 2)
    return s * (mp.log(2) / c - c * mp.log1p(-s * s) / (s * s))


def f_prime(theta):
    """f' = 1 + log(1 + cos theta) - f cot theta, from differentiating
    f = (2 ln 2 - (1 + cos theta) log(1 + cos theta)) / sin theta."""
    return 1 + mp.log1p(mp.cos(theta)) - f(theta) * mp.cos(theta) / mp.sin(theta)


def row(theta):
    t = mp.mpf(theta)
    if theta == 0.0:
        values = (mp.mpf(0), (1 + mp.log(2)) / 2, mp.mpf(0))
    else:
        values = (f(t), f_prime(t), f(t) / (2 * mp.log(2)))
        if theta > 1e-3:  # the original form, whose terms cancel near the pole, agrees
            original = (2 * mp.log(2) - (1 + mp.cos(t)) * mp.log1p(mp.cos(t))) / mp.sin(t)
            assert abs(original / values[0] - 1) < mp.mpf(10) ** -40
            assert abs(mp.diff(f, t) / values[1] - 1) < mp.mpf(10) ** -30
    return " ".join([repr(theta)] + [mp.nstr(v, 30, min_fixed=-1, max_fixed=-1) for v in values])


def main() -> None:
    mp.mp.dps = 50
    rows = ["# theta f(theta) f'(theta) f(theta)/(2 ln 2): mpmath at 50 digits",
            "# regenerate with tests/data/regenerate_closed_form_table.py"]
    rows += [row(theta) for theta in colatitudes()]
    TABLE.write_text("\n".join(rows) + "\n")
    print(f"wrote {TABLE} ({len(rows) - 2} rows)")


if __name__ == "__main__":
    main()
