"""Stress-minimizing flat-disk map projection.

Subpackages:

* closedform  - the exact radial stretch function and its solution chain
* stress      - stress components and the total-stress quadrature
* variational - Euler-Lagrange residuals and the independent discrete solver
* projection  - geographic <-> two-sided disk forward/inverse transforms
* geo_render  - GeoJSON ingestion and deterministic SVG map rendering
* cli         - the `flatdisk` command-line tool
"""

__version__ = "0.1.0"

from .closedform import (
    TWO_LN2,
    POLE_SLOPE,
    eval_f,
    eval_f_prime,
    eval_f_second,
    eval_f_mathematica_form,
    eval_g,
    eval_h,
    eval_gamma,
    eval_beta_regular,
    eval_beta_singular,
    series_coefficients,
    eval_beta_series,
)
from .projection import GeoCoord, DiskPoint, Hemisphere, ProjectionMode, forward, inverse
from .stress import RadialFunction, StressReport, total_stress, second_variation
from .variational import RadialProfile, solve_discrete, residual_sweep
