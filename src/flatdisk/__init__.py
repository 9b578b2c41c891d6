"""Stress-minimizing flat-disk map projection.

Modules:

* closedform  - the exact radial stretch function and its solution chain
* stress      - stress components and the total-stress quadrature
* variational - Euler-Lagrange residuals and the independent discrete solver
* projection  - geographic <-> two-sided disk forward/inverse transforms
* geo_render  - GeoJSON ingestion and deterministic SVG map rendering
* cli         - the `flatdisk` command-line tool

Importing the package loads closedform and projection; stress and variational
load on first use of a name from them (PEP 562), such as flatdisk.total_stress.
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
from .projection import Hemisphere, ProjectionMode

# name -> the module that defines it, imported on first use
_LAZY = {name: "stress" for name in
         ("stress", "RadialFunction", "StressReport", "total_stress", "second_variation")}
_LAZY.update((name, "variational") for name in
             ("variational", "RadialProfile", "solve_discrete", "residual_sweep"))

# `from flatdisk import *` binds every public name above, closedform and projection
# included, and loads and binds the lazy ones
__all__ = [name for name in globals() if name[0] != "_"] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
