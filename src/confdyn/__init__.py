"""Numerical laboratory for relativistic particle dynamics in scalar
background fields: conformal symmetry charges, superintegrability
certification, closed-form orbits, and Klein-Gordon exact-solution checks.

analytic, kgverify and cli are imported on first access: only the orbit and
kg commands need the first two, and importing cli here would make
``python -m confdyn.cli`` warn."""

import importlib

from . import backgrounds, conformal, dynamics, geometry, integrability
from .errors import (ConfdynError, ConfigError, DomainError, RealityError,
                     SingularityError)
from .geometry import FourVector

__all__ = [
    "analytic", "backgrounds", "cli", "conformal", "dynamics", "geometry",
    "integrability", "kgverify",
    "ConfdynError", "ConfigError", "DomainError", "RealityError",
    "SingularityError",
    "FourVector",
]

__version__ = "0.1.0"

_LAZY = ("analytic", "cli", "kgverify")


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
