"""Closed-form radial integrals of four spherical Bessel functions.

The central object is the weighted product integral

    integral over r in (0, inf) of
        r^2 * j_l1(k1 r) * j_l2(k2 r) * j_l3(k1 r) * j_l4(k2 r) dr

which this package evaluates exactly as a finite sum of coupling
coefficients (3j/6j symbols), binomial weights, and associated Legendre
functions of half-integer order, and certifies against an independent
numerical quadrature oracle.

The oracle, numpy and the Legendre functions load on first use:
``import fourbessel`` brings in the closed-form engine alone. The first read
of ``QuadratureConfig``, ``quad_bessel_numeric``, ``spherical_bessel_j`` or
``triple_bessel_numeric`` imports ``fourbessel.oracle``, and the first read
of ``legendre_p`` or ``assoc_legendre_gt1`` imports ``fourbessel.legendre``.
"""
from __future__ import annotations

import importlib

from .core import (
    EvaluationReport,
    IntegralSpec,
    TermEntry,
)
from .errors import (
    DomainError,
    FourBesselError,
    NoConvergence,
    NoValidBridge,
    PrefactorZero,
)
from .quadbessel import (
    evaluate,
    quad_bessel_paired,
    triple_bessel_weighted,
)
from .wigner import (
    SignedSqrtRational,
    gamma_half,
    select_bridge_order,
    wigner_3j_zero,
    wigner_6j,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EvaluationReport",
    "FourBesselError",
    "IntegralSpec",
    "NoConvergence",
    "NoValidBridge",
    "PrefactorZero",
    "QuadratureConfig",
    "SignedSqrtRational",
    "TermEntry",
    "assoc_legendre_gt1",
    "evaluate",
    "gamma_half",
    "legendre_p",
    "quad_bessel_numeric",
    "quad_bessel_paired",
    "select_bridge_order",
    "spherical_bessel_j",
    "triple_bessel_numeric",
    "triple_bessel_weighted",
    "wigner_3j_zero",
    "wigner_6j",
    "__version__",
]

# name -> submodule that defines it, imported on the name's first read
_LAZY_NAMES = {
    "QuadratureConfig": "oracle",
    "quad_bessel_numeric": "oracle",
    "spherical_bessel_j": "oracle",
    "triple_bessel_numeric": "oracle",
    "assoc_legendre_gt1": "legendre",
    "legendre_p": "legendre",
}


def __getattr__(name: str):
    # PEP 562: reached only for names not yet in the namespace
    if name in _LAZY_NAMES:
        module = importlib.import_module(f".{_LAZY_NAMES[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY_NAMES.keys())
