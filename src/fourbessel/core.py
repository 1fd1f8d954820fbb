"""Shared value types for the integral pipeline.

The central object is :class:`IntegralSpec`, the four non-negative integer
orders and two positive momenta defining

    integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k1 r) j_l4(k2 r) dr.

Evaluations return an :class:`EvaluationReport` carrying the value, the chosen
bridge order and a term-by-term breakdown.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError


def require_order(value: int, name: str = "order") -> int:
    """Validate a non-negative integer angular momentum index."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, bool):
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    try:
        ival = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}") from None
    if ival < 0:
        raise DomainError(f"{name} must be >= 0, got {ival}")
    return ival


def require_momentum(value: float, name: str = "momentum") -> float:
    """Validate a strictly positive, finite momentum."""
    # NaN, -0.0 and inf fail the comparison and take the checked path below
    if type(value) is float and 0.0 < value < math.inf:
        return value
    try:
        fval = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a positive real, got {value!r}") from None
    if not math.isfinite(fval) or fval <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {fval!r}")
    return fval


@dataclass(frozen=True, init=False)
class IntegralSpec:
    """Orders and momenta of the four-Bessel radial integral."""

    lambda1: int
    lambda2: int
    lambda3: int
    lambda4: int
    k1: float
    k2: float

    # Hand-written so that each field is validated and set once: a generated
    # __init__ followed by __post_init__ would set every field twice. The
    # fields go into __dict__ in one update, in order, past the frozen
    # __setattr__ that assignment still meets.
    def __init__(
        self, lambda1: int, lambda2: int, lambda3: int, lambda4: int, k1: float, k2: float
    ) -> None:
        self.__dict__.update(
            lambda1=require_order(lambda1, "lambda1"),
            lambda2=require_order(lambda2, "lambda2"),
            lambda3=require_order(lambda3, "lambda3"),
            lambda4=require_order(lambda4, "lambda4"),
            k1=require_momentum(k1, "k1"),
            k2=require_momentum(k2, "k2"),
        )

    @property
    def orders(self) -> tuple[int, int, int, int]:
        return (self.lambda1, self.lambda2, self.lambda3, self.lambda4)


@dataclass(frozen=True)
class TermEntry:
    """One addend of a closed-form sum, tagged with its summation indices."""

    indices: dict[str, int]
    value: float


@dataclass(init=False)
class EvaluationReport:
    """Result of evaluating an IntegralSpec.

    ``terms`` may also be given as a zero-argument callable that returns the
    tuple; it runs on the first read of ``terms``, and its tuple replaces it.
    ``evaluate`` defers its terms the same way, as a tuple of a function and
    its arguments in place of the callable.
    """

    value: float
    bridge_L: int
    terms: tuple[TermEntry, ...] | Callable[[], tuple[TermEntry, ...]] = ()
    method: str = "analytic"  # analytic | paired

    # Hand-written so that terms is stored straight into _terms: the generated
    # __init__ would go through the terms property's setter.
    def __init__(
        self,
        value: float,
        bridge_L: int,
        terms: tuple[TermEntry, ...] | Callable[[], tuple[TermEntry, ...]] = (),
        method: str = "analytic",
    ) -> None:
        self.value = value
        self.bridge_L = bridge_L
        self._terms = terms
        self.method = method

    def as_dict(self, spec: IntegralSpec) -> dict:
        return {
            "lambda": list(spec.orders),
            "k1": spec.k1,
            "k2": spec.k2,
            "L": self.bridge_L,
            "value": self.value,
            "method": self.method,
            "terms": [{"indices": t.indices, "value": t.value} for t in self.terms],
        }


def _read_terms(report: EvaluationReport) -> tuple[TermEntry, ...]:
    terms = report._terms
    if callable(terms):
        terms = report._terms = terms()
    elif terms and callable(terms[0]):
        # (function, *arguments), as evaluate defers it: cheaper to build
        # than a functools.partial
        terms = report._terms = terms[0](*terms[1:])
    return terms


def _write_terms(report: EvaluationReport, terms) -> None:
    report._terms = terms


# Installed after @dataclass has collected the fields: in the class body the
# property would become the default value of the terms field.
EvaluationReport.terms = property(_read_terms, _write_terms)
