"""Shared value types for the integral pipeline.

The central object is :class:`IntegralSpec`, the four non-negative integer
orders and two positive momenta defining

    integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k1 r) j_l4(k2 r) dr.

Evaluations return an :class:`EvaluationReport` carrying the value, the chosen
bridge order, a term-by-term breakdown, and (optionally) the oracle comparison.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError


def require_order(value: int, name: str = "order") -> int:
    """Validate a non-negative integer angular momentum index."""
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
    try:
        fval = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a positive real, got {value!r}") from None
    if not math.isfinite(fval) or fval <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {fval!r}")
    return fval


@dataclass(frozen=True)
class IntegralSpec:
    """Orders and momenta of the four-Bessel radial integral."""

    lambda1: int
    lambda2: int
    lambda3: int
    lambda4: int
    k1: float
    k2: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            object.__setattr__(self, name, require_order(getattr(self, name), name))
        object.__setattr__(self, "k1", require_momentum(self.k1, "k1"))
        object.__setattr__(self, "k2", require_momentum(self.k2, "k2"))

    @property
    def orders(self) -> tuple[int, int, int, int]:
        return (self.lambda1, self.lambda2, self.lambda3, self.lambda4)

    def is_order_paired(self) -> bool:
        """True when the compact paired closed form applies (l2=l1, l4=l3)."""
        return self.lambda2 == self.lambda1 and self.lambda4 == self.lambda3


@dataclass(frozen=True)
class TermEntry:
    """One addend of a closed-form sum, tagged with its summation indices."""

    indices: dict[str, int]
    value: float


@dataclass
class EvaluationReport:
    """Result of evaluating an IntegralSpec.

    ``terms`` may also be given as a zero-argument callable that returns the
    tuple; it runs on the first read of ``terms``, and its tuple replaces it.
    """

    value: float
    bridge_L: int
    terms: tuple[TermEntry, ...] | Callable[[], tuple[TermEntry, ...]] = ()
    method: str = "analytic"  # analytic | paired
    oracle_value: float | None = None
    oracle_error_estimate: float | None = None
    discrepancy: float | None = None

    def as_dict(self, spec: IntegralSpec) -> dict:
        doc: dict = {
            "lambda": list(spec.orders),
            "k1": spec.k1,
            "k2": spec.k2,
            "L": self.bridge_L,
            "value": self.value,
            "method": self.method,
            "terms": [{"indices": t.indices, "value": t.value} for t in self.terms],
        }
        if self.oracle_value is not None:
            doc["oracle"] = {
                "value": self.oracle_value,
                "error_estimate": self.oracle_error_estimate,
            }
        if self.discrepancy is not None:
            doc["discrepancy"] = self.discrepancy
        return doc


def _read_terms(report: EvaluationReport) -> tuple[TermEntry, ...]:
    terms = report._terms
    if callable(terms):
        terms = report._terms = terms()
    return terms


def _write_terms(report: EvaluationReport, terms) -> None:
    report._terms = terms


# Installed after @dataclass has collected the fields: in the class body the
# property would become the default value of the terms field.
EvaluationReport.terms = property(_read_terms, _write_terms)
