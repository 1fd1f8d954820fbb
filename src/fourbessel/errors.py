"""Exception types shared across the package."""
from __future__ import annotations


class FourBesselError(Exception):
    """Base class for all library errors."""


class DomainError(FourBesselError):
    """An argument lies outside the mathematical domain of the operation."""


class NoValidBridge(FourBesselError):
    """No bridge order L satisfies both triangle windows and both parity
    constraints; the closed-form method does not apply to this order set."""


class NoConvergence(FourBesselError):
    """The numerical quadrature could not certify the requested tolerance."""

    def __init__(self, message: str, value: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class PrefactorZero(FourBesselError):
    """A closed form divides by a coupling coefficient that is zero here."""
