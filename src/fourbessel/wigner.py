"""Exact angular-momentum coupling coefficients.

Everything here is computed over arbitrary-precision rational arithmetic and
returned as a :class:`SignedSqrtRational`, the exact carrier s*sqrt(p/q) that
is closed under the products appearing in the integral pipeline. Conversion to
floating point happens once, at the summation boundary, via ``to_float``.

Only integer angular momenta are supported; the integral pipeline never needs
half-integer ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .core import require_order
from .errors import NoValidBridge


@dataclass(frozen=True)
class SignedSqrtRational:
    """Exact value s*sqrt(p/q) with s in {-1, 0, +1} and p/q >= 0 in lowest terms."""

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        rad = Fraction(self.radicand)
        if rad < 0:
            raise ValueError(f"radicand must be >= 0, got {rad!r}")
        if (self.sign == 0) != (rad == 0):
            raise ValueError("sign is zero exactly when the radicand is zero")
        object.__setattr__(self, "radicand", rad)

    @classmethod
    def zero(cls) -> "SignedSqrtRational":
        return cls(0, Fraction(0))

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "SignedSqrtRational":
        """Exact carrier of a plain rational number."""
        q = Fraction(value)
        if q == 0:
            return cls.zero()
        return cls(1 if q > 0 else -1, q * q)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(sign, self.radicand * other.radicand)

    def __truediv__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        if other.sign == 0:
            raise ZeroDivisionError("division by zero SignedSqrtRational")
        if self.sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(self.sign * other.sign, self.radicand / other.radicand)

    def scaled_by(self, value: Fraction | int) -> "SignedSqrtRational":
        """Exact product with a plain rational."""
        return self * SignedSqrtRational.from_rational(value)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        num, den = self.radicand.numerator, self.radicand.denominator
        try:
            quotient = num / den
        except OverflowError:
            quotient = math.inf
        if 0.0 < quotient < math.inf:
            return self.sign * math.sqrt(quotient)
        # quotient left float range: scale by an even power of two so the
        # square root is taken on a mantissa near 1
        shift = num.bit_length() - den.bit_length()
        mantissa = Fraction(num, den) / Fraction(2) ** shift
        root = math.sqrt(float(mantissa))
        if shift % 2:
            root *= math.sqrt(2.0)
        try:
            return self.sign * math.ldexp(root, shift // 2)
        except OverflowError:
            return self.sign * math.inf

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        num, den = self.radicand.numerator, self.radicand.denominator
        body = f"{num}" if den == 1 else f"{num}/{den}"
        return f"{'+' if self.sign > 0 else '-'}sqrt({body})"


@dataclass(frozen=True)
class TriangleSelection:
    """Allowed window [lo, hi] and parity class for a coupled angular momentum."""

    lo: int
    hi: int
    parity: str  # "even" | "odd" | "any"

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")
        if self.parity not in ("even", "odd", "any"):
            raise ValueError(f"bad parity {self.parity!r}")

    def contains(self, value: int) -> bool:
        if not self.lo <= value <= self.hi:
            return False
        if self.parity == "any":
            return True
        return value % 2 == (0 if self.parity == "even" else 1)


def triangle_window(a: int, b: int) -> TriangleSelection:
    """Window of j coupling to a and b with a zero-projection 3j symbol."""
    a = require_order(a, "a")
    b = require_order(b, "b")
    return TriangleSelection(abs(a - b), a + b, "even" if (a + b) % 2 == 0 else "odd")


def _triangle_ok(a: int, b: int, c: int) -> bool:
    return abs(a - b) <= c <= a + b


@lru_cache(maxsize=None)
def wigner_3j_zero(j1: int, j2: int, j3: int) -> SignedSqrtRational:
    """Wigner 3j symbol with all magnetic quantum numbers zero, exactly.

    Zero when the triangle inequality fails or j1+j2+j3 is odd; otherwise the
    standard closed form with exact factorials.
    """
    j1 = require_order(j1, "j1")
    j2 = require_order(j2, "j2")
    j3 = require_order(j3, "j3")
    big_j = j1 + j2 + j3
    if big_j % 2 or not _triangle_ok(j1, j2, j3):
        return SignedSqrtRational.zero()
    g = big_j // 2
    radicand = Fraction(
        factorial(big_j - 2 * j1) * factorial(big_j - 2 * j2) * factorial(big_j - 2 * j3),
        factorial(big_j + 1),
    )
    coeff = Fraction(factorial(g), factorial(g - j1) * factorial(g - j2) * factorial(g - j3))
    return SignedSqrtRational(-1 if g % 2 else 1, radicand * coeff * coeff)


def _triangle_quotient(a: int, b: int, c: int) -> Fraction:
    """Squared triangle coefficient of the Racah formula."""
    return Fraction(
        factorial(a + b - c) * factorial(a - b + c) * factorial(-a + b + c),
        factorial(a + b + c + 1),
    )


@lru_cache(maxsize=None)
def wigner_6j(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> SignedSqrtRational:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} via the Racah single sum, exactly."""
    j1, j2, j3, j4, j5, j6 = (require_order(j, "j") for j in (j1, j2, j3, j4, j5, j6))
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(_triangle_ok(*t) for t in triads):
        return SignedSqrtRational.zero()
    prefactor = math.prod(_triangle_quotient(*t) for t in triads)
    t_lo = max(sum(t) for t in triads)
    t_hi = min(j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4)
    total = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        denom = (
            factorial(t - j1 - j2 - j3)
            * factorial(t - j1 - j5 - j6)
            * factorial(t - j4 - j2 - j6)
            * factorial(t - j4 - j5 - j3)
            * factorial(j1 + j2 + j4 + j5 - t)
            * factorial(j2 + j3 + j5 + j6 - t)
            * factorial(j3 + j1 + j6 + j4 - t)
        )
        term = Fraction(factorial(t + 1), denom)
        total += -term if t % 2 else term
    if total == 0:
        return SignedSqrtRational.zero()
    return SignedSqrtRational(1 if total > 0 else -1, total * total * prefactor)


@lru_cache(maxsize=None)
def gamma_half(n: int) -> Fraction:
    """Gamma(n + 1/2) / sqrt(pi), exactly: (2n)! / (4^n n!).

    Callers form Gamma ratios from these so every sqrt(pi) cancels.
    """
    n = require_order(n, "n")
    return Fraction(factorial(2 * n), 4**n * factorial(n))


def select_bridge_order(l1: int, l2: int, l3: int, l4: int) -> int:
    """Smallest L compatible with both order pairs.

    L must lie in both triangle windows and make both zero-projection 3j
    prefactors nonzero, which adds the two parity constraints. Raises
    NoValidBridge when the parities disagree or the windows do not intersect.
    """
    w12 = triangle_window(l1, l2)
    w34 = triangle_window(l3, l4)
    if w12.parity != w34.parity:
        raise NoValidBridge(
            "no parity-valid bridge order: "
            f"l1+l2={l1 + l2} and l3+l4={l3 + l4} have different parities"
        )
    # |a-b| and a+b share parity, so the larger window floor is parity-valid
    candidate = max(w12.lo, w34.lo)
    hi = min(w12.hi, w34.hi)
    if candidate > hi:
        raise NoValidBridge(
            "no parity-valid bridge order: "
            f"triangle windows [{w12.lo},{w12.hi}] and [{w34.lo},{w34.hi}] are disjoint"
        )
    return candidate
