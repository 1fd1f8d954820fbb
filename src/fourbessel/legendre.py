"""Legendre polynomials and associated Legendre functions on the ray x > 1.

The associated functions are evaluated through their finite polynomial form:
for integer degree l and arbitrary (possibly half-integer) order m,

    P_l^m(x) = b_l(x, m) * ((x+1)/(x-1))^(m/2) / Gamma(|l - m| + 1)

where b_l is a polynomial in both x and m with integer coefficients. The
closed-form integral machinery consumes b_l directly (the power and Gamma
factors cancel into exact rational prefactors there); the full function is
exposed for direct evaluation and cross-checking.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .core import require_order
from .errors import DomainError
from .wigner import gamma_half, wigner_3j_zero

#: Largest supported degree for the two-variable polynomial path. The closed
#: tables cover degree <= 4; the recurrence extends them, and coefficients are
#: exact integers scaled by 2^degree, so the ceiling is a guardrail against
#: float overflow in downstream evaluation rather than an accuracy limit.
MAX_DEGREE = 12

OrderLike = Union["HalfIntegerOrder", int, float, Fraction]


@dataclass(frozen=True)
class HalfIntegerOrder:
    """Order m restricted to the half-integer lattice, stored as 2m."""

    twice_m: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice_m, int) or isinstance(self.twice_m, bool):
            raise DomainError(f"twice_m must be an int, got {self.twice_m!r}")

    @classmethod
    def parse(cls, text: str) -> "HalfIntegerOrder":
        """Parse 'p/q' or decimal text; the value must be a multiple of 1/2."""
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse order {text!r}") from exc
        return cls.from_value(value)

    @classmethod
    def from_value(cls, value: Union[int, float, Fraction]) -> "HalfIntegerOrder":
        as_fraction = Fraction(value)
        if as_fraction.denominator not in (1, 2):
            raise DomainError(
                f"order {value!r} is not an integer or half-integer"
            )
        return cls(int(2 * as_fraction))

    @property
    def is_integer(self) -> bool:
        return self.twice_m % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice_m, 2)

    def __float__(self) -> float:
        return self.twice_m / 2.0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_m // 2)
        return f"{self.twice_m}/2"


def _order_as_fraction(order: OrderLike) -> Fraction:
    """Exact rational value of an order argument (floats convert exactly)."""
    if isinstance(order, HalfIntegerOrder):
        return order.as_fraction
    if isinstance(order, bool):
        raise DomainError(f"order must be numeric, got {order!r}")
    if isinstance(order, (int, Fraction)):
        return Fraction(order)
    if isinstance(order, float):
        if not math.isfinite(order):
            raise DomainError(f"order must be finite, got {order!r}")
        return Fraction(order)
    raise DomainError(f"order must be numeric, got {order!r}")


# Closed coefficient tables for the two-variable polynomials b_l(x, m),
# keyed (power of x, power of m) -> integer coefficient.
_CLOSED_POLY: dict[int, dict[tuple[int, int], int]] = {
    0: {(0, 0): 1},
    1: {(1, 0): 1, (0, 1): -1},
    2: {(2, 0): 3, (1, 1): -3, (0, 2): 1, (0, 0): -1},
    3: {(3, 0): 15, (2, 1): -15, (1, 2): 6, (1, 0): -9, (0, 3): -1, (0, 1): 4},
    4: {
        (4, 0): 105,
        (3, 1): -105,
        (2, 2): 45,
        (2, 0): -90,
        (1, 3): -10,
        (1, 1): 55,
        (0, 4): 1,
        (0, 2): -10,
        (0, 0): 9,
    },
}


@lru_cache(maxsize=None)
def _bform_coeffs(degree: int) -> Mapping[tuple[int, int], Fraction]:
    """Coefficients of b_degree(x, m); closed table below 5, recurrence above."""
    degree = require_order(degree, "degree")
    if degree > MAX_DEGREE:
        raise DomainError(
            f"degree {degree} exceeds supported maximum {MAX_DEGREE}"
        )
    if degree in _CLOSED_POLY:
        return {key: Fraction(val) for key, val in _CLOSED_POLY[degree].items()}
    # Auxiliary recurrence q_{j+1} = (1-x^2) dq_j/dx + 2(m - (degree-j) x) q_j
    # starting from q_0 = 1; then b_degree = (-1)^degree q_degree / 2^degree.
    poly: dict[tuple[int, int], int] = {(0, 0): 1}
    for step in range(degree):
        shift = degree - step
        nxt: defaultdict[tuple[int, int], int] = defaultdict(int)
        for (xi, mj), coeff in poly.items():
            if xi:
                nxt[(xi - 1, mj)] += xi * coeff
                nxt[(xi + 1, mj)] -= xi * coeff
            nxt[(xi, mj + 1)] += 2 * coeff
            nxt[(xi + 1, mj)] -= 2 * shift * coeff
        poly = {key: val for key, val in nxt.items() if val}
    sign = -1 if degree % 2 else 1
    return {key: Fraction(sign * val, 2**degree) for key, val in poly.items()}


@lru_cache(maxsize=None)
def _band_basis(degree: int) -> tuple[tuple[int, ...], ...]:
    """Entry i: ascending u-coefficients of (1+u)^i (1-u)^(degree-i)."""
    return tuple(
        tuple(
            sum(
                math.comb(i, a) * math.comb(degree - i, k - a) * (-1) ** (k - a)
                for a in range(max(0, k - degree + i), min(i, k) + 1)
            )
            for k in range(degree + 1)
        )
        for i in range(degree + 1)
    )


@lru_cache(maxsize=None)
def bform_band_coeffs(degree: int, twice_m: int) -> tuple[int, ...]:
    """Integer coefficients in u of 4^degree (1-u)^degree b_degree(x, m).

    Here x = (1+u)/(1-u) and m = twice_m/2. Each x^i becomes
    (1+u)^i (1-u)^(degree-i) over (1-u)^degree, so the product is a
    polynomial of degree <= ``degree`` in u; entry k is the u^k coefficient.
    b_degree has coefficients over 2^degree and total degree ``degree`` in
    (x, m), so for integer or half-integer m the factor 4^degree clears every
    denominator; a remainder raises ArithmeticError rather than rounding.
    """
    # 4^degree times the coefficient of x^i, summed over the powers of m
    by_power = [0] * (degree + 1)
    for (xi, mj), coeff in _bform_coeffs(degree).items():
        value, remainder = divmod(
            coeff.numerator * 4**degree * twice_m**mj, coeff.denominator << mj
        )
        if remainder:
            raise ArithmeticError(f"b_{degree} coefficient at x^{xi} m^{mj} is not integral")
        by_power[xi] += value
    out = [0] * (degree + 1)
    for weight, basis in zip(by_power, _band_basis(degree)):
        for k, value in enumerate(basis):
            out[k] += weight * value
    return tuple(out)


def legendre_poly_part(degree: int, order: OrderLike, x: float) -> float:
    """Evaluate the polynomial factor b_degree(x, m) of the associated function."""
    m = float(_order_as_fraction(order))
    x = float(x)
    return math.fsum(
        float(coeff) * x**xi * m**mj for (xi, mj), coeff in _bform_coeffs(degree).items()
    )


def _reciprocal_gamma_factor(degree: int, order_fraction: Fraction) -> float:
    """1 / Gamma(|degree - m| + 1), exact for integer and half-integer m."""
    diff = abs(Fraction(degree) - order_fraction)
    if diff.denominator == 1:
        return 1.0 / math.factorial(int(diff))
    if diff.denominator == 2:
        # Gamma(n + 1/2 + 1) = sqrt(pi) * gamma_half(n + 1) for integer n >= 0
        n = (diff.numerator - 1) // 2
        return 1.0 / (math.sqrt(math.pi) * float(gamma_half(n + 1)))
    return 1.0 / math.gamma(float(diff) + 1.0)


def assoc_legendre_gt1(degree: int, order: OrderLike, x: float) -> float:
    """Associated Legendre function of the first kind for argument x > 1.

    Uses the real-axis normalization whose power factor is ((x+1)/(x-1))^(m/2),
    evaluated in exp/log form. Supports any real order; integer and
    half-integer orders take exact Gamma factors.
    """
    x = float(x)
    if not x > 1.0:
        raise DomainError(f"argument must be > 1, got {x!r}")
    order_fraction = _order_as_fraction(order)
    m = float(order_fraction)
    power = math.exp(0.5 * m * (math.log(x + 1.0) - math.log(x - 1.0)))
    return legendre_poly_part(degree, order_fraction, x) * power * _reciprocal_gamma_factor(
        degree, order_fraction
    )


def legendre_p(degree: int, x: float) -> float:
    """Legendre polynomial P_degree(x) on [-1, 1] by the three-term recurrence."""
    degree = require_order(degree, "degree")
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"argument must lie in [-1, 1], got {x!r}")
    if degree == 0:
        return 1.0
    prev, cur = 1.0, x
    for n in range(1, degree):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur


@lru_cache(maxsize=None)
def legendre_linearization_coeffs(l: int, lp: int) -> tuple[tuple[int, Fraction], ...]:
    """Exact coefficients c_mu with P_l * P_lp = sum_mu c_mu P_mu.

    c_mu = (2 mu + 1) * (three-j with zero projections)^2; the window runs over
    mu = |l - lp|, |l - lp| + 2, ..., l + lp and every listed coefficient is
    strictly positive.
    """
    l = require_order(l, "l")
    lp = require_order(lp, "lp")
    out = []
    for mu in range(abs(l - lp), l + lp + 1, 2):
        coupling = wigner_3j_zero(l, lp, mu)
        out.append((mu, (2 * mu + 1) * coupling.radicand))
    return tuple(out)
