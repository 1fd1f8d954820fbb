"""Legendre polynomials and associated Legendre functions on the ray x > 1.

For integer degree l and any rational order m = a/b (half-integers included),

    P_l^m(x) = b_l(x, m) * ((x+1)/(x-1))^(m/2) / Gamma(|l - m| + 1),
    b_l(x, m) = (1-m)_l 2F1(-l, l+1; 1-m; (1-x)/2)        (DLMF §14.3).

The Pfaff transform (DLMF 15.8.1) at x = (1+u)/(1-u) gives 4^l (1-u)^l b_l =
4^l (1-m)_l 2F1(-l, -m-l; 1-m; u), (4/b)^l times an integer polynomial in u.
Its coefficients come from the closed-form engine's `_band_products`, which
the kernel build reads at half-integer m, so both take one route; here the
full function sums the same integers exactly at the rational x, so no degree
is too large and no cancellation near x = 1 costs digits. The power and Gamma
factors come from one logarithm in decimal, to within 2^-70 at every
rational order, and the result is rounded once.

``import fourbessel`` does not load this module: the package resolves
``legendre_p`` and ``assoc_legendre_gt1`` on their first read.
"""
from __future__ import annotations

import math
import numbers
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

from .core import require_order
from .errors import DomainError
from .quadbessel import _band_products

# Not read here. The benchmark's tracer hooks fourbessel.legendre.wigner_3j_zero,
# and the set of hooks whose name is gone may only shrink.
from .wigner import wigner_3j_zero  # noqa: F401

OrderLike = Union[int, float, Fraction]


def _as_fraction(value: OrderLike, name: str) -> Fraction:
    """Exact rational value of a finite real argument (floats convert exactly)."""
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        # int() so that a numpy integer's fixed width never reaches the sums
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
        return Fraction(value)
    raise DomainError(f"{name} must be numeric, got {value!r}")


def _poly_part_ratio(degree: int, m: Fraction, x: Fraction) -> tuple[int, int]:
    """(num, den) with num / den = b_degree(x, m) exactly, den = (2qb)^degree.

    At x = p/q, u = (p-q)/(p+q) and 1-u = 2q/(p+q) turn the band polynomial at
    m = a/b into num = sum_k c_k (p-q)^k (p+q)^(l-k), l = degree: an identity of
    polynomials in (p, q), so it holds at every rational x, x <= 1 included.
    """
    p, q = x.numerator, x.denominator
    num, power = 0, 1
    for c in reversed(_band_products(degree, m.numerator, m.denominator, 1)):
        num = num * (p - q) + c * power
        power *= p + q
    return num, (2 * q * m.denominator) ** degree


# B_2k / (2k (2k - 1)), k = 1 .. 6: the terms of Stirling's series for ln Gamma (DLMF 5.11.1)
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360))
# Past its last term the series is within B_14 / (182 w^13) < 2^-72 for w >= 32.
_STIRLING_FROM = 32
_HALF_LOG_TWO_PI = Decimal("0.918938533204672741780329736405617639861397473637783412817151540")
_LOG_TWO = Decimal("0.693147180559945309417232121458176568075500134360255254120680009")


def _ln(y: Decimal) -> Decimal:
    """ln y at the context's precision: the float log, corrected by ln(1 + d) = d - d^2/2."""
    guess = Decimal(math.log(y))
    d = y * (-guess).exp() - 1
    return guess + d - d * d / 2


def _scale(m: Fraction, x: Fraction, z: Fraction) -> tuple[int, int]:
    """(r, e) with r 2^e = ((x+1)/(x-1))^(m/2) / Gamma(z) to within 2^-70 relative, x > 1, z >= 1.

    One logarithm in decimal, the power's minus Stirling's series at
    w = z + s >= _STIRLING_FROM, then one exponential times the rising product
    z (z + 1) ... (z + s - 1) = Gamma(w) / Gamma(z), also in decimal, so no
    exact denominator grows with s. The precision follows the magnitudes of m
    and z, not their digits, so the logarithm keeps 72 bits after its point.
    """
    shift = max(0, math.ceil(_STIRLING_FROM - z))
    with localcontext() as context:
        context.prec = 32 + len(str(math.ceil(max(abs(m), z))))
        start = Decimal(z.numerator) / z.denominator
        rising = math.prod(start + i for i in range(shift))
        w = start + shift
        inverse = 1 / w
        series = sum(num * inverse ** (2 * k + 1) / den for k, (num, den) in enumerate(_STIRLING))
        p, q = x.numerator, x.denominator
        log_power = Decimal(m.numerator) / (2 * m.denominator) * _ln(Decimal(p + q) / (p - q))
        # ln Gamma(w) = (w - 1/2) ln w - w + ln(2 pi) / 2 + series
        log = log_power - (w - Decimal("0.5")) * _ln(w) + w - _HALF_LOG_TWO_PI - series
        # the remainder lies in [0, ln 2), its exponential in [1, 2)
        exponent = math.floor(log / _LOG_TWO)
        mantissa = int((log - exponent * _LOG_TWO).exp() * rising * (1 << 72))
    return mantissa, exponent - 72


def _log_magnitude(bits: int, m: Fraction, x: float, z: Fraction) -> Decimal:
    """ln|P| to within ln 2 + 0.003, where num / den = b_l lies within a factor 2 of 2^bits.

    Taken in decimal, whose exponent range holds it at any order: the power's
    logarithm, minus ln Gamma(z) from Stirling's series to its 1/(12 z) term,
    within 0.003 for z >= 1. The logarithms are floats; math.log takes an
    integer of any size.
    """
    with localcontext() as context:
        context.prec = 20
        w = Decimal(z.numerator) / z.denominator
        ln_w = Decimal(math.log(z.numerator) - math.log(z.denominator))
        log_gamma = (w - Decimal("0.5")) * ln_w - w + _HALF_LOG_TWO_PI + 1 / (12 * w)
        log_power = Decimal(m.numerator) / (2 * m.denominator) * Decimal(math.log1p(2.0 / (x - 1.0)))
        return bits * _LOG_TWO + log_power - log_gamma


def assoc_legendre_gt1(degree: int, order: OrderLike, x: float) -> float:
    """Associated Legendre function of the first kind for argument x > 1.

    Uses the real-axis normalization whose power factor is ((x+1)/(x-1))^(m/2).
    Every order takes one route at its exact rational value (floats convert
    exactly): b_degree summed exactly at x = p/q from the kernel's band
    coefficients, times ((x+1)/(x-1))^(m/2) / Gamma(|degree - m| + 1) from one
    decimal logarithm, to within 2^-70, rounded once. DomainError is raised
    only when the value itself leaves the float range; a value below it is 0.0.
    """
    degree = require_order(degree, "degree")
    m = _as_fraction(order, "order")
    x = float(x)
    if not x > 1.0:
        raise DomainError(f"argument must be > 1, got {x!r}")
    exact_x = _as_fraction(x, "x")
    num, den = _poly_part_ratio(degree, m, exact_x)
    if not num:
        return 0.0
    z = abs(degree - m) + 1
    # checked before the decimal scale is built
    estimate = _log_magnitude(num.bit_length() - den.bit_length(), m, x, z)
    if estimate < -747:
        return 0.0 if num > 0 else -0.0
    try:
        if estimate < 711:
            scale, k = _scale(m, exact_x, z)
            num *= scale
            # num / den = mantissa * 2^shift, |mantissa| in (1/2, 2), correctly rounded
            shift = num.bit_length() - den.bit_length()
            mantissa = (num << -shift) / den if shift < 0 else num / (den << shift)
            return math.ldexp(mantissa, shift + k)
    except OverflowError:
        pass
    raise DomainError(f"P_{degree}^{m}(x={x!r}) leaves the float range")


def legendre_p(degree: int, x: float) -> float:
    """Legendre polynomial P_degree(x) on [-1, 1] by the three-term recurrence.

    For |x| > 1/2 the recurrence runs on the differences D_n = P_n - P_(n-1)
    at |x|, D_(n+1) = ((2n+1)(|x|-1) P_n + n D_n) / (n+1) (Reinsch's form),
    with P_n(-x) = (-1)^n P_n(x): near x = +-1 the plain recurrence loses up
    to 1e-11 by degree 200, this one about 1e-13.
    """
    degree = require_order(degree, "degree")
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"argument must lie in [-1, 1], got {x!r}")
    if degree == 0:
        return 1.0
    if abs(x) <= 0.5:
        prev, cur = 1.0, x
        for n in range(1, degree):
            prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
        return cur
    # u = |x| - 1 is exact for |x| in [1/2, 1]
    u = abs(x) - 1.0
    cur, step = abs(x), u
    for n in range(1, degree):
        step = ((2 * n + 1) * u * cur + n * step) / (n + 1)
        cur += step
    return -cur if x < 0 and degree % 2 else cur
