"""Legendre polynomials and associated Legendre functions on the ray x > 1.

The associated functions are evaluated through their finite polynomial form:
for integer degree l and arbitrary (possibly half-integer) order m,

    P_l^m(x) = b_l(x, m) * ((x+1)/(x-1))^(m/2) / Gamma(|l - m| + 1)

where b_l is the terminating hypergeometric sum (DLMF §14.3)

    b_l(x, m) = (1-m)_l 2F1(-l, l+1; 1-m; (1-x)/2).

Its Pfaff transform (DLMF 15.8.1) at x = (1+u)/(1-u) is
4^l (1-u)^l b_l = 4^l (1-m)_l 2F1(-l, -m-l; 1-m; u), a polynomial in u with
integer coefficients for integer and half-integer m. The closed-form integral
machinery consumes that polynomial (the power and Gamma factors cancel into
exact rational prefactors there); the full function is exposed for direct
evaluation and cross-checking. Each form is one sum of l + 1 terms. The full
function sums b_l exactly at the rational values of x and m, so no degree is
too large and no cancellation near x = 1 costs digits; the result is rounded
once.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .core import require_order
from .errors import DomainError
from .wigner import gamma_half, wigner_3j_zero

OrderLike = Union[int, float, Fraction]


def _as_fraction(value: OrderLike, name: str) -> Fraction:
    """Exact rational value of a finite real argument (floats convert exactly)."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be numeric, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
        return Fraction(value)
    raise DomainError(f"{name} must be numeric, got {value!r}")


@lru_cache(maxsize=None)
def bform_band_coeffs(degree: int, twice_m: int) -> tuple[int, ...]:
    """Integer coefficients in u of 4^degree (1-u)^degree b_degree(x, m).

    Here x = (1+u)/(1-u) and m = twice_m/2, and the polynomial is
    4^l (1-m)_l 2F1(-l, -m-l; 1-m; u) for l = degree. Its u^k coefficient is
    2^l (-1)^k C(l, k) prod_(i<k) (2i - 2l - twice_m) prod_(k<j<=l) (2j - twice_m):
    every factor of the two products is twice its factor of (-m-l)_k or
    (1-m)_l / (1-m)_k, and 4^l clears the 2^-l that this leaves.
    """
    degree = require_order(degree, "degree")
    # upper[k] = prod_(k<j<=degree) (2j - twice_m)
    upper = [1] * (degree + 1)
    for k in range(degree, 0, -1):
        upper[k - 1] = upper[k] * (2 * k - twice_m)
    # lower = 2^degree (-1)^k prod_(i<k) (2i - 2 degree - twice_m)
    out, lower = [], 1 << degree
    for k in range(degree + 1):
        out.append(math.comb(degree, k) * lower * upper[k])
        lower *= 2 * degree + twice_m - 2 * k
    return tuple(out)


def _poly_part_ratio(degree: int, m: Fraction, x: Fraction) -> tuple[int, int]:
    """(num, den) with num / den = b_degree(x, m) exactly.

    At x = p/q and m = a/b the 2F1 sum over den = (2qb)^l, l = degree, is
    num = sum_k F_k prod_(k<j<=l) (bj - a) 2q, where
    F_k = (-1)^k C(l, k) (l+1)_k (b(q-p))^k. Horner's rule in the products
    runs it with two integers: F_k from F_(k-1), and the partial sum.
    """
    p, q = x.numerator, x.denominator
    a, b = m.numerator, m.denominator
    step = b * (q - p)
    num = term = 1
    for k in range(1, degree + 1):
        # C(l, k) = C(l, k-1) (l-k+1) / k, exact on the product so far
        term = -term * (degree - k + 1) * (degree + k) * step // k
        num = num * (b * k - a) * 2 * q + term
    return num, (2 * q * b) ** degree


_LN2 = math.log(2.0)


def _power_fourth_root(a: int, b: int, n: int) -> tuple[int, int]:
    """(r, e) with r 2^e = (a/b)^(n/4) to within 2^-60 relative, for a > b > 0, n >= 0.

    Binary powering in fixed point, every product cut back to ``bits`` bits so
    no integer grows with n; two isqrt then give a root of 64 bits or more.
    """
    bits = 64 + 2 * n.bit_length()
    base = (a << bits) // b
    mant, exp = 1, 0
    for digit in bin(n)[2:]:
        mant, exp = mant * mant, 2 * exp
        if digit == "1":
            mant, exp = mant * base, exp - bits
        cut = max(mant.bit_length() - bits, 0)
        mant, exp = mant >> cut, exp + cut
    lift = 256 + exp % 4
    return math.isqrt(math.isqrt(mant << lift)), (exp - lift) // 4


def assoc_legendre_gt1(degree: int, order: OrderLike, x: float) -> float:
    """Associated Legendre function of the first kind for argument x > 1.

    Uses the real-axis normalization whose power factor is ((x+1)/(x-1))^(m/2).
    Integer and half-integer orders take that power as the fourth root of
    ((p+q)/(p-q))^(2m) at x = p/q, to within 2^-60, and exact Gamma factors,
    all folded with b_degree into one rational; any other real order takes
    the power and Gamma in exp/log form. The rational and the power are each
    scaled by a power of two that is applied last, so DomainError is raised
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
    diff = abs(degree - m)
    try:
        log_power = 0.5 * float(m) * math.log1p(2.0 / (x - 1.0))
        log_gamma = math.lgamma(float(diff) + 1.0)
        # log|P| to within ln 2, checked before any exact Gamma or power is built
        estimate = (num.bit_length() - den.bit_length()) * _LN2 + log_power - log_gamma
        if estimate < -747.0:
            return 0.0 if num > 0 else -0.0
        if estimate < 711.0:
            # 1 / Gamma(|degree - m| + 1); Gamma(n + 3/2) = sqrt(pi) gamma_half(n + 1)
            factor = 1.0
            if diff.denominator == 1:
                den *= math.factorial(diff.numerator)
            elif diff.denominator == 2:
                gamma = gamma_half((diff.numerator + 1) // 2)
                num, den = num * gamma.denominator, den * gamma.numerator
                factor = 1.0 / math.sqrt(math.pi)
            if diff.denominator <= 2:
                p, q = exact_x.numerator, exact_x.denominator
                root, k = _power_fourth_root(p + q, p - q, abs(m.numerator) * (2 // m.denominator))
                if m < 0:
                    den, k = den * root, -k
                else:
                    num *= root
            else:
                k = round((log_power - log_gamma) / _LN2)
                factor = math.exp(log_power - log_gamma - k * _LN2)
            # num / den = mantissa * 2^shift, |mantissa| in (1/2, 2), correctly rounded
            shift = num.bit_length() - den.bit_length()
            mantissa = (num << -shift) / den if shift < 0 else num / (den << shift)
            return math.ldexp(mantissa * factor, shift + k)
    except OverflowError:
        pass
    raise DomainError(f"P_{degree}^{m}(x={x!r}) leaves the float range")


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
def _linearization_weights(l: int, lp: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(den, ((mu, num), ...)): the coefficients c_mu = num / den of P_l * P_lp in integers.

    c_mu = (2 mu + 1) * (three-j with zero projections)^2 over the lcm of the
    squared symbols' denominators, for mu = |l - lp|, |l - lp| + 2, ..., l + lp.
    """
    window = range(abs(l - lp), l + lp + 1, 2)
    radicands = [(mu, wigner_3j_zero(l, lp, mu).radicand) for mu in window]
    den = math.lcm(*(rad.denominator for _, rad in radicands))
    return den, tuple(
        (mu, (2 * mu + 1) * rad.numerator * (den // rad.denominator)) for mu, rad in radicands
    )
