"""Legendre polynomials, half-integer-order associated functions, linearization."""
from __future__ import annotations

import functools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from fourbessel import wigner
from fourbessel.errors import DomainError
from fourbessel.legendre import (
    _as_fraction,
    _poly_part_ratio,
    _scale,
    assoc_legendre_gt1,
    legendre_p,
)
from fourbessel.quadbessel import _linearization_weights, bform_band_coeffs

from test_quadbessel import _ratio_integral, _reference_gauss_legendre


# --------------------------------------------------------------------------
# independent reference: polynomial part via the raising recurrence
# --------------------------------------------------------------------------


def _reference_poly_coeffs(degree: int) -> dict[tuple[int, int], Fraction]:
    """(x-power, order-power) -> coefficient, built by repeated raising.

    Starts from the constant seed and applies
    q_{j+1} = (1 - x^2) dq_j/dx + 2 (m - (degree - j) x) q_j
    independently of the library's hypergeometric sums.
    """
    poly = {(0, 0): Fraction(1)}
    for step in range(degree):
        lowered = degree - step
        nxt: dict[tuple[int, int], Fraction] = {}

        def _bump(key, value):
            nxt[key] = nxt.get(key, Fraction(0)) + value

        for (xi, mj), coeff in poly.items():
            if xi:
                _bump((xi - 1, mj), xi * coeff)
                _bump((xi + 1, mj), -xi * coeff)
            _bump((xi, mj + 1), 2 * coeff)
            _bump((xi + 1, mj), -2 * lowered * coeff)
        poly = {key: val for key, val in nxt.items() if val}
    sign = -1 if degree % 2 else 1
    scale = Fraction(sign, 2 ** degree)
    return {key: val * scale for key, val in poly.items()}


def _reference_value(degree: int, m: Fraction, x: Fraction) -> Fraction:
    """b_degree(x, m) summed in Fractions from the reference coefficients."""
    return sum(c * x**xi * m**mj for (xi, mj), c in _reference_poly_coeffs(degree).items())


def _assert_exact_ratio(degree: int, m: Fraction, x: Fraction, expected: Fraction):
    """_poly_part_ratio is expected exactly, over the denominator (2 q b)^degree."""
    num, den = _poly_part_ratio(degree, m, x)
    assert type(num) is int and den == (2 * x.denominator * m.denominator) ** degree
    assert Fraction(num, den) == expected, (degree, m, x)
    return num, den


@pytest.mark.parametrize("degree", range(0, 7))
def test_poly_part_ratio_matches_reference_off_the_half_integers(degree):
    # b_degree is a polynomial in (x, m); the 2F1 sum holds at any rational
    # order and argument, also where the kernel never reads it
    for m in (Fraction(1, 3), Fraction(-7, 5), Fraction(0), Fraction(2)):
        for x in (Fraction(7, 3), Fraction(-1, 2), Fraction(0), Fraction(1)):
            _assert_exact_ratio(degree, m, x, _reference_value(degree, m, x))


# every integer and half-integer order from -25/2 to 25/2
POLY_PART_ORDERS = [Fraction(twice_m, 2) for twice_m in range(-25, 26)]


@pytest.mark.parametrize("degree", range(0, 23))
def test_poly_part_is_the_correctly_rounded_exact_value(degree):
    # b_degree(x, m) summed in Fractions from the independent reference
    # coefficients; near x = 1 the terms cancel by many orders of magnitude,
    # which a float sum of the monomials does not survive, so the ratio must
    # be exact and its int / int division the correctly rounded value
    reference = _reference_poly_coeffs(degree)
    for x in (1.0 + 1e-7, 1.001, 1.1, 1.5, 2.0, 10.0):
        exact_x = Fraction(x)
        by_power = {}
        for (xi, mj), coeff in reference.items():
            by_power.setdefault(mj, []).append(coeff * exact_x**xi)
        in_x = {mj: sum(parts) for mj, parts in by_power.items()}
        for m in POLY_PART_ORDERS:
            exact = sum(value * m**mj for mj, value in in_x.items())
            num, den = _assert_exact_ratio(degree, m, exact_x, exact)
            assert num / den == float(exact), (degree, m, x)


def test_poly_part_ratio_is_exact_past_the_float_range():
    m, x = Fraction(-1, 2), Fraction(10**9)
    _assert_exact_ratio(12, m, x, _reference_value(12, m, x))
    # b_40 at x = 1e9 is about 8e418: the ratio stays exact, and the function
    # raises only because its value leaves the float range as well
    exact = _reference_value(40, m, x)
    _assert_exact_ratio(40, m, x, exact)
    assert 10**418 < exact < 10**419
    with pytest.raises(DomainError, match="float range"):
        assoc_legendre_gt1(40, m, 1e9)


def _mpmath_legenp(degree, order, x):
    """mpmath's type-3 P_degree^order(x), in the package's normalization.

    The two agree for m <= 0. At degree 0 and m > 0, mpmath divides the power
    by Gamma(1 - m) where the package divides by Gamma(|m| + 1), so degree 0
    takes the closed form ((x+1)/(x-1))^(m/2) / Gamma(|m| + 1) throughout.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.mpf(order.numerator) / order.denominator
        x = mpmath.mpf(x)
        if degree == 0:
            return float(((x + 1) / (x - 1)) ** (m / 2) / mpmath.gamma(abs(m) + 1))
        return float(mpmath.legenp(degree, m, x, type=3))


@pytest.mark.parametrize(
    "degree, order, x, rel",
    [
        # b_12 cancels about 1e13-fold at x = 1 + 1e-7
        (12, Fraction(3), 1.0000001, 1e-14),
        (12, Fraction(15, 2), 1.1, 1e-14),
        # |degree - m| > 170: 1 / Gamma(|degree - m| + 1) alone is below the
        # float range, the value is not
        (12, Fraction(-160), 10.0, 1e-14),
        (12, Fraction(-321, 2), 10.0, 1e-14),
        (3, Fraction(-341, 2), 1.5, 1e-14),
        # the power's exponent m/2 log((x+1)/(x-1)) is 40 to 450, and its
        # rounding must not grow with it
        (0, Fraction(171), 1.01, 1e-15),
        (0, Fraction(101), 1.001, 1e-15),
        (0, Fraction(81, 2), 1.0001, 1e-15),
        (0, Fraction(303, 2), 1.01, 1e-15),
    ],
)
def test_assoc_matches_mpmath(degree, order, x, rel):
    reference = _mpmath_legenp(degree, order, x)
    # several values lie far below approx's default abs tolerance of 1e-12
    assert assoc_legendre_gt1(degree, order, x) == pytest.approx(reference, rel=rel, abs=0.0)


@pytest.mark.parametrize(
    "degree, order, x", [(200, Fraction(-5, 2), 1.2), (400, Fraction(-1, 2), 1.5)]
)
def test_assoc_at_high_degree_is_one_short_sum(degree, order, x):
    # b_l is one sum of l + 1 terms, so degree 400 needs no table of
    # (x-power, m-power) coefficients and little memory
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        m = mpmath.mpf(order.numerator) / order.denominator
        reference = float(mpmath.legenp(degree, m, mpmath.mpf(x), type=3))
    tracemalloc.start()
    try:
        value = assoc_legendre_gt1(degree, order, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(reference, rel=1e-14, abs=0.0)
    assert peak < 2**20


def _assert_scale_within_its_bound(m: Fraction, x: Fraction, z: Fraction):
    """r 2^e against ((x+1)/(x-1))^(m/2) / Gamma(z) at 80 digits: relative error < 2^-70."""
    mpmath = pytest.importorskip("mpmath")
    r, e = _scale(m, x, z)
    with mpmath.workdps(80):
        big_m = mpmath.mpf(m.numerator) / m.denominator
        ratio = mpmath.mpf(x.numerator + x.denominator) / (x.numerator - x.denominator)
        log = big_m / 2 * mpmath.log(ratio) - mpmath.loggamma(mpmath.mpf(z.numerator) / z.denominator)
        assert abs(mpmath.ldexp(r, e) / mpmath.exp(log) - 1) < mpmath.ldexp(1, -70), (m, x, z)
    return r, e


def test_scale_gamma_is_within_its_bound():
    # m = 0 leaves 1/Gamma(z): the shifted small arguments, the first unshifted
    # ones and the arguments of far larger orders, up to z = 5e14
    for twice_z in [*range(2, 140), 2 * 10**5 + 2, 4 * 10**5 + 3, 10**9 + 1, 10**15]:
        _assert_scale_within_its_bound(Fraction(0), Fraction(3), Fraction(twice_z, 2))
    # orders off the half-integers, and float orders with ~1000-bit denominators
    for m in (Fraction(1, 3), Fraction(-7, 5), Fraction(1e-300), Fraction(5e-324)):
        _assert_scale_within_its_bound(m, Fraction(3, 2), abs(3 - m) + 1)


def test_scale_power_is_within_its_bound():
    # ((x+1)/(x-1))^(m/2) = (a/b)^(n/4) at x = (a+b)/(a-b), m = n/2, and
    # Gamma(1) = 1: the power alone, with an exponent m/2 log(a/b) up to 2e3
    cases = ((3, 1, 0), (3, 1, 1), (201, 199, 342), (2**53 + 3, 2**53 - 1, 1001), (7, 5, 4097))
    for a, b, n in cases:
        _assert_scale_within_its_bound(Fraction(n, 2), Fraction(a + b, a - b), Fraction(1))


def test_scale_keeps_its_integers_small_at_large_order():
    # m = 5e8: an exact ((x+1)/(x-1))^(m/2) would take a 3e10-bit integer;
    # the decimal logarithm keeps the mantissa near 72 bits times the rising
    # product's, whatever the order
    x = Fraction(2**53)
    for m, z in ((Fraction(5 * 10**8), Fraction(1)), (Fraction(-10**9 - 1, 2), Fraction(10**9 + 3, 2))):
        r, _ = _assert_scale_within_its_bound(m, x, z)
        assert r.bit_length() < 200


def _unit_argument(degree: int, order: Fraction) -> float:
    """x > 1 at which ((x+1)/(x-1))^(m/2) / Gamma(|degree - m| + 1) is about 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.mpf(order.numerator) / order.denominator
        ratio = mpmath.exp(2 * mpmath.loggamma(abs(degree - m) + 1) / m)
        return float((ratio + 1) / (ratio - 1))


@pytest.mark.parametrize(
    "degree, order",
    [(0, Fraction(200000)), (0, Fraction(400001, 2)), (0, Fraction(100000)),
     (2, Fraction(200001, 2)), (5, Fraction(200011, 2))],
)
def test_assoc_at_large_order_builds_no_factorial(degree, order):
    # |degree - m| >= 10^5 at x = 1 + 4e-10 .. 2e-9, where the value is in the
    # float range: 200000! alone would take 0.4 MB and most of a second
    mpmath = pytest.importorskip("mpmath")
    x = _unit_argument(degree, order)
    with mpmath.workdps(40):
        m = mpmath.mpf(order.numerator) / order.denominator
        if degree == 0:
            reference = _mpmath_legenp(0, order, x)
        else:
            # legenp divides by Gamma(1 - m), the package by Gamma(|degree - m| + 1)
            reference = float(
                mpmath.legenp(degree, m, mpmath.mpf(x), type=3)
                * mpmath.gamma(1 - m + degree) / mpmath.gamma(abs(degree - m) + 1)
            )
    tracemalloc.start()
    try:
        value = assoc_legendre_gt1(degree, order, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(reference, rel=1e-14, abs=0.0)
    assert 1e-30 < abs(value) < 1e30
    assert peak < 2**16


def test_assoc_out_of_range_raises_domain_error():
    # x^2 leaves the float range
    with pytest.raises(DomainError, match="float range"):
        assoc_legendre_gt1(2, Fraction(1, 2), 1e200)
    # ((x+1)/(x-1))^350 / 700! is about 1e855
    with pytest.raises(DomainError, match="float range"):
        assoc_legendre_gt1(0, 700, 1.0000001)
    # degree 13 and up were refused by a degree cap; they are values now
    assert assoc_legendre_gt1(13, Fraction(-1, 2), 2.0) == pytest.approx(
        _mpmath_legenp(13, Fraction(-1, 2), 2.0), rel=1e-14
    )


def test_assoc_far_below_the_float_range_is_zero():
    # ((x+1)/(x-1))^(m/2) / Gamma(|m| + 1) underflows; no exact Gamma of a
    # huge argument is built on the way
    assert assoc_legendre_gt1(0, 10**7, 2.0) == 0.0
    assert assoc_legendre_gt1(0, -1e300, 2.0) == 0.0
    # orders where a float estimate of log|P| itself overflows
    for degree, order, x in [(0, 1e308, 1.0000001), (0, -1e308, 1.0000001),
                             (0, 10**400, 2.0), (0, -10**400, 2.0), (0, 1e200, 1.0000001),
                             (3, 10**400 + 1, 2.0)]:
        num, _ = _poly_part_ratio(degree, Fraction(order), Fraction(x))
        value = assoc_legendre_gt1(degree, order, x)
        assert value == 0.0 and math.copysign(1.0, value) == (1.0 if num > 0 else -1.0)
    assert math.copysign(1.0, assoc_legendre_gt1(3, 10**400 + 1, 2.0)) == -1.0
    # ((x+1)/(x-1))^100 / 200! is about 1e355
    with pytest.raises(DomainError, match="float range"):
        assoc_legendre_gt1(0, 200, 1.0000001)
    with pytest.raises(DomainError):
        assoc_legendre_gt1(0, Fraction(1, 3), math.inf)


# degree 21 is the b_(L-1) of bridge order L = 22
@pytest.mark.parametrize("degree", range(0, 22))
def test_band_coeffs_equal_the_scaled_polynomial_part_exactly(degree):
    # 4^d (1-u)^d b_d(x, m) at x = (1+u)/(1-u), from the independent reference
    # coefficients, at exact rational u and half-integer and integer orders
    reference = _reference_poly_coeffs(degree)
    for twice_m in (-1, -5, -27, 4):
        coeffs = bform_band_coeffs(degree, twice_m)
        assert all(isinstance(c, int) for c in coeffs) and len(coeffs) == degree + 1
        m = Fraction(twice_m, 2)
        for u in (Fraction(0), Fraction(3, 7), Fraction(-2, 5)):
            x = (1 + u) / (1 - u)
            direct = sum(c * x**xi * m**mj for (xi, mj), c in reference.items())
            expanded = sum(c * u**k for k, c in enumerate(coeffs))
            assert expanded == 4**degree * (1 - u) ** degree * direct, (twice_m, u)


# --------------------------------------------------------------------------
# associated Legendre values on (1, inf)
# --------------------------------------------------------------------------


def test_assoc_reference_values():
    # degree 0, order -1/2 reduces to 2/sqrt(pi) * ((x-1)/(x+1))^{1/4}
    x = 5.0 / 3.0
    assert assoc_legendre_gt1(0, Fraction(-1, 2), x) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-14
    )
    assert assoc_legendre_gt1(1, Fraction(-1, 2), x) == pytest.approx(
        1.1524999211596944, rel=1e-13
    )
    # integer order zero is the plain polynomial continuation
    assert assoc_legendre_gt1(2, 0, 2.0) == pytest.approx(5.5, rel=1e-14)
    assert assoc_legendre_gt1(3, 0, 2.0) == pytest.approx(0.5 * (5 * 2 ** 3 - 3 * 2), rel=1e-14)


def test_assoc_domain_errors():
    with pytest.raises(DomainError):
        assoc_legendre_gt1(0, Fraction(-1, 2), 1.0)
    with pytest.raises(DomainError):
        assoc_legendre_gt1(0, Fraction(-1, 2), 0.3)


def _standard_integer_order(degree: int, order: int, x: float) -> float:
    """(x^2-1)^{m/2} d^m/dx^m P_degree(x) for integer 0 <= m <= degree."""
    series = npleg.legder([0.0] * degree + [1.0], order)
    return (x * x - 1.0) ** (order / 2.0) * npleg.legval(x, series)


# order <= degree only: above it the derivative continuation is identically
# zero (test_assoc_integer_order_above_degree_differs_from_derivative_form)
@pytest.mark.parametrize(
    "degree, order", [(degree, order) for degree in range(0, 5) for order in (0, 1, 2) if order <= degree]
)
@pytest.mark.parametrize("x", [1.5, 2.0, 5.0])
def test_assoc_integer_order_matches_standard_continuation(degree, order, x):
    expected = _standard_integer_order(degree, order, x)
    value = assoc_legendre_gt1(degree, order, x)
    assert value == pytest.approx(expected, rel=1e-12)


def test_assoc_integer_order_above_degree_differs_from_derivative_form():
    # the m-th derivative of a degree-l polynomial vanishes for m > l, while
    # the polynomial-times-power normal form continues analytically in the
    # order; the two conventions intentionally part ways there
    value = assoc_legendre_gt1(1, 2, 3.0)
    assert math.isfinite(value) and value != 0.0
    assert _standard_integer_order(1, 2, 3.0) == 0.0


def _terminating_hypergeometric(degree: int, order: Fraction, x: float) -> float:
    """2F1(-l, l+1; 1-m; (1-x)/2) form; terminates for integer degree."""
    z = (1.0 - x) / 2.0
    c = 1.0 - float(order)
    term = 1.0
    total = 1.0
    for n in range(degree):
        term *= (-degree + n) * (degree + 1 + n) / ((c + n) * (n + 1)) * z
        total += term
    prefactor = ((x + 1.0) / (x - 1.0)) ** (float(order) / 2.0) / math.gamma(c)
    return prefactor * total


@pytest.mark.parametrize("degree", range(0, 5))
@pytest.mark.parametrize("order", [Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 2)])
@pytest.mark.parametrize("x", [1.2, 5.0 / 3.0, 3.0, 10.0])
def test_assoc_half_integer_order_matches_hypergeometric(degree, order, x):
    expected = _terminating_hypergeometric(degree, order, x)
    value = assoc_legendre_gt1(degree, order, x)
    assert value == pytest.approx(expected, rel=1e-12)


@given(
    degree=st.integers(min_value=0, max_value=8),
    x=st.floats(min_value=1.05, max_value=50.0),
)
def test_assoc_order_zero_equals_polynomial_continuation(degree, x):
    series = [0.0] * degree + [1.0]
    assert assoc_legendre_gt1(degree, 0, x) == pytest.approx(
        npleg.legval(x, series), rel=1e-10
    )


def test_poly_part_is_polynomial_in_the_order():
    # an integer order, the same order as a Fraction and as a float give the
    # same exact ratio, and so the same value
    orders = (1, Fraction(1), 1.0)
    ratios = {_poly_part_ratio(3, _as_fraction(m, "order"), Fraction(2)) for m in orders}
    assert len(ratios) == 1
    num, den = ratios.pop()
    assert Fraction(num, den) == _reference_value(3, Fraction(1), Fraction(2))
    values = {assoc_legendre_gt1(3, m, 2.0).hex() for m in orders}
    assert len(values) == 1


def test_assoc_accepts_any_rational_order_but_bool():
    # numpy integers are numbers.Rational, as the degree slot already allows;
    # their fixed width is dropped before the exact sums
    for order in (np.int64(1), np.int32(1), np.uint8(1)):
        assert assoc_legendre_gt1(2, order, 2.0) == assoc_legendre_gt1(2, 1, 2.0)
        assert type(_as_fraction(order, "order").numerator) is int
    assert assoc_legendre_gt1(2, np.int64(-40), 2.0) == assoc_legendre_gt1(2, -40, 2.0)
    for order in (True, "1", 1j):
        with pytest.raises(DomainError, match="order must be numeric"):
            assoc_legendre_gt1(2, order, 2.0)


def test_assoc_float_orders_with_huge_denominators_round_once():
    # 1e-300 and 5e-324 are exact rationals over 2^1049 and 2^1074: the value
    # is the order-zero polynomial to within 1e-300 relative, so it rounds to it
    assert assoc_legendre_gt1(3, 1e-300, 2.0) == 17.0
    assert assoc_legendre_gt1(3, 5e-324, 1.5) == 6.1875
    assert assoc_legendre_gt1(3, -5e-324, 1.5) == 6.1875


@functools.lru_cache(maxsize=None)
def _integer_poly_coeffs(degree: int) -> tuple[tuple[int, int, int], ...]:
    """(x-power, order-power, 2^degree coefficient) of the reference b_degree, all integers."""
    return tuple(
        (xi, mj, int(c * 2**degree)) for (xi, mj), c in _reference_poly_coeffs(degree).items()
    )


def _reference_b(degree: int, m: Fraction, x: Fraction) -> Fraction:
    """b_degree(x, m) exactly, summed in integers from the reference coefficients."""
    p, q, a, b = x.numerator, x.denominator, m.numerator, m.denominator
    num = sum(
        c * p**xi * q ** (degree - xi) * a**mj * b ** (degree - mj)
        for xi, mj, c in _integer_poly_coeffs(degree)
    )
    return Fraction(num, (2 * q * b) ** degree)


def test_assoc_seeded_sweep_is_within_one_rounding():
    # Rational orders in [-150, 150] over 1, 2, 3, 5, 7 and 10, and float
    # orders (exact rationals over powers of two up to 2^1074), at degrees
    # 0-30 and x = 1 + 10^U(-8, 3), against b_l from the raising recurrence
    # times the power and Gamma factors in mpmath. Every normal value is within
    # one rounding plus the scale's 2^-70: 2.5e-16 relative. Excluded from
    # that bound: values in the subnormal range (and below it), where the final
    # ldexp rounds a second time; they are held to one subnormal step instead.
    # Values above the float range must raise.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    tiny, huge = sys.float_info.min, sys.float_info.max
    checked, excluded, raised = 0, [], 0
    for kind in (1, 2, 3, 5, 7, 10, "float"):
        for _ in range(100):
            degree = int(rng.integers(0, 31))
            if kind == "float":
                order = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-320, math.log10(150)))
            else:
                order = Fraction(int(rng.integers(-150 * kind, 150 * kind + 1)), kind)
            x = 1.0 + 10 ** rng.uniform(-8, 3)
            m = Fraction(order)
            with mpmath.workdps(40):
                big_m = mpmath.mpf(m.numerator) / m.denominator
                exact = _reference_b(degree, m, Fraction(x))
                reference = (
                    mpmath.mpf(exact.numerator) / exact.denominator
                    * ((mpmath.mpf(x) + 1) / (mpmath.mpf(x) - 1)) ** (big_m / 2)
                    / mpmath.gamma(abs(degree - big_m) + 1)
                )
            case = (degree, order, x)
            if abs(reference) > huge:
                with pytest.raises(DomainError, match="float range"):
                    assoc_legendre_gt1(*case)
                raised += 1
                continue
            value = assoc_legendre_gt1(*case)
            if abs(reference) < tiny:
                excluded.append(case)
                assert abs(value - reference) <= 2.0**-1074, case
                continue
            error = float(abs(value / reference - 1))
            assert error <= 2.5e-16, (case, error)
            checked += 1
    # 601 normal, 88 excluded and 11 raised at this seed
    assert checked > 550 and len(excluded) < 120 and raised > 0, (checked, excluded, raised)


# --------------------------------------------------------------------------
# Legendre polynomials on [-1, 1]
# --------------------------------------------------------------------------


@pytest.mark.parametrize("degree", range(0, 13))
def test_legendre_p_matches_numpy(degree):
    xs = np.linspace(-1.0, 1.0, 23)
    series = [0.0] * degree + [1.0]
    for x in xs:
        assert legendre_p(degree, float(x)) == pytest.approx(
            float(npleg.legval(float(x), series)), abs=1e-13
        )


def test_legendre_p_domain_error():
    with pytest.raises(DomainError):
        legendre_p(2, 1.0001)
    with pytest.raises(DomainError):
        legendre_p(2, -1.5)


def test_legendre_p_orthogonality_by_quadrature():
    for l in range(6):
        for lp in range(6):
            value = _reference_gauss_legendre(lambda t: legendre_p(l, t) * legendre_p(lp, t), 24)
            expected = 2.0 / (2 * l + 1) if l == lp else 0.0
            assert value == pytest.approx(expected, abs=1e-13)


# --------------------------------------------------------------------------
# product linearization
# --------------------------------------------------------------------------


def _linearization_coeffs(l, lp):
    """((mu, c_mu), ...) with P_l * P_lp = sum_mu c_mu P_mu, from the integer weights."""
    den, weights = _linearization_weights(l, lp)
    return tuple((mu, Fraction(num, den)) for mu, num in weights)


def _reference_linearization_weights(l, lp):
    """The rows read symbol by symbol: each 3j square, over the lcm of their denominators."""
    window = range(abs(l - lp), l + lp + 1, 2)
    squares = [wigner._three_j_square.__wrapped__(l, lp, mu) for mu in window]
    den = math.lcm(*(square_den for _, _, square_den in squares))
    return den, tuple(
        (mu, (2 * mu + 1) * num * (den // square_den))
        for mu, (_, num, square_den) in zip(window, squares)
    )


def test_linearization_rows_equal_the_symbol_by_symbol_rows():
    # one running product of Adams' step ratio per row, against one 3j square
    # per mu. Both are over the squares' least common denominator, so the rows
    # agree as integers too, and 2 mu + 1 divides each num, as the kernel
    # build's division at bridge order 0 needs
    for l in range(61):
        for lp in range(61):
            den, weights = _linearization_weights.__wrapped__(l, lp)
            expected_den, expected = _reference_linearization_weights(l, lp)
            assert [Fraction(num, den) for _, num in weights] == [
                Fraction(num, expected_den) for _, num in expected
            ], (l, lp)
            assert (den, weights) == (expected_den, expected), (l, lp)


def test_linearization_weights_sum_to_one():
    for l in range(7):
        for lp in range(7):
            coeffs = _linearization_coeffs(l, lp)
            assert sum(weight for _, weight in coeffs) == 1
            degrees = [mu for mu, _ in coeffs]
            assert degrees == list(range(abs(l - lp), l + lp + 1, 2))


@pytest.mark.parametrize("l", range(0, 6))
@pytest.mark.parametrize("lp", range(0, 6))
def test_linearization_reproduces_products(l, lp):
    for x in (-0.9, -0.3, 0.0, 0.42, 0.77, 1.0):
        product = legendre_p(l, x) * legendre_p(lp, x)
        expansion = math.fsum(
            float(weight) * legendre_p(mu, x) for mu, weight in _linearization_coeffs(l, lp)
        )
        assert expansion == pytest.approx(product, abs=1e-13)


# --------------------------------------------------------------------------
# kernel completeness: truncated expansions converge to the kernel
# --------------------------------------------------------------------------


def test_kernel_expansion_errors_shrink():
    y, bridge, delta = 1.25, 1, 0.3
    target = (y - delta) ** (-bridge - 0.5)
    errors = []
    for top in (4, 8, 16, 32):
        partial = math.fsum(
            (2 * mu + 1) / 2.0
            * _ratio_integral(mu, 0, bridge, y)
            * legendre_p(mu, delta)
            for mu in range(top + 1)
        )
        errors.append(abs(partial - target))
    assert errors == sorted(errors, reverse=True)
    assert errors[0] == pytest.approx(0.1465, rel=5e-3)
    assert errors[1] == pytest.approx(0.009415, rel=5e-3)
    assert errors[2] == pytest.approx(7.079e-5, rel=5e-3)
    assert errors[3] == pytest.approx(3.935e-10, rel=5e-3)
