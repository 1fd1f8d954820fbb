"""Legendre polynomials, half-integer-order associated functions, linearization."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from fourbessel.errors import DomainError
from fourbessel.legendre import (
    _bform_coeffs,
    assoc_legendre_gt1,
    bform_band_coeffs,
    legendre_linearization_coeffs,
    legendre_p,
    legendre_poly_part,
)

from test_quadbessel import _ratio_integral, _reference_gauss_legendre


# --------------------------------------------------------------------------
# independent reference: polynomial part via the raising recurrence
# --------------------------------------------------------------------------


def _reference_poly_coeffs(degree: int) -> dict[tuple[int, int], Fraction]:
    """(x-power, order-power) -> coefficient, built by repeated raising.

    Starts from the constant seed and applies
    q_{j+1} = (1 - x^2) dq_j/dx + 2 (m - (degree - j) x) q_j
    independently of the library's table/recurrence split.
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


@pytest.mark.parametrize("degree", range(0, 7))
def test_poly_part_coefficients_match_reference(degree):
    assert dict(_bform_coeffs(degree)) == _reference_poly_coeffs(degree)


# every integer and half-integer order from -25/2 to 25/2
POLY_PART_ORDERS = [Fraction(twice_m, 2) for twice_m in range(-25, 26)]


@pytest.mark.parametrize("degree", range(0, 23))
def test_poly_part_is_the_correctly_rounded_exact_value(degree):
    # b_degree(x, m) summed in Fractions from the independent reference
    # coefficients, then rounded once; near x = 1 the terms cancel by many
    # orders of magnitude, which a float sum of the monomials does not survive
    reference = _reference_poly_coeffs(degree)
    assert dict(_bform_coeffs(degree)) == reference
    for x in (1.0 + 1e-7, 1.001, 1.1, 1.5, 2.0, 10.0):
        exact_x = Fraction(x)
        by_power = {}
        for (xi, mj), coeff in reference.items():
            by_power.setdefault(mj, []).append(coeff * exact_x**xi)
        in_x = {mj: sum(parts) for mj, parts in by_power.items()}
        for m in POLY_PART_ORDERS:
            exact = sum(value * m**mj for mj, value in in_x.items())
            assert legendre_poly_part(degree, m, x) == float(exact), (degree, m, x)


def test_poly_part_raises_only_when_the_value_leaves_the_float_range():
    assert legendre_poly_part(12, Fraction(-1, 2), 1e9) == float(
        sum(
            c * Fraction(10**9) ** xi * Fraction(-1, 2) ** mj
            for (xi, mj), c in _reference_poly_coeffs(12).items()
        )
    )
    # b_40 at x = 1e9 is about 1e360
    with pytest.raises(DomainError):
        legendre_poly_part(40, Fraction(-1, 2), 1e9)
    with pytest.raises(DomainError):
        legendre_poly_part(2, Fraction(1, 2), math.inf)


def _mpmath_legenp(degree, order, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.mpf(order.numerator) / order.denominator
        return float(mpmath.legenp(degree, m, mpmath.mpf(x), type=3))


@pytest.mark.parametrize(
    "degree, order, x",
    [
        # b_12 cancels about 1e13-fold at x = 1 + 1e-7
        (12, Fraction(3), 1.0000001),
        (12, Fraction(15, 2), 1.1),
        # |degree - m| > 170: 1 / Gamma(|degree - m| + 1) alone is below the
        # float range, the value is not
        (12, Fraction(-160), 10.0),
        (12, Fraction(-321, 2), 10.0),
        (3, Fraction(-341, 2), 1.5),
    ],
)
def test_assoc_matches_mpmath(degree, order, x):
    reference = _mpmath_legenp(degree, order, x)
    assert assoc_legendre_gt1(degree, order, x) == pytest.approx(reference, rel=1e-14)


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


@pytest.mark.parametrize("degree", range(0, 5))
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("x", [1.5, 2.0, 5.0])
def test_assoc_integer_order_matches_standard_continuation(degree, order, x):
    if order > degree:
        pytest.skip("derivative continuation is identically zero above the degree")
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
    # evaluating the (x, m) polynomial at integer orders must agree with
    # evaluating it at the same order passed as a fraction
    assert legendre_poly_part(3, 1, 2.0) == pytest.approx(
        legendre_poly_part(3, Fraction(1), 2.0), rel=1e-15
    )


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


def test_linearization_weights_sum_to_one():
    for l in range(7):
        for lp in range(7):
            coeffs = legendre_linearization_coeffs(l, lp)
            assert sum(weight for _, weight in coeffs) == 1
            degrees = [mu for mu, _ in coeffs]
            assert degrees == list(range(abs(l - lp), l + lp + 1, 2))


@pytest.mark.parametrize("l", range(0, 6))
@pytest.mark.parametrize("lp", range(0, 6))
def test_linearization_reproduces_products(l, lp):
    for x in (-0.9, -0.3, 0.0, 0.42, 0.77, 1.0):
        product = legendre_p(l, x) * legendre_p(lp, x)
        expansion = math.fsum(
            float(weight) * legendre_p(mu, x) for mu, weight in legendre_linearization_coeffs(l, lp)
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
