"""The integer Laurent-kernel build against the Fraction build it replaced.

``_reference_laurent_kernel`` is that Fraction build: the bridge recoupling
and the band series in Fraction and SignedSqrtRational arithmetic. It reads the
test-side Fraction symbols (the 3j product form and the Racah 6j sum) and the
b-form coefficients of the raising recurrence, never the library's.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from math import factorial

import pytest

from fourbessel.core import IntegralSpec
from fourbessel.errors import NoValidBridge
from fourbessel.legendre import bform_band_coeffs
from fourbessel.quadbessel import _divide_one_minus_u, _Kernel, _laurent_kernel, evaluate
from fourbessel.wigner import SignedSqrtRational, select_bridge_order

from test_legendre import _reference_poly_coeffs
from test_quadbessel import _bridge_valid_tuples
from test_wigner import _reference_3j_product, _reference_6j

# the 15 order tuples of the benchmark's eval-kgrid workload
EVAL_KGRID_TUPLES = (
    (0, 0, 1, 1), (2, 2, 5, 5), (6, 6, 9, 9), (13, 13, 12, 12),
    (11, 10, 6, 5), (1, 2, 8, 7), (3, 2, 4, 3), (4, 6, 10, 10), (6, 9, 4, 3),
    (8, 3, 13, 10), (5, 8, 11, 6), (13, 4, 11, 2), (11, 2, 4, 13),
    (13, 0, 13, 0), (13, 0, 0, 13),
)


_poly_coeffs = functools.lru_cache(maxsize=None)(_reference_poly_coeffs)


def _reference_gamma_half(n: int) -> Fraction:
    return Fraction(factorial(2 * n), 4**n * factorial(n))


@functools.lru_cache(maxsize=None)
def _reference_band_basis(degree: int) -> tuple[tuple[int, ...], ...]:
    """Entry i: ascending u-coefficients of (1+u)^i (1-u)^(degree-i), by repeated products."""
    out = []
    for i in range(degree + 1):
        poly = [1]
        for factor in [(1, 1)] * i + [(1, -1)] * (degree - i):
            poly = [a * factor[0] + b * factor[1] for a, b in zip(poly + [0], [0] + poly)]
        out.append(tuple(poly))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _reference_band_coeffs(degree: int, twice_m: int) -> tuple[int, ...]:
    """4^degree (1-u)^degree b_degree(x, m) in powers of u, x = (1+u)/(1-u), m = twice_m/2."""
    m = Fraction(twice_m, 2)
    by_power = [Fraction(0)] * (degree + 1)
    for (xi, mj), coeff in _poly_coeffs(degree).items():
        by_power[xi] += 4**degree * coeff * m**mj
    out = [Fraction(0)] * (degree + 1)
    for weight, basis in zip(by_power, _reference_band_basis(degree)):
        for k, value in enumerate(basis):
            out[k] += weight * value
    assert all(value.denominator == 1 for value in out)
    return tuple(int(value) for value in out)


@functools.lru_cache(maxsize=None)
def _reference_side_factors(la: int, lb: int, L: int):
    out = []
    for split in range(L + 1):
        binom = SignedSqrtRational(1, Fraction(math.comb(2 * L, 2 * split)))
        for l in range(
            max(abs(la - (L - split)), abs(lb - split)), min(la + L - split, lb + split) + 1, 2
        ):
            factor = (
                binom
                * _reference_3j_product(la, L - split, l)
                * _reference_3j_product(lb, split, l)
                * _reference_6j(la, lb, L, split, L - split, l)
            ).scaled_by(2 * l + 1)
            if not factor.is_zero:
                out.append((split, l, factor.sign, factor.radicand))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _reference_band_series(l: int, lp: int, L: int):
    degree = max(L - 1, 0)
    scale = _reference_gamma_half(L)
    weights = [
        (
            mu,
            (2 * mu + 1)
            * _reference_3j_product(l, lp, mu).radicand
            * _reference_gamma_half(L + mu)
            / (scale * _reference_gamma_half(degree + mu + 1)),
        )
        for mu in range(abs(l - lp), l + lp + 1, 2)
    ]
    den = math.lcm(*(coeff.denominator for _, coeff in weights))
    out = [0] * (l + lp + 2 * degree + 1)
    for mu, coeff in weights:
        scaled = coeff.numerator * (den // coeff.denominator)
        band = _reference_band_coeffs(L - 1, -2 * mu - 1) if L >= 1 else (1,)
        for k, value in enumerate(band):
            out[mu + 2 * k] += scaled * value
    return den, tuple(out)


def _fraction_sqrt(value: Fraction) -> Fraction:
    root_num, root_den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    assert Fraction(root_num, root_den) ** 2 == value
    return Fraction(root_num, root_den)


def _reference_laurent_kernel(l1: int, l2: int, l3: int, l4: int) -> tuple[int, _Kernel]:
    """(L, kernel) for k1 >= k2 in Fraction arithmetic, as _laurent_kernel built it before."""
    L = select_bridge_order(l1, l2, l3, l4)
    left = _reference_side_factors(l1, l2, L)
    right = _reference_side_factors(l3, l4, L)
    w12, w34 = _reference_3j_product(l1, l2, L), _reference_3j_product(l3, l4, L)
    half_phase = (l1 + l2 + l3 + l4 - 2 * L) // 2
    sign = w12.sign * w34.sign * (-1 if half_phase % 2 else 1)
    first = left[0][3]
    reference = first * (2 * L + 1) ** 2 / (w12.radicand * w34.radicand)
    left_exact = [(s, l, sign * ls * _fraction_sqrt(rad / first)) for s, l, ls, rad in left]
    right_exact = [(s, l, rs * _fraction_sqrt(rad * reference)) for s, l, rs, rad in right]
    left_den = math.lcm(*(value.denominator for _, _, value in left_exact))
    right_den = math.lcm(*(value.denominator for _, _, value in right_exact))
    grouped: dict[tuple[int, int, int], int] = {}
    right_ints = [
        (s, l, value.numerator * (right_den // value.denominator)) for s, l, value in right_exact
    ]
    for s, l, value in left_exact:
        a = value.numerator * (left_den // value.denominator)
        for sp, lp, b in right_ints:
            key = (l, lp, s + sp) if l <= lp else (lp, l, s + sp)
            grouped[key] = grouped.get(key, 0) + a * b
    series = {key[:2]: _reference_band_series(key[0], key[1], L) for key in grouped}
    series_den = math.lcm(*(den for den, _ in series.values()))
    numerator = [0] * (2 * L + 1 + max(len(g) for _, g in series.values()))
    for (lo, hi, total), weight in grouped.items():
        den, g = series[(lo, hi)]
        factor = weight * (series_den // den)
        for index, value in enumerate(g):
            if value:
                numerator[total + index] += factor * value
    for _ in range(2 * L - 1):
        numerator = _divide_one_minus_u(numerator)
    common = 8 * 4 ** max(L - 1, 0) * left_den * right_den * series_den
    # K(t) = t^p0 P(t^2): index i holds the power i - 1, and every nonzero
    # power has the parity of the lowest
    powers = {index - 1: value for index, value in enumerate(numerator) if value}
    p0 = min(powers)
    assert all((p - p0) % 2 == 0 for p in powers)
    dense = tuple(powers.get(p, 0) for p in range(p0, max(powers) + 1, 2))
    return L, _Kernel(p0, dense, common, tuple(float(Fraction(n, common)) for n in dense))


def _assert_same_kernel(orders) -> bool:
    """The build equals the reference; False where both raise NoValidBridge."""
    try:
        bridge, expected = _reference_laurent_kernel(*orders)
    except NoValidBridge:
        with pytest.raises(NoValidBridge):
            _laurent_kernel(*orders)
        return False
    L, kernel = _laurent_kernel(*orders)
    assert L == bridge, orders
    assert kernel.p0 == expected.p0, orders
    # the two builds reach different common denominators: compare the exact ratios
    assert [Fraction(n, kernel.common) for n in kernel.numerators] == [
        Fraction(n, expected.common) for n in expected.numerators
    ], orders
    assert [c.hex() for c in kernel.floats] == [c.hex() for c in expected.floats], orders
    return True


def test_build_equals_the_fraction_build_on_orders_up_to_6():
    declined = sum(
        not _assert_same_kernel(orders) for orders in itertools.product(range(7), repeat=4)
    )
    assert declined == 1384


@pytest.mark.parametrize(
    "orders, bridge",
    [((14, 0, 14, 0), 14), ((17, 3, 16, 4), 14), ((22, 4, 21, 3), 18), ((20, 0, 20, 0), 20),
     ((25, 5, 25, 45), 20), ((26, 1, 27, 52), 25), ((30, 0, 30, 60), 30)],
)
def test_build_equals_the_fraction_build_at_bridge_orders_14_to_30(orders, bridge):
    assert _assert_same_kernel(orders)
    assert _laurent_kernel(*orders)[0] == bridge


def test_band_coeffs_equal_the_reference_up_to_bridge_order_30():
    # b_(L-1) at the orders -mu-1/2 that _band_series reads, degree 29 being
    # bridge order 30's; mu = 60 is the top of the (30, 0, 30, 60) kernel
    checked = 0
    for degree in range(30):
        for mu in sorted({0, degree, 2 * degree + 1, 60}):
            assert bform_band_coeffs(degree, -2 * mu - 1) == _reference_band_coeffs(
                degree, -2 * mu - 1
            ), (degree, mu)
            checked += 1
    assert checked == 119


def test_cold_build_does_no_fraction_or_signed_sqrt_arithmetic(monkeypatch, cold_caches):
    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction or SignedSqrtRational arithmetic in the cold build")

    for method in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Fraction, method, forbidden)
        monkeypatch.setattr(Fraction, method.replace("__", "__r", 1), forbidden)
    for method in ("__mul__", "__truediv__", "scaled_by", "to_float"):
        monkeypatch.setattr(SignedSqrtRational, method, forbidden)
    built = [_laurent_kernel(*orders) for orders in _bridge_valid_tuples(4)]
    # the benchmark's set-up: one evaluate per tuple at k = (1, 2), the exchanged kernel
    values = [evaluate(IntegralSpec(*orders, 1.0, 2.0)).value for orders in EVAL_KGRID_TUPLES]
    built += [_laurent_kernel(*orders) for orders in EVAL_KGRID_TUPLES]
    monkeypatch.undo()
    assert len(built) == 269 + 15
    assert all(math.isfinite(value) for value in values)
