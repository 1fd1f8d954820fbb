"""Exact coupling-coefficient layer: signed square-root rationals, 3j/6j."""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import sys
import traceback
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbessel import wigner
from fourbessel.errors import DomainError, NoValidBridge
from fourbessel.core import IntegralSpec
from fourbessel.quadbessel import _laurent_kernel, evaluate
from fourbessel.wigner import (
    SignedSqrtRational,
    gamma_half,
    select_bridge_order,
    wigner_3j_zero,
    wigner_6j,
)

from test_quadbessel import _bridge_valid_tuples


# --------------------------------------------------------------------------
# independent reference: general single-sum 3j formula at zero projections
# --------------------------------------------------------------------------


def _reference_3j_zero(j1: int, j2: int, j3: int) -> tuple[int, Fraction]:
    """(sign, radicand) from the alternating single-sum formula.

    Deliberately a different algorithm from the library's closed product
    form: for odd total angular momentum the alternating sum cancels to
    zero term by term instead of being short-circuited.
    """
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0, Fraction(0)
    delta = Fraction(
        factorial(j1 + j2 - j3) * factorial(j1 - j2 + j3) * factorial(-j1 + j2 + j3),
        factorial(j1 + j2 + j3 + 1),
    )
    total = Fraction(0)
    for t in range(max(0, j2 - j3, j1 - j3), min(j1 + j2 - j3, j1, j2) + 1):
        denominator = (
            factorial(t)
            * factorial(j3 - j2 + t)
            * factorial(j3 - j1 + t)
            * factorial(j1 + j2 - j3 - t)
            * factorial(j1 - t)
            * factorial(j2 - t)
        )
        total += Fraction(-1 if t % 2 else 1, denominator)
    total *= (-1 if (j1 - j2) % 2 else 1) * factorial(j1) * factorial(j2) * factorial(j3)
    if total == 0:
        return 0, Fraction(0)
    sign = 1 if total > 0 else -1
    return sign, total * total * delta


@pytest.mark.parametrize(
    "j1, j2, j3, expected_sign, expected_radicand",
    [
        (0, 0, 0, 1, Fraction(1)),
        (1, 1, 0, -1, Fraction(1, 3)),
        (1, 1, 2, 1, Fraction(2, 15)),
        (2, 2, 2, -1, Fraction(2, 35)),
        (2, 2, 4, 1, Fraction(2, 35)),
        (3, 2, 1, -1, Fraction(3, 35)),
    ],
)
def test_3j_known_values(j1, j2, j3, expected_sign, expected_radicand):
    symbol = wigner_3j_zero(j1, j2, j3)
    assert symbol.sign == expected_sign
    assert symbol.radicand == expected_radicand


@pytest.mark.parametrize("j1, j2, j3", [(1, 1, 1), (2, 1, 2), (0, 1, 0), (3, 3, 1)])
def test_3j_odd_total_is_zero(j1, j2, j3):
    assert wigner_3j_zero(j1, j2, j3).is_zero


@pytest.mark.parametrize("j1, j2, j3", [(0, 0, 1), (1, 1, 3), (5, 1, 2)])
def test_3j_triangle_violation_is_zero(j1, j2, j3):
    assert wigner_3j_zero(j1, j2, j3).is_zero


def test_3j_matches_reference_formula_exactly():
    for j1 in range(9):
        for j2 in range(9):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                sign, radicand = _reference_3j_zero(j1, j2, j3)
                symbol = wigner_3j_zero(j1, j2, j3)
                assert symbol.sign == sign, (j1, j2, j3)
                assert symbol.radicand == radicand, (j1, j2, j3)


def test_3j_orthogonality_exact_rational():
    # sum over the coupled momentum of (2j3+1) (3j)^2 telescopes to exactly 1
    for j1 in range(7):
        for j2 in range(7):
            total = Fraction(0)
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                total += (2 * j3 + 1) * wigner_3j_zero(j1, j2, j3).radicand
            assert total == 1, (j1, j2)


@given(
    j1=st.integers(min_value=0, max_value=12),
    j2=st.integers(min_value=0, max_value=12),
    j3=st.integers(min_value=0, max_value=24),
)
def test_3j_fully_symmetric_under_column_permutations(j1, j2, j3):
    # even total momentum makes odd permutations sign-free as well
    reference = wigner_3j_zero(j1, j2, j3)
    for perm in ((j1, j3, j2), (j2, j1, j3), (j2, j3, j1), (j3, j1, j2), (j3, j2, j1)):
        assert wigner_3j_zero(*perm) == reference


# --------------------------------------------------------------------------
# 6j
# --------------------------------------------------------------------------


# --------------------------------------------------------------------------
# the Fraction forms the library computed before its integer factorial quotients
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _reference_3j_product(j1: int, j2: int, j3: int) -> SignedSqrtRational:
    """3j(j1 j2 j3; 0 0 0) from its closed product form, in Fraction arithmetic."""
    big_j = j1 + j2 + j3
    if big_j % 2 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return SignedSqrtRational.zero()
    g = big_j // 2
    radicand = Fraction(
        factorial(big_j - 2 * j1) * factorial(big_j - 2 * j2) * factorial(big_j - 2 * j3),
        factorial(big_j + 1),
    )
    coeff = Fraction(factorial(g), factorial(g - j1) * factorial(g - j2) * factorial(g - j3))
    return SignedSqrtRational(-1 if g % 2 else 1, radicand * coeff * coeff)


@functools.lru_cache(maxsize=None)
def _reference_6j(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> SignedSqrtRational:
    """{j1 j2 j3; j4 j5 j6} from the Racah single sum, in Fraction arithmetic."""
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(abs(a - b) <= c <= a + b for a, b, c in triads):
        return SignedSqrtRational.zero()
    prefactor = math.prod(
        Fraction(
            factorial(a + b - c) * factorial(a - b + c) * factorial(-a + b + c),
            factorial(a + b + c + 1),
        )
        for a, b, c in triads
    )
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


def test_3j_equals_the_fraction_product_form():
    for j1, j2, j3 in itertools.product(range(25), repeat=3):
        assert wigner_3j_zero(j1, j2, j3) == _reference_3j_product(j1, j2, j3), (j1, j2, j3)
    # and at the orders of a bridge order 30 kernel
    for j3 in range(0, 91, 3):
        assert wigner_3j_zero(60, 30, j3) == _reference_3j_product(60, 30, j3), j3
    # and on both sides of the factorial table's end, which 3j reaches at j1+j2+j3+1
    assert {62 + 64 + j3 + 1 < len(wigner._FACTORIALS) for j3 in range(56, 73, 2)} == {True, False}
    for j3 in range(56, 73, 2):
        assert wigner_3j_zero(62, 64, j3) == _reference_3j_product(62, 64, j3), j3
    # and at large orders, where the binomials C(2g, g) have g past 250
    for j3 in range(168, 177, 2):
        assert wigner_3j_zero(170, 170, j3) == _reference_3j_product(170, 170, j3), j3


def test_3j_square_is_the_symbol_in_lowest_terms():
    # the kernel build's integer squares against the public symbol, inside and
    # outside each triangle; uncached, so the check leaves no 234k-entry caches
    symbol, square = wigner_3j_zero.__wrapped__, wigner._three_j_square.__wrapped__
    nonzero = 0
    for j1, j2 in itertools.product(range(61), repeat=2):
        for j3 in range(j1 + j2 + 3):
            expected = symbol(j1, j2, j3)
            sign, num, den = square(j1, j2, j3)
            assert (sign, num, den) == (
                expected.sign, expected.radicand.numerator, expected.radicand.denominator
            ), (j1, j2, j3)
            nonzero += sign != 0
    assert nonzero == sum(
        min(j1, j2) + 1 for j1, j2 in itertools.product(range(61), repeat=2)
    )


def test_6j_equals_the_fraction_racah_sum():
    nonzero = 0
    for args in itertools.product(range(7), repeat=6):
        symbol = wigner_6j(*args)
        assert symbol == _reference_6j.__wrapped__(*args), args
        nonzero += not symbol.is_zero
    assert nonzero > 10000
    # and the symbols of the bridge order 30 kernel of (30, 0, 30, 60)
    for split in range(31):
        low = 30 - split
        for args in ((30, 0, 30, split, low, split), (30, 60, 30, split, low, 60 - split)):
            symbol = wigner_6j(*args)
            assert not symbol.is_zero and symbol == _reference_6j(*args), args
    # and on both sides of the factorial table's end, which the sum reaches at t_hi + 1 = 4j
    assert {4 * j < len(wigner._FACTORIALS) for j in range(46, 50)} == {True, False}
    for j in range(46, 50):
        args = (j, j, j, j, j, j - 1)
        assert wigner_6j(*args) == _reference_6j(*args), args


def test_6j_square_is_the_symbol_in_integers(monkeypatch):
    # every symbol with all j <= 8, the vanishing and triangle-failing ones
    # included; uncached, so the run holds no table of half a million symbols
    square = wigner._six_j_square.__wrapped__
    monkeypatch.setattr(wigner, "_six_j_square", square)
    counts = {-1: 0, 0: 0, 1: 0}
    for args in itertools.product(range(9), repeat=6):
        sign, num, den = square(*args)
        symbol = wigner_6j.__wrapped__(*args)
        assert sign == symbol.sign and Fraction(num, den) == symbol.radicand, args
        assert den > 0 and (num == 0) == (sign == 0), args
        counts[sign] += 1
    assert min(counts.values()) > 30000
    # {1 2 2; 3 2 2}: its four triangles hold, but its Racah sum vanishes
    triads = ((1, 2, 2), (1, 2, 2), (3, 2, 2), (3, 2, 2))
    assert all(wigner._triangle_ok(*t) for t in triads) and square(1, 2, 2, 3, 2, 2) == (0, 0, 1)
    assert square(0, 0, 1, 0, 0, 0) == (0, 0, 1)


def test_large_orders_take_memory_that_does_not_grow_with_a_table(cold_caches):
    # a factorial table grown to these orders would hold about 0.7 GB for
    # 3j(5000, 5000, 5000) and about 3 GB for gamma_half(3 * 10**4)
    n = 3 * 10**4
    tracemalloc.start()
    try:
        symbol = wigner_3j_zero(5000, 5000, 5000)
        gamma = gamma_half(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert symbol.sign == 1 and 0 < symbol.to_float() < 1
    # (2n)! / (4^n n!) is the odd (2n - 1)!! over 2^n
    assert gamma.denominator == 1 << n and gamma.numerator % 2
    log2_gamma = (math.lgamma(n + 0.5) - 0.5 * math.log(math.pi)) / math.log(2)
    assert math.log2(gamma.numerator) - n == pytest.approx(log2_gamma, rel=1e-12)


@pytest.mark.parametrize(
    "args, expected_sign, expected_radicand",
    [
        ((0, 0, 0, 0, 0, 0), 1, Fraction(1)),
        ((1, 1, 0, 1, 1, 0), 1, Fraction(1, 9)),
        ((1, 1, 0, 1, 1, 2), 1, Fraction(1, 9)),
        ((1, 1, 2, 1, 1, 2), 1, Fraction(1, 900)),
        ((2, 1, 1, 1, 1, 2), -1, Fraction(1, 20)),
        ((2, 2, 2, 2, 2, 2), -1, Fraction(9, 4900)),
    ],
)
def test_6j_known_values(args, expected_sign, expected_radicand):
    symbol = wigner_6j(*args)
    assert symbol.sign == expected_sign
    assert symbol.radicand == expected_radicand


def test_6j_triad_violation_is_zero():
    assert wigner_6j(0, 0, 1, 0, 0, 0).is_zero
    assert wigner_6j(1, 2, 0, 1, 2, 4).is_zero


def _valid_6j_tuples(j_max):
    for j1 in range(j_max + 1):
        for j2 in range(j_max + 1):
            for j3 in range(abs(j1 - j2), min(j1 + j2, j_max) + 1):
                for j4 in range(j_max + 1):
                    for j5 in range(abs(j4 - j3), min(j4 + j3, j_max) + 1):
                        for j6 in range(abs(j1 - j5), min(j1 + j5, j_max) + 1):
                            yield (j1, j2, j3, j4, j5, j6)


def test_6j_tetrahedral_symmetries_exact():
    checked = 0
    for j1, j2, j3, j4, j5, j6 in _valid_6j_tuples(4):
        reference = wigner_6j(j1, j2, j3, j4, j5, j6)
        # any permutation of the three columns
        assert wigner_6j(j2, j1, j3, j5, j4, j6) == reference
        assert wigner_6j(j3, j2, j1, j6, j5, j4) == reference
        assert wigner_6j(j1, j3, j2, j4, j6, j5) == reference
        # exchange of upper and lower entries in any two columns
        assert wigner_6j(j4, j5, j3, j1, j2, j6) == reference
        assert wigner_6j(j4, j2, j6, j1, j5, j3) == reference
        assert wigner_6j(j1, j5, j6, j4, j2, j3) == reference
        checked += 1
    assert checked > 1000


def test_6j_orthogonality_rational():
    # sum over x of (2x+1)(2j6+1) {j1 j2 x; j3 j4 j6}^2 = 1 when triads allow
    j1, j2, j3, j4 = 2, 3, 3, 2
    for j6 in range(abs(j2 - j3), j2 + j3 + 1):
        if j6 < abs(j1 - j4) or j6 > j1 + j4:
            continue
        total = Fraction(0)
        for x in range(max(abs(j1 - j2), abs(j3 - j4)), min(j1 + j2, j3 + j4) + 1):
            total += (2 * x + 1) * (2 * j6 + 1) * wigner_6j(j1, j2, x, j3, j4, j6).radicand
        assert total == 1, j6


# --------------------------------------------------------------------------
# signed square-root rationals
# --------------------------------------------------------------------------


def test_ssr_construction_invariants():
    with pytest.raises(ValueError):
        SignedSqrtRational(2, Fraction(1))
    with pytest.raises(ValueError):
        SignedSqrtRational(1, Fraction(-1, 3))
    with pytest.raises(ValueError):
        SignedSqrtRational(0, Fraction(1, 3))
    with pytest.raises(ValueError):
        SignedSqrtRational(1, Fraction(0))


def test_ssr_algebra():
    a = SignedSqrtRational(1, Fraction(2, 15))
    b = SignedSqrtRational(-1, Fraction(1, 3))
    assert (a * b).sign == -1
    assert (a * b).radicand == Fraction(2, 45)
    assert (a / b).sign == -1
    assert (a / b).radicand == Fraction(2, 5)
    assert a.scaled_by(Fraction(-3, 2)) == SignedSqrtRational(-1, Fraction(2, 15) * Fraction(9, 4))
    assert SignedSqrtRational.from_rational(Fraction(-3, 4)) == SignedSqrtRational(-1, Fraction(9, 16))
    assert SignedSqrtRational.zero() * a == SignedSqrtRational.zero()
    with pytest.raises(ZeroDivisionError):
        a / SignedSqrtRational.zero()


def test_ssr_str_and_float():
    assert str(SignedSqrtRational(1, Fraction(2, 15))) == "+sqrt(2/15)"
    assert str(SignedSqrtRational(-1, Fraction(1, 3))) == "-sqrt(1/3)"
    assert str(SignedSqrtRational.zero()) == "0"
    assert str(SignedSqrtRational(1, Fraction(4))) == "+sqrt(4)"
    value = SignedSqrtRational(-1, Fraction(2, 15)).to_float()
    assert value == pytest.approx(-math.sqrt(2 / 15), rel=1e-15)


_EDGE_RADICANDS = (
    Fraction(10) ** 600,
    Fraction(1, 10 ** 600),
    # below 2^-1022, not dyadic: the quotient itself is subnormal
    Fraction(1, 10 ** 320),
    Fraction(3, 10 ** 323),
    Fraction(2, 3) * Fraction(1, 2 ** 1100),
    # above the float max, with odd and even binary exponents
    3 * Fraction(2) ** 1025,
    Fraction(10) ** 401,
    Fraction(7, 3) * Fraction(2) ** 1501,
    Fraction(2) ** 2047,
    Fraction(sys.float_info.max) ** 2,
)


def test_ssr_to_float_survives_huge_radicands():
    # one rounding of the quotient and one of its root: the square is within
    # three units of the radicand wherever the root is a normal float
    for radicand in _EDGE_RADICANDS:
        for sign in (-1, 1):
            value = SignedSqrtRational(sign, radicand).to_float()
            assert math.copysign(1.0, value) == sign, radicand
            assert sys.float_info.min <= abs(value) <= sys.float_info.max, radicand
            assert abs(Fraction(value) ** 2 / radicand - 1) <= 4.5e-16, radicand


def test_ssr_to_float_keeps_zero_and_infinity():
    zero = SignedSqrtRational.zero().to_float()
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    for sign in (-1, 1):
        for radicand in (Fraction(10) ** 700, 4 * Fraction(sys.float_info.max) ** 2):
            assert SignedSqrtRational(sign, radicand).to_float() == sign * math.inf
        # a root below the subnormal range rounds to zero and keeps its sign
        vanished = SignedSqrtRational(sign, Fraction(1, 2 ** 2400)).to_float()
        assert vanished == 0.0 and math.copysign(1.0, vanished) == sign


@given(
    p=st.integers(min_value=1, max_value=10 ** 6),
    q=st.integers(min_value=1, max_value=10 ** 6),
    sign=st.sampled_from((-1, 1)),
)
def test_ssr_to_float_matches_math_sqrt(p, q, sign):
    value = SignedSqrtRational(sign, Fraction(p, q)).to_float()
    assert value == pytest.approx(sign * math.sqrt(p / q), rel=1e-12)


# --------------------------------------------------------------------------
# gamma at half-integer offsets
# --------------------------------------------------------------------------


def test_gamma_half_base_and_recurrence():
    # past n = 95, (2n)! is beyond the factorial table
    assert gamma_half(0) == 1
    for n in range(100):
        assert gamma_half(n + 1) == gamma_half(n) * Fraction(2 * n + 1, 2)


def test_gamma_half_matches_float_gamma():
    for n in range(1, 20):
        expected = math.gamma(n + 0.5) / math.sqrt(math.pi)
        assert float(gamma_half(n)) == pytest.approx(expected, rel=1e-13)


# --------------------------------------------------------------------------
# triangle windows and bridge-order selection
# --------------------------------------------------------------------------


def _reference_window(a: int, b: int) -> set[int]:
    """Every j coupling to a and b with a nonzero zero-projection 3j symbol."""
    return {j for j in range(a + b + 1) if _reference_3j_zero(a, b, j)[0] != 0}


def test_reference_window_is_the_parity_class_of_the_triangle():
    assert _reference_window(2, 3) == {1, 3, 5}
    assert _reference_window(0, 0) == {0}
    for a in range(9):
        for b in range(9):
            assert _reference_window(a, b) == set(range(abs(a - b), a + b + 1, 2)), (a, b)


def test_select_bridge_order_validation():
    for bad in (-1, True, 1.5, "2", None):
        for position in range(4):
            orders = [1, 1, 1, 1]
            orders[position] = bad
            with pytest.raises(DomainError, match=f"l{position + 1} must be"):
                select_bridge_order(*orders)
    # an integer-like order is accepted, as operator.index accepts it
    assert select_bridge_order(np.int64(2), 0, 0, 2) == 2


@pytest.mark.parametrize(
    "orders, expected",
    [
        ((0, 0, 0, 0), 0),
        ((1, 1, 1, 1), 0),
        ((2, 0, 0, 2), 2),
        ((1, 0, 1, 2), 1),
        ((2, 1, 1, 2), 1),
        ((1, 0, 1, 0), 1),
        ((3, 1, 2, 2), 2),
        ((0, 3, 1, 2), 3),
    ],
)
def test_select_bridge_order(orders, expected):
    assert select_bridge_order(*orders) == expected


def test_select_bridge_order_parity_mismatch():
    with pytest.raises(NoValidBridge, match="no parity-valid bridge order"):
        select_bridge_order(0, 0, 0, 1)


def test_select_bridge_order_disjoint_windows():
    with pytest.raises(NoValidBridge, match="no parity-valid bridge order"):
        select_bridge_order(5, 0, 0, 1)


@given(
    l1=st.integers(min_value=0, max_value=10),
    l2=st.integers(min_value=0, max_value=10),
    l3=st.integers(min_value=0, max_value=10),
    l4=st.integers(min_value=0, max_value=10),
)
def test_select_bridge_order_minimality(l1, l2, l3, l4):
    # the bridge order is the smallest j in both reference windows; with none,
    # NoValidBridge names the parity mismatch or the two disjoint windows
    common = _reference_window(l1, l2) & _reference_window(l3, l4)
    try:
        bridge = select_bridge_order(l1, l2, l3, l4)
    except NoValidBridge as exc:
        assert not common
        if (l1 + l2 - l3 - l4) % 2:
            reason = f"l1+l2={l1 + l2} and l3+l4={l3 + l4} have different parities"
        else:
            reason = (
                f"triangle windows [{abs(l1 - l2)},{l1 + l2}] and "
                f"[{abs(l3 - l4)},{l3 + l4}] are disjoint"
            )
        assert str(exc) == f"no parity-valid bridge order: {reason}"
        return
    assert bridge == min(common)


@pytest.mark.parametrize(
    "orders, message",
    [
        ((0, 0, 0, 1), "l1+l2=0 and l3+l4=1 have different parities"),
        ((5, 0, 0, 1), "triangle windows [5,5] and [1,1] are disjoint"),
    ],
)
def test_bridge_refusal_is_computed_once_and_raised_fresh(cold_caches, orders, message):
    # the verdict is cached per tuple as a message; every caller gets a new
    # exception, so no traceback grows from one raise to the next
    raised = []
    for _ in range(3):
        with pytest.raises(NoValidBridge) as select_info:
            select_bridge_order(*orders)
        with pytest.raises(NoValidBridge) as evaluate_info:
            evaluate(IntegralSpec(*orders, 2.0, 1.0))
        raised += [select_info.value, evaluate_info.value]
    assert {str(exc) for exc in raised} == {f"no parity-valid bridge order: {message}"}
    assert len({id(exc) for exc in raised}) == len(raised)
    assert len({len(traceback.extract_tb(exc.__traceback__)) for exc in raised[0::2]}) == 1
    assert len({len(traceback.extract_tb(exc.__traceback__)) for exc in raised[1::2]}) == 1
    info = wigner._bridge_verdict.cache_info()
    assert (info.misses, info.hits) == (1, 5)


# --------------------------------------------------------------------------
# cache safety under concurrency
# --------------------------------------------------------------------------


def _build_each(tuples):
    return [(orders, _laurent_kernel(*orders)) for orders in tuples]


def test_symbol_caches_are_thread_safe(cold_caches):
    jobs = [(j1, j2, j3, j4, j5, j6)
            for j1, j2, j3, j4, j5, j6 in _valid_6j_tuples(3)]
    serial = [wigner_6j.__wrapped__(*args) for args in jobs[:50]]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda args: wigner_6j(*args), jobs * 3))
    assert results[: len(jobs)] == results[len(jobs): 2 * len(jobs)]
    assert serial == results[:50]
    # cold kernel builds: 4 threads over overlapping three-quarter slices of
    # the tuples, each from its own start
    tuples = [*_bridge_valid_tuples(4), (13, 0, 13, 0), (16, 2, 15, 1), (9, 9, 18, 0)]
    assert len(tuples) == 269 + 3
    cold_caches()
    single = {orders: _laurent_kernel(*orders) for orders in tuples}
    cold_caches()
    n = len(tuples)
    slices = [(tuples[i * n // 4:] + tuples[: i * n // 4])[: 3 * n // 4] for i in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            built = list(pool.map(_build_each, slices, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert sum(len(part) for part in built) == 4 * (3 * n // 4)
    for part in built:
        for orders, kernel in part:
            assert kernel == single[orders], orders
