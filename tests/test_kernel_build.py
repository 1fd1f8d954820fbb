"""The integer Laurent-kernel build against the Fraction build it replaced.

``_reference_laurent_kernel`` is that Fraction build: the bridge recoupling
and the band series in Fraction and SignedSqrtRational arithmetic. It reads the
test-side Fraction symbols (the 3j product form and the Racah 6j sum) and the
b-form coefficients of the raising recurrence, never the library's.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
from fractions import Fraction
from math import factorial

import pytest

from fourbessel.core import IntegralSpec
from fourbessel.errors import NoValidBridge
from fourbessel.quadbessel import (
    _class_kernel,
    _Kernel,
    _laurent_kernel,
    bform_band_coeffs,
    evaluate,
)
from fourbessel import cli, quadbessel, wigner
from fourbessel.wigner import SignedSqrtRational, select_bridge_order, wigner_3j_zero, wigner_6j

from test_legendre import _reference_poly_coeffs
from test_quadbessel import _bridge_valid_tuples, _float_horner, _forbid_exact_arithmetic
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


def _reference_divide_one_minus_t2(coeffs: list[int]) -> list[int]:
    """Quotient of a polynomial in t (dense, ascending) by 1 - t^2, checked by multiplying back."""
    quotient: list[int] = []
    for index, value in enumerate(coeffs[:-2]):
        quotient.append(value + (quotient[index - 2] if index >= 2 else 0))
    product = quotient + [0, 0]
    for index, value in enumerate(quotient):
        product[index + 2] -= value
    assert product == list(coeffs)
    return quotient


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
        numerator = _reference_divide_one_minus_t2(numerator)
    common = 8 * 4 ** max(L - 1, 0) * left_den * right_den * series_den
    # K(t) = t^p0 P(t^2): index i holds the power i - 1, and every nonzero
    # power has the parity of the lowest
    powers = {index - 1: value for index, value in enumerate(numerator) if value}
    p0 = min(powers)
    assert all((p - p0) % 2 == 0 for p in powers)
    coeffs = [Fraction(powers.get(p, 0), common) for p in range(p0, max(powers) + 1, 2)]
    # lowest terms: the least common denominator of the coefficients
    common = math.lcm(*(c.denominator for c in coeffs))
    dense = tuple(int(c * common) for c in coeffs)
    floats = tuple(float(c) for c in coeffs)
    at_one = float(sum(coeffs, Fraction(0)))
    return L, _Kernel(p0, dense, common, floats, _float_horner(floats, 1.0)[1], at_one)


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
    # both builds are in lowest terms, so they agree field for field
    assert kernel == expected, orders
    assert [c.hex() for c in kernel.floats] == [c.hex() for c in expected.floats], orders
    return True


def test_build_equals_the_fraction_build_on_orders_up_to_6():
    declined = sum(
        not _assert_same_kernel(orders) for orders in itertools.product(range(7), repeat=4)
    )
    assert declined == 1384


# order tuples at bridge orders 14 to 50, with their bridge order; the last two
# are where the cold builds of high bridge orders are timed
HIGH_BRIDGE_TUPLES = (
    ((14, 0, 14, 0), 14), ((17, 3, 16, 4), 14), ((22, 4, 21, 3), 18), ((20, 0, 20, 0), 20),
    ((25, 5, 25, 45), 20), ((26, 1, 27, 52), 25), ((30, 0, 30, 60), 30),
    ((40, 0, 40, 80), 40), ((50, 0, 50, 0), 50),
)


@pytest.mark.parametrize("orders, bridge", HIGH_BRIDGE_TUPLES)
def test_build_equals_the_fraction_build_at_bridge_orders_14_to_30(orders, bridge):
    assert _assert_same_kernel(orders)
    assert _laurent_kernel(*orders)[0] == bridge


def test_cold_build_reads_each_band_polynomial_once_per_mu(monkeypatch, cold_caches):
    # every (l, lp) pair that reaches mu shares b_29(x, -mu-1/2): (30, 0, 30, 60)
    # reaches 91 distinct mu, and one read per pair and mu made 15,376 reads
    calls = []

    def counted(degree, twice_m):
        calls.append((degree, twice_m))
        return bform_band_coeffs(degree, twice_m)

    monkeypatch.setattr(quadbessel, "bform_band_coeffs", counted)
    assert _laurent_kernel(30, 0, 30, 60)[0] == 30
    assert len(calls) == len(set(calls)) == 91
    assert {degree for degree, _ in calls} == {29}
    assert not hasattr(quadbessel, "_band_series")


def test_band_coeffs_equal_the_reference_up_to_bridge_order_30():
    # b_(L-1) at the orders -mu-1/2 that the kernel build reads, degree 29 being
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
    _forbid_exact_arithmetic(monkeypatch)
    built = [_laurent_kernel(*orders) for orders in _bridge_valid_tuples(4)]
    # the benchmark's set-up: one evaluate per tuple at k = (1, 2), the exchanged kernel
    values = [evaluate(IntegralSpec(*orders, 1.0, 2.0)).value for orders in EVAL_KGRID_TUPLES]
    built += [_laurent_kernel(*orders) for orders in EVAL_KGRID_TUPLES]
    built += [_laurent_kernel(*orders) for orders, _ in HIGH_BRIDGE_TUPLES]
    monkeypatch.undo()
    assert len(built) == 269 + 15 + len(HIGH_BRIDGE_TUPLES)
    assert all(math.isfinite(value) for value in values)


def test_cold_build_builds_no_3j_symbol(cold_caches):
    # the 3j squares come from their binomial closed form; at bridge order 30
    # the symbols were 15.5k distinct objects, each a Fraction behind a
    # SignedSqrtRational
    for orders in [(30, 0, 30, 60), *_bridge_valid_tuples(4)]:
        _laurent_kernel(*orders)
    assert wigner_3j_zero.cache_info().misses == 0
    # the linearization rows read no 3j square: a cold (30, 0, 30, 60) build
    # reads those of its two side factors alone, where the rows once read
    # 15.4k more
    cold_caches()
    quadbessel._side_factors(30, 0, 30)
    quadbessel._side_factors(30, 60, 30)
    sides = wigner._three_j_square.cache_info().misses
    cold_caches()
    _laurent_kernel(30, 0, 30, 60)
    assert wigner._three_j_square.cache_info().misses == sides
    assert quadbessel._linearization_weights.cache_info().misses > 0


def test_cold_build_builds_no_symbol_object(cold_caches, monkeypatch):
    # the 6j squares, like the 3j squares, are read as a sign and an integer
    # pair, so no SignedSqrtRational is made between the bridge order and the
    # finished kernel
    def forbidden(self):
        raise AssertionError("SignedSqrtRational built")

    monkeypatch.setattr(SignedSqrtRational, "__post_init__", forbidden)
    L, kernel = _laurent_kernel(30, 0, 30, 60)
    assert L == 30 and kernel.numerators
    assert wigner_6j.cache_info().misses == 0
    # one 6j square per split and inner degree: 31 on each side
    assert wigner._six_j_square.cache_info().misses == 62


# ---------------------------------------------------------------------------
# One kernel per symmetry class: l1 <-> l3 and l2 <-> l4 leave the integrand as it is
# ---------------------------------------------------------------------------


def _class_members(l1, l2, l3, l4):
    return {(l1, l2, l3, l4), (l3, l2, l1, l4), (l1, l4, l3, l2), (l3, l4, l1, l2)}


def _built_member(l1, l2, l3, l4):
    """The member of the class whose kernel _class_kernel builds."""
    return min(l1, l3), min(l2, l4), max(l1, l3), max(l2, l4)


def test_class_member_pairing_the_smaller_orders_has_the_least_bridge_order():
    # verdicts only, no builds, on {0..10}^4
    lowered = 0
    for orders in itertools.product(range(11), repeat=4):
        verdicts = {member: wigner._bridge_verdict(*member) for member in _class_members(*orders)}
        bridges = [L for L in verdicts.values() if type(L) is int]
        # a class is refused whole or not at all, so the built member has a
        # bridge order exactly when some member has one
        assert len(bridges) in (0, len(verdicts)), orders
        if bridges:
            built = verdicts[_built_member(*orders)]
            assert built == min(bridges), orders
            lowered += built < verdicts[orders]
    assert lowered > 0


def _analytic_grid_rows(grid, pair):
    """The rows of ``batch --grid grid --k-pairs pair --mode analytic``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["batch", "--grid", str(grid), "--k-pairs", pair, "--mode", "analytic"])
    assert code == 0
    # the table, then one "# max_discrepancy" line
    return list(csv.DictReader(io.StringIO(out.getvalue().rsplit("#", 1)[0])))


@pytest.mark.parametrize("pair", ["1.0:2.0", "2.0:1.0"])
def test_cold_grid_batch_builds_one_kernel_per_class(pair, cold_caches, monkeypatch):
    built = []
    monkeypatch.setattr(
        quadbessel, "_class_kernel", lambda *orders: built.append(orders) or _class_kernel(*orders)
    )
    assert len(_analytic_grid_rows(4, pair)) == 625
    assert _class_kernel.cache_info().misses == 101
    assert _laurent_kernel.cache_info().misses == len(built) == 269
    # each class is built once, for the member with its least bridge order
    assert len(set(built)) == 101 and all(orders == _built_member(*orders) for orders in built)


def test_every_member_of_a_class_receives_the_same_kernel_object():
    classes = 0
    for orders in _bridge_valid_tuples(4):
        built = _laurent_kernel(*_built_member(*orders))[1]
        for member in _class_members(*orders):
            assert _laurent_kernel(*member)[1] is built, (orders, member)
        classes += orders == _built_member(*orders)
    assert classes == 101


@pytest.mark.parametrize("orders", [(13, 0, 0, 13), (2, 11, 13, 4), (8, 5, 6, 11), (30, 0, 0, 30)])
def test_kernel_built_below_the_tuples_bridge_order_equals_the_fraction_build(orders):
    # the reference builds every member and its momentum exchange at that
    # tuple's own bridge order, the library at its class's least
    own = set()
    for l1, l2, l3, l4 in _class_members(*orders):
        for member in ((l1, l2, l3, l4), (l2, l1, l4, l3)):
            assert _assert_same_kernel(member)
            own.add(select_bridge_order(*member))
    assert len(own) > 1


def test_reported_bridge_order_is_the_tuples_own():
    assert evaluate(IntegralSpec(13, 0, 0, 13, 1.0, 2.0)).bridge_L == 13
    assert evaluate(IntegralSpec(0, 0, 13, 13, 1.0, 2.0)).bridge_L == 0
    rows = {
        tuple(int(row[name]) for name in ("l1", "l2", "l3", "l4")): row
        for row in _analytic_grid_rows(2, "1.0:2.0")
    }
    # (0, 2, 2, 0) reads the kernel of (0, 0, 2, 2), built at L = 0
    assert rows[0, 2, 2, 0]["L"] == "2" and rows[0, 0, 2, 2]["L"] == "0"
    assert rows[0, 2, 2, 0]["value"] == rows[0, 0, 2, 2]["value"]
