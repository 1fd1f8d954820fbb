"""Analytic pipeline: band/ratio integrals, triple products, four-Bessel values."""
from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import itertools
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourbessel
from fourbessel import core, errors, legendre, oracle, quadbessel, wigner
from fourbessel.core import EvaluationReport, IntegralSpec, TermEntry
from fourbessel.errors import (
    DomainError,
    FourBesselError,
    NoValidBridge,
    PrefactorZero,
)
from fourbessel.oracle import _gauss_rule, quad_bessel_numeric, triple_bessel_numeric
from fourbessel.quadbessel import (
    _EXACT_HORNER_BOUND,
    _Kernel,
    _class_kernel,
    _divide_one_minus_u,
    _exact_ratio,
    _exact_sqrt,
    _horner_exact,
    _laurent_kernel,
    _running_bound,
    evaluate,
    quad_bessel_paired,
    triple_bessel_weighted,
)
from fourbessel.wigner import (
    SignedSqrtRational,
    select_bridge_order,
    wigner_3j_zero,
    wigner_6j,
)


def _float_horner(coeffs, w):
    """(P, bound): P = sum e_m w^m by evaluate's float Horner, and its running bound at w."""
    total = 0.0
    for coeff in reversed(coeffs):
        total = total * w + coeff
    return total, _running_bound(coeffs, w)


# reference values for the four-Bessel integral, derived once by
# high-precision independent quadrature and frozen
QUAD_REFERENCES = {
    (0, 0, 0, 0, 1.0, 2.0): 0.19634954084936208,
    (0, 0, 0, 0, 1.0, 1.0): 0.78539816339744831,
    (1, 1, 1, 1, 1.0, 2.0): 0.071994831644766095,
    (2, 0, 0, 2, 1.0, 2.0): 0.0098174770424681039,
    (1, 0, 1, 2, 1.0, 2.0): -0.045814892864851151,
    (2, 1, 1, 2, 1.0, 2.0): 0.015193714470486351,
    (1, 0, 1, 0, 1.0, 2.0): 0.065449846949787359,
    (2, 0, 0, 2, 2.0, 5.0): 0.00050265482457436692,
    (1, 0, 1, 0, 2.0, 5.0): 0.0052359877559829887,
    (1, 0, 1, 2, 2.0, 5.0): -0.0042306781068342549,
    (2, 1, 1, 2, 2.0, 5.0): 0.0009239274394557411,
    (3, 1, 2, 2, 1.0, 2.0): 0.0058437363348024428,
    (2, 2, 2, 2, 1.0, 1.25): 0.13067876513620227,
    (3, 3, 1, 1, 1.0, 2.0): 0.0049866550056980845,
    (4, 2, 3, 3, 2.0, 5.0): 0.00031017970543415229,
}

TRIPLE_REFERENCES = {
    (0, 0, 0, 1.0, 2.0, 2.0): 0.19634954084936208,
    (1, 1, 0, 1.0, 1.0, 1.0): 0.39269908169872415,
    (1, 1, 2, 1.0, 1.0, 1.0): 0.49087385212340519,
    (2, 1, 1, 1.0, 2.0, 2.0): 0.1043106935762236,
    (2, 2, 2, 2.0, 3.0, 4.0): 0.0089801791957471914,
    (3, 2, 1, 1.5, 2.0, 3.0): -0.034061107014409979,
}


# --------------------------------------------------------------------------
# band integral of two Legendre polynomials against the kernel
# --------------------------------------------------------------------------


def _reference_band_series(l, lp, L):
    """(den, g): the band integral's mu-sum as an integer polynomial in t over den.

    sum_mu c_mu t^mu 4^D (1-u)^D b_D(x, -mu-1/2) = (1/den) sum_p g[p] t^p, with
    u = t^2, x = (1+u)/(1-u) and D = max(L-1, 0); the kernel build sums the
    same terms by mu across its pairs. Read from test_kernel_build's Fraction
    reference, imported on call because that module imports this one.
    """
    from test_kernel_build import _reference_band_series

    return _reference_band_series(l, lp, L)


def test_band_integral_reference_values():
    # at L = 0 the band integral is k_lo sum_mu c_mu t^mu with t = k_lo/k_hi:
    # exact values at k = (1, 2), (3, 3) and (1, 2)
    for (l, lp, k1, k2), expected in (
        ((0, 0, 1, 2), Fraction(2)),
        ((0, 0, 3, 3), Fraction(6)),
        ((1, 1, 1, 2), Fraction(11, 15)),
    ):
        den, g = _reference_band_series(l, lp, 0)
        k_lo, k_hi = Fraction(min(k1, k2)), Fraction(max(k1, k2))
        t = k_lo / k_hi
        assert k_lo * sum(c * t**p for p, c in enumerate(g)) / den == expected, (l, lp, k1, k2)


def _band_integral(l, lp, L, k1, k2):
    """k1 k2 integral_{-1}^{1} P_l(u) P_lp(u) / (k1^2 + k2^2 - 2 k1 k2 u)^(L+1/2) du.

    From the reference's exact band series in t = k_lo/k_hi, never forming
    y = (k1^2 + k2^2) / (2 k1 k2): k_lo k_hi^(-2L) (1/den) sum g_p t^p
    divided by 4^d (1-t^2)^(L+d), with d = max(L-1, 0).
    """
    den, g = _reference_band_series(l, lp, L)
    k_lo, k_hi = min(k1, k2), max(k1, k2)
    t = k_lo / k_hi
    d = max(L - 1, 0)
    series = math.fsum(c * t**p for p, c in enumerate(g)) / den
    return k_lo * k_hi ** (-2 * L) * series / (4**d * (1.0 - t * t) ** (L + d))


BAND_CASES = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 1), (2, 0, 2), (3, 3, 3))
BAND_MOMENTA = ((1.0, 2.0), (2.0, 1.0), (2.0, 5.0), (5.0, 2.0), (1.0, 1.25), (1.25, 1.0))


def test_band_integral_reconstructs_from_ratio_form():
    # the dimensionless form times k1 k2 / (2 k1 k2)^(L+1/2) recovers the
    # band integral, with y = (k1^2 + k2^2) / (2 k1 k2): the two changes of
    # variable agree in both momentum orders
    for (l, lp, bridge), (k1, k2) in itertools.product(BAND_CASES, BAND_MOMENTA):
        y = (k1 * k1 + k2 * k2) / (2.0 * k1 * k2)
        expected = k1 * k2 / (2.0 * k1 * k2) ** (bridge + 0.5) * _ratio_integral(l, lp, bridge, y)
        value = _band_integral(l, lp, bridge, k1, k2)
        assert value == pytest.approx(expected, rel=1e-12), (l, lp, bridge, k1, k2)


def _reference_gauss_legendre(integrand, n_nodes):
    """Gauss-Legendre rule on [-1, 1] over the oracle's nodes, one scalar call per node.

    Exact for polynomials of degree <= 2 n_nodes - 1.
    """
    nodes, weights = _gauss_rule(n_nodes)
    return math.fsum(float(w) * integrand(float(x)) for x, w in zip(nodes, weights))


def test_band_integral_matches_direct_quadrature():
    for (l, lp, bridge), (k1, k2) in itertools.product(BAND_CASES, BAND_MOMENTA):
        direct = _reference_gauss_legendre(
            lambda u: k1 * k2 * _leg(l, u) * _leg(lp, u)
            * (k1 * k1 + k2 * k2 - 2.0 * k1 * k2 * u) ** (-bridge - 0.5),
            160,
        )
        value = _band_integral(l, lp, bridge, k1, k2)
        assert value == pytest.approx(direct, rel=1e-10), (l, lp, bridge, k1, k2)


# --------------------------------------------------------------------------
# dimensionless ratio integral
# --------------------------------------------------------------------------


def _ratio_integral(l, lp, L, y):
    """integral_{-1}^{1} P_l(u) P_lp(u) / (y - u)^(L+1/2) du for y > 1.

    Built from the reference's exact band series: with t = y - sqrt(y^2 - 1) and
    d = max(L-1, 0), the band integral's mu-sum is (1/den) sum g_p t^p divided
    by 4^d (1-t^2)^d, and the ratio form is sqrt(2t) (2t/(1-t^2))^L times it.
    """
    den, g = _reference_band_series(l, lp, L)
    # 1/(y + sqrt(y^2 - 1)) equals y - sqrt(y^2 - 1) without cancellation
    t = 1.0 / (y + math.sqrt(y * y - 1.0))
    d = max(L - 1, 0)
    one_minus_u = 1.0 - t * t
    series = math.fsum(c * t**p for p, c in enumerate(g)) / den
    return math.sqrt(2.0 * t) * (2.0 * t / one_minus_u) ** L * series / (4**d * one_minus_u**d)


def test_ratio_integral_closed_values():
    assert _ratio_integral(0, 0, 0, 1.25) == pytest.approx(2.0, rel=1e-13)
    expected = 2.0 * (math.sqrt(3.0) - 1.0)
    assert _ratio_integral(0, 0, 0, 2.0) == pytest.approx(expected, rel=1e-13)
    assert _ratio_integral(1, 0, 1, 1.25) == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_ratio_integral_matches_direct_quadrature():
    for (l, lp, bridge, y) in (
        (0, 0, 0, 1.1), (2, 1, 1, 1.25), (3, 3, 2, 2.0), (4, 2, 3, 10.0), (1, 4, 0, 1.1)
    ):
        direct = _reference_gauss_legendre(
            lambda t: _leg(l, t) * _leg(lp, t) * (y - t) ** (-bridge - 0.5), 160
        )
        assert _ratio_integral(l, lp, bridge, y) == pytest.approx(direct, rel=1e-10)


def _leg(degree, t):
    from fourbessel.legendre import legendre_p

    return legendre_p(degree, t)


# --------------------------------------------------------------------------
# weighted triple product
# --------------------------------------------------------------------------


@pytest.mark.parametrize("args, expected", sorted(TRIPLE_REFERENCES.items()))
def test_triple_reference_values(args, expected):
    l1, l2, bridge, k1, k2, big_k = args
    value = triple_bessel_weighted(int(l1), int(l2), int(bridge), k1, k2, big_k)
    assert value == pytest.approx(expected, rel=1e-12)


def test_triple_outside_support_is_exact_zero():
    value = triple_bessel_weighted(0, 0, 0, 1.0, 2.0, 4.0)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert triple_bessel_weighted(2, 2, 2, 1.0, 1.0, 5.0) == 0.0


def test_triple_prefactor_zero_wins_over_support():
    # parity-odd (l1, l2, bridge) triads are flagged even outside the support
    with pytest.raises(PrefactorZero):
        triple_bessel_weighted(1, 1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(PrefactorZero):
        triple_bessel_weighted(1, 1, 1, 1.0, 2.0, 9.0)
    with pytest.raises(PrefactorZero):
        triple_bessel_weighted(0, 0, 2, 1.0, 2.0, 2.0)


def test_triple_momentum_exchange_symmetry():
    # exchanging (l1, k1) with (l2, k2) leaves the integrand unchanged
    forward = triple_bessel_weighted(2, 1, 1, 1.0, 2.0, 2.0)
    swapped = triple_bessel_weighted(1, 2, 1, 2.0, 1.0, 2.0)
    assert forward == pytest.approx(swapped, rel=1e-13)


def _fraction_sqrt(value: Fraction) -> Fraction:
    root_num, root_den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    assert Fraction(root_num, root_den) ** 2 == value
    return Fraction(root_num, root_den)


def _reference_triple_over_pi(l1, l2, L, k1, k2, K):
    """The triple closed form over pi as a Fraction, exactly at the float momenta.

    pi / (4 k1 k2 K) (k1/K)^L sum w (k2/k1)^s P_l(Delta), each weight
    (-1)^((l1+l2-L)/2) sqrt(2L+1) sqrt(C(2L,2s)) 3j 3j 6j (2l+1) / 3j(l1,l2,L)
    from the 3j and 6j symbols in SignedSqrtRational arithmetic, and P_l from
    Bonnet's recurrence in Fractions.
    """
    k1, k2, K = Fraction(k1), Fraction(k2), Fraction(K)
    delta = (k1 * k1 + k2 * k2 - K * K) / (2 * k1 * k2)
    if abs(delta) > 1:
        return Fraction(0)
    legendre = [Fraction(1), delta]
    for n in range(1, l1 + l2 + L):
        legendre.append(((2 * n + 1) * delta * legendre[n] - n * legendre[n - 1]) / (n + 1))
    coupling = wigner_3j_zero(l1, l2, L)
    phase = SignedSqrtRational(-1 if ((l1 + l2 - L) // 2) % 2 else 1, Fraction(2 * L + 1))
    total = Fraction(0)
    for split in range(L + 1):
        binom = SignedSqrtRational(1, Fraction(math.comb(2 * L, 2 * split)))
        lo, hi = max(abs(l1 - (L - split)), abs(l2 - split)), min(l1 + L - split, l2 + split)
        for l in range(lo, hi + 1, 2):
            weight = (
                phase
                * binom
                * wigner_3j_zero(l1, L - split, l)
                * wigner_3j_zero(l2, split, l)
                * wigner_6j(l1, l2, L, split, L - split, l)
            ).scaled_by(2 * l + 1) / coupling
            if not weight.is_zero:
                root = weight.sign * _fraction_sqrt(weight.radicand)
                total += root * (k2 / k1) ** split * legendre[l]
    return total * (k1 / K) ** L / (4 * k1 * k2 * K)


def _forbid_exact_arithmetic(monkeypatch):
    """Make every Fraction and SignedSqrtRational arithmetic operation raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction or SignedSqrtRational arithmetic")

    for method in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Fraction, method, forbidden)
        monkeypatch.setattr(Fraction, method.replace("__", "__r", 1), forbidden)
    for method in ("__mul__", "__truediv__", "scaled_by", "to_float"):
        monkeypatch.setattr(SignedSqrtRational, method, forbidden)


def _assert_triple_is_exact(l1, l2, L, k1, k2, K, rel=1e-15):
    value = triple_bessel_weighted(l1, l2, L, k1, k2, K)
    exact = _reference_triple_over_pi(l1, l2, L, k1, k2, K)
    if exact == 0:
        assert value == 0.0, (l1, l2, L, k1, k2, K)
    else:
        assert value == pytest.approx(math.pi * float(exact), rel=rel), (l1, l2, L, k1, k2, K)
    return value


def test_triple_equals_the_exact_closed_form():
    compared = 0
    for l1, l2, bridge in itertools.product(range(6), repeat=3):
        if wigner_3j_zero(l1, l2, bridge).is_zero:
            with pytest.raises(PrefactorZero):
                triple_bessel_weighted(l1, l2, bridge, 1.0, 2.0, 2.5)
            continue
        for momenta in ((1.0, 2.0, 2.5), (1.0, 1.0, 1.0), (0.3, 0.7, 0.9), (2.0, 3.0, 4.9)):
            _assert_triple_is_exact(l1, l2, bridge, *momenta)
            compared += 1
    # 69 of the 216 triads have a nonzero coupling symbol
    assert compared == 4 * 69


def test_triple_keeps_its_digits_where_the_float_sum_cancelled():
    # the terms cancel by 16 digits: their float sum is -8127.509378915411
    momenta = (1.0463778137460042, 0.9839313713105464, 0.0762094872929308)
    value = _assert_triple_is_exact(8, 8, 14, *momenta)
    assert value == pytest.approx(0.566674948971277, rel=1e-15)


def test_triple_tests_its_support_exactly():
    # K < k2 - k1 exactly, but the float Delta rounds to 1.0
    momenta = (1.434352542334553, 1.612680483891094, 0.17832794155654105)
    assert Fraction(momenta[2]) < Fraction(momenta[1]) - Fraction(momenta[0])
    assert triple_bessel_weighted(0, 0, 0, *momenta) == 0.0


def test_triple_answers_where_only_the_squared_momenta_overflow():
    # k2^2 and K^2 overflow, but the value, about pi / (8 k2), is a normal float
    value = _assert_triple_is_exact(2, 2, 2, 1e-300, 1e300, 1e300)
    assert value == 3.926990816987241e-301


def _sweep_triples(count, seed=20260):
    """Valid triples of orders 0-15: k1, k2 log-uniform on e^(+-2), K uniform in the triangle."""
    rng = random.Random(seed)
    while count:
        l1, l2, bridge = (rng.randint(0, 15) for _ in range(3))
        if wigner_3j_zero(l1, l2, bridge).is_zero:
            continue
        k1, k2 = (math.exp(rng.uniform(-2.0, 2.0)) for _ in range(2))
        count -= 1
        yield l1, l2, bridge, k1, k2, rng.uniform(abs(k1 - k2), k1 + k2)


def test_triple_seeded_sweep_matches_the_exact_closed_form():
    for args in _sweep_triples(400):
        _assert_triple_is_exact(*args)


def test_triple_seeded_specs_agree_with_the_oracle():
    for args in _sweep_triples(5):
        numeric, estimate = triple_bessel_numeric(*args)
        assert abs(triple_bessel_weighted(*args) - numeric) <= estimate, args


def test_warm_triple_does_no_fraction_or_signed_sqrt_arithmetic(monkeypatch):
    specs = [(2, 2, 2, 1.0, 2.0, 2.5), (8, 8, 14, 1.0, 1.0, 1.0), (15, 15, 30, 0.3, 0.7, 0.9)]
    warm = [triple_bessel_weighted(*args) for args in specs]
    _forbid_exact_arithmetic(monkeypatch)
    assert [triple_bessel_weighted(*args) for args in specs] == warm


@pytest.mark.parametrize(
    "args",
    [
        (0, 0, 0, 1e-110, 1e-110, 1e-110),  # the value, about 1e330, overflows
        (2, 2, 2, 1e200, 1e200, 1e200),  # the value, about 1e-600, underflows
        (0, 0, 0, 1.4e154, 6e153, 1.3e154),  # the value, about 1e-462, underflows
    ],
)
def test_triple_out_of_range_momenta_raise_domain_error(args):
    named = re.escape(f"k1={args[3]!r}, k2={args[4]!r}, K={args[5]!r}")
    with pytest.raises(DomainError, match=named):
        triple_bessel_weighted(*args)


def test_triple_subnormal_value_raises_domain_error():
    # pi / (4 k^3) at k = 1e103 is about 8e-310, below the normal floats
    with pytest.raises(DomainError, match="normal floats"):
        triple_bessel_weighted(0, 0, 0, 1e103, 1e103, 1e103)


def test_triple_scale_covariance():
    base = triple_bessel_weighted(2, 2, 2, 2.0, 3.0, 4.0)
    for scale in (0.5, 2.0, 10.0):
        scaled = triple_bessel_weighted(2, 2, 2, 2.0 * scale, 3.0 * scale, 4.0 * scale)
        assert scaled == pytest.approx(base / scale ** 3, rel=1e-12)


# --------------------------------------------------------------------------
# the four-Bessel integral itself
# --------------------------------------------------------------------------


@pytest.mark.parametrize("key, expected", sorted(QUAD_REFERENCES.items()))
def test_quad_reference_values(key, expected):
    l1, l2, l3, l4, k1, k2 = key
    spec = IntegralSpec(int(l1), int(l2), int(l3), int(l4), k1, k2)
    report = evaluate(spec)
    assert report.value == pytest.approx(expected, rel=1e-12)


def test_paired_closed_values():
    assert quad_bessel_paired(0, 0, 1.0, 2.0).value == pytest.approx(math.pi / 16.0, rel=1e-13)
    assert quad_bessel_paired(0, 0, 1.0, 1.0).value == pytest.approx(math.pi / 4.0, rel=1e-13)
    assert quad_bessel_paired(0, 1, 1.0, 2.0).value == pytest.approx(math.pi / 96.0, rel=1e-13)


def test_paired_agrees_with_general_path():
    # the kernel of (a, a, b, b), built by the general recoupling, is the
    # paired closed form {mu - 1: 3j(a, b, mu)^2 / 4} as Fractions; the tuple
    # is its own momentum exchange, so both momentum orders read this one
    # kernel; quad_bessel_paired reports its monomials, one per mu, at power
    # mu - 1
    for a in range(4):
        for b in range(4):
            paired = quad_bessel_paired(a, b, 1.0, 2.0)
            assert paired.method == "paired" and paired.bridge_L == 0
            expected = {
                mu - 1: Fraction(1, 4) * wigner_3j_zero(a, b, mu).radicand
                for mu in range(abs(a - b), a + b + 1, 2)
            }
            assert [term.indices for term in paired.terms] == [
                {"power": p} for p in sorted(expected)
            ]
            bridge, kernel = _laurent_kernel(a, a, b, b)
            assert bridge == 0
            assert _kernel_dict(kernel) == expected, (a, b)
            # I = pi / k_hi^3 * sum c_p t^p at k = (1, 2), each term pi/8 c_p 2^-p
            for term in paired.terms:
                p = term.indices["power"]
                exact = math.pi * float(expected[p] * Fraction(1, 2) ** p / 8)
                assert term.value == pytest.approx(exact, rel=1e-15), (a, b, p)
            exact = sum(c * Fraction(1, 2) ** p for p, c in expected.items()) / 8
            assert paired.value == pytest.approx(math.pi * float(exact), rel=1e-12), (a, b)
            general = evaluate(IntegralSpec(a, a, b, b, 1.0, 2.0))
            assert paired.value.hex() == general.value.hex()
            exchanged = quad_bessel_paired(a, b, 2.0, 1.0)
            assert exchanged.value.hex() == paired.value.hex(), (a, b)
            assert [term.value for term in exchanged.terms] == [
                term.value for term in paired.terms
            ]


def test_evaluate_dispatches_on_order_pairing():
    assert evaluate(IntegralSpec(2, 2, 3, 3, 1.0, 2.0)).method == "paired"
    assert evaluate(IntegralSpec(2, 3, 3, 2, 1.0, 2.0)).method == "analytic"


def test_quad_swap_symmetries():
    reference = evaluate(IntegralSpec(1, 0, 1, 2, 1.0, 2.0)).value
    # same-momentum order swaps: (l1 <-> l3), (l2 <-> l4)
    assert evaluate(IntegralSpec(1, 2, 1, 0, 1.0, 2.0)).value == pytest.approx(reference, rel=1e-12)
    # exchanging the momentum roles swaps the order pairs
    assert evaluate(IntegralSpec(0, 1, 2, 1, 2.0, 1.0)).value == pytest.approx(reference, rel=1e-12)


def test_quad_scale_covariance():
    base = evaluate(IntegralSpec(2, 1, 1, 2, 1.0, 2.0)).value
    for scale in (0.5, 2.0, 10.0):
        scaled = evaluate(IntegralSpec(2, 1, 1, 2, scale, 2.0 * scale)).value
        assert scaled == pytest.approx(base / scale ** 3, rel=1e-12)


def _mellin_over_pi(orders, k1, k2):
    """I / pi as a Fraction, from the Mellin finite part of the oracle's decomposition."""
    # imported here because test_oracle imports this module's reference tables
    from test_oracle import _mellin_finite_part_over_pi

    return _mellin_finite_part_over_pi(orders, Fraction(k1), Fraction(k2))


def _bridge_valid_tuples(order_max):
    for orders in itertools.product(range(order_max + 1), repeat=4):
        try:
            select_bridge_order(*orders)
        except NoValidBridge:
            continue
        yield orders


@pytest.mark.parametrize("k", [0.7, 1.0, 5.0 / 3.0, 3.3])
def test_quad_degenerate_momenta(k):
    # the kernel is a Laurent polynomial in t, finite at t = 1: k1 = k2 is an
    # ordinary point at every bridge order, and the value is pi times the
    # exact Mellin finite part of the oracle's decomposition
    compared = 0
    for orders in _bridge_valid_tuples(4):
        value = evaluate(IntegralSpec(*orders, k, k)).value
        exact = _mellin_over_pi(orders, k, k)
        if exact == 0:
            assert value == 0.0, orders
        else:
            assert value == pytest.approx(math.pi * float(exact), rel=1e-13), orders
        compared += 1
    assert compared == 269


def test_every_bridge_order_answers_near_equal_momenta():
    # a relative gap of 1e-12 on either side of k1 = k2: every tuple of
    # {0..4}^4 with bridge order L >= 1 is answered, and its value is pi
    # times the exact Mellin finite part at the same float momenta
    compared = 0
    for orders in _bridge_valid_tuples(4):
        if select_bridge_order(*orders) == 0:
            continue
        for k2 in (1.0 + 1e-12, 1.0 - 1e-12):
            value = evaluate(IntegralSpec(*orders, 1.0, k2)).value
            exact = _mellin_over_pi(orders, 1.0, k2)
            if exact == 0:
                assert value == 0.0, (orders, k2)
            else:
                assert value == pytest.approx(math.pi * float(exact), rel=1e-13), (orders, k2)
            compared += 1
    assert compared == 488


@pytest.mark.parametrize("u", range(1, 9))
def test_near_equal_momenta_match_the_mellin_finite_part(u):
    # k2 = 1 +- 10^-u, where a term-by-term float assembly of the same
    # closed form cancels: evaluate keeps full relative accuracy against the
    # exact value at the same float momenta
    for orders in ((2, 1, 3, 0), (1, 0, 1, 2), (4, 2, 3, 3)):
        for k2 in (1.0 + 10.0**-u, 1.0 - 10.0**-u):
            exact = math.pi * float(_mellin_over_pi(orders, 1.0, k2))
            value = evaluate(IntegralSpec(*orders, 1.0, k2)).value
            assert value == pytest.approx(exact, rel=1e-12), (orders, k2)


def test_evaluate_matches_mellin_finite_part_on_order_grid():
    # the float side of the exact kernel check: evaluate's value on every
    # bridge-valid tuple of {0..4}^4, both momentum orders, against pi times
    # the exact Mellin finite part
    compared = 0
    for orders in _bridge_valid_tuples(4):
        for k1, k2 in ((1.0, 3.0), (3.0, 1.0)):
            report = evaluate(IntegralSpec(*orders, k1, k2))
            assert report.bridge_L == select_bridge_order(*orders)
            exact = _mellin_over_pi(orders, k1, k2)
            if exact == 0:
                assert report.value == 0.0, (orders, k1, k2)
            else:
                assert report.value == pytest.approx(math.pi * float(exact), rel=1e-13), (
                    orders, k1, k2
                )
            compared += 1
    assert compared == 538


def test_quad_degenerate_closed_values():
    assert evaluate(IntegralSpec(2, 0, 0, 2, 1.0, 1.0)).value == pytest.approx(
        math.pi / 20.0, rel=1e-14
    )
    assert evaluate(IntegralSpec(1, 0, 1, 0, 1.0, 1.0)).value == pytest.approx(
        math.pi / 12.0, rel=1e-14
    )
    assert evaluate(IntegralSpec(1, 0, 1, 0, 1.0, 1.0 + 1e-13)).value == pytest.approx(
        math.pi / 12.0, rel=1e-12
    )
    # at k1 = k2 = 1 the two linearization terms of (1,1,1,1) give (pi/4)(1/3 + 2/15)
    assert evaluate(IntegralSpec(1, 1, 1, 1, 1.0, 1.0)).value == pytest.approx(
        7.0 * math.pi / 60.0, rel=1e-13
    )


@pytest.mark.parametrize("k1, k2", [(1e300, 1e300), (1e-300, 1e-300), (1e-104, 2e-104)])
def test_out_of_range_momenta_raise_domain_error(k1, k2):
    # k_hi^3 overflows, underflows to 0, or leaves pi / k_hi^3 infinite, and
    # the value leaves the normal floats with it
    for orders in ((0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0), (2, 1, 3, 0)):
        with pytest.raises(DomainError, match="float range"):
            evaluate(IntegralSpec(*orders, k1, k2))


def _extreme_momenta():
    """Momentum pairs whose ratio, scale or value leaves the normal floats, seeded."""
    rng = random.Random(19)
    pairs = [(1e200, 1e-110), (1e300, 1e-300), (1e100, 1e-210), (1e-150, 1e158)]
    while len(pairs) < 12:
        x, y = rng.uniform(-307, 308), rng.uniform(-307, 308)
        if abs(x - y) > 250:
            pairs.append((10.0**x, 10.0**y))
    pairs += [(1e-5, 1e-318), (1.0, 5e-324), (1e-60, 1e-310)]
    return pairs + [(1e-100, 1e-207), (1e-100, 1e-205)]


def test_momenta_are_limited_by_the_value_alone():
    # Far-apart momenta used to raise wherever t = k_lo/k_hi left the normal
    # floats: t^-1 overflowed, though pi / (k_lo k_hi^2) is a normal float.
    # Every value of {0..4}^4 at extreme exponent pairs, both orientations,
    # against pi K(t) / k_hi^3 from the exact ratio; DomainError exactly
    # where that value is not a normal float. The last five pairs leave t
    # (a subnormal momentum) or t^p0 (t = 1e-107 and 1e-105, p0 = 3) subnormal,
    # and so short of digits, under a normal value: (1, 4, 1, 2) at
    # (1e-5, 1e-318) was 1.3e-8 off and (0, 0, 4, 4) at (1e-100, 1e-207) 0.25.
    pairs = _extreme_momenta()
    normal_min, float_top = mpmath.mpf(sys.float_info.min), mpmath.mpf(2) ** 1024
    answered = raised = 0
    answered_p0 = []
    with mpmath.workdps(40):
        for (k1, k2), orders in itertools.product(
            pairs + [(k2, k1) for k1, k2 in pairs], _bridge_valid_tuples(4)
        ):
            kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
            num, den = _horner_exact(kernel, *_exact_ratio(k_lo, k_hi))
            exact = mpmath.pi * num / den / mpmath.mpf(k_hi) ** 3
            if normal_min <= abs(exact) < float_top:
                report = evaluate(IntegralSpec(*orders, k1, k2))
                assert report.value == pytest.approx(float(exact), rel=1e-15, abs=0), (
                    orders, k1, k2
                )
                assert _reference_term_sum(report) == pytest.approx(report.value, rel=1e-14, abs=0)
                answered += 1
                if (k1, k2) == (1e200, 1e-110):
                    answered_p0.append(kernel.p0)
            else:
                with pytest.raises(DomainError, match="float range"):
                    evaluate(IntegralSpec(*orders, k1, k2))
                raised += 1
    # the 55 tuples whose kernel has a t^-1 term, such as pi / (4 k1^2 k2) for (0,0,0,0)
    assert answered_p0 == [-1] * 55
    assert evaluate(IntegralSpec(0, 0, 0, 0, 1e200, 1e-110)).value == 7.853981633974483e-291
    assert answered + raised == 269 * 34 and answered > 1000 and raised > 1000


def test_in_range_extremes_keep_their_bits():
    # (0,0,0,0) at k1 = k2 is pi/4 / k^3, its t^-1 coefficient 1/4 at t = 1
    for k in (1e-100, 1e100):
        assert evaluate(IntegralSpec(0, 0, 0, 0, k, k)).value == math.pi / k**3 * 0.25


@pytest.mark.parametrize(
    "orders, k1, k2",
    [
        # pi / k_hi^3 overflows or underflows while the value is a normal float
        ((0, 1, 2, 1), 1e110, 1e-100),
        ((1, 0, 1, 2), 1e-100, 1e110),
        ((0, 0, 4, 4), 1e-104, 1e-110),
        # pi / k_hi^3 is subnormal, next to the edge of the plain path
        ((0, 1, 2, 1), 5.4e102, 1e-100),
    ],
)
def test_values_whose_scale_leaves_the_float_range_are_answered(orders, k1, k2):
    # (0, 1, 2, 1) at k1 >> k2 is -pi / (12 k1^2 k2) up to a relative t^2
    value = evaluate(IntegralSpec(*orders, k1, k2)).value
    kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
    exact = _reference_horner_exact(kernel, Fraction(k_lo) / Fraction(k_hi)) / Fraction(k_hi) ** 3
    assert value == pytest.approx(math.pi * float(exact), rel=1e-15, abs=0), (orders, k1, k2)
    if orders == (0, 1, 2, 1):
        assert value == pytest.approx(-math.pi / (12 * k1**2 * k2), rel=1e-15, abs=0)


def test_scaled_report_terms_sum_to_the_value():
    # pi / k_hi^3 is about 3e312; the terms are scaled through the exponent too
    report = evaluate(IntegralSpec(1, 1, 4, 4, 1e-104, 1e-106))
    assert [term.indices for term in report.terms] == [{"power": 2}, {"power": 4}]
    assert _reference_term_sum(report) == pytest.approx(report.value, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "orders, k1, k2",
    [
        ((1, 0, 1, 2), 1e100, 1e-100),  # about 5e-452
        ((1, 0, 1, 2), 1e63, 1e-63),  # about 5e-317, subnormal
        ((0, 0, 4, 4), 1.0, 1e-120),  # t^3 underflows to 0
        ((0, 0, 0, 0), 1e300, 1e300),  # the scaled path underflows
    ],
)
def test_underflowing_values_raise_domain_error(orders, k1, k2):
    with pytest.raises(DomainError, match="float range"):
        evaluate(IntegralSpec(*orders, k1, k2))


def test_exact_zero_is_returned_at_extreme_momenta(monkeypatch):
    # no kernel of {0..4}^4 vanishes at k1 = k2, so the zero kernel is put in
    zero = _Kernel(0, (0,), 1, (0.0,), 0.0, 0.0)
    monkeypatch.setattr(quadbessel, "_laurent_kernel", lambda *orders: (1, zero))
    for k1, k2 in ((1.0, 2.0), (1e100, 1e-100), (3e300, 1e300), (1e-300, 2e-300), (2.0, 2.0)):
        assert evaluate(IntegralSpec(1, 0, 1, 2, k1, k2)).value == 0.0


def test_quad_no_valid_bridge():
    with pytest.raises(NoValidBridge):
        evaluate(IntegralSpec(0, 0, 0, 1, 1.0, 2.0))
    with pytest.raises(NoValidBridge):
        evaluate(IntegralSpec(3, 0, 1, 0, 1.0, 2.0))


def _reference_term_sum(report):
    """The report's terms summed with one rounding: its value up to the terms' own rounding."""
    return math.fsum(term.value for term in report.terms)


def test_report_structure_and_term_sums():
    paired = quad_bessel_paired(1, 2, 1.0, 2.0)
    assert paired.bridge_L == 0
    # mu = 1, 3 at powers mu - 1
    assert [term.indices for term in paired.terms] == [{"power": 0}, {"power": 2}]
    assert _reference_term_sum(paired) == pytest.approx(paired.value, rel=1e-13)


def test_paired_out_of_range_momenta_raise_domain_error():
    # the float mu-sum returned inf here
    with pytest.raises(DomainError, match="k1=1e-110, k2=1e-110"):
        quad_bessel_paired(0, 0, 1e-110, 1e-110)


# --------------------------------------------------------------------------
# the compiled Laurent kernel behind evaluate
# --------------------------------------------------------------------------


def _kernel_dict(kernel):
    """{p: c_p} over the nonzero coefficients of K(t) = sum c_p t^p, as Fractions."""
    return {
        kernel.p0 + 2 * i: Fraction(n, kernel.common)
        for i, n in enumerate(kernel.numerators)
        if n
    }


def _reference_horner_exact(kernel, t: Fraction) -> Fraction:
    """sum c_p t^p in Fraction arithmetic, term by term over the exact coefficients."""
    return sum((coeff * t**p for p, coeff in _kernel_dict(kernel).items()), Fraction(0))


def _orders_read(orders, k1, k2):
    """The order tuple whose kernel evaluate reads: the exchanged tuple when k1 < k2."""
    l1, l2, l3, l4 = orders
    return (l2, l1, l4, l3) if k1 < k2 else tuple(orders)


def _kernel_read(orders, k1, k2):
    """(kernel, k_lo, k_hi) that evaluate reads: the exchanged tuple's kernel when k1 < k2."""
    return _laurent_kernel(*_orders_read(orders, k1, k2))[1], min(k1, k2), max(k1, k2)


def _eager_terms(orders, k1, k2):
    """The Laurent monomials of evaluate's report, built at once from the exact kernel."""
    kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
    t, scale = k_lo / k_hi, math.pi / k_hi**3
    return tuple(
        TermEntry({"power": p}, scale * float(coeff) * t**p)
        for p, coeff in _kernel_dict(kernel).items()
    )


@pytest.mark.parametrize("u", [*range(1, 17), math.inf])
def test_gap_sweep_matches_exact_values(u):
    # k2 = 1 +- 10^-u, down to k2 = k1 at u = inf: the term-by-term float
    # assembly lost every digit here (relative error 8.4 at a gap of 1e-3)
    # while raising nothing
    k1 = 1.0
    for k2 in (1.0 + 10.0**-u, 1.0 - 10.0**-u):
        value = evaluate(IntegralSpec(2, 1, 3, 0, k1, k2)).value
        if k1 < k2:
            expected = math.pi / (140.0 * k2**3)
        else:
            t = k2 / k1
            expected = math.pi / k1**3 * (0.25 - 3.0 * t**2 / 5.0 + 5.0 * t**4 / 14.0)
        assert value == pytest.approx(expected, rel=1e-12), (k2, value, expected)
        spec = IntegralSpec(13, 4, 11, 2, k1, k2)
        oracle, _ = quad_bessel_numeric(spec)
        assert evaluate(spec).value == pytest.approx(oracle, rel=1e-7), k2
    k2 = 1.0 + 10.0**-u
    value = evaluate(IntegralSpec(13, 0, 13, 0, k1, k2)).value
    assert value == pytest.approx(math.pi / (108.0 * k1 * k2**2), rel=1e-12)


@pytest.mark.parametrize("a", range(7))
def test_paired_kernel_is_the_paired_closed_form(a):
    for b in range(7):
        expected = {
            mu - 1: Fraction(1, 4) * wigner_3j_zero(a, b, mu).radicand
            for mu in range(abs(a - b), a + b + 1, 2)
        }
        bridge, kernel = _laurent_kernel(a, a, b, b)
        assert bridge == 0
        assert _kernel_dict(kernel) == expected, (a, b)
        _assert_floats_are_the_rounded_numerators(kernel)
        # (a, a, b, b) is its own momentum exchange: k1 < k2 reads this kernel
        assert _kernel_read((a, a, b, b), 1.0, 2.0)[0] is kernel


def _assert_floats_are_the_rounded_numerators(kernel):
    assert len(kernel.floats) == len(kernel.numerators) >= 1
    for coeff, n in zip(kernel.floats, kernel.numerators):
        assert isinstance(n, int)
        assert coeff.hex() == (n / kernel.common).hex() == float(Fraction(n, kernel.common)).hex()
    # dense from the lowest power p0 to the highest: both ends are nonzero
    assert kernel.numerators[0] != 0 and kernel.numerators[-1] != 0
    assert kernel.p0 >= -1


def test_every_kernel_float_is_its_rounded_numerator():
    # every tuple's kernel, so also every kernel read for k1 < k2
    for orders in itertools.product(range(5), repeat=4):
        kernel = _kernel_or_none(orders)
        if kernel is not None:
            _assert_floats_are_the_rounded_numerators(kernel)


def _kernel_or_none(orders):
    try:
        return _laurent_kernel(*orders)[1]
    except NoValidBridge:
        return None


def _outcome(spec):
    """Everything evaluate reports for spec, floats as hex, or its error type and message."""
    try:
        report = evaluate(spec)
    except FourBesselError as exc:
        return type(exc).__name__, str(exc)
    terms = [(term.indices, term.value.hex()) for term in report.terms]
    return report.value.hex(), report.bridge_L, report.method, terms


def test_evaluate_momentum_exchange_symmetry():
    # I(l1, l2, l3, l4; k1, k2) = I(l2, l1, l4, l3; k2, k1): value, bridge
    # order, method, terms and any refusal agree bit for bit. At k1 = k2 the
    # two sides read the kernels of both tuples, which meet exactly at t = 1,
    # and each value is that K(1) rounded once, so they agree bit for bit too.
    # The k1 < k2 values are checked exactly against the Mellin finite part in
    # test_oracle.py.
    compared = 0
    for l1, l2, l3, l4 in itertools.product(range(5), repeat=4):
        orders, exchanged = (l1, l2, l3, l4), (l2, l1, l4, l3)
        for k1, k2 in ((1.0, 1.1), (3.0, 1.0), (0.3, 1.7), (1.0, 1.0 + 1e-9), (2.5, 0.75)):
            assert _outcome(IntegralSpec(*orders, k1, k2)) == _outcome(
                IntegralSpec(*exchanged, k2, k1)
            ), (orders, k1, k2)
        kernel, other = _kernel_or_none(orders), _kernel_or_none(exchanged)
        assert (kernel is None) == (other is None), orders
        if kernel is None:
            continue
        assert Fraction(*_horner_exact(kernel, 1, 1)) == Fraction(*_horner_exact(other, 1, 1))
        for k in (0.7, 1.3):
            assert evaluate(IntegralSpec(*orders, k, k)).value.hex() == evaluate(
                IntegralSpec(*exchanged, k, k)
            ).value.hex(), (orders, k)
        compared += 1
    assert compared == 269


def test_kernel_same_momentum_order_swap_symmetry():
    # l1 <-> l3 (both at k1) and l2 <-> l4 (both at k2) leave the integral
    # unchanged: the kernel read for each momentum order is the same Laurent
    # polynomial, exactly
    compared = 0
    for orders in itertools.product(range(5), repeat=4):
        l1, l2, l3, l4 = orders
        bridged = _kernel_or_none(orders) is not None
        for swapped in ((l3, l2, l1, l4), (l1, l4, l3, l2)):
            assert bridged == (_kernel_or_none(swapped) is not None), (orders, swapped)
            if not bridged:
                continue
            for k1, k2 in ((2.0, 1.0), (1.0, 2.0)):
                kernel, other = _kernel_read(orders, k1, k2)[0], _kernel_read(swapped, k1, k2)[0]
                assert _kernel_dict(kernel) == _kernel_dict(other), (orders, swapped, k1)
            compared += 1
    assert compared == 538


def test_kernel_of_1_0_1_2_is_exact():
    # k1 < k2 reads the kernel of the exchanged tuple (0, 1, 2, 1)
    bridge, kernel = _laurent_kernel(0, 1, 2, 1)
    assert bridge == 1 and _laurent_kernel(1, 0, 1, 2)[0] == 1
    assert _kernel_dict(kernel) == {-1: Fraction(-1, 12), 1: Fraction(1, 10)}
    # I = pi / k2^3 * (-2/12 + 1/20) = -7 pi / 480 at k = (1, 2)
    reference = QUAD_REFERENCES[(1, 0, 1, 2, 1.0, 2.0)]
    assert -7.0 * math.pi / 480.0 == pytest.approx(reference, rel=1e-15)
    assert evaluate(IntegralSpec(1, 0, 1, 2, 1.0, 2.0)).value == pytest.approx(
        -7.0 * math.pi / 480.0, rel=1e-15
    )


def test_evaluate_terms_are_laurent_monomials():
    report = evaluate(IntegralSpec(1, 0, 1, 2, 1.0, 2.0))
    assert report.method == "analytic" and report.bridge_L == 1
    assert [term.indices for term in report.terms] == [{"power": -1}, {"power": 1}]
    assert report.terms[0].value == pytest.approx(math.pi / 8.0 * (-1.0 / 12.0) * 2.0, rel=1e-15)
    assert _reference_term_sum(report) == pytest.approx(report.value, rel=1e-15)
    paired = evaluate(IntegralSpec(1, 1, 2, 2, 1.0, 2.0))
    assert paired.method == "paired"
    assert [term.indices for term in paired.terms] == [{"power": 0}, {"power": 2}]


def test_cancelling_kernels_keep_their_digits():
    # the kernel of (13, 4, 11, 2) cancels ~1e9-fold near t = 0.9; the float
    # Horner over P's own coefficients alone is off by ~2e-8 there, and the
    # exact route returns K correctly rounded
    k1, k2 = 1.1, 1.0
    _, kernel = _laurent_kernel(13, 4, 11, 2)
    t = k2 / k1
    exact = _reference_horner_exact(kernel, Fraction(k2) / Fraction(k1))
    float_only = _float_horner(kernel.floats, t * t)[0] * t**kernel.p0
    assert abs(float_only - float(exact)) > 1e-9 * abs(float(exact))
    value = evaluate(IntegralSpec(13, 4, 11, 2, k1, k2)).value
    assert value == math.pi / k1**3 * float(exact)


def _integer_horner_cases():
    for orders in _bridge_valid_tuples(3):
        for k1, k2 in (
            (Fraction(7, 4), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(7, 4)),
            (Fraction(5, 3), Fraction(5, 3)),
        ):
            yield orders, k1, k2
    for orders in ((13, 4, 11, 2), (13, 0, 13, 0)):
        for u in range(1, 9):
            k1 = 1.1
            k2 = k1 * (1.0 + 10.0**-u)
            yield orders, k1, k2
            yield orders, k2, k1


def test_integer_horner_equals_fraction_horner():
    lowest = set()
    compared = 0
    for orders, k1, k2 in _integer_horner_cases():
        kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
        t = Fraction(k_lo) / Fraction(k_hi)
        num, den = _horner_exact(kernel, t.numerator, t.denominator)
        reference = _reference_horner_exact(kernel, t)
        assert Fraction(num, den) == reference, (orders, k1, k2)
        assert num / den == float(reference), (orders, k1, k2)
        lowest.add(min(kernel.p0, 0))
        compared += 1
    assert compared == 336 + 32
    assert lowest == {-1, 0}, "kernels with lowest power -1 and >= 0 must both be covered"


def _first_bound_fails(kernel, t):
    """The first float pass, over P's own coefficients at w = t * t, fails its bound."""
    total, bound = _float_horner(kernel.floats, t * t)
    return bound > _EXACT_HORNER_BOUND * abs(total)


def _rounded_value(orders, k1, k2):
    """pi / k_hi^3 times K(k_lo/k_hi), K correctly rounded at the momenta's exact ratio."""
    kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
    exact = _reference_horner_exact(kernel, Fraction(k_lo) / Fraction(k_hi))
    return math.pi / k_hi**3 * float(exact)


def test_exact_route_returns_the_fraction_value():
    # the gap sweep of (13, 4, 11, 2) and (13, 0, 13, 0) includes cancelling
    # specs whose first bound fails; the exact route answers every one of
    # them with K correctly rounded
    fixed = 0
    for orders, k1, k2 in _integer_horner_cases():
        if isinstance(k1, Fraction):
            continue
        kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
        if not _first_bound_fails(kernel, k_lo / k_hi):
            continue
        assert evaluate(IntegralSpec(*orders, k1, k2)).value == _rounded_value(orders, k1, k2)
        fixed += 1
    assert fixed == 16


@functools.lru_cache(maxsize=None)
def _root_adjacent_specs():
    """Specs (orders, 1.0, t) next to each real root of K in (0, 1), and the root counts.

    Per root, t is a float within an ulp of the root, and its two neighbours.
    Roots are bracketed on a grid of t = i/64 and bisected exactly on the
    dyadic rationals m / 2^60, from the sign of the integer Horner's numerator.
    """
    specs, roots = [], {}
    for orders in ((2, 1, 3, 0), (13, 4, 11, 2), (8, 3, 13, 10)):
        kernel = _laurent_kernel(*orders)[1]

        def sign(m):
            num, _ = _horner_exact(kernel, m, 1 << 60)
            return (num > 0) - (num < 0)

        grid = [i << 54 for i in range(1, 64)]
        roots[orders] = 0
        for lo, hi in zip(grid, grid[1:]):
            if sign(lo) * sign(hi) >= 0:
                continue
            below = sign(lo)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if sign(mid) == below else (lo, mid)
            t = lo / 2**60
            specs += [(orders, 1.0, math.nextafter(t, 0.0)), (orders, 1.0, t),
                      (orders, 1.0, math.nextafter(t, 1.0))]
            roots[orders] += 1
    return tuple(specs), roots


def test_exact_horner_runs_next_to_roots_and_returns_the_fraction_value(monkeypatch):
    # next to a real root of K the float pass keeps no digits, its bounds
    # fail, and the integer Horner gives the correctly rounded value: once
    # for each of the 33 specs
    specs, roots = _root_adjacent_specs()
    assert roots == {(2, 1, 3, 0): 2, (13, 4, 11, 2): 8, (8, 3, 13, 10): 1}
    calls = []
    monkeypatch.setattr(
        quadbessel, "_horner_exact", lambda *args: calls.append(args) or _horner_exact(*args)
    )
    for orders, k1, k2 in specs:
        kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
        exact = _reference_horner_exact(kernel, Fraction(k_lo) / Fraction(k_hi))
        value = evaluate(IntegralSpec(*orders, k1, k2)).value
        assert value == math.pi / k_hi**3 * float(exact), (orders, k1, k2)
    assert len(specs) == 3 * 11
    assert len(calls) == 33
    assert {call[0] for call in calls} == {_laurent_kernel(*orders)[1] for orders in roots}


def test_exact_rational_root_returns_zero_without_looping(monkeypatch):
    # K(t) = 2^106 t^2 - m^2 vanishes at the float t = m / 2^53: the float
    # pass cancels to 0.0, its bounds fail, and one integer Horner returns
    # the exact zero
    m, b = 0.6123456789.as_integer_ratio()
    numerators = (-m * m, b * b)
    floats = tuple(map(float, numerators))
    kernel = _Kernel(
        0, numerators, 1, floats, _float_horner(floats, 1.0)[1], float(sum(numerators))
    )
    monkeypatch.setattr(quadbessel, "_laurent_kernel", lambda *orders: (1, kernel))
    calls = []
    monkeypatch.setattr(
        quadbessel, "_horner_exact", lambda *args: calls.append(args) or _horner_exact(*args)
    )
    t = m / b
    assert _float_horner(kernel.floats, t * t)[0] == 0.0
    assert evaluate(IntegralSpec(1, 0, 1, 2, 1.0, t)).value == 0.0
    assert calls == [(kernel, m, b)]


def test_each_evaluate_runs_at_most_one_exact_horner(monkeypatch):
    # the fallback, the extreme range, subnormal t and an exact zero share one
    # exact route: over {0..4}^4, both orientations, at the gap sweep and the
    # extreme momenta, no evaluate takes K from the exact ratio twice
    calls = []
    monkeypatch.setattr(
        quadbessel, "_horner_exact", lambda *args: calls.append(args) or _horner_exact(*args)
    )
    momenta = [(1.0, 1.0 + sign * 10.0**-u) for u in range(1, 16) for sign in (1, -1)]
    momenta += _extreme_momenta()
    exact = 0
    for orders in _bridge_valid_tuples(4):
        for k1, k2 in momenta + [(k2, k1) for k1, k2 in momenta]:
            calls.clear()
            try:
                evaluate(IntegralSpec(*orders, k1, k2))
            except DomainError:
                pass
            assert len(calls) <= 1, (orders, k1, k2)
            exact += len(calls)
    assert exact == 8594


def test_exact_horner_runs_only_where_the_running_bound_fails_on_log_uniform_momenta(
    monkeypatch,
):
    # 1500 momentum pairs log-uniform on [0.1, 10]^2, in both orientations:
    # the first bound fails on 277 of them for (13, 4, 11, 2), on 368 for
    # (13, 0, 13, 0) and on 594-652 at bridge orders 30-50; the integer
    # Horner runs once on each of them, and on no other pair
    rng = random.Random("exact-fallback-rate")
    pairs = [(10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)) for _ in range(1500)]
    calls = []
    monkeypatch.setattr(
        quadbessel, "_horner_exact", lambda *args: calls.append(args) or _horner_exact(*args)
    )
    for orders, first_floor in (
        ((13, 4, 11, 2), 150), ((13, 0, 13, 0), 150),
        ((0, 30, 60, 30), 500), ((40, 0, 40, 0), 500), ((50, 0, 50, 0), 500),
    ):
        first_fails = 0
        for k1, k2 in pairs:
            calls.clear()
            evaluate(IntegralSpec(*orders, k1, k2))
            kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
            fails = _first_bound_fails(kernel, k_lo / k_hi)
            expected = [(kernel, *_exact_ratio(k_lo, k_hi))] if fails else []
            assert calls == expected, (orders, k1, k2)
            first_fails += fails
        assert first_fails > first_floor, orders


def test_fallback_is_correctly_rounded_wherever_the_stored_bound_fails():
    # every bridge-valid tuple of {0..4}^4, the eval-kgrid tuples and bridge
    # orders 20 to 50, both orientations, at the gap sweep and at log-uniform
    # momenta: wherever the running bound fails, and so the stored one, the
    # value is pi / k_hi^3 times K correctly rounded at the momenta's exact
    # ratio
    from test_kernel_build import EVAL_KGRID_TUPLES

    rng = random.Random("fixed-point-pass")
    momenta = [(1.0, 1.0 + sign * 10.0**-u) for u in range(1, 16) for sign in (1, -1)]
    momenta += [(10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)) for _ in range(10)]
    high = ((20, 0, 20, 0), (30, 1, 29, 4), (0, 30, 60, 30), (40, 0, 40, 0), (50, 0, 50, 0))
    checked = fixed = 0
    for orders in [*_bridge_valid_tuples(4), *EVAL_KGRID_TUPLES, *high]:
        for k1, k2 in momenta + [(k2, k1) for k1, k2 in momenta]:
            kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
            if _first_bound_fails(kernel, k_lo / k_hi):
                value = evaluate(IntegralSpec(*orders, k1, k2)).value
                assert value == _rounded_value(orders, k1, k2), (orders, k1, k2)
                fixed += 1
            checked += 1
    assert checked == (269 + 15 + 5) * 80
    assert fixed == 1236


def test_stored_bound_dominates_the_running_bound():
    # the first pass runs at 0 <= w <= 1, where the running bound's float sum
    # is monotone in w: the kernel's bound at w = 1 is never exceeded
    from test_kernel_build import HIGH_BRIDGE_TUPLES

    rng = random.Random("a-priori-bound")
    points = [0.0, 2.0**-1074, 1.0 - 2.0**-53, 1.0]
    points += [rng.random() for _ in range(40)] + [2.0 ** rng.uniform(-1074, 0) for _ in range(10)]
    tuples = [*_bridge_valid_tuples(6), *(orders for orders, _ in HIGH_BRIDGE_TUPLES)]
    checked = 0
    for l1, l2, l3, l4 in tuples:
        for orders in ((l1, l2, l3, l4), (l2, l1, l4, l3)):
            kernel = _laurent_kernel(*orders)[1]
            assert kernel.horner_bound == _float_horner(kernel.floats, 1.0)[1]
            for w in points:
                assert _float_horner(kernel.floats, w)[1] <= kernel.horner_bound, (orders, w)
                checked += 1
    assert checked == (1017 + len(HIGH_BRIDGE_TUPLES)) * 2 * 54


def _two_pass_value(orders, k1, k2):
    """The value with the first pass gated by its running bound, then K correctly rounded.

    evaluate's value is this one: where the stored bound holds, so does the
    running one, and where it fails, evaluate gates on the running bound
    itself. At k1 = k2 it is K(1) correctly rounded.
    """
    kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
    t = k_lo / k_hi
    if k_lo != k_hi:
        total, bound = _float_horner(kernel.floats, t * t)
        if bound <= _EXACT_HORNER_BOUND * abs(total):
            return math.pi / k_hi**3 * (total * t**kernel.p0)
    return _rounded_value(orders, k1, k2)


def test_a_priori_accept_returns_the_two_pass_bits():
    # every bridge-valid tuple of {0..4}^4 and the eval-kgrid tuples, at
    # separated, exchanged, equal and near-equal momenta: every value's bits
    # are those of the two-pass evaluation, whether the stored bound holds
    # or fails, and at k1 = k2
    from test_kernel_build import EVAL_KGRID_TUPLES

    momenta = [(1.0, 3.0), (3.0, 1.0), (2.0, 2.0), (0.7, 0.3)]
    momenta += [(1.0, 1.0 + sign * 10.0**-u) for u in range(1, 16) for sign in (1, -1)]
    momenta += [(1.1, 1.0), (1.0, 1.1)]
    compared = a_priori = stored_fails = 0
    for orders in [*_bridge_valid_tuples(4), *EVAL_KGRID_TUPLES]:
        for k1, k2 in momenta:
            value = evaluate(IntegralSpec(*orders, k1, k2)).value
            kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
            if k_lo != k_hi:
                t = k_lo / k_hi
                total = _float_horner(kernel.floats, t * t)[0]
                if kernel.horner_bound > _EXACT_HORNER_BOUND * abs(total):
                    stored_fails += 1
                else:
                    a_priori += 1
            assert value.hex() == _two_pass_value(orders, k1, k2).hex(), (orders, k1, k2)
            compared += 1
    assert compared == (269 + 15) * 36
    # the 284 equal pairs run no first pass
    assert (a_priori, stored_fails) == (9379, 561)


def test_well_conditioned_first_pass_computes_no_running_bound(monkeypatch):
    spec = IntegralSpec(1, 0, 1, 2, 1.0, 2.0)
    warm = evaluate(spec).value

    def forbidden(*args):
        raise AssertionError("running bound on an a-priori accept")

    monkeypatch.setattr(quadbessel, "_running_bound", forbidden)
    assert evaluate(spec).value == warm


def _count_gate_calls(monkeypatch):
    """Record evaluate's calls of _running_bound and _horner_exact, which still run."""
    calls = {}
    for name in ("_running_bound", "_horner_exact"):
        function, seen = getattr(quadbessel, name), calls.setdefault(name, [])
        monkeypatch.setattr(
            quadbessel, name, lambda *args, f=function, s=seen: s.append(args) or f(*args)
        )
    return calls


def test_cancelling_spec_reaches_the_exact_route(monkeypatch):
    # the stored bound fails for (13, 4, 11, 2) at t = 1/1.1, and so does the
    # running bound at the spec's own w: one running bound, then one integer
    # Horner at the momenta's exact ratio
    spec = IntegralSpec(13, 4, 11, 2, 1.1, 1.0)
    warm = evaluate(spec).value
    calls = _count_gate_calls(monkeypatch)
    assert evaluate(spec).value == warm
    kernel, t = _laurent_kernel(13, 4, 11, 2)[1], 1.0 / 1.1
    assert calls["_running_bound"] == [(kernel.floats, t * t)]
    assert calls["_horner_exact"] == [(kernel, *_exact_ratio(1.0, 1.1))]


def test_running_bound_gates_the_exact_route(monkeypatch):
    # the stored bound at w = 1 fails for (8, 3, 13, 10) at t = 1/2, but the
    # running bound at the spec's own w holds: one running bound, no
    # integer Horner, and the plain Horner's value
    spec = IntegralSpec(8, 3, 13, 10, 1.0, 0.5)
    kernel = _laurent_kernel(8, 3, 13, 10)[1]
    total = _float_horner(kernel.floats, 0.25)[0]
    assert kernel.horner_bound > _EXACT_HORNER_BOUND * abs(total)
    warm = evaluate(spec).value
    calls = _count_gate_calls(monkeypatch)
    assert evaluate(spec).value == warm == math.pi * (total * 0.5**kernel.p0)
    assert calls == {"_running_bound": [(kernel.floats, 0.25)], "_horner_exact": []}


def test_exact_route_runs_only_where_the_running_bound_fails(monkeypatch):
    # the eval-kgrid tuples, both orientations, at seeded log-uniform and
    # near-equal momenta: evaluate runs the integer Horner exactly where
    # the running bound at the spec's w fails, on fewer specs than the stored
    # bound fails
    from test_kernel_build import EVAL_KGRID_TUPLES

    rng = random.Random("running-bound-gate")
    momenta = [(10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)) for _ in range(36)]
    momenta += [(k, k * (1.0 + 10.0 ** -rng.uniform(1, 9))) for k in (1.0, 0.3, 2.5) * 3]
    momenta += [(k2, k1) for k1, k2 in momenta]
    for orders in EVAL_KGRID_TUPLES:
        evaluate(IntegralSpec(*orders, 1.0, 2.0))
    calls = _count_gate_calls(monkeypatch)
    running_fails = stored_fails = 0
    for orders in EVAL_KGRID_TUPLES:
        for k1, k2 in momenta:
            evaluate(IntegralSpec(*orders, k1, k2))
            kernel, k_lo, k_hi = _kernel_read(orders, k1, k2)
            t = k_lo / k_hi
            total = _float_horner(kernel.floats, t * t)[0]
            stored_fails += kernel.horner_bound > _EXACT_HORNER_BOUND * abs(total)
            running_fails += _first_bound_fails(kernel, t)
    assert len(calls["_horner_exact"]) == running_fails
    assert len(calls["_running_bound"]) == stored_fails
    assert (running_fails, stored_fails) == (93, 170)


def test_stored_floats_are_rounded_once_on_wide_kernels():
    # the kernel's floats and K(1) are each its exact ratio rounded once, where
    # numerators pass 53 bits and rounding them before dividing would differ;
    # each kernel is in lowest terms
    from test_kernel_build import EVAL_KGRID_TUPLES, HIGH_BRIDGE_TUPLES

    wide = 0
    for l1, l2, l3, l4 in [*EVAL_KGRID_TUPLES, *(orders for orders, _ in HIGH_BRIDGE_TUPLES)]:
        for orders in ((l1, l2, l3, l4), (l2, l1, l4, l3)):
            kernel = _laurent_kernel(*orders)[1]
            numerators, common = kernel.numerators, kernel.common
            assert math.gcd(common, *numerators) == 1, orders
            assert [x.hex() for x in kernel.floats] == [
                float(Fraction(n, common)).hex() for n in numerators
            ], orders
            assert kernel.at_one == float(Fraction(sum(numerators), common)), orders
            wide += max(map(abs, numerators)).bit_length() > 53
    # six up to bridge order 30, then (0, 40, 80, 40) and (50, 0, 50, 0)
    assert wide == 8


def test_exact_ratio_is_exact_with_one_odd_part():
    # both floats' denominators are powers of two: a / b is the exact ratio,
    # and a and b share no factor of 2, down to subnormal momenta and across
    # exponent gaps over 1000
    rng = random.Random("exact-ratio")
    pairs = [(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)) for _ in range(20000)]
    pairs += [(2.0 ** rng.uniform(-1074, 1023), 2.0 ** rng.uniform(-1074, 1023)) for _ in range(200)]
    pairs += [
        (5e-324, 1.0), (5e-324, 1.5e-323), (3e-310, 2.2e-308), (1e-300, 1e300),
        (5e-324, 1.7976931348623157e308), (2.0, 4.0), (6.0, 6.0), (0.75, 0.25), (1e300, 3e300),
    ]
    for k1, k2 in pairs:
        k_lo, k_hi = min(k1, k2), max(k1, k2)
        a, b = _exact_ratio(k_lo, k_hi)
        assert Fraction(a, b) == Fraction(k_lo) / Fraction(k_hi), (k1, k2)
        assert a > 0 and b > 0 and (a | b) & 1, (k1, k2)
    assert max(abs(math.frexp(k1)[1] - math.frexp(k2)[1]) for k1, k2 in pairs) > 2000


def test_kernel_build_refuses_instead_of_rounding():
    assert _exact_sqrt(9, 4) == (3, 2)
    # the quotient is reduced first: 18/8 = 9/4
    assert _exact_sqrt(18, 8) == (3, 2)
    with pytest.raises(ArithmeticError):
        _exact_sqrt(2, 9)
    with pytest.raises(ArithmeticError):
        _exact_sqrt(4, 3)
    # in u = t^2, (1 - u)(1 + 2u) = 1 + u - 2u^2 divides; changing its top breaks it
    assert _divide_one_minus_u([1, 1, -2]) == [1, 2]
    with pytest.raises(ArithmeticError):
        _divide_one_minus_u([1, 1, -1])


def test_kernel_build_refuses_a_numerator_of_mixed_parity(monkeypatch):
    # the kernel of (0, 1, 2, 1) is -t^-1/12 + t/10, from one division by
    # 1 - t^2 of a numerator in odd powers of t, which alone is divided. A
    # linearization weight at mu + 1 adds powers of the other parity, which
    # the dense format would drop; the build refuses before dividing.
    weights = quadbessel._linearization_weights.__wrapped__
    divided = []

    def with_other_parity(l, lp):
        den, pairs = weights(l, lp)
        mu, num = pairs[-1]
        return den, pairs + ((mu + 1, num),)

    monkeypatch.setattr(quadbessel, "_linearization_weights", with_other_parity)
    monkeypatch.setattr(
        quadbessel, "_divide_one_minus_u", lambda coeffs: divided.append(coeffs) or coeffs[:-1]
    )
    with pytest.raises(ArithmeticError, match="both parities"):
        _class_kernel.__wrapped__(0, 1, 2, 1)
    assert divided == []


def test_zero_kernel_needs_no_branch_of_its_own(monkeypatch):
    monkeypatch.setattr(quadbessel, "_divide_one_minus_u", lambda coeffs: [0] * len(coeffs))
    kernel = _class_kernel.__wrapped__(0, 1, 2, 1)
    assert kernel.p0 == 0 and kernel.numerators == (0,) and kernel.floats == (0.0,)
    assert kernel.common == 1 and kernel.at_one == 0.0
    assert _float_horner(kernel.floats, 0.81) == (0.0, 0.0)
    assert Fraction(*_horner_exact(kernel, 9, 10)) == 0


@pytest.mark.parametrize(
    "orders", [(L, 0, L, 0) for L in range(14, 23)] + [(25, 3, 24, 2), (14, 14, 14, 14)]
)
def test_evaluate_past_the_legendre_degree_limit(orders):
    # bridge orders 14 to 22 need b_13 to b_21, past the degree cap of 12
    # that the float Legendre evaluators once had; the kernel builds them in
    # integers
    for k1, k2 in ((1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (0.7, 3.3)):
        value = evaluate(IntegralSpec(*orders, k1, k2)).value
        exact = math.pi * float(_mellin_over_pi(orders, k1, k2))
        assert value == pytest.approx(exact, rel=1e-14), (orders, k1, k2)


def test_warm_evaluate_does_no_exact_or_legendre_work(monkeypatch):
    # one spec per route: the float pass, the exact route on a cancelling
    # kernel, K(1) at k1 = k2, and the exact route next to a root
    root_orders, root_k1, root_k2 = _root_adjacent_specs()[0][0]
    specs = [
        IntegralSpec(2, 1, 3, 0, 1.0, 1.5),
        IntegralSpec(13, 4, 11, 2, 1.1, 1.0),
        IntegralSpec(13, 0, 13, 0, 0.9, 0.9),
        IntegralSpec(*root_orders, root_k1, root_k2),
    ]
    warm = [evaluate(spec).value for spec in specs]

    def forbidden(*args, **kwargs):
        raise AssertionError("Legendre work on the warm path")

    monkeypatch.setattr(quadbessel, "bform_band_coeffs", forbidden)
    # the exact route runs without Fraction
    _forbid_exact_arithmetic(monkeypatch)
    assert [evaluate(spec).value for spec in specs] == warm


def test_report_terms_equal_the_eager_terms():
    compared = 0
    for orders in itertools.product(range(5), repeat=4):
        for k1, k2 in ((1.0, 3.0), (3.0, 1.0), (2.0, 2.0)):
            try:
                report = evaluate(IntegralSpec(*orders, k1, k2))
            except NoValidBridge:
                continue
            eager = _eager_terms(orders, k1, k2)
            assert [term.indices for term in report.terms] == [term.indices for term in eager]
            assert [term.value.hex() for term in report.terms] == [
                term.value.hex() for term in eager
            ], (orders, k1, k2)
            compared += 1
    # every bridge-valid tuple, at k1 = k2 too
    assert compared == 538 + 269


def test_report_terms_are_built_once():
    report = evaluate(IntegralSpec(4, 2, 3, 3, 2.0, 5.0))
    first = report.terms
    assert first and report.terms is first


def test_warm_evaluate_builds_no_terms_unless_read(monkeypatch):
    specs = [IntegralSpec(2, 1, 3, 0, 1.0, 1.5), IntegralSpec(13, 4, 11, 2, 1.1, 1.0),
             IntegralSpec(2, 2, 5, 5, 0.3, 0.3)]
    warm = [evaluate(spec).value for spec in specs]
    built = []
    monkeypatch.setattr(quadbessel, "TermEntry", lambda *args: built.append(args))
    reports = [evaluate(spec) for spec in specs]
    assert [report.value for report in reports] == warm
    assert built == []
    assert len(reports[0].terms) == len(built) > 0


def test_report_with_given_terms_round_trips():
    spec = IntegralSpec(1, 0, 1, 2, 1.0, 2.0)
    terms = (TermEntry({"power": -1}, -0.125), TermEntry({"power": 1}, 0.0625))
    report = EvaluationReport(value=-0.0625, bridge_L=1, terms=terms)
    assert report.terms is terms
    assert report.as_dict(spec)["terms"] == [
        {"indices": {"power": -1}, "value": -0.125},
        {"indices": {"power": 1}, "value": 0.0625},
    ]
    assert report == EvaluationReport(-0.0625, 1, terms)
    assert report != EvaluationReport(-0.0625, 1, terms[:1])
    assert repr(report) == (
        "EvaluationReport(value=-0.0625, bridge_L=1, terms=(TermEntry(indices="
        "{'power': -1}, value=-0.125), TermEntry(indices={'power': 1}, value=0.0625)), "
        "method='analytic')"
    )
    assert EvaluationReport(0.0, 0).terms == ()
    lazy = evaluate(spec)
    assert lazy == EvaluationReport(lazy.value, lazy.bridge_L, tuple(lazy.terms), "analytic")


def test_report_construction_is_that_of_the_generated_init():
    fields = dataclasses.fields(EvaluationReport)
    assert [(f.name, f.default) for f in fields] == [
        ("value", dataclasses.MISSING), ("bridge_L", dataclasses.MISSING),
        ("terms", ()), ("method", "analytic"),
    ]
    assert list(inspect.signature(EvaluationReport).parameters) == [
        "value", "bridge_L", "terms", "method"
    ]
    terms = (TermEntry({"power": 0}, 0.5),)
    by_keyword = EvaluationReport(value=0.5, bridge_L=2, terms=terms, method="paired")
    by_position = EvaluationReport(0.5, 2, terms, "paired")
    assert by_keyword == by_position and by_keyword.terms is terms
    assert vars(by_position) == {"value": 0.5, "bridge_L": 2, "_terms": terms, "method": "paired"}
    default = EvaluationReport(0.5, 2)
    assert (default.terms, default.method) == ((), "analytic")
    replaced = dataclasses.replace(EvaluationReport(0.5, 2, lambda: terms), value=0.25)
    assert replaced == EvaluationReport(0.25, 2, terms, "analytic")
    with pytest.raises(TypeError, match="bridge_L"):
        EvaluationReport(0.5)


RETIRED_NAMES = (
    "quad_bessel_analytic",
    "legendre_band_integral",
    "legendre_ratio_integral",
    "DEGENERATE_THRESHOLD",
    "DegenerateMomenta",
    "HalfIntegerOrder",
    "MAX_DEGREE",
    "TriangleSelection",
    "triangle_window",
    "gauss_legendre",
    "recomputed_sum",
    "legendre_poly_part",
    "legendre_linearization_coeffs",
    "max_radius",
    "acceleration_depth",
    "resolved_radius",
)


def test_public_names_resolve_and_retired_names_are_gone():
    for module in (fourbessel, quadbessel):
        assert all(hasattr(module, name) for name in module.__all__), module.__name__
    # the float term-by-term assembly, its band and ratio integrals, its
    # degeneracy gate and the Legendre degree cap left the package; exact
    # coefficients replace them. HalfIntegerOrder had no caller, and
    # select_bridge_order computes the triangle windows itself. Only the
    # tests called gauss_legendre (the oracle reads _gauss_rule) and
    # EvaluationReport.recomputed_sum, and legendre_poly_part (the exact
    # ratio behind assoc_legendre_gt1 is tested directly), and
    # legendre_linearization_coeffs (the kernel reads the integer weights of
    # _linearization_weights, which are tested directly). The oracle's tails
    # are exact and its split radius is chosen by conditioning, so
    # QuadratureConfig lost its truncation radius and averaging depth.
    assert len(fourbessel.__all__) == 23
    for name in RETIRED_NAMES:
        assert name not in fourbessel.__all__ and name not in quadbessel.__all__
        assert name not in oracle.__all__
        owners = (
            fourbessel, quadbessel, legendre, wigner, core, errors, oracle, EvaluationReport,
            oracle.QuadratureConfig,
        )
        for owner in owners:
            assert not hasattr(owner, name), (owner.__name__, name)


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegralSpec(-1, 0, 0, 0, 1.0, 2.0)
    with pytest.raises(DomainError):
        IntegralSpec(0, 0, 0, 0, 0.0, 2.0)
    with pytest.raises(DomainError):
        IntegralSpec(0, 0, 0, 0, 1.0, math.inf)
    with pytest.raises(DomainError):
        IntegralSpec(True, 0, 0, 0, 1.0, 2.0)


def test_spec_is_a_frozen_dataclass():
    spec = IntegralSpec(1, 2, 3, 4, 0.5, 2.0)
    keyword = IntegralSpec(k2=2.0, k1=0.5, lambda4=4, lambda3=3, lambda2=2, lambda1=1)
    assert spec == keyword and hash(spec) == hash(keyword)
    assert spec != IntegralSpec(1, 2, 3, 4, 0.5, 2.5)
    assert len({spec, keyword, IntegralSpec(1, 2, 3, 4, 0.5, 2.5)}) == 2
    assert [field.name for field in dataclasses.fields(IntegralSpec)] == [
        "lambda1", "lambda2", "lambda3", "lambda4", "k1", "k2",
    ]
    assert repr(spec) == (
        "IntegralSpec(lambda1=1, lambda2=2, lambda3=3, lambda4=4, k1=0.5, k2=2.0)"
    )
    for name in ("lambda1", "k2", "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del spec.k1
    replaced = dataclasses.replace(spec, lambda2=np.int64(0), k1=3)
    assert replaced == IntegralSpec(1, 0, 3, 4, 3.0, 2.0)
    assert type(replaced.lambda2) is int and type(replaced.k1) is float
    with pytest.raises(DomainError, match="^k1 must be positive and finite, got -1.0$"):
        dataclasses.replace(spec, k1=-1.0)
    clones = [pickle.loads(pickle.dumps(spec, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(spec), copy.deepcopy(spec)]:
        assert type(clone) is IntegralSpec
        assert clone == spec and hash(clone) == hash(spec) and repr(clone) == repr(spec)


def test_spec_converts_orders_to_int_and_momenta_to_float():
    spec = IntegralSpec(np.int64(1), np.uint8(2), 3, np.int32(4), 1, np.float64(2.5))
    assert spec == IntegralSpec(1, 2, 3, 4, 1.0, 2.5)
    assert [type(order) for order in spec.orders] == [int] * 4
    assert type(spec.k1) is float and type(spec.k2) is float


@pytest.mark.parametrize(
    "arguments, message",
    [
        ((-1, -2, 0, 0, -1.0, 2.0), "lambda1 must be >= 0, got -1"),
        ((0, 1.5, "x", 0, 0.0, 2.0), "lambda2 must be a non-negative integer, got 1.5"),
        ((0, 0, 0, "x", 0.0, math.nan), "lambda4 must be a non-negative integer, got 'x'"),
        ((0, 0, 0, 0, 0.0, math.nan), "k1 must be positive and finite, got 0.0"),
        ((0, 0, 0, 0, 1.0, "abc"), "k2 must be a positive real, got 'abc'"),
    ],
)
def test_spec_error_names_the_first_bad_argument(arguments, message):
    with pytest.raises(DomainError) as info:
        IntegralSpec(*arguments)
    assert str(info.value) == message


def test_spec_missing_argument_raises_type_error_naming_it():
    with pytest.raises(TypeError, match="'k2'"):
        IntegralSpec(1, 2, 3, 4, 1.0)
    with pytest.raises(TypeError, match="'lambda3'"):
        IntegralSpec(lambda1=1, lambda2=2, lambda4=4, k1=1.0, k2=2.0)
    with pytest.raises(TypeError):
        IntegralSpec(1, 2, 3, 4, 1.0, 2.0, 3.0)


def test_spec_validates_each_field_once(monkeypatch):
    calls = []

    def counted(validator, kind):
        def wrapper(value, name):
            calls.append((kind, name))
            return validator(value, name)
        return wrapper

    monkeypatch.setattr(core, "require_order", counted(core.require_order, "order"))
    monkeypatch.setattr(core, "require_momentum", counted(core.require_momentum, "momentum"))
    IntegralSpec(1, 2, 3, 4, 0.5, 2.0)
    assert calls == [
        ("order", "lambda1"), ("order", "lambda2"), ("order", "lambda3"),
        ("order", "lambda4"), ("momentum", "k1"), ("momentum", "k2"),
    ]


class _FloatSubclass(float):
    pass


# An exact int or float in range returns as it is; every other input is
# converted or refused as before, with the same message.
@pytest.mark.parametrize(
    "value, expected",
    [
        (0, 0),
        (7, 7),
        (np.int64(3), 3),
        (np.uint8(4), 4),
        (True, "order must be a non-negative integer, got True"),
        (False, "order must be a non-negative integer, got False"),
        (-2, "order must be >= 0, got -2"),
        (np.int64(-2), "order must be >= 0, got -2"),
        ("2", "order must be a non-negative integer, got '2'"),
        (2.0, "order must be a non-negative integer, got 2.0"),
        (None, "order must be a non-negative integer, got None"),
    ],
)
def test_require_order_inputs(value, expected):
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            core.require_order(value)
        assert str(info.value) == expected
    else:
        result = core.require_order(value)
        assert result == expected and type(result) is int


@pytest.mark.parametrize(
    "value, expected",
    [
        (2.5, 2.5),
        (5e-324, 5e-324),
        (1.7976931348623157e308, 1.7976931348623157e308),
        (3, 3.0),
        (True, 1.0),
        (_FloatSubclass(2.5), 2.5),
        (np.float64(0.25), 0.25),
        ("2.5", 2.5),
        ("abc", "momentum must be a positive real, got 'abc'"),
        (None, "momentum must be a positive real, got None"),
        (math.nan, "momentum must be positive and finite, got nan"),
        (_FloatSubclass(math.nan), "momentum must be positive and finite, got nan"),
        (math.inf, "momentum must be positive and finite, got inf"),
        (-math.inf, "momentum must be positive and finite, got -inf"),
        (0.0, "momentum must be positive and finite, got 0.0"),
        (-0.0, "momentum must be positive and finite, got -0.0"),
        (-1.5, "momentum must be positive and finite, got -1.5"),
        (_FloatSubclass(-1.5), "momentum must be positive and finite, got -1.5"),
        (-1, "momentum must be positive and finite, got -1.0"),
    ],
)
def test_require_momentum_inputs(value, expected):
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            core.require_momentum(value)
        assert str(info.value) == expected
    else:
        result = core.require_momentum(value)
        assert result == expected and type(result) is float


@settings(deadline=None)
@given(
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    c=st.integers(min_value=0, max_value=3),
    d=st.integers(min_value=0, max_value=3),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_quad_scale_covariance_property(a, b, c, d, scale):
    if (a + b + c + d) % 2:
        return
    try:
        base = evaluate(IntegralSpec(a, b, c, d, 1.0, 2.0)).value
    except NoValidBridge:
        return
    scaled = evaluate(IntegralSpec(a, b, c, d, scale, 2.0 * scale)).value
    assert scaled == pytest.approx(base / scale ** 3, rel=1e-9)
