"""Analytic pipeline: band/ratio integrals, triple products, four-Bessel values."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbessel.core import IntegralSpec
from fourbessel.errors import (
    DegenerateMomenta,
    DomainError,
    NoValidBridge,
    PrefactorZero,
)
from fourbessel import quadbessel
from fourbessel.oracle import gauss_legendre, quad_bessel_numeric
from fourbessel.quadbessel import (
    _divide_one_minus_u,
    _exact_sqrt,
    _horner,
    _horner_exact,
    _laurent_kernel,
    evaluate,
    legendre_band_integral,
    legendre_ratio_integral,
    quad_bessel_analytic,
    quad_bessel_paired,
    triple_bessel_weighted,
)
from fourbessel.wigner import SignedSqrtRational, select_bridge_order, wigner_3j_zero


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


def test_band_integral_reference_values():
    assert legendre_band_integral(0, 0, 0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-13)
    assert legendre_band_integral(0, 0, 0, 3.0, 3.0) == pytest.approx(6.0, rel=1e-13)
    assert legendre_band_integral(1, 1, 0, 1.0, 2.0) == pytest.approx(11.0 / 15.0, rel=1e-13)


def test_band_integral_degenerate_gate():
    # the kernel scale (k2^2 - k1^2)^L collapses at equal momenta for L >= 1
    with pytest.raises(DegenerateMomenta):
        legendre_band_integral(0, 1, 1, 1.0, 1.0)
    with pytest.raises(DegenerateMomenta):
        legendre_band_integral(2, 2, 2, 1.0, 1.0 + 1e-12)
    # no gate at L = 0
    legendre_band_integral(1, 1, 0, 1.0, 1.0)


def test_band_integral_momentum_symmetry():
    for (l, lp, bridge) in ((0, 0, 0), (1, 1, 0), (2, 0, 2), (3, 1, 2)):
        forward = legendre_band_integral(l, lp, bridge, 1.0, 2.0)
        swapped = legendre_band_integral(l, lp, bridge, 2.0, 1.0)
        assert forward == pytest.approx(swapped, rel=1e-12)


def test_band_integral_reconstructs_from_ratio_form():
    # the dimensionless form times k1 k2 / (2 k1 k2)^(L+1/2) recovers the
    # band integral, with y = (k1^2 + k2^2) / (2 k1 k2)
    for (l, lp, bridge) in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 1), (2, 0, 2), (3, 3, 3)):
        for (k1, k2) in ((1.0, 2.0), (2.0, 5.0), (1.0, 1.25)):
            y = (k1 * k1 + k2 * k2) / (2.0 * k1 * k2)
            expected = (
                k1 * k2 / (2.0 * k1 * k2) ** (bridge + 0.5)
                * legendre_ratio_integral(l, lp, bridge, y)
            )
            value = legendre_band_integral(l, lp, bridge, k1, k2)
            assert value == pytest.approx(expected, rel=1e-12), (l, lp, bridge, k1, k2)


# --------------------------------------------------------------------------
# dimensionless ratio integral
# --------------------------------------------------------------------------


def test_ratio_integral_closed_values():
    assert legendre_ratio_integral(0, 0, 0, 1.25) == pytest.approx(2.0, rel=1e-13)
    expected = 2.0 * (math.sqrt(3.0) - 1.0)
    assert legendre_ratio_integral(0, 0, 0, 2.0) == pytest.approx(expected, rel=1e-13)
    assert legendre_ratio_integral(1, 0, 1, 1.25) == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_ratio_integral_matches_direct_quadrature():
    for (l, lp, bridge, y) in (
        (0, 0, 0, 1.1), (2, 1, 1, 1.25), (3, 3, 2, 2.0), (4, 2, 3, 10.0), (1, 4, 0, 1.1)
    ):
        direct = gauss_legendre(
            lambda t: _leg(l, t) * _leg(lp, t) * (y - t) ** (-bridge - 0.5), 160
        )
        assert legendre_ratio_integral(l, lp, bridge, y) == pytest.approx(direct, rel=1e-10)


def _leg(degree, t):
    from fourbessel.legendre import legendre_p

    return legendre_p(degree, t)


def test_ratio_integral_domain():
    with pytest.raises(DomainError):
        legendre_ratio_integral(0, 0, 0, 1.0)
    with pytest.raises(DomainError):
        legendre_ratio_integral(0, 0, 0, 0.5)


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
    for a in range(4):
        for b in range(4):
            spec = IntegralSpec(a, a, b, b, 1.0, 2.0)
            paired = quad_bessel_paired(a, b, 1.0, 2.0)
            general = quad_bessel_analytic(spec)
            assert paired.value == pytest.approx(general.value, rel=1e-12), (a, b)
            assert paired.method == "paired" and general.method == "analytic"


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


def test_quad_degenerate_momenta():
    with pytest.raises(DegenerateMomenta):
        evaluate(IntegralSpec(2, 0, 0, 2, 1.0, 1.0))
    with pytest.raises(DegenerateMomenta):
        evaluate(IntegralSpec(1, 0, 1, 0, 1.0, 1.0 + 1e-13))
    # paired orders never need the band kernel, equal momenta are fine there;
    # at k1 = k2 = 1 the two linearization terms give (pi/4)(1/3 + 2/15)
    assert evaluate(IntegralSpec(1, 1, 1, 1, 1.0, 1.0)).value == pytest.approx(
        7.0 * math.pi / 60.0, rel=1e-13
    )


def test_quad_no_valid_bridge():
    with pytest.raises(NoValidBridge):
        evaluate(IntegralSpec(0, 0, 0, 1, 1.0, 2.0))
    with pytest.raises(NoValidBridge):
        quad_bessel_analytic(IntegralSpec(3, 0, 1, 0, 1.0, 2.0))


def test_report_structure_and_term_sums():
    spec = IntegralSpec(2, 1, 1, 2, 1.0, 2.0)
    report = quad_bessel_analytic(spec)
    assert report.bridge_L == select_bridge_order(2, 1, 1, 2)
    assert report.terms, "term breakdown must be populated"
    assert report.recomputed_sum() == pytest.approx(report.value, rel=1e-13)
    for term in report.terms:
        assert set(term.indices) == {"LL", "LLp", "l", "lp"}
    paired = quad_bessel_paired(1, 2, 1.0, 2.0)
    assert paired.bridge_L == 0
    assert all(set(term.indices) == {"mu"} for term in paired.terms)
    assert paired.recomputed_sum() == pytest.approx(paired.value, rel=1e-13)


# --------------------------------------------------------------------------
# the compiled Laurent kernel behind evaluate
# --------------------------------------------------------------------------


def _kernel_dict(branch):
    return {power: coeff for power, coeff, _ in branch}


@pytest.mark.parametrize("u", range(1, 9))
def test_gap_sweep_matches_exact_values(u):
    # k2 = 1 +- 10^-u: the term-by-term float assembly lost every digit here
    # (relative error 8.4 at a gap of 1e-3) while raising nothing
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
        bridge, branches = _laurent_kernel(a, a, b, b)
        assert bridge == 0
        for branch in branches:
            assert _kernel_dict(branch) == expected, (a, b)
            assert all(isinstance(coeff, Fraction) for _, coeff, _ in branch)


def test_kernel_matches_term_by_term_path_on_order_grid():
    compared = 0
    for orders in itertools.product(range(5), repeat=4):
        for k1, k2 in ((1.0, 3.0), (3.0, 1.0)):
            spec = IntegralSpec(*orders, k1, k2)
            try:
                reference = quad_bessel_analytic(spec)
            except NoValidBridge:
                with pytest.raises(NoValidBridge):
                    evaluate(spec)
                continue
            report = evaluate(spec)
            assert report.bridge_L == reference.bridge_L
            # the reference rounds each term once; where its terms cancel, its
            # own rounding bound exceeds 1e-12 relative and sets the tolerance
            rounding = len(reference.terms) * 2.0**-53 * math.fsum(
                abs(term.value) for term in reference.terms
            )
            tolerance = max(1e-12 * abs(reference.value), rounding)
            assert abs(report.value - reference.value) <= tolerance, (orders, k1, k2)
            compared += 1
    assert compared == 538


def test_kernel_of_1_0_1_2_is_exact():
    bridge, (k1_high, k2_high) = _laurent_kernel(1, 0, 1, 2)
    assert bridge == 1
    assert _kernel_dict(k2_high) == {-1: Fraction(-1, 12), 1: Fraction(1, 10)}
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
    assert report.recomputed_sum() == pytest.approx(report.value, rel=1e-15)
    paired = evaluate(IntegralSpec(1, 1, 2, 2, 1.0, 2.0))
    assert paired.method == "paired"
    assert [term.indices for term in paired.terms] == [{"power": 0}, {"power": 2}]


def test_exact_horner_rescues_cancelling_kernels():
    # the k1 > k2 branch of (13, 4, 11, 2) cancels ~1e9-fold near t = 0.9; the
    # float Horner alone is off by ~2e-8 there
    k1, k2 = 1.1, 1.0
    _, (k1_high, _) = _laurent_kernel(13, 4, 11, 2)
    t = k2 / k1
    exact = _horner_exact(k1_high, Fraction(k2) / Fraction(k1))
    float_only, _ = _horner(k1_high, t)
    assert abs(float_only - float(exact)) > 1e-9 * abs(float(exact))
    value = evaluate(IntegralSpec(13, 4, 11, 2, k1, k2)).value
    assert value == pytest.approx(math.pi / k1**3 * float(exact), rel=1e-15)


def test_kernel_build_refuses_instead_of_rounding():
    assert _exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(ArithmeticError):
        _exact_sqrt(Fraction(2, 9))
    with pytest.raises(ArithmeticError):
        _exact_sqrt(Fraction(4, 3))
    # (1 - t^2)(1 + 2 t^2) divides; adding t breaks the divisibility
    assert _divide_one_minus_u([1, 0, 1, 0, -2]) == [1, 0, 2]
    with pytest.raises(ArithmeticError):
        _divide_one_minus_u([1, 1, 1, 0, -2])


def test_evaluate_keeps_the_legendre_degree_limit():
    # bridge order 14 needs b_13, past MAX_DEGREE; paired tuples need no b_l
    with pytest.raises(DomainError):
        evaluate(IntegralSpec(14, 0, 14, 0, 1.0, 2.0))
    assert evaluate(IntegralSpec(14, 14, 14, 14, 1.0, 2.0)).value > 0.0


def test_warm_evaluate_does_no_exact_or_legendre_work(monkeypatch):
    specs = [IntegralSpec(2, 1, 3, 0, 1.0, 1.5), IntegralSpec(13, 4, 11, 2, 1.1, 1.0)]
    warm = [evaluate(spec).value for spec in specs]

    def forbidden(*args, **kwargs):
        raise AssertionError("exact coupling or Legendre work on the warm path")

    for method in ("__mul__", "__truediv__", "scaled_by", "to_float"):
        monkeypatch.setattr(SignedSqrtRational, method, forbidden)
    monkeypatch.setattr(quadbessel, "legendre_poly_part", forbidden)
    assert [evaluate(spec).value for spec in specs] == warm


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegralSpec(-1, 0, 0, 0, 1.0, 2.0)
    with pytest.raises(DomainError):
        IntegralSpec(0, 0, 0, 0, 0.0, 2.0)
    with pytest.raises(DomainError):
        IntegralSpec(0, 0, 0, 0, 1.0, math.inf)
    with pytest.raises(DomainError):
        IntegralSpec(True, 0, 0, 0, 1.0, 2.0)


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
