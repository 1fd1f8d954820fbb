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
of the exchanged tuple (l2, l1, l4, l3) at t = k1/k2. The polynomial is
K(t) = t^p0 P(u), u = t^2, stored dense in u. Every later call is a cached
lookup plus one float Horner over P's coefficients, about centre 0 first
and, where they cancel, about the nearest of 17 rational centres, and in
exact integers only where both bounds fail.
``quad_bessel_paired`` and ``triple_bessel_weighted`` read the same exact
coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .core import (
    EvaluationReport,
    IntegralSpec,
    TermEntry,
    require_momentum,
    require_order,
)
from .errors import DomainError, PrefactorZero
from .legendre import _linearization_weights, bform_band_coeffs, legendre_p
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
                (SignedSqrtRational(factor_sign, Fraction(num, den)) / coupling).to_float()
                * (k2 / k1) ** split
                * legendre_p(l, delta)
                for split, l, factor_sign, num, den in _side_factors(l1, l2, L)
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


# Relative rounding bound of evaluate's two float passes, both one Horner
# (_float_horner) over P's coefficients in w that accepts its value when
# (3 D + 2) 2^-53 sum|e_m| |w|^m / |P| is within this. The first pass runs
# about centre 0 at w = t * t and treats t = k_lo/k_hi as an exact input: its
# bound leaves out the rounding of t, for which 1e-12 leaves a wide margin
# below perfbench's failure threshold of 1e-8 (the oracle's default rel_tol).
# The second runs about the nearest centre at w from the momenta's exact
# ratio, whose one rounding its bound counts. Past both, Horner is re-run in
# exact integers.
_EXACT_HORNER_BOUND = 1e-12
# The Taylor pass expands P(u) about the centre j / _CENTRES nearest u, j = 0 .. _CENTRES.
_CENTRES = 16


def _exact_sqrt(num: int, den: int) -> tuple[int, int]:
    """(a, b) in lowest terms with a / b = sqrt(num / den), which must be a perfect square."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise ArithmeticError(f"coupling product radicand {num}/{den} is not a perfect square")
    return root_num, root_den


@lru_cache(maxsize=None)
def _side_factors(la: int, lb: int, L: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Nonzero recoupling factors sqrt(C(2L,2s)) 3j 3j 6j (2l+1) of one order pair.

    One entry (s, l, sign, num, den) per split s and inner degree l, the
    factor being sign * sqrt(num / den); the kernel multiplies a left and a
    right factor per term of the recoupling.
    """
    out = []
    for split in range(L + 1):
        binom = math.comb(2 * L, 2 * split)
        for l in range(
            max(abs(la - (L - split)), abs(lb - split)), min(la + L - split, lb + split) + 1, 2
        ):
            symbols = (
                wigner_3j_zero(la, L - split, l),
                wigner_3j_zero(lb, split, l),
                wigner_6j(la, lb, L, split, L - split, l),
            )
            sign = math.prod(symbol.sign for symbol in symbols)
            if sign:
                num = binom * (2 * l + 1) ** 2 * math.prod(x.radicand.numerator for x in symbols)
                den = math.prod(x.radicand.denominator for x in symbols)
                out.append((split, l, sign, num, den))
    return tuple(out)


@lru_cache(maxsize=None)
def _band_series(l: int, lp: int, L: int) -> tuple[int, tuple[int, ...]]:
    """The band integral's mu-sum as an integer polynomial in t over a denominator.

    Returns (d, g) with sum_mu c_mu t^mu 4^(L-1) (1-u)^(L-1) b_(L-1)(x, -mu-1/2)
    = (1/d) sum_p g[p] t^p, where u = t^2 and x = (1+u)/(1-u); at L = 0 the
    Legendre factor is 1 and the sum is plain sum_mu c_mu t^mu. Each weight
    c_mu = (2mu+1) 3j(l,lp,mu)^2 gh(L+mu) / (gh(L) gh(D+mu+1)), with
    gh = gamma_half and D = max(L-1, 0), combines the P_l*P_lp linearization
    coefficient with the Gamma ratio of the order -mu-1/2 Legendre factor, so
    every sqrt(pi) cancels. That ratio is 1 / gh(L) for L >= 1 and
    2 / (2mu+1) at L = 0.
    """
    scale = gamma_half(L)
    den, weights = _linearization_weights(l, lp)
    out = [0] * (l + lp + 2 * max(L - 1, 0) + 1)
    for mu, num in weights:
        scaled = num * scale.denominator if L else 2 * num // (2 * mu + 1)
        band = bform_band_coeffs(L - 1, -2 * mu - 1) if L >= 1 else (1,)
        for k, value in enumerate(band):
            out[mu + 2 * k] += scaled * value
    return den * scale.numerator, tuple(out)


def _divide_one_minus_u(coeffs: list[int]) -> list[int]:
    """Exact quotient of a polynomial in t (dense, ascending) by 1 - t^2.

    q_p = n_p + q_(p-2): a prefix sum within each parity class. The two top
    entries of the prefix sums are the remainder; they must vanish.
    """
    quotient = list(coeffs)
    quotient[0::2] = accumulate(coeffs[0::2])
    quotient[1::2] = accumulate(coeffs[1::2])
    if any(quotient[-2:]):
        raise ArithmeticError("Laurent kernel numerator is not divisible by 1 - t^2")
    return quotient[:-2]


class _Kernel(NamedTuple):
    """A Laurent kernel K(t) = t^p0 P(u), u = t^2, with P dense in u.

    The coefficient of u^i in P is kept once, exactly, as the integer
    ``numerators[i]`` over ``common``, a zero as 0; ``floats[i]`` is that
    numerator / common, correctly rounded.
    """

    p0: int
    numerators: tuple[int, ...]
    common: int
    floats: tuple[float, ...]


@lru_cache(maxsize=None)
def _laurent_kernel(l1: int, l2: int, l3: int, l4: int):
    """Compile one order tuple into I * k1^3 / pi for k1 >= k2, an exact Laurent polynomial.

    Returns (L, kernel): the bridge order and the _Kernel in powers of
    t = k2/k1. The case k1 < k2 is the kernel of the exchanged tuple
    (l2, l1, l4, l3), since trading the momenta together with their orders
    leaves the integral unchanged. Built once, in integers, from the paper's
    bridge recoupling (_side_factors) and band integral (_band_series): every
    coupling product is a perfect square, (1 - t^2)^(2L-1) divides the
    assembled numerator with zero remainder, and the quotient's powers of t
    share one parity. Any of these failing raises ArithmeticError.
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
    _, _, _, first_num, first_den = left[0]
    ref_num = first_num * (2 * L + 1) ** 2 * w12.radicand.denominator * w34.radicand.denominator
    ref_den = first_den * w12.radicand.numerator * w34.radicand.numerator
    left_exact = [
        (s, l, sign * ls, *_exact_sqrt(num * first_den, den * first_num))
        for s, l, ls, num, den in left
    ]
    right_exact = [
        (s, l, rs, *_exact_sqrt(num * ref_num, den * ref_den)) for s, l, rs, num, den in right
    ]
    left_den = math.lcm(*(den for *_, den in left_exact))
    right_den = math.lcm(*(den for *_, den in right_exact))
    # sum of pair products per (min(l,lp), max(l,lp), s+s'), over left_den*right_den
    grouped: dict[tuple[int, int, int], int] = {}
    right_ints = [(s, l, rs * num * (right_den // den)) for s, l, rs, num, den in right_exact]
    for s, l, ls, num, den in left_exact:
        a = ls * num * (left_den // den)
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
    # a zero numerator is the kernel P = 0 at p0 = 0
    nonzero = [index for index, value in enumerate(numerator) if value] or [1]
    first, last = nonzero[0], nonzero[-1]
    if any(numerator[first + 1 : last : 2]):
        raise ArithmeticError("Laurent kernel numerator has powers of t of both parities")
    dense = tuple(numerator[first : last + 1 : 2])
    return L, _Kernel(first - 1, dense, common, tuple(value / common for value in dense))


@lru_cache(maxsize=None)
def _taylor_basis(orders: tuple[int, int, int, int], j: int) -> tuple[float, ...]:
    """The coefficients of P(u) in powers of w = u - c, c = j / _CENTRES, K(t) = t^p0 P(t^2).

    One float per power 0 .. D, each correctly rounded once, a zero as 0.0.
    With n_i the kernel's numerator of u^i over d and D the degree of P, the
    polynomial sum n_i C^(D-i) (C u)^i = C^D d P(u), C = _CENTRES, has
    integer coefficients; the shift C u = j + C w by the integer j keeps them
    integers s_m, so P(u) = sum s_m C^m w^m / (C^D d), exactly. Built on
    first use per (orders, centre).
    """
    _, kernel = _laurent_kernel(*orders)
    degree = len(kernel.numerators) - 1
    coeffs = [n * _CENTRES ** (degree - i) for i, n in enumerate(kernel.numerators)]
    for low in range(degree):
        for i in range(degree - 1, low - 1, -1):
            coeffs[i] += j * coeffs[i + 1]
    common = _CENTRES**degree * kernel.common
    return tuple(s * _CENTRES**m / common for m, s in enumerate(coeffs))


def _float_horner(coeffs: tuple[float, ...], w: float) -> tuple[float, float]:
    """(P, bound): P = sum e_m w^m by Horner, and an a-posteriori bound on its float error.

    bound is 3 D + 2 roundings of sum |e_m| |w|^m for P of degree D: two per
    power of w in the Horner, one for the coefficients' own rounding, one per
    power for the rounding of w, and one spare.
    """
    r = abs(w)
    total = magnitude = 0.0
    for coeff in reversed(coeffs):
        total = total * w + coeff
        magnitude = magnitude * r + abs(coeff)
    return total, (3 * len(coeffs) - 1) * 2.0**-53 * magnitude


def _horner_exact(kernel: _Kernel, a: int, b: int) -> tuple[int, int]:
    """(num, den) with num / den = K(t) exactly at t = a/b, for a, b > 0.

    With n_i the numerators over d and D the degree of P, P(u) = S / (b^2D d),
    where the integer S = sum n_i a^2i b^(2D-2i) comes from one Horner in
    a^2 and b^2; the factor t^p0 = a^p0 / b^p0 goes on top.
    """
    a2, b2 = a * a, b * b
    numerators = kernel.numerators
    total, b_power = numerators[-1], 1
    for n in reversed(numerators[:-1]):
        b_power *= b2
        total = total * a2 + n * b_power
    den = kernel.common * b_power
    p0 = kernel.p0
    # p0 is -1 when the kernel has a t^-1 term
    if p0 < 0:
        return total * b**-p0, den * a**-p0
    return total * a**p0, den * b**p0


def _kernel_value(
    orders: tuple[int, int, int, int], kernel: _Kernel, k_lo: float, k_hi: float, t: float
) -> float:
    """K(t) at t = k_lo/k_hi <= 1: each pass runs when the one before fails its bound.

    First one float Horner over P's own coefficients at w = t * t; then one
    about the centre j / _CENTRES nearest u = t^2, at w = u - c, one correctly
    rounded integer division of the momenta's exact ratio a/b; last, the
    integer Horner, correctly rounded. K(1) = P(1) is the constant of the
    Taylor basis about u = 1, rounded once.
    """
    if k_lo == k_hi:
        return _taylor_basis(orders, _CENTRES)[0]
    total, bound = _float_horner(kernel.floats, t * t)
    if bound > _EXACT_HORNER_BOUND * abs(total):
        lo_num, lo_den = k_lo.as_integer_ratio()
        hi_num, hi_den = k_hi.as_integer_ratio()
        a, b = lo_num * hi_den, lo_den * hi_num
        j = round(t * t * _CENTRES)
        b2 = b * b
        w = (_CENTRES * a * a - j * b2) / (_CENTRES * b2)
        total, bound = _float_horner(_taylor_basis(orders, j), w)
        if bound > _EXACT_HORNER_BOUND * abs(total):
            num, den = _horner_exact(kernel, a, b)
            # int / int is correctly rounded, as float(Fraction(num, den)) is
            return num / den
    return total * t**kernel.p0


def evaluate(spec: IntegralSpec) -> EvaluationReport:
    """Value of the integral from the order tuple's cached Laurent kernel.

    The first call per order tuple builds the kernel exactly; k1 < k2 reads
    the kernel of the exchanged tuple (l2, l1, l4, l3), which gives the same
    integral. Later calls run a float Horner over P's coefficients at
    u = t^2, t = k_lo/k_hi. When the coefficients' cancellation bound says
    that result could lose digits, the same Horner runs over P's Taylor
    coefficients about the nearest centre instead, and an exact integer one
    when its bound fails too. At k1 = k2 the value is K(1) rounded once, so it
    is bit-identical for a tuple and its exchange.
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
    L, kernel = _laurent_kernel(*orders)
    t = k_lo / k_hi
    try:
        total = _kernel_value(orders, kernel, k_lo, k_hi, t)
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
        powers = range(kernel.p0, kernel.p0 + 2 * len(kernel.floats), 2)
        return tuple(
            TermEntry({"power": p}, scale * coeff * t**p)
            for p, coeff in zip(powers, kernel.floats)
            if coeff
        )

    method = "paired" if spec.is_order_paired() else "analytic"
    return EvaluationReport(value=value, bridge_L=L, terms=terms, method=method)
