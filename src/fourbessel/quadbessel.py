"""Closed-form evaluation of the four-spherical-Bessel radial integral.

Target quantity, for non-negative integer orders and positive momenta:

    I = integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k1 r) j_l4(k2 r) dr

The two legs sharing momentum k1 (and likewise k2) make the integral
expressible as a finite sum: a bridge order L splits the product into two
weighted triple-Bessel integrals, and the leftover radial integral over the
momentum band [|k1-k2|, k1+k2] reduces to associated Legendre functions of
half-integer order evaluated at (k1^2+k2^2)/|k1^2-k2^2|.

``quad_bessel_analytic`` and ``quad_bessel_paired`` assemble that sum term by
term in floating point. ``evaluate`` instead compiles each order tuple once,
exactly, into I * k_hi^3 / pi as a Laurent polynomial in t = k_lo/k_hi (one per
branch, k1 >= k2 or k1 < k2); every later call is a cached lookup plus Horner.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .core import (
    DEGENERATE_THRESHOLD,
    EvaluationReport,
    IntegralSpec,
    TermEntry,
    require_momentum,
    require_order,
)
from .errors import DegenerateMomenta, DomainError, PrefactorZero
from .legendre import (
    bform_band_coeffs,
    legendre_linearization_coeffs,
    legendre_p,
    legendre_poly_part,
)
from .wigner import (
    SignedSqrtRational,
    gamma_half,
    select_bridge_order,
    wigner_3j_zero,
    wigner_6j,
)

__all__ = [
    "legendre_band_integral",
    "legendre_ratio_integral",
    "triple_bessel_weighted",
    "quad_bessel_analytic",
    "quad_bessel_paired",
    "evaluate",
]


@lru_cache(maxsize=None)
def _half_order_coefficients(l: int, lp: int, L: int) -> tuple[tuple[int, Fraction], ...]:
    """Exact mu-indexed weights shared by the band and ratio integrals.

    Each weight combines the P_l*P_lp linearization coefficient with the Gamma
    ratio attached to the order -mu-1/2 Legendre factor; every sqrt(pi)
    cancels, leaving a plain positive rational.
    """
    degree = max(L - 1, 0)
    scale = gamma_half(L)
    return tuple(
        (mu, lin * gamma_half(L + mu) / (scale * gamma_half(degree + mu + 1)))
        for mu, lin in legendre_linearization_coeffs(l, lp)
    )


def legendre_band_integral(l: int, lp: int, L: int, k1: float, k2: float) -> float:
    """Radial band integral J(l, lp, L; k1, k2) of the bridge decomposition.

    Equals (2/pi) * integral over K in [|k1-k2|, k1+k2] of
    K^2 * T(l1,l2,L->l...)-weighted triple-Bessel products; after the change
    of variable to Delta it collapses to a finite mu-sum of associated
    Legendre functions of order -mu-1/2 at x = (k1^2+k2^2)/|k1^2-k2^2|.

    The L = 0 branch never forms x and is therefore valid at k1 = k2; for
    L >= 1 nearly equal momenta make individual factors diverge and the
    function raises DegenerateMomenta.
    """
    l = require_order(l, "l")
    lp = require_order(lp, "lp")
    L = require_order(L, "L")
    k1 = require_momentum(k1, "k1")
    k2 = require_momentum(k2, "k2")
    k_lo, k_hi = min(k1, k2), max(k1, k2)
    if L >= 1 and (k_hi - k_lo) / k_hi < DEGENERATE_THRESHOLD:
        raise DegenerateMomenta(
            f"momenta k1={k1!r}, k2={k2!r} are too close for the L={L} band "
            "integral; use the numerical oracle instead"
        )
    degree = max(L - 1, 0)
    if L == 0:
        prefactor = math.sqrt(k1 * k2)
        x = None
    else:
        band = abs(k1 * k1 - k2 * k2)
        prefactor = math.sqrt(k1 * k2) / band**L
        x = (k1 * k1 + k2 * k2) / band
    ratio = k_lo / k_hi
    parts = []
    for mu, coeff in _half_order_coefficients(l, lp, L):
        poly = 1.0 if L == 0 else legendre_poly_part(degree, Fraction(-2 * mu - 1, 2), x)
        parts.append(float(coeff) * poly * ratio ** (mu + 0.5))
    return prefactor * math.fsum(parts)


def legendre_ratio_integral(l: int, lp: int, L: int, y: float) -> float:
    """Closed form of integral_{-1}^{1} P_l(u) P_lp(u) / (y - u)^(L+1/2) du for y > 1."""
    l = require_order(l, "l")
    lp = require_order(lp, "lp")
    L = require_order(L, "L")
    y = float(y)
    if not y > 1.0:
        raise DomainError(f"y must be > 1, got {y!r}")
    spread = math.sqrt(y * y - 1.0)
    # 1/(y + spread) equals y - spread without cancellation
    decay = 1.0 / (y + spread)
    degree = max(L - 1, 0)
    x = y / spread
    parts = []
    for mu, coeff in _half_order_coefficients(l, lp, L):
        poly = 1.0 if L == 0 else legendre_poly_part(degree, Fraction(-2 * mu - 1, 2), x)
        parts.append(float(coeff) * poly * decay ** (mu + 0.5))
    return math.sqrt(2.0) * spread ** (-L) * math.fsum(parts)


def triple_bessel_weighted(
    l1: int, l2: int, L: int, k1: float, k2: float, K: float
) -> float:
    """Closed form of integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_L(K r) dr.

    The closed form divides by the coupling 3j symbol (l1, l2, L; 0,0,0);
    PrefactorZero is raised when that symbol vanishes. Outside the momentum
    triangle (|Delta| > 1) the integral is exactly zero and a bit-exact 0.0
    is returned.
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
    delta = (k1 * k1 + k2 * k2 - K * K) / (2.0 * k1 * k2)
    if abs(delta) > 1.0:
        return 0.0
    # l1+l2-L is even whenever the coupling symbol is nonzero
    sign = -1.0 if ((l1 + l2 - L) // 2) % 2 else 1.0
    prefactor = (
        math.pi / (4.0 * k1 * k2 * K) * sign * math.sqrt(2 * L + 1) * (k1 / K) ** L
    )
    parts = []
    for split in range(L + 1):
        binom = SignedSqrtRational(1, Fraction(math.comb(2 * L, 2 * split)))
        momentum_pow = (k2 / k1) ** split
        lo = max(abs(l1 - (L - split)), abs(l2 - split))
        hi = min(l1 + L - split, l2 + split)
        for l in range(lo, hi + 1, 2):
            exact = (
                binom
                * wigner_3j_zero(l1, L - split, l)
                * wigner_3j_zero(l2, split, l)
                * wigner_6j(l1, l2, L, split, L - split, l)
            ).scaled_by(2 * l + 1) / coupling
            parts.append(exact.to_float() * momentum_pow * legendre_p(l, delta))
    return prefactor * math.fsum(parts)


def quad_bessel_analytic(spec: IntegralSpec) -> EvaluationReport:
    """General bridge-order evaluation of the four-Bessel integral.

    Selects the smallest parity-valid bridge order L, expands the integral
    into the double split sum over (LL, LLp) with inner coupling sums over
    (l, lp), and weights each term by the band integral J(l, lp, L). The
    report carries every term; its value is their compensated sum.
    """
    L = select_bridge_order(spec.lambda1, spec.lambda2, spec.lambda3, spec.lambda4)
    if L >= 1 and spec.is_degenerate():
        raise DegenerateMomenta(
            f"momenta k1={spec.k1!r}, k2={spec.k2!r} are too close for the "
            f"L={L} analytic path; use the numerical oracle instead"
        )
    l1, l2, l3, l4 = spec.orders
    k1, k2 = spec.k1, spec.k2
    w12 = wigner_3j_zero(l1, l2, L)
    w34 = wigner_3j_zero(l3, l4, L)
    # (sum of orders) - 2L is even; the i-power reduces to this real sign
    half_phase = (l1 + l2 + l3 + l4 - 2 * L) // 2
    weight = (2 * L + 1) * (-1 if half_phase % 2 else 1)
    exact_global = SignedSqrtRational.from_rational(weight) / (w12 * w34)
    float_global = math.pi * k1 ** (2 * (L - 1)) / (8.0 * k2 * k2)
    momentum_ratio = k2 / k1
    band_cache: dict[tuple[int, int], float] = {}
    entries: list[TermEntry] = []
    for split in range(L + 1):
        window = range(
            max(abs(l1 - (L - split)), abs(l2 - split)),
            min(l1 + L - split, l2 + split) + 1,
            2,
        )
        for split_p in range(L + 1):
            binom = SignedSqrtRational(
                1, Fraction(math.comb(2 * L, 2 * split) * math.comb(2 * L, 2 * split_p))
            )
            window_p = range(
                max(abs(l3 - (L - split_p)), abs(l4 - split_p)),
                min(l3 + L - split_p, l4 + split_p) + 1,
                2,
            )
            for l in window:
                left = (
                    wigner_3j_zero(l1, L - split, l)
                    * wigner_3j_zero(l2, split, l)
                    * wigner_6j(l1, l2, L, split, L - split, l)
                ).scaled_by(2 * l + 1)
                for lp in window_p:
                    right = (
                        wigner_3j_zero(l3, L - split_p, lp)
                        * wigner_3j_zero(l4, split_p, lp)
                        * wigner_6j(l3, l4, L, split_p, L - split_p, lp)
                    ).scaled_by(2 * lp + 1)
                    key = (l, lp) if l <= lp else (lp, l)
                    if key not in band_cache:
                        band_cache[key] = legendre_band_integral(key[0], key[1], L, k1, k2)
                    exact = exact_global * binom * left * right
                    value = (
                        exact.to_float()
                        * float_global
                        * momentum_ratio ** (split + split_p)
                        * band_cache[key]
                    )
                    entries.append(
                        TermEntry(
                            {"LL": split, "LLp": split_p, "l": l, "lp": lp}, value
                        )
                    )
    total = math.fsum(entry.value for entry in entries)
    return EvaluationReport(value=total, bridge_L=L, terms=tuple(entries), method="analytic")


def quad_bessel_paired(l1: int, l2: int, k1: float, k2: float) -> EvaluationReport:
    """Compact closed form for order-paired integrals.

    Covers lambda = (l1, l1, l2, l2), i.e. integrand
    r^2 j_l1(k1 r) j_l1(k2 r) j_l2(k1 r) j_l2(k2 r); the bridge order
    collapses to L = 0 and the value is a single mu-sum in powers of
    min(k1,k2)/max(k1,k2). Valid at k1 = k2.
    """
    l1 = require_order(l1, "l1")
    l2 = require_order(l2, "l2")
    k1 = require_momentum(k1, "k1")
    k2 = require_momentum(k2, "k2")
    k_lo, k_hi = min(k1, k2), max(k1, k2)
    quarter_pi = 0.25 * math.pi
    entries = []
    for mu in range(abs(l1 - l2), l1 + l2 + 1, 2):
        squared = wigner_3j_zero(l1, l2, mu).radicand
        value = quarter_pi * float(squared) * k_lo ** (mu - 1) / k_hi ** (mu + 2)
        entries.append(TermEntry({"mu": mu}, value))
    total = math.fsum(entry.value for entry in entries)
    return EvaluationReport(value=total, bridge_L=0, terms=tuple(entries), method="paired")


# evaluate re-runs Horner in exact arithmetic when the float rounding bound
# 2 n 2^-53 * sum|c_p| t^p / |sum c_p t^p| exceeds this. perfbench counts a
# value as failed beyond a relative error of 1e-8 (the oracle's default
# rel_tol); 1e-12 leaves a wide margin for the rounding of t itself, which the
# bound does not include.
_EXACT_HORNER_BOUND = 1e-12


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

    One entry (s, l, sign, radicand) per split s and inner degree l; these are
    the left and right factors that quad_bessel_analytic multiplies per term.
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
    Legendre factor is 1 and the sum is plain sum_mu c_mu t^mu.
    """
    weights = _half_order_coefficients(l, lp, L)
    den = math.lcm(*(coeff.denominator for _, coeff in weights))
    out = [0] * (l + lp + 2 * max(L - 1, 0) + 1)
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


@lru_cache(maxsize=None)
def _laurent_kernel(l1: int, l2: int, l3: int, l4: int):
    """Compile one order tuple into I * k_hi^3 / pi as exact Laurent polynomials.

    Returns (L, (k1_high, k2_high)): the bridge order and, for the branches
    k1 >= k2 and k1 < k2, a tuple of (power, Fraction, float) triples giving
    the nonzero coefficients of t = k_lo/k_hi in ascending power. Built once,
    exactly, from the same recoupling as quad_bessel_analytic: every coupling
    product is a perfect square, and (1 - t^2)^(2L-1) divides the assembled
    numerator with zero remainder. Either failing raises ArithmeticError.
    """
    L = select_bridge_order(l1, l2, l3, l4)
    if L >= 1:
        bform_band_coeffs(L - 1, -1)  # DomainError beyond MAX_DEGREE, before any work
    left = _side_factors(l1, l2, L)
    right = _side_factors(l3, l4, L)
    if not left or not right:
        return L, ((), ())
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
    # I k_hi^3 / pi = (1/8) sum W t^e G(t) / (d 4^(L-1) (1-u)^(2L-1)), with
    # e = s+s'-1 when k1 >= k2 and e = 2L-1-(s+s') when k1 < k2. Index i of a
    # numerator holds the power i - 1, the lowest being t^-1.
    size = 2 * L + 1 + max(len(g) for _, g in series.values())
    branches = []
    for k2_high in (False, True):
        numerator = [0] * size
        for (lo, hi, total), weight in grouped.items():
            den, g = series[(lo, hi)]
            factor = weight * (series_den // den)
            offset = 2 * L - total if k2_high else total
            for index, value in enumerate(g):
                if value:
                    numerator[offset + index] += factor * value
        for _ in range(2 * L - 1):
            numerator = _divide_one_minus_u(numerator)
        common = 8 * 4 ** max(L - 1, 0) * left_den * right_den * series_den
        triples = []
        for index, value in enumerate(numerator):
            if value:
                coeff = Fraction(value, common)
                triples.append((index - 1, coeff, float(coeff)))
        branches.append(tuple(triples))
    return L, tuple(branches)


def _horner(branch, t: float) -> tuple[float, float]:
    """(sum c_p t^p, sum |c_p| t^p) in floating point, Horner over the sparse powers."""
    total = magnitude = 0.0
    power = branch[-1][0] if branch else 0
    for p, _, coeff in reversed(branch):
        step = t ** (power - p)
        total = total * step + coeff
        magnitude = magnitude * step + abs(coeff)
        power = p
    low = t**power
    return total * low, magnitude * low


def _horner_exact(branch, t: Fraction) -> Fraction:
    """sum c_p t^p in exact rational arithmetic, Horner over the sparse powers."""
    total = Fraction(0)
    power = branch[-1][0] if branch else 0
    for p, coeff, _ in reversed(branch):
        total = total * t ** (power - p) + coeff
        power = p
    return total * t**power


def evaluate(spec: IntegralSpec) -> EvaluationReport:
    """Value of the integral from the order tuple's cached Laurent kernel.

    The first call per order tuple builds the kernel exactly; later calls run
    a float Horner at t = k_lo/k_hi, or an exact one when the coefficients'
    cancellation bound says the float result could lose digits. ``method`` is
    "paired" for (a, a, b, b) orders, whose kernel is the paired closed form,
    and "analytic" otherwise; ``terms`` are the Laurent monomials, indexed by
    their power of t. Bridge orders L >= 1 still refuse nearly equal momenta.
    """
    orders = spec.orders
    if spec.is_degenerate():
        L = select_bridge_order(*orders)
        if L >= 1:
            raise DegenerateMomenta(
                f"momenta k1={spec.k1!r}, k2={spec.k2!r} are too close for the "
                f"L={L} analytic path; use the numerical oracle instead"
            )
    L, (k1_high, k2_high) = _laurent_kernel(*orders)
    k1, k2 = spec.k1, spec.k2
    if k1 < k2:
        k_lo, k_hi, branch = k1, k2, k2_high
    else:
        k_lo, k_hi, branch = k2, k1, k1_high
    t = k_lo / k_hi
    total, magnitude = _horner(branch, t)
    if 2 * len(branch) * 2.0**-53 * magnitude > _EXACT_HORNER_BOUND * abs(total):
        total = float(_horner_exact(branch, Fraction(k_lo) / Fraction(k_hi)))
    scale = math.pi / k_hi**3
    terms = tuple(TermEntry({"power": p}, scale * coeff * t**p) for p, _, coeff in branch)
    method = "paired" if spec.is_order_paired() else "analytic"
    return EvaluationReport(value=scale * total, bridge_L=L, terms=terms, method=method)
