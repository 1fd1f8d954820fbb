"""Exact angular-momentum coupling coefficients.

Every symbol is an integer factorial quotient, returned as a
:class:`SignedSqrtRational`, the exact carrier s*sqrt(p/q), built once per
distinct symbol. The kernel build's side factors read each squared 6j symbol
as a sign and an integer pair from the Racah sum, and each squared 3j symbol
as a sign and an integer pair from its binomial closed form, with no symbol
object, and turn them into exact rational weights; no value path rounds one.
``to_float`` is for display: only the CLI prints with it.

Only integer angular momenta are supported; the integral pipeline never needs
half-integer ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .core import require_order
from .errors import NoValidBridge


@dataclass(frozen=True)
class SignedSqrtRational:
    """Exact value s*sqrt(p/q) with s in {-1, 0, +1} and p/q >= 0 in lowest terms."""

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if type(self.radicand) is not Fraction:
            object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand.numerator < 0:
            raise ValueError(f"radicand must be >= 0, got {self.radicand!r}")
        if (self.sign == 0) != (self.radicand.numerator == 0):
            raise ValueError("sign is zero exactly when the radicand is zero")

    @classmethod
    def zero(cls) -> "SignedSqrtRational":
        return cls(0, Fraction(0))

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "SignedSqrtRational":
        """Exact carrier of a plain rational number."""
        q = Fraction(value)
        if q == 0:
            return cls.zero()
        return cls(1 if q > 0 else -1, q * q)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(sign, self.radicand * other.radicand)

    def __truediv__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        if other.sign == 0:
            raise ZeroDivisionError("division by zero SignedSqrtRational")
        if self.sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(self.sign * other.sign, self.radicand / other.radicand)

    def scaled_by(self, value: Fraction | int) -> "SignedSqrtRational":
        """Exact product with a plain rational."""
        return self * SignedSqrtRational.from_rational(value)

    def to_float(self) -> float:
        """s*sqrt(p/q), rounding one quotient and its root; +-inf past the float range."""
        if self.sign == 0:
            return 0.0
        num, den = self.radicand.numerator, self.radicand.denominator
        # p/q = r * 4^k with r in (1/2, 4), so the quotient r and its root are
        # normal floats and the power of two is exact wherever the root is normal
        k = (num.bit_length() - den.bit_length()) // 2
        r = num / (den << 2 * k) if k >= 0 else (num << -2 * k) / den
        try:
            return self.sign * math.ldexp(math.sqrt(r), k)
        except OverflowError:
            return self.sign * math.inf

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        num, den = self.radicand.numerator, self.radicand.denominator
        body = f"{num}" if den == 1 else f"{num}/{den}"
        return f"{'+' if self.sign > 0 else '-'}sqrt({body})"


def _triangle_ok(a: int, b: int, c: int) -> bool:
    return abs(a - b) <= c <= a + b


# k! at index k < 192, built once at import. Only _six_j_square and gamma_half
# read it; it covers every 6j symbol of the kernels up to bridge order 30.
# Larger arguments go to math.factorial, so the memory held does not grow with
# the orders asked for.
_FACTORIALS = tuple(accumulate(range(1, 192), mul, initial=1))


def _factorial(n: int):
    """k -> k! for 0 <= k <= n: the table's lookup where it reaches n, else math.factorial."""
    return _FACTORIALS.__getitem__ if n < len(_FACTORIALS) else math.factorial


@lru_cache(maxsize=None)
def wigner_3j_zero(j1: int, j2: int, j3: int) -> SignedSqrtRational:
    """Wigner 3j symbol with all magnetic quantum numbers zero, exactly.

    Zero when the triangle inequality fails or j1+j2+j3 is odd; otherwise the
    binomial closed form of _three_j_square.
    """
    sign, num, den = _three_j_square(
        require_order(j1, "j1"), require_order(j2, "j2"), require_order(j3, "j3")
    )
    return SignedSqrtRational(sign, Fraction(num, den))


@lru_cache(maxsize=None)
def _three_j_square(j1: int, j2: int, j3: int) -> tuple[int, int, int]:
    """(sign, num, den) with wigner_3j_zero(j1, j2, j3) = sign * sqrt(num / den), in integers.

    The square is Adams' binomial quotient (DLMF §34.3)
    C(2a, a) C(2b, b) C(2c, c) / ((2g + 1) C(2g, g)), with 2g = j1 + j2 + j3,
    a = g - j1, b = g - j2 and c = g - j3, reduced to lowest terms by one gcd,
    and the sign is (-1)^g; a vanishing symbol is (0, 0, 1). For validated
    orders: the kernel build's side factors read it.
    """
    big_j = j1 + j2 + j3
    if big_j % 2 or not _triangle_ok(j1, j2, j3):
        return 0, 0, 1
    g = big_j // 2
    a, b, c = g - j1, g - j2, g - j3
    num = math.comb(2 * a, a) * math.comb(2 * b, b) * math.comb(2 * c, c)
    den = (big_j + 1) * math.comb(2 * g, g)
    common = math.gcd(num, den)
    return -1 if g % 2 else 1, num // common, den // common


@lru_cache(maxsize=None)
def wigner_6j(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> SignedSqrtRational:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} via the Racah single sum, exactly.

    The sign and radicand of _six_j_square, the radicand in lowest terms.
    """
    sign, num, den = _six_j_square(*(require_order(j, "j") for j in (j1, j2, j3, j4, j5, j6)))
    return SignedSqrtRational(sign, Fraction(num, den))


@lru_cache(maxsize=None)
def _six_j_square(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> tuple[int, int, int]:
    """(sign, num, den) with wigner_6j(j1, ..., j6) = sign * sqrt(num / den), in integers.

    The Racah single sum runs in integers over the common denominator of its
    terms, and num / den is its square times the squared triangle
    coefficients, not reduced: the kernel build reduces its products of
    squares by one gcd. A vanishing symbol is (0, 0, 1). For validated
    orders.
    """
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(_triangle_ok(*t) for t in triads):
        return 0, 0, 1
    a1, a2, a3, a4 = lows = [sum(t) for t in triads]
    b1, b2, b3 = j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4
    t_lo, t_hi = max(lows), min(b1, b2, b3)
    f = _factorial(t_hi + 1)
    # squared triangle coefficients of the Racah formula
    pre_num = math.prod(f(a + b - c) * f(a - b + c) * f(b + c - a) for a, b, c in triads)
    pre_den = f(a1 + 1) * f(a2 + 1) * f(a3 + 1) * f(a4 + 1)
    # every term's denominator divides the common one
    common = f(t_hi - a1) * f(t_hi - a2) * f(t_hi - a3) * f(t_hi - a4)
    common *= f(b1 - t_lo) * f(b2 - t_lo) * f(b3 - t_lo)
    total = 0
    for t in range(t_lo, t_hi + 1):
        denom = f(t - a1) * f(t - a2) * f(t - a3) * f(t - a4) * f(b1 - t) * f(b2 - t) * f(b3 - t)
        term = f(t + 1) * (common // denom)
        total += -term if t % 2 else term
    if total == 0:
        return 0, 0, 1
    return (1 if total > 0 else -1), total * total * pre_num, common * common * pre_den


@lru_cache(maxsize=None)
def gamma_half(n: int) -> Fraction:
    """Gamma(n + 1/2) / sqrt(pi), exactly: (2n - 1)!! / 2^n, in lowest terms.

    The numerator is the odd part of (2n)! / n! = C(2n, n) n! = 2^n (2n - 1)!!,
    so no gcd of factorials and no big exact division is formed. Callers form
    Gamma ratios from these so every sqrt(pi) cancels.
    """
    n = require_order(n, "n")
    return Fraction(math.comb(2 * n, n) * _factorial(n)(n) >> n, 1 << n)


def select_bridge_order(l1: int, l2: int, l3: int, l4: int) -> int:
    """Smallest L compatible with both order pairs.

    L must lie in both triangle windows [|l1-l2|, l1+l2] and [|l3-l4|, l3+l4]
    and make both zero-projection 3j prefactors nonzero, which adds the two
    parity constraints L = l1+l2 = l3+l4 (mod 2). Raises NoValidBridge when
    the parities disagree or the windows do not intersect.
    """
    verdict = _bridge_verdict(
        *(require_order(value, f"l{index}") for index, value in enumerate((l1, l2, l3, l4), 1))
    )
    if type(verdict) is str:
        raise NoValidBridge(verdict)
    return verdict


@lru_cache(maxsize=None)
def _bridge_verdict(l1: int, l2: int, l3: int, l4: int) -> int | str:
    """The bridge order of validated orders, or the message that refuses them.

    lru_cache keeps no exceptions, so a refusal is cached as its message; a
    cached exception instance would grow its traceback with every raise.
    """
    if (l1 + l2 - l3 - l4) % 2:
        return (
            "no parity-valid bridge order: "
            f"l1+l2={l1 + l2} and l3+l4={l3 + l4} have different parities"
        )
    lo12, hi12 = abs(l1 - l2), l1 + l2
    lo34, hi34 = abs(l3 - l4), l3 + l4
    # |a-b| and a+b share parity, so the larger window floor is parity-valid
    candidate = max(lo12, lo34)
    if candidate > min(hi12, hi34):
        return (
            "no parity-valid bridge order: "
            f"triangle windows [{lo12},{hi12}] and [{lo34},{hi34}] are disjoint"
        )
    return candidate
