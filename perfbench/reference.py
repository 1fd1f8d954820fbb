"""Exact reference for the four-spherical-Bessel radial integral.

    I(l1, l2, l3, l4; k1, k2) = integral_0^inf r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k1 r) j_l4(k2 r) dr

This module does not import ``fourbessel``; it is the benchmark's own
yardstick.

Method
------
1. Rayleigh form, exactly: j_n(z) = sum_i z^-i (s_i sin z + c_i cos z) with
   integer s_i, c_i.  Writing sin and cos through e^{+-iz}, each factor is
   sum over sigma = +-1 of e^{i sigma k r} sum_i (k r)^-i (c_i - i sigma s_i) / 2.
2. The product of the four factors times r^2 is therefore
   sum over frequency labels (n1, n2) in {-2, 0, 2}^2 of
   e^{i (n1 k1 + n2 k2) r} sum_{a,b} P[a, b] k1^-a k2^-b r^(2-a-b) / 16,
   with Gaussian-integer P.
3. Each component r^(-m) e^{i omega r} (m = a+b-2 >= 2) has the Mellin
   transform Gamma(s) e^{i pi s sgn(omega)/2} |omega|^-s at s = 1 - m + eps.
   Every component has a pole at eps = 0; the poles cancel in the sum,
   because the total integral converges.  The finite part of the sum is
   the integral.  Components with omega = 0 continue to 0.
4. With N = m - 1 and y = k1/k2, the finite part of one component is
       k2^-3 * P i^N (n1 y + n2)^N y^-a / (16 N!) * (H_N - log|n1 y + n2| + i pi sgn(omega) / 2)
   (H_N the harmonic number; Euler's gamma multiplies the pole residue
   and cancels).  Summed over components:
       I = k2^-3 * (pi A(y) + B(y) + sum_w C_w(y) log|w(y)|)
   with A, B, C_w Laurent polynomials in y with rational coefficients.
   For even l1+l2+l3+l4, B and every C_w vanish identically.

Per order tuple the polynomials are built once, in integers.  Per momentum
pair they are evaluated at the exact rational y = k1/k2 of the two floats.
The pole residue sum_label (...) must vanish as a polynomial; ``Reference``
checks that and refuses a tuple where it does not.  The logarithms are
evaluated with mpmath, at 50 digits or more when the terms cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

# Frequency classes |omega| / k2 as functions of y = k1/k2, keyed by label
# up to sign: (2, 0) -> 2y, (0, 2) -> 2, (2, 2) -> 2y + 2, (2, -2) -> |2y - 2|.
_LOG_CLASSES = ((2, 0), (0, 2), (2, 2), (2, -2))


@lru_cache(maxsize=None)
def rayleigh(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """(s, c) with j_n(z) = sum_i z^-i (s[i] sin z + c[i] cos z), integer coefficients."""
    prev: tuple[dict[int, int], dict[int, int]] = ({1: 1}, {})  # j_0 = sin z / z
    if n == 0:
        return prev
    cur: tuple[dict[int, int], dict[int, int]] = ({2: 1}, {1: -1})  # j_1
    for order in range(1, n):
        # j_{order+1} = (2 order + 1) / z * j_order - j_{order-1}
        nxt = []
        for now, before in zip(cur, prev):
            out: dict[int, int] = {}
            for power, coeff in now.items():
                out[power + 1] = out.get(power + 1, 0) + (2 * order + 1) * coeff
            for power, coeff in before.items():
                out[power] = out.get(power, 0) - coeff
            nxt.append({p: c for p, c in out.items() if c})
        prev, cur = cur, (nxt[0], nxt[1])
    return cur


def _exponential_factor(n: int, sigma: int) -> dict[int, tuple[int, int]]:
    """Gaussian-integer coefficients g_i = c_i - i sigma s_i of e^{i sigma z} z^-i (times 2)."""
    sin_part, cos_part = rayleigh(n)
    powers = set(sin_part) | set(cos_part)
    return {i: (cos_part.get(i, 0), -sigma * sin_part.get(i, 0)) for i in powers}


def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _rotate(z: tuple[int, int], quarter_turns: int) -> tuple[int, int]:
    """z * i^quarter_turns."""
    re, im = z
    turn = quarter_turns % 4
    if turn == 0:
        return re, im
    if turn == 1:
        return -im, re
    if turn == 2:
        return -re, -im
    return im, -re


def _product_by_label(orders: tuple[int, int, int, int]) -> dict:
    """label (n1, n2) -> {(a, b): Gaussian int} for 16 * r^-2 * product of the four j's."""
    l1, l2, l3, l4 = orders
    out: dict = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                for s4 in (1, -1):
                    label = (s1 + s3, s2 + s4)
                    if label == (0, 0):
                        continue  # omega = 0 for every momentum pair: continues to 0
                    f1 = _exponential_factor(l1, s1)
                    f2 = _exponential_factor(l2, s2)
                    f3 = _exponential_factor(l3, s3)
                    f4 = _exponential_factor(l4, s4)
                    k1_part: dict[int, tuple[int, int]] = {}
                    for i1, g1 in f1.items():
                        for i3, g3 in f3.items():
                            g = _gmul(g1, g3)
                            old = k1_part.get(i1 + i3, (0, 0))
                            k1_part[i1 + i3] = (old[0] + g[0], old[1] + g[1])
                    k2_part: dict[int, tuple[int, int]] = {}
                    for i2, g2 in f2.items():
                        for i4, g4 in f4.items():
                            g = _gmul(g2, g4)
                            old = k2_part.get(i2 + i4, (0, 0))
                            k2_part[i2 + i4] = (old[0] + g[0], old[1] + g[1])
                    acc = out.setdefault(label, {})
                    for a, ga in k1_part.items():
                        for b, gb in k2_part.items():
                            g = _gmul(ga, gb)
                            old = acc.get((a, b), (0, 0))
                            acc[(a, b)] = (old[0] + g[0], old[1] + g[1])
    return out


def _binomial_power(n1: int, n2: int, power: int) -> list[int]:
    """Coefficients of (n1 y + n2)^power by ascending power of y."""
    return [math.comb(power, j) * n1**j * n2 ** (power - j) for j in range(power + 1)]


@dataclass(frozen=True)
class _Laurent:
    """sum_e coeffs[e] y^e / denominator, integer coefficients."""

    coeffs: dict[int, int]
    denominator: int

    def is_zero(self) -> bool:
        return not any(self.coeffs.values())

    def at(self, p: int, q: int) -> Fraction:
        """Exact value at y = p/q (p, q > 0)."""
        terms = {e: c for e, c in self.coeffs.items() if c}
        if not terms:
            return Fraction(0)
        lo, hi = min(terms), max(terms)
        total = 0
        for e in range(hi, lo - 1, -1):
            total = total * p + terms.get(e, 0) * q ** (hi - e)
        # total = sum_e c_e p^(e-lo) q^(hi-e); value = total * p^lo / q^hi
        num = total * p ** max(lo, 0) * q ** max(-hi, 0)
        den = self.denominator * p ** max(-lo, 0) * q ** max(hi, 0)
        return Fraction(num, den)


@dataclass(frozen=True)
class Value:
    """I = pi * pi_part + rational + sum(c * log(w) for c, w in logs), all exact rationals."""

    pi_part: Fraction
    rational: Fraction
    logs: tuple[tuple[Fraction, Fraction], ...]

    @property
    def is_zero(self) -> bool:
        return self.pi_part == 0 and self.rational == 0 and not self.logs

    def mp(self, dps: int = 50) -> mpmath.mpf:
        """The value as an mpmath number, correct to about ``dps - 20`` digits."""
        if self.is_zero:
            return mpmath.mpf(0)
        while True:
            with mpmath.workdps(dps):
                terms = [mpmath.pi * _mpf(self.pi_part), _mpf(self.rational)]
                terms += [_mpf(c) * mpmath.log(_mpf(w)) for c, w in self.logs]
                total = mpmath.fsum(terms)
                biggest = max(abs(t) for t in terms)
                # stop once cancellation leaves at least 20 correct digits
                if total != 0 and biggest <= abs(total) * mpmath.mpf(10) ** (dps - 20):
                    return +total
            if dps >= 800:
                raise ArithmeticError("reference terms cancel beyond 780 digits")
            dps *= 2

    def relative_error(self, value: float, scale: float) -> float:
        """|value - I| / |I|, or / ``scale`` when I is exactly zero."""
        with mpmath.workdps(50):
            exact = self.mp()
            gap = abs(mpmath.mpf(value) - exact)
            denom = abs(exact) if exact != 0 else mpmath.mpf(scale)
            return float(gap / denom)


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


class Reference:
    """Closed-form reference for one order tuple, valid for every momentum pair."""

    def __init__(self, orders: tuple[int, int, int, int]):
        if len(orders) != 4 or any(int(o) != o or o < 0 for o in orders):
            raise ValueError(f"orders must be four non-negative integers, got {orders!r}")
        self.orders = tuple(int(o) for o in orders)
        by_label = _product_by_label(self.orders)
        n_max = max((a + b - 3 for terms in by_label.values() for a, b in terms), default=1)
        fact_max = math.factorial(n_max)
        lcm = math.lcm(*range(1, n_max + 1))
        # per label, S = sum P i^N (n1 y + n2)^N y^-a / N! and SH = same weighted by H_N,
        # both scaled by 16 * n_max! (and lcm for SH) to stay in integers
        s_re: dict[tuple[int, int], dict[int, int]] = {}
        s_im: dict[tuple[int, int], dict[int, int]] = {}
        sh_re: dict[int, int] = {}
        for label, terms in by_label.items():
            n1, n2 = label
            re_acc: dict[int, int] = {}
            im_acc: dict[int, int] = {}
            for (a, b), g in terms.items():
                if g == (0, 0):
                    continue
                n = a + b - 3
                re, im = _rotate(g, n)
                weight = fact_max // math.factorial(n)
                harmonic = sum(lcm // j for j in range(1, n + 1))
                for j, binom in enumerate(_binomial_power(n1, n2, n)):
                    if not binom:
                        continue
                    e = j - a
                    re_acc[e] = re_acc.get(e, 0) + re * binom * weight
                    im_acc[e] = im_acc.get(e, 0) + im * binom * weight
                    sh_re[e] = sh_re.get(e, 0) + re * binom * weight * harmonic
            s_re[label] = re_acc
            s_im[label] = im_acc
        den = 16 * fact_max
        residue: dict[int, int] = {}
        for label in s_re:
            for e, c in s_re[label].items():
                residue[e] = residue.get(e, 0) + c
            for e, c in s_im[label].items():
                residue[e] = residue.get(e, 0) + c  # imaginary residue must vanish too
        if any(residue.values()):
            raise ArithmeticError(f"pole residues do not cancel for orders {self.orders}")
        self._rational = _Laurent(sh_re, den * lcm)
        # A = -1/2 sum_label sgn(omega) Im S_label; the sign of omega depends on
        # y only for labels (2, -2) and (-2, 2)
        self._pi_parts = {}
        for side in (1, -1):  # side = sgn(y - 1); y = 1 uses either (the label terms vanish)
            acc: dict[int, int] = {}
            for label, im_acc in s_im.items():
                n1, n2 = label
                theta = side * (1 if n1 > 0 else -1) if n1 * n2 < 0 else (1 if n1 + n2 > 0 else -1)
                for e, c in im_acc.items():
                    acc[e] = acc.get(e, 0) - theta * c
            self._pi_parts[side] = _Laurent(acc, 2 * den)
        # C_w = -Re(S_label + S_-label) for each frequency class w
        self._logs = {}
        for n1, n2 in _LOG_CLASSES:
            acc = {}
            for label in ((n1, n2), (-n1, -n2)):
                for e, c in s_re.get(label, {}).items():
                    acc[e] = acc.get(e, 0) - c
            self._logs[(n1, n2)] = _Laurent(acc, den)

    @property
    def has_logs(self) -> bool:
        """False when B and every C_w vanish (always so for even order sums)."""
        return not (self._rational.is_zero() and all(c.is_zero() for c in self._logs.values()))

    def value(self, k1: float, k2: float) -> Value:
        if not (k1 > 0 and k2 > 0 and math.isfinite(k1) and math.isfinite(k2)):
            raise ValueError(f"momenta must be positive and finite, got {k1!r}, {k2!r}")
        y = Fraction(k1) / Fraction(k2)
        p, q = y.numerator, y.denominator
        cube = Fraction(k2) ** 3
        side = 1 if y >= 1 else -1
        pi_part = self._pi_parts[side].at(p, q) / cube
        rational = self._rational.at(p, q) / cube
        logs = []
        for (n1, n2), poly in self._logs.items():
            coeff = poly.at(p, q)
            if coeff == 0:
                continue
            w = abs(n1 * y + n2)
            if w == 0:
                raise ArithmeticError("nonzero log coefficient at omega = 0")
            logs.append((coeff / cube, w))
        return Value(pi_part, rational, tuple(logs))


@lru_cache(maxsize=None)
def reference_for(orders: tuple[int, int, int, int]) -> Reference:
    return Reference(orders)


@lru_cache(maxsize=None)
def exact_value(orders: tuple[int, int, int, int], k1: float, k2: float) -> Value:
    """Cached exact value of one spec."""
    return reference_for(orders).value(k1, k2)


def char_scale(k1: float, k2: float) -> float:
    """Natural size of the integral, pi / (4 k1 k2 max(k1, k2)); the denominator when I = 0."""
    return math.pi / (4.0 * k1 * k2 * max(k1, k2))


@lru_cache(maxsize=None)
def relative_error(orders: tuple[int, int, int, int], k1: float, k2: float, value: float) -> float:
    """Relative error of ``value`` against the exact integral (inf for non-finite values)."""
    if not math.isfinite(value):
        return math.inf
    return exact_value(orders, k1, k2).relative_error(value, char_scale(k1, k2))
