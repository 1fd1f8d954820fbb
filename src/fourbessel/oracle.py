"""Independent numerical evaluation of the radial Bessel-product integrals.

This module is the certification oracle: it never touches the closed-form
pipeline. The momenta are scaled by the power of two that puts the largest
in [1, 2), which scales the integral exactly, and the integrand
r^2 * prod_i j_{n_i}(k_i r) is split at a radius R:

* tail [R, inf): the product is rewritten exactly (each factor the real part
  of its Hankel form, Re X Re Y = (Re XY + Re X conj(Y)) / 2, integer
  coefficient arithmetic) as a sum of components
  coeff * r^(-m) * {cos,sin}(omega r), each with a closed-form
  tail: a power law when omega = 0, else R^(1-m) E_m(-i omega R), the
  generalized exponential integral, with a bound on its rounding;
* R is the first of k_min R = 2, 4, 8, ... at which that bound is a small
  fraction of rel_tol * |tail|;
* head [0, R]: the only quadrature. Uniform Gauss panels, two per period
  of the fastest oscillation, the integrand evaluated through the Bessel
  recurrences of ``_bessel_sweep``, the code behind ``spherical_bessel_j``.
  A 12-node and an 8-node rule share one row of nodes per panel; their
  difference plus a rounding bound is the head's error estimate.

The decomposition is compiled once per order tuple, exactly, with the
momenta as symbols, and cached; each call substitutes the exact ratios
k_i = p_i/q_i and rounds each coefficient once.

The head walks its panels in blocks, with one Bessel sweep per block over
every distinct momentum and order at once, both rules together. Each step
of a sweep is pointwise, so every point gets the bits it gets alone: one
upward recurrence, one Taylor series pass below k r = 0.5 and one downward
(Miller) recurrence per start, which grows with the order so that high
orders keep their digits. No node takes its own sin or cos: r = c_p + o_j,
so sin(k r) and cos(k r) come by angle addition from those of k c_p, once
per panel, corrected by the rounding of the product (Dekker's TwoProduct),
and of k o_j, once per head. The head is within 2^-50 of the same Gauss
sums in extended precision, relative to their sum of |w f h|.

Everything returns (value, error_estimate); NoConvergence is raised when the
estimate cannot certify the configured tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem
from typing import TYPE_CHECKING

from .core import IntegralSpec, require_momentum, require_order
from .errors import DomainError, NoConvergence

# numpy is imported inside the functions that use it, so that importing the
# package for the closed forms alone does not load it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureConfig",
    "spherical_bessel_j",
    "quad_bessel_numeric",
    "triple_bessel_numeric",
]

_EULER_GAMMA = 0.5772156649015328606
# the unit roundoff of a float, and the smallest normal float
_U, _TINY = 2.0**-53, 2.0**-1022
# Largest omega*R at which a component tail is seeded by the sine and cosine
# integral series; above it the continued fraction takes at most about 120
# steps (120 at omega R = 1.5, order 2). The step cap lies far above that, so
# a fraction that fails to converge raises instead of looping.
_SERIES_PHASE_LIMIT = 1.5
_LENTZ_STEPS = 2000
# Split radius candidates k_min R = 2, 4, ..., 4096 (4096 is about the former
# fixed truncation radius, 4000 / k_min); a rung is kept once the tail's
# rounding bound is at most _TAIL_CONDITION * rel_tol * |tail|
_RUNGS = tuple(2.0**j for j in range(1, 13))
_TAIL_CONDITION = 1e-3
# Head Gauss panels per period of the fastest oscillation: the fewest at
# which the head's error estimate stays almost all rounding bound, so that a
# denser grid certifies no more. Over the 960 heads of oracle-certify seeds
# 1-3, |fine - coarse| is at most 0.15 of the rounding bound at 2 (0.13 at
# 4); at 1 it reaches 7.5e3 of it, 24 in the median.
_PANELS_PER_PERIOD = 2
# Head panels per block: 512 panels of 20 nodes keep each temporary at 80 kB.
_HEAD_BLOCK_PANELS = 512
# Miller's recurrence scales a point by 2^-600 once it passes 2^600, which
# leaves it at least 1: nothing it still needs underflows
_MILLER_LIMIT = 2.0**600


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the numerical oracle: the relative tolerance it certifies."""

    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        # an infinite tolerance would certify anything; a bool is no tolerance
        real = isinstance(self.rel_tol, (int, float)) and not isinstance(self.rel_tol, bool)
        if not (real and 0 < self.rel_tol < math.inf):
            raise DomainError(f"rel_tol must be a finite number > 0, got {self.rel_tol!r}")


# --------------------------------------------------------------------------
# spherical Bessel functions
# --------------------------------------------------------------------------


def spherical_bessel_j(n, x):
    """j_n(x) for finite x >= 0; accepts scalars or numpy arrays (returns float/array).

    Regimes: j_0 = sin(x)/x; j_1 by its closed form from x = 0.5; for n >= 2
    the upward trigonometric recurrence for x >= n+1 and the downward
    (Miller) recurrence, renormalized against j_0 or j_1, on [0.5, n+1). Its
    start grows with n, so high orders keep their digits there (orders 60 to
    200 are within 1e-13 of 30-digit values). Below x = 0.5 every order
    n >= 1 takes the Taylor series, and j_n(0) = delta_{n,0} exactly; values
    below the smallest subnormal are 0.0. NaN, infinite or negative x raises
    DomainError. The values come from _bessel_sweep, which the oracle's head
    runs for several orders at once, with the same bits.
    """
    import numpy as np

    n = require_order(n, "n")
    arr = np.asarray(x, dtype=float)
    lowest = arr.min() if arr.size else math.inf
    # min and max propagate NaN, and every comparison with NaN is false
    if not (0.0 <= lowest and (arr.size == 0 or arr.max() < math.inf)):
        raise DomainError("spherical_bessel_j requires finite x >= 0")
    flat = arr.reshape(-1)
    values = _bessel_sweep([n], flat, lowest, (np.sin(flat), np.cos(flat)))[n]
    return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)


def _trig_start(n: int) -> float:
    """Smallest x at which j_n takes its closed form or the upward recurrence."""
    if n == 0:
        return 5e-324  # the smallest positive float: j_0 = sin(x)/x for every x > 0
    return 0.5 if n == 1 else n + 1.0


def _miller_start(n: int) -> int:
    """The order at which the downward recurrence for j_n starts: the first
    multiple of 32 at least max(25, 9 (n+1)^(1/3)) above n.

    Near x = n + 1, j_{n+s}/j_n falls like an Airy function of s / n^(1/3),
    so a fixed margin loses digits at high n (25 left 2.8e-8 at n = 200).
    Against 30-digit values on [0.5, n+1), rounding level took a margin of
    29 at n = 60, 41 at 200 and 53 at 500. Orders up to 7 start at 32. The
    start depends on n alone: the orders of one start share a recurrence,
    and each gets the bits it gets alone.
    """
    return -(-(n + max(25, math.ceil(9 * (n + 1) ** (1 / 3)))) // 32) * 32


def _bessel_sweep(
    orders: list[int],
    a: np.ndarray,
    lowest: float,
    trig: tuple[np.ndarray, np.ndarray],
) -> dict[int, np.ndarray]:
    """{n: j_n(a)} for distinct ascending orders over a flat array of finite a >= 0.

    ``lowest`` is min(a) and ``trig`` is (sin a, cos a) over the same points;
    the sweep takes no sin or cos itself (the Miller branch's normalisation
    reads them too). An order whose trigonometric start lies above
    ``lowest`` gets an array of its small-x values first: one series pass
    for all such orders below a = 0.5, and one downward recurrence per
    Miller start over [0.5, n+1) of its highest order n. The upward sweep
    then writes every order's points from its start on, over the Miller
    values of the lower orders that share a start.
    """
    import numpy as np

    sin_t, cos_t = trig
    out = {}
    rungs: dict[int, list[int]] = {}
    for n in orders:
        if lowest < _trig_start(n):
            out[n] = np.zeros_like(a)
            if n >= 2:
                rungs.setdefault(_miller_start(n), []).append(n)
    if 0 in out:
        out[0][a == 0.0] = 1.0
    series = [n for n in out if n > 0]
    if series and lowest < 0.5:
        small = a < 0.5
        for n, values in zip(series, _bessel_series(series, a[small])):
            out[n][small] = values
    for group in rungs.values():
        mid = (a >= 0.5) & (a < group[-1] + 1.0)
        if mid.any():
            values = _bessel_downward(group, a[mid], sin_t[mid], cos_t[mid])
            for n, row in zip(group, values):
                out[n][mid] = row
    if not orders:
        return out
    # ``where`` indexes the points still in the sweep, None while that is
    # all of them
    where, t = None, a
    if lowest < _trig_start(orders[0]):
        where = np.flatnonzero(a >= _trig_start(orders[0]))
        t, sin_t, cos_t = a[where], sin_t[where], cos_t[where]
    prev = sin_t / t
    upward = orders[1:] if orders[0] == 0 else orders
    if orders[0] == 0:
        if where is not None:
            out[0][where] = prev
        elif upward:
            out[0] = prev.copy()  # the recurrence reuses prev's buffer
        else:
            out[0] = prev
    m = 1
    cur = scratch = None
    for n in upward:
        keep = t >= _trig_start(n) if lowest < _trig_start(n) else None
        if keep is not None and not keep.all():
            # the points below this order's start are done: drop them
            where = np.flatnonzero(keep) if where is None else where[keep]
            t, sin_t, prev = t[keep], sin_t[keep], prev[keep]
            if cur is not None:
                cur = cur[keep]
            else:
                cos_t = cos_t[keep]
            scratch = None
        if cur is None:
            cur = sin_t / (t * t) - cos_t / t
        if scratch is None:
            scratch = np.empty_like(t)
        while m < n:
            # (2m+1)/t * j_m - j_{m-1}, with the same rounding, in place
            np.divide(2 * m + 1, t, out=scratch)
            scratch *= cur
            scratch -= prev
            prev, cur, scratch = cur, scratch, prev
            m += 1
        if where is None:
            out[n] = cur.copy()
        else:
            out[n][where] = cur
    return out


@lru_cache(maxsize=None)
def _series_table(orders: tuple[int, ...]) -> np.ndarray:
    """One row per order n >= 1: n, 1/(2n+1)!!, then c_7, ..., c_0, where
    j_n(a) = a^n/(2n+1)!! * sum_k c_k y^k with y = -a^2/2 and
    c_k = 1 / (k! (2n+3)(2n+5)...(2n+2k+1)).

    Each entry is an int/int quotient, correctly rounded: 1/(2n+1)!! is
    subnormal from n = 150 and 0.0 from n = 156, where a^n/(2n+1)!! at
    a < 0.5 is below the smallest subnormal anyway.
    """
    import numpy as np

    rows = []
    for n in orders:
        denominators = [1]
        for k in range(1, 8):
            denominators.append(denominators[-1] * k * (2 * n + 2 * k + 1))
        rows.append([n, 1 / math.prod(range(1, 2 * n + 2, 2))] + [1 / d for d in denominators[::-1]])
    return np.array(rows)


def _bessel_series(orders: list[int], a: np.ndarray) -> np.ndarray:
    """(len(orders), len(a)): j_n(a) for orders n >= 1 at 0 <= a < 0.5.

    The 7-term Taylor series as one Horner in y = -a^2/2 over an
    (orders x points) array, one coefficient row per order.
    """
    import numpy as np

    table = _series_table(tuple(orders))
    y = a * a
    y *= -0.5
    total = table[:, 2:3] * y
    total += table[:, 3:4]
    for k in range(4, 10):
        total *= y
        total += table[:, k : k + 1]
    scale = np.power(a, table[:, :1])
    scale *= table[:, 1:2]
    total *= scale
    return total


def _bessel_downward(orders: list[int], a: np.ndarray, sin_a: np.ndarray, cos_a: np.ndarray) -> np.ndarray:
    """(len(orders), len(a)): j_n(a) by Miller's downward recurrence, for
    ascending orders n >= 2 of one start _miller_start(n), at a >= 0.5,
    given sin(a) and cos(a).

    One recurrence runs from the start down to j_0 and captures each order
    on the way. Each point is normalised against the larger of j_0 and j_1
    there: near a zero of j_0 alone, 2 pi + 1e-9 say, the ratio lost 4e-7
    relative. The points that pass _MILLER_LIMIT are scaled back by that
    power of two, each alone, so a point's value never depends on the
    others in its array.
    """
    import numpy as np

    start = _miller_start(orders[-1])
    # at a >= 0.5 a step grows the values at most (4m+3)-fold, so between
    # checks one below _MILLER_LIMIT stays below 2^(600+424); a fixed 20
    # steps would overflow from starts of about 6e5
    period = min(20, 424 // (4 * start + 3).bit_length())
    out = np.empty((len(orders), a.size), dtype=a.dtype)
    above = np.zeros_like(a)
    cur = np.full_like(a, 1e-30)
    scratch = np.empty_like(a)
    row = len(orders) - 1
    for m in range(start, 0, -1):
        # (2m+1)/a * j_m - j_{m+1}, in place
        np.divide(2 * m + 1, a, out=scratch)
        scratch *= cur
        scratch -= above
        above, cur, scratch = cur, scratch, above
        if row >= 0 and m - 1 == orders[row]:
            out[row] = cur
            row -= 1
        if m % period == 0 and np.abs(cur).max() > _MILLER_LIMIT:
            factor = np.where(np.abs(cur) > _MILLER_LIMIT, 1.0 / _MILLER_LIMIT, 1.0)
            above *= factor
            cur *= factor
            out[row + 1 :] *= factor
    j0 = sin_a / a
    j1 = (j0 - cos_a) / a
    out *= np.where(np.abs(j0) >= np.abs(j1), j0 / cur, j1 / above)
    return out


# --------------------------------------------------------------------------
# Gauss-Legendre quadrature
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def _head_rule() -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The head's 20 nodes, 12-node rule then 8-node, the least's index and both weights."""
    import numpy as np

    (fine, fine_weights), (coarse, coarse_weights) = _gauss_rule(12), _gauss_rule(8)
    nodes = np.concatenate((fine, coarse))
    nodes.setflags(write=False)
    return nodes, int(np.argmin(nodes)), fine_weights, coarse_weights


# --------------------------------------------------------------------------
# exact trigonometric decomposition of Bessel products
# --------------------------------------------------------------------------
# The tail integrand is a sum over labels of coeff * r^(-m) * cos/sin(omega r),
# kind 0=cos 1=sin, where omega = label . momenta. Labels are integer tuples,
# canonicalized so the first nonzero entry is positive; this keeps frequency
# bookkeeping exact even when momenta make distinct labels collide.
#
# Each factor is j_n(z) = Re sum_j c_j z^-(j+1) e^(iz), z = k r (DLMF 10.49.1,
# 10.49.6), and Re X Re Y = (Re XY + Re X conj(Y)) / 2 multiplies them: a
# term is a complex integer on a label and a power, and Re(c e^(i omega r)) =
# Re c cos(omega r) - Im c sin(omega r). A factor brings k^(-p) with each
# r^(-p), so every coeff is a polynomial in the 1/k_i. The compiled form keeps
# the momenta as symbols: a component holds (exponent vector e, integer n_e)
# pairs over one integer denominator D and means sum_e n_e / D * prod_i k_i^(-e_i).


@lru_cache(maxsize=None)
def _hankel(n: int) -> tuple[tuple[int, int], ...]:
    """(re, im) of c_k, k = 0..n, in j_n(z) = Re sum_k c_k z^-(k+1) e^(iz):
    c_k = i^(k-n-1) C(n+k, 2k) (2k-1)!!, in integers."""
    unit = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^0, i^1, i^2, i^3
    out = []
    for k in range(n + 1):
        size = math.comb(n + k, 2 * k) * math.prod(range(1, 2 * k, 2))
        re, im = unit[(k - n - 1) % 4]
        out.append((re * size, im * size))
    return tuple(out)


@lru_cache(maxsize=None)
def _compile_decomposition(orders_slots: tuple[tuple[int, int], ...], n_slots: int):
    """Component form of r^2 * prod j_{n_i}(k_{slot_i} r), momenta symbolic.

    Returns (D, M, vectors, components). ``vectors`` lists the distinct
    exponent vectors and M[i] is the largest exponent of k_i among them.
    ``components`` is a tuple of (label, parts), parts a tuple of
    ((kind, m), terms) with m counted after the r^2 weight and terms a tuple
    of (index into vectors, n_e). Components that vanish identically are
    dropped, and so are the zero label's sines, which multiply sin(0 r).
    """
    zero = (0,) * n_slots
    # {exponent vector: {label: (re, im)}}; the power of r is the vector's sum
    series = {zero: {zero: (1, 0)}}
    for i, (n, slot) in enumerate(orders_slots):
        step = tuple(int(j == slot) for j in range(n_slots))
        # the first factor is taken whole: its halves would only double D
        signs = (1,) if i == 0 else (1, -1)
        # X Y goes onto label + step and X conj(Y) onto label - step; a target
        # whose first nonzero entry is negative is negated (flip = -1) and its
        # term conjugated, which leaves the real part as it is
        moves: dict = {}
        for label in {label for terms in series.values() for label in terms}:
            for sign in signs:
                target = tuple(x + sign * y for x, y in zip(label, step))
                flip = -1 if target < zero else 1
                moves.setdefault(label, []).append((sign, flip, tuple(flip * x for x in target)))
        product: dict = {}
        for exponents, terms in series.items():
            head, tail = exponents[:slot], exponents[slot + 1 :]
            for k, (c, d) in enumerate(_hankel(n)):
                out = product.setdefault(head + (exponents[slot] + k + 1,) + tail, {})
                for label, (a, b) in terms.items():
                    for sign, flip, target in moves[label]:
                        re, im = out.get(target, (0, 0))
                        out[target] = (re + a * c - sign * b * d, im + flip * (sign * a * d + b * c))
        series = product
    index: dict[tuple[int, ...], int] = {}
    grouped: dict = {}
    for exponents, terms in series.items():
        for label, (re, im) in terms.items():
            parts = grouped.setdefault(label, {})
            for kind, coeff in ((0, re), (1, -im)):
                if coeff and not (kind and label == zero):
                    entry = parts.setdefault((kind, sum(exponents) - 2), [])
                    entry.append((index.setdefault(exponents, len(index)), coeff))
    components = tuple(
        (label, tuple((key, tuple(terms)) for key, terms in parts.items()))
        for label, parts in grouped.items()
        if parts
    )
    vectors = tuple(index)
    top = tuple(max((e[i] for e in vectors), default=0) for i in range(n_slots))
    return 1 << (len(orders_slots) - 1), top, vectors, components


def _component_numerators(compiled, momenta) -> tuple[int, dict]:
    """Exact coefficients of a compiled decomposition as integers over one denominator.

    With k_i = p_i / q_i exactly, sum_e n_e / D prod k_i^(-e_i) is
    sum_e n_e prod q_i^e_i p_i^(M_i - e_i) over D prod p_i^M_i. Returns that
    denominator and {label: {(kind, m): numerator}}, zero numerators pruned.
    ``momenta`` may be floats or Fractions; nothing is rounded.
    """
    den, top, vectors, components = compiled
    ratios = [k.as_integer_ratio() for k in momenta]
    powers = [
        [q**e * p ** (most - e) for e in range(most + 1)] for (p, q), most in zip(ratios, top)
    ]
    weights = [math.prod(map(getitem, powers, exponents)) for exponents in vectors]
    out = {}
    for label, parts in components:
        kept = {}
        for key, terms in parts:
            numerator = 0
            for j, coeff in terms:
                numerator += coeff * weights[j]
            if numerator:
                kept[key] = numerator
        if kept:
            out[label] = kept
    return den * math.prod(p**most for (p, _), most in zip(ratios, top)), out


def _decompose_weighted_product(
    orders_slots: tuple[tuple[int, int], ...], momenta: tuple[float, ...]
) -> dict:
    """{label: {(kind, m): coeff}} of r^2 * prod j_{n_i}(k_{slot_i} r), zeros pruned.

    Each coefficient is its exact value rounded once (int/int true division,
    the same rounding as float(Fraction)).
    """
    den, numerators = _component_numerators(
        _compile_decomposition(orders_slots, len(momenta)), momenta
    )
    return {
        label: {key: numerator / den for key, numerator in parts.items()}
        for label, parts in numerators.items()
    }


# --------------------------------------------------------------------------
# exact component tails
# --------------------------------------------------------------------------
# int_R^inf r^-m e^(i omega r) dr = R^(1-m) E_m(-ix), x = omega R > 0 (DLMF
# 8.19). Each value comes with a bound on its rounding error in units _U of
# the sizes it is built from: a complex sum, or a product or quotient with a
# real, rounds once; a complex product 3 units, a quotient 4; e^(ix) has 3.


def _sine_cosine_integral_tail(z: float) -> tuple[complex, float]:
    """E_1(-iz) = -Ci(z) + i (pi/2 - Si(z)) for 0 < z <= ~2, and its error bound.

    Si and Ci come from their power series (DLMF 6.6.5, 6.6.6), one term
    (-1)^(j//2) z^j / j! per step, the odd ones for Si and the even ones for
    Ci, until a term is below 1e-20. After j steps a term has been rounded
    2j + 1 times and each partial sum once more.
    """
    log_z = math.log(z)
    sums = [_EULER_GAMMA + log_z, 0.0]  # Ci, Si
    size = _EULER_GAMMA + abs(log_z)
    term, j = 1.0, 0
    while j < 2 or abs(term) >= 1e-20:
        j += 1
        term *= z / j if j % 2 else -z / j
        sums[j % 2] += term / j
        size += abs(term) / j
    ci, si = sums
    s_tail = math.pi / 2 - si
    return complex(-ci, s_tail), (2 * j + 2) * _U * size + _U * (math.pi / 2 + abs(s_tail))


def _continued_fraction(z: complex, p: int) -> tuple[complex, int]:
    """(e^z E_p(z), steps taken) for z off the negative real axis.

    DLMF 8.19.17 in its even contraction, 1/(z+p- 1p/(z+p+2- 2(p+1)/(z+p+4-
    ...))), by modified Lentz until a step moves the value by two units at
    most. A step rounds a d + b (2 units), its reciprocal (4), b + a/c (5),
    c d (3) and the running product (3): 17 in all.
    """
    b = z + p
    c, d = math.inf, 1.0 / b
    value = d
    for step in range(1, _LENTZ_STEPS + 1):
        a = -step * (p - 1 + step)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        value *= delta
        if abs(delta - 1.0) <= 2 * _U:
            return value, step
    raise NoConvergence(
        f"the continued fraction for E_{p}({z}) did not converge in {_LENTZ_STEPS} steps"
    )


def _exponential_integrals(x: float, cis: complex, m_lo: int, m_hi: int) -> dict:
    """{m: (E_m(-ix), error bound)} for m_lo <= m <= m_hi, x > 0, cis = e^(ix).

    One order p0 is seeded: E_1 from the sine and cosine integrals up to
    _SERIES_PHASE_LIMIT, else a continued fraction at p0 = round(x) clamped
    to [m_lo, m_hi]. The rest follow from p E_(p+1)(z) + z E_p(z) = e^(-z)
    (DLMF 8.19.12), upward above p0 (stable for p > |z|) and downward below
    it (stable for p < |z|). A step carries the previous bound through and
    adds a product, a difference and a quotient (1 unit each) and e^(ix) (3).
    """
    z = complex(0.0, -x)
    if x <= _SERIES_PHASE_LIMIT:
        pivot = 1
        seed, seed_error = _sine_cosine_integral_tail(x)
    else:
        pivot = min(max(round(x), m_lo), m_hi)
        fraction, steps = _continued_fraction(z, pivot)
        seed = fraction * cis
        seed_error = (17 * steps + 6) * _U * abs(seed)
    out = {pivot: (seed, seed_error)}
    value, error = seed, seed_error
    for p in range(pivot, m_hi):
        following = (cis - z * value) / p
        error = (x * error + _U * (4.0 + 2.0 * x * abs(value))) / p + _U * abs(following)
        out[p + 1] = following, error
        value = following
    value, error = seed, seed_error
    for p in range(pivot - 1, m_lo - 1, -1):
        preceding = (cis - p * value) / z
        error = (p * error + _U * (4.0 + 2.0 * p * abs(value))) / x + _U * abs(preceding)
        out[p] = preceding, error
        value = preceding
    return out


def _integrate_tail(components: dict, momenta: tuple[float, ...], radius: float) -> tuple[float, float]:
    """Sum of all component tails over [radius, inf), and a bound on its rounding error.

    omega = label . momenta and x = omega R are kept as hi + lo, and e^(ix)
    is corrected by lo: the phase is that of the exact momenta. A part
    c R^(1-m) Re/Im E_m adds 5 units of its size to the error of E_m. The
    value and the bound are fsums: neither depends on the components' order.
    """
    parts_out = []
    bounds = []
    for label, parts in components.items():
        terms = [t for n, k in zip(label, momenta) for t in _two_product(float(n), k)]
        omega = math.fsum(terms)
        omega_lo, flip = math.fsum([*terms, -omega]), 1.0
        if omega < 0.0:
            omega, omega_lo, flip = -omega, -omega_lo, -1.0
        if omega == 0.0:
            # sin(0 * r) vanishes identically; the cosine part is a pure power
            # law. Components are pruned where their exact value is zero, so a
            # (0, 1) entry is an exactly nonzero r^-1 term.
            if (0, 1) in parts:
                raise NoConvergence(
                    "integrand has a non-oscillatory r^-1 component; the "
                    "integral diverges logarithmically"
                )
            powers = [c * radius ** (1 - m) / (m - 1) for (kind, m), c in parts.items() if not kind]
            parts_out += powers
            bounds.append(5 * _U * math.fsum(abs(v) for v in powers))
            continue
        x, x_lo = _two_product(omega, radius)
        x_lo += omega_lo * radius
        cos_x, sin_x = math.cos(x), math.sin(x)
        cis = complex(cos_x - x_lo * sin_x, sin_x + x_lo * cos_x)
        orders = [m for _, m in parts]
        integrals = _exponential_integrals(x, cis, min(orders), max(orders))
        for (kind, m), c in parts.items():
            value, error = integrals[m]
            scale = c * radius ** (1 - m)
            parts_out.append(scale * (flip * value.imag if kind else value.real))
            bounds.append(abs(scale) * (error + 5 * _U * abs(value)))
    total = math.fsum(parts_out)
    return total, math.fsum(bounds) + _U * abs(total)


# --------------------------------------------------------------------------
# head integration and assembly
# --------------------------------------------------------------------------


# Veltkamp's splitting constant, 2^27 + 1
_SPLITTER = 134217729.0


def _split(x):
    """(hi, lo) with hi + lo == x exactly, each half of at most 26 significant bits."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly (Dekker's TwoProduct).

    Works on floats and numpy arrays alike; exact while nothing overflows or
    underflows.
    """
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _sin_cos_of_product(k: float | np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the exact products k * c, not of their rounded values.

    fl(k c) misses k c by e, up to half an ulp of k c (4.5e-13 at k c = 6000);
    the phase is corrected by e to second order. k is first scaled into
    [0.5, 1) by a power of two, so that the splitting cannot overflow. k is a
    float, or a column of momenta that gives each its own row of products.
    """
    import numpy as np

    mantissa, exponent = np.frexp(k)
    phase, err = _two_product(mantissa, np.ldexp(c, exponent))
    sin_p, cos_p = np.sin(phase), np.cos(phase)
    half = 0.5 * err
    return sin_p + err * (cos_p - half * sin_p), cos_p - err * (sin_p + half * cos_p)


class _TooManyPanels(Exception):
    """The head needs more panels than can be laid out or allocated."""


def _head_grid(factors, radius: float, omega_max: float) -> tuple[int, float]:
    """(n_panels, width) of a head over about [0, radius], sized to the fastest oscillation.

    The width keeps only the bits that leave room for the panel index, so
    each centre (p + 1/2) width and the end n_panels * width are exact. A
    head argument k * radius that is not finite needs unboundedly many panels.
    """
    for _, k in factors:
        if not math.isfinite(k * radius):
            raise _TooManyPanels
    n_panels = max(1, math.ceil(radius * omega_max / (2.0 * math.pi))) * _PANELS_PER_PERIOD
    bits = 53 - (2 * n_panels).bit_length()
    if bits < 1:
        raise _TooManyPanels
    mantissa, exponent = math.frexp(radius / n_panels)
    return n_panels, math.ldexp(math.floor(math.ldexp(mantissa, bits)), exponent - bits)


def _head_integral(factors, n_panels: int, width: float) -> tuple[float, float]:
    """Fine Gauss value of the head over [0, n_panels * width] and its error estimate.

    Panel p has centre c_p = (p + 1/2) h, and the 12 + 8 nodes of both rules
    sit at c_p + o_j, o_j = (h/2) x_j. A block holds _HEAD_BLOCK_PANELS //
    len(momenta) panels, laid out (momenta x nodes x panels), so that one
    pass of each step serves every momentum.

    The estimate is |fine - coarse| plus a rounding bound in units _U of the
    fine sum of |w f h|: 4 for a node r (o_j, c_p + o_j, r r, k r; c_p is
    exact), 3 per step of each order's recurrence from j_0 (a quotient, a
    product, a difference), 1 per factor's product, 12 for a panel's dot
    product and 16 + log2(n_panels) for the pairwise sum and its h/2.
    """
    import numpy as np

    nodes, first_node, fine_weights, coarse_weights = _head_rule()
    n_fine = len(fine_weights)
    offsets = (0.5 * width) * nodes
    momenta = list(dict.fromkeys(k for _, k in factors))
    orders = sorted({n for n, _ in factors})
    column = np.array(momenta)[:, None, None]
    phase = column * offsets[:, None]
    sin_o, cos_o = np.sin(phase), np.cos(phase)
    step = _HEAD_BLOCK_PANELS // len(momenta)
    try:
        rows = np.empty((3, n_panels))
    except MemoryError:
        raise _TooManyPanels from None
    fine_rows, coarse_rows, size_rows = rows
    for lo in range(0, n_panels, step):
        centers = (np.arange(lo, min(lo + step, n_panels)) + 0.5) * width
        r = np.add.outer(offsets, centers)
        sin_c, cos_c = _sin_cos_of_product(column, centers)
        sin_r = sin_o * cos_c
        sin_r += cos_o * sin_c
        cos_r = cos_o * cos_c
        cos_r -= sin_o * sin_c
        a = column * r
        trig = (sin_r.reshape(-1), cos_r.reshape(-1))
        # k r grows with c_p and o_j: a momentum's least is at its first panel's least node
        values = _bessel_sweep(orders, a.reshape(-1), a[:, first_node, 0].min(), trig)
        f = r * r
        # in factor order: each product's rounding is part of the value
        for n, k in factors:
            f *= values[n].reshape(a.shape)[momenta.index(k)]
        np.matmul(fine_weights, f[:n_fine], out=fine_rows[lo : lo + step])
        np.matmul(coarse_weights, f[n_fine:], out=coarse_rows[lo : lo + step])
        np.matmul(fine_weights, np.abs(f[:n_fine]), out=size_rows[lo : lo + step])
    fine, coarse, size = (0.5 * width) * rows.sum(axis=1)
    units = 32 + len(factors) + n_panels.bit_length() + 3 * sum(n + 1 for n, _ in factors)
    return float(fine), float(abs(fine - coarse) + units * _U * size)


def _choose_split(components, factors, momenta, omega_max, cfg) -> tuple[int, float, float, float]:
    """(n_panels, width, tail, tail bound) at the first well-conditioned split radius.

    k_min R climbs 2, 4, 8, ... to the first rung whose tail rounding bound
    is at most _TAIL_CONDITION * rel_tol * |tail|: the tail is exact at every
    radius, so only its rounding decides. It starts where the head ends.
    """
    k_min = min(momenta)
    for rung in _RUNGS:
        n_panels, width = _head_grid(factors, rung / k_min, omega_max)
        tail, bound = _integrate_tail(components, momenta, n_panels * width)
        if bound <= _TAIL_CONDITION * cfg.rel_tol * abs(tail):
            return n_panels, width, tail, bound
    raise NoConvergence(
        f"the tail's rounding bound {bound:.3e} exceeds {_TAIL_CONDITION:g} * rel_tol "
        f"of the tail {tail:.3e} at every split radius up to k_min R = {rung:g}"
    )


def _integrate(slots, momenta, char_momenta, cfg: QuadratureConfig) -> tuple[float, float]:
    """Certified value and estimate of int_0^inf r^2 prod j_n(momenta[slot] r) dr.

    ``slots`` holds one (order n, momentum slot) pair per Bessel factor; the
    estimate is certified against pi / (4 prod char_momenta) as the scale.
    The momenta are scaled by 2^-e so that the largest lies in [1, 2), and
    the result by 2^(3e), which is exact. The head's checks run first, at
    the shortest head: more panels than can be laid out, as for an argument
    that is not finite, raises DomainError; so does any other overflow, and a
    value that leaves the normal floats.
    """
    import numpy as np

    shift = math.frexp(max(momenta))[1] - 1
    scaled = tuple(math.ldexp(k, -shift) for k in momenta)
    factors = [(n, scaled[slot]) for n, slot in slots]
    omega_max = math.fsum(k for _, k in factors)
    try:
        _head_grid(factors, _RUNGS[0] / min(scaled), omega_max)
        with np.errstate(over="raise"):
            components = _decompose_weighted_product(slots, scaled)
            n_panels, width, tail, tail_err = _choose_split(components, factors, scaled, omega_max, cfg)
            head, head_err = _head_integral(factors, n_panels, width)
        total = head + tail
        value = math.ldexp(total, -3 * shift)
        estimate = math.ldexp(head_err + tail_err, -3 * shift)
        char_scale = math.pi / (4.0 * math.prod(char_momenta))
    except _TooManyPanels:
        raise DomainError(
            f"momenta {tuple(dict.fromkeys(momenta))!r} are too far apart for the oracle: the head needs "
            "more panels than can be allocated"
        ) from None
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        total = value = estimate = math.inf
    if not (math.isfinite(value) and math.isfinite(estimate)) or (total and abs(value) < _TINY):
        raise DomainError(f"momenta {momenta!r} are out of the oracle's float range")
    if estimate > cfg.rel_tol * max(abs(value), char_scale):
        raise NoConvergence(
            f"error estimate {estimate:.3e} exceeds rel_tol={cfg.rel_tol:.1e} "
            f"at value {value:.6e}; increase rel_tol",
            value=value,
            error_estimate=estimate,
        )
    return value, estimate


def quad_bessel_numeric(
    spec: IntegralSpec, config: QuadratureConfig | None = None
) -> tuple[float, float]:
    """Numerical value and error estimate of the four-Bessel radial integral."""
    k1, k2 = spec.k1, spec.k2
    return _integrate(
        ((spec.lambda1, 0), (spec.lambda2, 1), (spec.lambda3, 0), (spec.lambda4, 1)),
        (k1, k2),
        (k1, k2, max(k1, k2)),
        config or QuadratureConfig(),
    )


def triple_bessel_numeric(
    l1: int,
    l2: int,
    L: int,
    k1: float,
    k2: float,
    K: float,
    config: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Numerical value and error estimate of the weighted triple-Bessel integral.

    Its integrand decays only as r^-1, which the exact tails take as they
    come: E_1 is a conditionally convergent integral like the others.
    """
    l1 = require_order(l1, "l1")
    l2 = require_order(l2, "l2")
    L = require_order(L, "L")
    k1 = require_momentum(k1, "k1")
    k2 = require_momentum(k2, "k2")
    K = require_momentum(K, "K")
    return _integrate(
        ((l1, 0), (l2, 1), (L, 2)), (k1, k2, K), (k1, k2, K), config or QuadratureConfig()
    )
