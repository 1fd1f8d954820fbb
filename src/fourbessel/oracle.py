"""Independent numerical evaluation of the radial Bessel-product integrals.

This module is the certification oracle: it never touches the closed-form
pipeline. The integrand r^2 * prod_i j_{n_i}(k_i r) is split at a radius R
past the last Bessel turning point:

* head [0, R]: uniform Gauss panels sized to the fastest oscillation, with
  the integrand evaluated directly through the Bessel recurrences of
  ``_bessel_sweep``, the code behind ``spherical_bessel_j``. A 12-node and
  an 8-node rule share one row of nodes per panel; their difference is the
  head's error estimate;
* tail [R, inf): the product is rewritten exactly (Rayleigh trigonometric
  forms, product-to-sum identities, rational coefficient arithmetic) as a sum
  of components coeff * r^(-m) * {cos,sin}(omega r). Each component tail is
  integrated by one of three rules: an exact power-law formula when omega = 0,
  a convergent sine/cosine-integral series chain when |omega| R is small, and
  half-period windows with iterated averaging otherwise.

Cost model of the tail decomposition: it is compiled once per order tuple,
exactly, with the momenta kept as symbols (each coefficient a polynomial in
the 1/k_i with integer numerators over one denominator) and cached. Each call
then substitutes the exact ratios k_i = p_i/q_i: a few integer products per
coefficient and one correctly rounded division, the same float as rounding
the exact rational coefficient.

Cost model of the head: the panels are walked in blocks of _HEAD_BLOCK_PANELS,
and each block makes one Bessel sweep per distinct momentum k, running one
upward recurrence for all the orders k carries (j_l1 and j_l3 share k1 r,
j_l2 and j_l4 share k2 r), for both rules at once. No node takes its own sin
or cos: the grid is exactly uniform, r = c_p + o_j, so sin(k r) and cos(k r)
come by angle addition from those of k c_p, taken once per panel, and of
k o_j, taken once per head. Per distinct momentum a head calls np.sin and
np.cos on n_panels + 20 points, not on all 20 n_panels nodes. The phase k c_p
is corrected by the rounding error of the product (Dekker's TwoProduct), so
the head is slightly more accurate than sin and cos of the rounded k r:
within 2^-50 of the same Gauss sums in extended precision, relative to their
sum of |w f h|.

Everything returns (value, error_estimate); NoConvergence is raised when the
estimate cannot certify the configured tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    "gauss_legendre",
    "quad_bessel_numeric",
    "triple_bessel_numeric",
]

_EULER_GAMMA = 0.5772156649015328606
# Largest |omega|*R handled by the sine/cosine-integral series; beyond this the
# windowed rule always has enough half-periods before max_radius.
_SERIES_PHASE_LIMIT = 1.5
# Head panels per block: 512 panels of 20 nodes keep each temporary at 80 kB.
_HEAD_BLOCK_PANELS = 512


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the numerical oracle.

    max_radius=None resolves to 4000 / min(momenta) per call.
    """

    rel_tol: float = 1e-8
    max_radius: float | None = None
    panels_per_period: int = 4
    acceleration_depth: int = 6

    def __post_init__(self) -> None:
        if not (isinstance(self.rel_tol, (int, float)) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if self.max_radius is not None and not (
            isinstance(self.max_radius, (int, float)) and self.max_radius > 0
        ):
            raise DomainError(f"max_radius must be > 0, got {self.max_radius!r}")
        if not (isinstance(self.panels_per_period, int) and self.panels_per_period >= 2):
            raise DomainError(
                f"panels_per_period must be an int >= 2, got {self.panels_per_period!r}"
            )
        if not (isinstance(self.acceleration_depth, int) and self.acceleration_depth >= 0):
            raise DomainError(
                f"acceleration_depth must be an int >= 0, got {self.acceleration_depth!r}"
            )

    def resolved_radius(self, k_min: float) -> float:
        return self.max_radius if self.max_radius is not None else 4000.0 / k_min


# --------------------------------------------------------------------------
# spherical Bessel functions
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _double_factorial_odd(n: int) -> float:
    """(2n+1)!! as a float."""
    return float(math.prod(range(1, 2 * n + 2, 2)))


def spherical_bessel_j(n, x):
    """j_n(x) for finite x >= 0; accepts scalars or numpy arrays (returns float/array).

    Regimes: j_0 = sin(x)/x; j_1 by its closed form from x = 0.5; for n >= 2
    the upward trigonometric recurrence for x >= n+1 and the downward
    (Miller) recurrence, renormalized against j_0, on [0.5, n+1). Below
    x = 0.5 every order n >= 1 takes the Taylor series, and j_n(0) =
    delta_{n,0} exactly. NaN, infinite or negative x raises DomainError.
    The values come from _bessel_sweep, which the oracle's head runs for
    several orders at once.
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


def _bessel_sweep(
    orders: list[int],
    a: np.ndarray,
    lowest: float,
    trig: tuple[np.ndarray, np.ndarray],
) -> dict[int, np.ndarray]:
    """{n: j_n(a)} for distinct ascending orders over a flat array of finite a >= 0.

    ``lowest`` is min(a) and ``trig`` is (sin a, cos a) over the same points;
    the sweep takes no sin or cos itself (the Miller branch's normalisation
    reads the sine too). An order whose trigonometric start lies above
    ``lowest`` gets an array of its small-x values first; the sweep then
    writes the points from the start on.
    """
    import numpy as np

    sin_t, cos_t = trig
    out = {}
    for n in orders:
        if lowest >= _trig_start(n):
            continue
        out[n] = below = np.zeros_like(a)
        if n == 0:
            below[a == 0.0] = 1.0
            continue
        small = a < 0.5
        if n == 1:
            small &= a > 0.0
        else:
            mid = ~small & (a < n + 1.0)
            if np.any(mid):
                below[mid] = _bessel_downward(n, a[mid], sin_t[mid])
        if np.any(small):
            below[small] = _bessel_series(n, a[small])
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


def _bessel_series(n: int, a: np.ndarray) -> np.ndarray:
    import numpy as np

    half_sq = 0.5 * a * a
    total = np.ones_like(a)
    term = np.ones_like(a)
    for k in range(1, 8):
        term = term * (-half_sq) / (k * (2 * n + 2 * k + 1))
        total += term
    return a**n / _double_factorial_odd(n) * total


def _bessel_downward(n: int, a: np.ndarray, sin_a: np.ndarray) -> np.ndarray:
    """j_n(a) by Miller's downward recurrence, normalised against j_0 = sin_a/a.

    ``sin_a`` is sin(a), which the caller already has.
    """
    import numpy as np

    top = n + 25
    above = np.zeros_like(a)
    cur = np.full_like(a, 1e-30)
    target = None
    for m in range(top, 0, -1):
        below = (2 * m + 1) / a * cur - above
        above, cur = cur, below
        if m - 1 == n:
            target = cur.copy()
        if m % 20 == 0:
            peak = np.max(np.abs(cur))
            if peak > 1e250:
                above *= 1e-250
                cur *= 1e-250
                if target is not None:
                    target *= 1e-250
    return target * (sin_a / a) / cur


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


def gauss_legendre(integrand, n_nodes: int) -> float:
    """Fixed-order Gauss-Legendre rule on [-1, 1]; exact for degree <= 2n-1.

    The integrand is called once with the node array; if that raises
    TypeError, ValueError or DomainError, or returns the wrong shape, it is
    called per node instead.
    """
    import numpy as np

    n_nodes = require_order(n_nodes, "n_nodes")
    if n_nodes < 1:
        raise DomainError("n_nodes must be >= 1")
    nodes, weights = _gauss_rule(n_nodes)
    try:
        values = np.asarray(integrand(nodes), dtype=float)
        if values.shape != nodes.shape:
            raise TypeError("integrand did not vectorize")
    except (TypeError, ValueError, DomainError):
        # what scalar-only code raises on an array (numpy's conversions, or
        # this package's argument checks); any other error is a bug in the
        # integrand and propagates
        values = np.array([float(integrand(t)) for t in nodes])
    return float(weights @ values)


# --------------------------------------------------------------------------
# exact trigonometric decomposition of Bessel products
# --------------------------------------------------------------------------
# The tail integrand is a sum over labels of coeff * r^(-m) * cos/sin(omega r),
# kind 0=cos 1=sin, where omega = label . momenta. Labels are integer tuples,
# canonicalized so the first nonzero entry is positive (sin picks up the sign
# flip); this keeps frequency bookkeeping exact even when momenta make
# distinct labels collide.
#
# A Rayleigh factor j_n(k r) brings k^(-p) with each r^(-p), so every coeff is
# a polynomial in the 1/k_i. The compiled form keeps the momenta as symbols: a
# component holds (exponent vector e, integer n_e) pairs over one integer
# denominator D and means sum_e n_e / D * prod_i k_i^(-e_i).


@lru_cache(maxsize=None)
def _rayleigh(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Integer coefficients of j_n(z) = sum a_i z^-i sin z + sum b_i z^-i cos z."""
    a_prev, b_prev = {1: 1}, {}
    if n == 0:
        return tuple(a_prev.items()), tuple(b_prev.items())
    a_cur, b_cur = {2: 1}, {1: -1}
    for m in range(1, n):
        a_nxt: dict[int, int] = {}
        b_nxt: dict[int, int] = {}
        for src, dst in ((a_cur, a_nxt), (b_cur, b_nxt)):
            for power, coeff in src.items():
                dst[power + 1] = dst.get(power + 1, 0) + (2 * m + 1) * coeff
        for src, dst in ((a_prev, a_nxt), (b_prev, b_nxt)):
            for power, coeff in src.items():
                dst[power] = dst.get(power, 0) - coeff
        a_prev, b_prev = a_cur, b_cur
        a_cur = {p: c for p, c in a_nxt.items() if c}
        b_cur = {p: c for p, c in b_nxt.items() if c}
    return tuple(a_cur.items()), tuple(b_cur.items())


def _canonical(label: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Canonical label and the sign flip applied to sine coefficients."""
    for entry in label:
        if entry > 0:
            return label, 1
        if entry < 0:
            return tuple(-e for e in label), -1
    return label, 1


def _add_part(
    series: dict, label: tuple[int, ...], kind: int, m: int, poly: dict, sign: int
) -> None:
    label, flip = _canonical(label)
    if kind == 1:
        sign *= flip
    total = series.setdefault(label, {}).setdefault((kind, m), {})
    for exponents, coeff in poly.items():
        total[exponents] = total.get(exponents, 0) + sign * coeff


def _bessel_atom(n: int, slot: int, n_slots: int) -> dict:
    """Series for the single factor j_n(k_slot r), its momentum kept symbolic."""
    sin_part, cos_part = _rayleigh(n)
    label = tuple(1 if i == slot else 0 for i in range(n_slots))
    parts: dict[tuple[int, int], dict] = {}
    for kind, rayleigh_part in ((0, cos_part), (1, sin_part)):
        for power, coeff in rayleigh_part:
            exponents = tuple(power if i == slot else 0 for i in range(n_slots))
            parts[(kind, power)] = {exponents: coeff}
    return {label: parts}


def _series_mul(sa: dict, sb: dict) -> dict:
    """Product of two series by the product-to-sum identities.

    Every identity halves its product; the halves are left out here and
    collected into the compiled denominator.
    """
    out: dict = {}
    for la, pa in sa.items():
        for lb, pb in sb.items():
            label_sum = tuple(x + y for x, y in zip(la, lb))
            label_diff = tuple(x - y for x, y in zip(la, lb))
            for (kind_a, ma), ca in pa.items():
                for (kind_b, mb), cb in pb.items():
                    m = ma + mb
                    product: dict[tuple[int, ...], int] = {}
                    for ea, na in ca.items():
                        for eb, nb in cb.items():
                            exponents = tuple(x + y for x, y in zip(ea, eb))
                            product[exponents] = product.get(exponents, 0) + na * nb
                    if kind_a == 0 and kind_b == 0:
                        _add_part(out, label_diff, 0, m, product, 1)
                        _add_part(out, label_sum, 0, m, product, 1)
                    elif kind_a == 1 and kind_b == 1:
                        _add_part(out, label_diff, 0, m, product, 1)
                        _add_part(out, label_sum, 0, m, product, -1)
                    elif kind_a == 1 and kind_b == 0:
                        _add_part(out, label_sum, 1, m, product, 1)
                        _add_part(out, label_diff, 1, m, product, 1)
                    else:
                        _add_part(out, label_sum, 1, m, product, 1)
                        _add_part(out, label_diff, 1, m, product, -1)
    return out


@lru_cache(maxsize=None)
def _compile_decomposition(orders_slots: tuple[tuple[int, int], ...], n_slots: int):
    """Component form of r^2 * prod j_{n_i}(k_{slot_i} r), momenta symbolic.

    Returns (D, M, vectors, components). ``vectors`` lists the distinct
    exponent vectors and M[i] is the largest exponent of k_i among them.
    ``components`` is a tuple of (label, parts), parts a tuple of
    ((kind, m), terms) with m counted after the r^2 weight and terms a tuple
    of (index into vectors, n_e). Components that vanish identically are
    dropped; the order of the rest is the expansion's insertion order.
    """
    series: dict = {}
    for n, slot in orders_slots:
        atom = _bessel_atom(n, slot, n_slots)
        series = _series_mul(series, atom) if series else atom
    index: dict[tuple[int, ...], int] = {}
    components = []
    for label, parts in series.items():
        kept = []
        for (kind, m), poly in parts.items():
            terms = tuple(
                (index.setdefault(exponents, len(index)), coeff)
                for exponents, coeff in poly.items()
                if coeff
            )
            if terms:
                kept.append(((kind, m - 2), terms))
        if kept:
            components.append((label, tuple(kept)))
    vectors = tuple(index)
    top = tuple(max((e[i] for e in vectors), default=0) for i in range(n_slots))
    return 1 << (len(orders_slots) - 1), top, vectors, tuple(components)


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
    weights = [math.prod(table[e] for table, e in zip(powers, exponents)) for exponents in vectors]
    out = {}
    for label, parts in components:
        kept = {}
        for key, terms in parts:
            numerator = sum(coeff * weights[j] for j, coeff in terms)
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
# tail integration rules
# --------------------------------------------------------------------------


def _sin_cos_integral_tails(z: float) -> tuple[float, float]:
    """(S1, T1) = (int_z^inf sin u / u du, int_z^inf cos u / u du) for 0 < z <= ~2."""
    si = 0.0
    term = z
    k = 0
    while True:
        si += term / (2 * k + 1)
        k += 1
        term *= -z * z / ((2 * k) * (2 * k + 1))
        if abs(term) < 1e-20 * (1.0 + abs(si)):
            break
    ci = _EULER_GAMMA + math.log(z)
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= -z * z / ((2 * k - 1) * (2 * k))
        ci += term / (2 * k)
        if abs(term) < 1e-20 * (1.0 + abs(ci)):
            break
    return math.pi / 2 - si, -ci


def _series_component_tail(omega: float, cos_coeffs: dict, sin_coeffs: dict, radius: float) -> tuple[float, float]:
    """Tail of one slowly oscillating component via the by-parts chain."""
    m_max = max([*cos_coeffs, *sin_coeffs])
    z = omega * radius
    s_tails = [0.0] * (m_max + 1)
    t_tails = [0.0] * (m_max + 1)
    s_tails[1], t_tails[1] = _sin_cos_integral_tails(z)
    cos_z, sin_z = math.cos(z), math.sin(z)
    for m in range(2, m_max + 1):
        scale = radius ** (1 - m) / (m - 1)
        t_tails[m] = scale * cos_z - omega / (m - 1) * s_tails[m - 1]
        s_tails[m] = scale * sin_z + omega / (m - 1) * t_tails[m - 1]
    parts = [c * t_tails[m] for m, c in cos_coeffs.items()]
    parts += [c * s_tails[m] for m, c in sin_coeffs.items()]
    value = math.fsum(parts)
    estimate = 5e-16 * math.fsum(abs(p) for p in parts) + 1e-300
    return value, estimate


def _windowed_component_tail(
    omega: float,
    cos_coeffs: dict,
    sin_coeffs: dict,
    radius: float,
    r_max: float,
    depth: int,
) -> tuple[float, float]:
    """Tail of one oscillatory component: half-period windows, iterated averaging."""
    import numpy as np

    window = math.pi / omega
    available = int((r_max - radius) / window)
    n_windows = min(max(2 * depth + 8, 24), available)
    if n_windows < 4:
        # not enough room to accelerate: report a rigorous magnitude bound
        bound = 0.0
        for m, c in cos_coeffs.items():
            bound += abs(c) * (radius ** (1 - m) / (m - 1) if m >= 2 else 2.0 / (omega * radius))
        for m, c in sin_coeffs.items():
            bound += abs(c) * (radius ** (1 - m) / (m - 1) if m >= 2 else 2.0 / (omega * radius))
        return 0.0, bound
    nodes, weights = _gauss_rule(10)
    offsets = (nodes + 1.0) * (0.5 * window)
    starts = radius + window * np.arange(n_windows)
    r = starts[:, None] + offsets[None, :]
    phase = omega * r
    f = np.zeros_like(r)
    cos_r = np.cos(phase)
    sin_r = np.sin(phase)
    for m, c in cos_coeffs.items():
        f += (c * cos_r) * r ** float(-m)
    for m, c in sin_coeffs.items():
        f += (c * sin_r) * r ** float(-m)
    window_integrals = (f @ weights) * (0.5 * window)
    levels = np.cumsum(window_integrals)
    depth_eff = min(depth, len(levels) - 1)
    previous_last = float(levels[-1])
    for _ in range(depth_eff):
        previous_last = float(levels[-1])
        levels = 0.5 * (levels[:-1] + levels[1:])
    final = float(levels[-1])
    if depth_eff == 0:
        drift = abs(float(window_integrals[-1]))
    else:
        # change contributed by the final averaging pass
        drift = abs(final - previous_last)
    floor = 1e-15 * float(np.sum(np.abs(window_integrals)))
    return final, drift + floor


def _integrate_tail(
    components: dict,
    momenta: tuple[float, ...],
    radius: float,
    r_max: float,
    depth: int,
) -> tuple[float, float]:
    """Sum of all component tails over [radius, inf)."""
    total = 0.0
    estimate = 0.0
    for label, parts in components.items():
        omega = math.fsum(n * k for n, k in zip(label, momenta))
        flip = 1.0
        if omega < 0.0:
            omega = -omega
            flip = -1.0
        cos_coeffs = {m: c for (kind, m), c in parts.items() if kind == 0}
        sin_coeffs = {m: flip * c for (kind, m), c in parts.items() if kind == 1}
        if omega == 0.0:
            # sin(0 * r) vanishes identically; the cosine part is a pure power
            # law. Components are pruned where their exact value is zero, so a
            # (0, 1) entry is an exactly nonzero r^-1 term.
            if (0, 1) in parts:
                raise NoConvergence(
                    "integrand has a non-oscillatory r^-1 component; the "
                    "integral diverges logarithmically"
                )
            total += math.fsum(
                c * radius ** (1 - m) / (m - 1) for m, c in cos_coeffs.items() if m >= 2
            )
            continue
        if omega * radius <= _SERIES_PHASE_LIMIT:
            value, err = _series_component_tail(omega, cos_coeffs, sin_coeffs, radius)
        else:
            value, err = _windowed_component_tail(
                omega, cos_coeffs, sin_coeffs, radius, r_max, depth
            )
        total += value
        estimate += err
    return total, estimate


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


def _sin_cos_of_product(k: float, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the exact products k * c, not of their rounded values.

    fl(k c) misses k c by e, up to half an ulp of k c (4.5e-13 at k c = 6000);
    the phase is corrected by e to second order. k is first scaled into
    [0.5, 1) by a power of two, so that the splitting cannot overflow.
    """
    import numpy as np

    mantissa, exponent = math.frexp(k)
    phase, err = _two_product(mantissa, np.ldexp(c, exponent))
    sin_p, cos_p = np.sin(phase), np.cos(phase)
    half = 0.5 * err
    return sin_p + err * (cos_p - half * sin_p), cos_p - err * (sin_p + half * cos_p)


def _head_integral(
    factors: list[tuple[int, float]],
    radius: float,
    omega_max: float,
    panels_per_period: int,
) -> tuple[float, float]:
    """Fine Gauss value of the head and its difference from the coarse rule.

    The panels are uniform: panel p has centre c_p = (p + 1/2) h, and the
    12 + 8 nodes of both rules sit at c_p + o_j with o_j = (h/2) x_j. Blocks
    of _HEAD_BLOCK_PANELS panels are laid out node-major, one row per node,
    so that each angle-addition product is a row times a scalar. For each
    block and distinct momentum k, sin and cos of k c_p are taken once per
    panel and corrected for the rounding of k c_p; with those of k o_j, taken
    once per head, angle addition gives sin(k r) and cos(k r) at every node,
    and one Bessel sweep gives every order k carries.
    """
    import numpy as np

    for _, k in factors:
        if not math.isfinite(k * radius):
            raise DomainError(f"head argument k*r = {k!r}*{radius!r} is not finite")
    n_panels = max(1, math.ceil(radius * omega_max / (2.0 * math.pi))) * panels_per_period
    width = radius / n_panels
    fine_nodes, fine_weights = _gauss_rule(12)
    coarse_nodes, coarse_weights = _gauss_rule(8)
    nodes = np.concatenate((fine_nodes, coarse_nodes))
    n_fine = len(fine_nodes)
    offsets = (0.5 * width) * nodes
    # k * r grows with c_p and o_j, so the smallest argument of a block is
    # its first panel's smallest node
    first_node = int(np.argmin(nodes))
    by_momentum: dict[float, list[int]] = {}
    for i, (_, k) in enumerate(factors):
        by_momentum.setdefault(k, []).append(i)
    sweeps = []
    for k, members in by_momentum.items():
        orders = sorted({factors[i][0] for i in members})
        phase = k * offsets
        sweeps.append((k, members, orders, np.sin(phase)[:, None], np.cos(phase)[:, None]))
    try:
        fine_rows = np.empty(n_panels)
        coarse_rows = np.empty(n_panels)
    except (ValueError, MemoryError):
        # numpy refuses a length past its index range with ValueError
        momenta = tuple(dict.fromkeys(k for _, k in factors))
        raise DomainError(
            f"momenta {momenta!r} are too far apart for the oracle: the head needs "
            "more panels than can be allocated"
        ) from None
    bessel = [None] * len(factors)
    for lo in range(0, n_panels, _HEAD_BLOCK_PANELS):
        hi = min(lo + _HEAD_BLOCK_PANELS, n_panels)
        centers = (np.arange(lo, hi) + 0.5) * width
        r = np.add.outer(offsets, centers)
        for k, members, orders, sin_o, cos_o in sweeps:
            sin_c, cos_c = _sin_cos_of_product(k, centers)
            sin_r = sin_o * cos_c
            sin_r += cos_o * sin_c
            cos_r = cos_o * cos_c
            cos_r -= sin_o * sin_c
            a = k * r
            values = _bessel_sweep(
                orders, a.reshape(-1), a[first_node, 0], (sin_r.reshape(-1), cos_r.reshape(-1))
            )
            for i in members:
                bessel[i] = values[factors[i][0]].reshape(r.shape)
        f = r * r
        # in factor order: each product's rounding is part of the value
        for value in bessel:
            f *= value
        np.matmul(fine_weights, f[:n_fine], out=fine_rows[lo:hi])
        np.matmul(coarse_weights, f[n_fine:], out=coarse_rows[lo:hi])
    fine = 0.5 * width * float(np.sum(fine_rows))
    coarse = 0.5 * width * float(np.sum(coarse_rows))
    return fine, abs(fine - coarse) + 1e-16 * abs(fine)


def _split_radius(orders: tuple[int, ...], k_min: float, r_max: float) -> float:
    lam = max(orders)
    return min((40.0 + 0.5 * lam * (lam + 1)) / k_min, 0.5 * r_max)


def _certify(value: float, estimate: float, char_scale: float, cfg: QuadratureConfig) -> None:
    if estimate > cfg.rel_tol * max(abs(value), char_scale):
        raise NoConvergence(
            f"error estimate {estimate:.3e} exceeds rel_tol={cfg.rel_tol:.1e} "
            f"at value {value:.6e}; increase max_radius or acceleration_depth",
            value=value,
            error_estimate=estimate,
        )


def _integrate(
    slots: tuple[tuple[int, int], ...],
    momenta: tuple[float, ...],
    omega_max: float,
    depth: int,
    char_denominator: float,
    cfg: QuadratureConfig,
) -> tuple[float, float]:
    """Certified value and estimate of int_0^inf r^2 prod j_n(momenta[slot] r) dr.

    ``slots`` holds one (order n, momentum slot) pair per Bessel factor; the
    estimate is certified against pi / char_denominator as the scale. At
    extreme momenta the head's r^2, the tail's r^(1-m) or a decomposition
    coefficient overflows; every such overflow, and a value or estimate that is
    not finite, raises DomainError.
    """
    import numpy as np

    k_min = min(momenta)
    r_max = cfg.resolved_radius(k_min)
    radius = _split_radius(tuple(n for n, _ in slots), k_min, r_max)
    factors = [(n, momenta[slot]) for n, slot in slots]
    try:
        with np.errstate(over="raise"):
            head, head_err = _head_integral(factors, radius, omega_max, cfg.panels_per_period)
            components = _decompose_weighted_product(slots, momenta)
            tail, tail_err = _integrate_tail(components, momenta, radius, r_max, depth)
        value = head + tail
        estimate = head_err + tail_err
        char_scale = math.pi / char_denominator
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        value = estimate = math.inf
    if not (math.isfinite(value) and math.isfinite(estimate)):
        raise DomainError(f"momenta {momenta!r} are out of the oracle's float range")
    _certify(value, estimate, char_scale, cfg)
    return value, estimate


def quad_bessel_numeric(
    spec: IntegralSpec, config: QuadratureConfig | None = None
) -> tuple[float, float]:
    """Numerical value and error estimate of the four-Bessel radial integral."""
    k1, k2 = spec.k1, spec.k2
    cfg = config or QuadratureConfig()
    return _integrate(
        ((spec.lambda1, 0), (spec.lambda2, 1), (spec.lambda3, 0), (spec.lambda4, 1)),
        (k1, k2),
        2.0 * (k1 + k2),
        cfg.acceleration_depth,
        4.0 * k1 * k2 * max(k1, k2),
        cfg,
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

    The integrand envelope decays only as r^-1, so the averaging depth is
    doubled relative to the four-Bessel case.
    """
    l1 = require_order(l1, "l1")
    l2 = require_order(l2, "l2")
    L = require_order(L, "L")
    k1 = require_momentum(k1, "k1")
    k2 = require_momentum(k2, "k2")
    K = require_momentum(K, "K")
    cfg = config or QuadratureConfig()
    return _integrate(
        ((l1, 0), (l2, 1), (L, 2)),
        (k1, k2, K),
        k1 + k2 + K,
        2 * cfg.acceleration_depth,
        4.0 * k1 * k2 * K,
        cfg,
    )
