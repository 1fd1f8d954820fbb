"""Independent numerical evaluation of the radial Bessel-product integrals.

This module is the certification oracle: it never touches the closed-form
pipeline. The integrand r^2 * prod_i j_{n_i}(k_i r) is split at a radius R
past the last Bessel turning point:

* head [0, R]: fixed Gauss panels sized to the fastest oscillation, with the
  integrand evaluated directly through ``spherical_bessel_j``;
* tail [R, inf): the product is rewritten exactly (Rayleigh trigonometric
  forms, product-to-sum identities, rational coefficient arithmetic) as a sum
  of components coeff * r^(-m) * {cos,sin}(omega r). Each component tail is
  integrated by one of three rules: an exact power-law formula when omega = 0,
  a convergent sine/cosine-integral series chain when |omega| R is small, and
  half-period windows with iterated averaging otherwise.

Everything returns (value, error_estimate); NoConvergence is raised when the
estimate cannot certify the configured tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def spherical_bessel_j(n: int, x):
    """j_n(x) for x >= 0; accepts scalars or numpy arrays (returns float/array).

    Regimes: Taylor series below x=0.5, upward trigonometric recurrence for
    x >= n+1, and downward (Miller) recurrence renormalized against
    j_0 = sin(x)/x in between. j_n(0) = delta_{n,0} exactly.
    """
    import numpy as np

    n = require_order(n, "n")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("spherical_bessel_j requires x >= 0")
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.zeros_like(a)
    positive = a > 0.0
    if n == 0:
        out[~positive] = 1.0
        ap = a[positive]
        out[positive] = np.sin(ap) / ap
    elif n == 1:
        # the closed form cancels catastrophically for small x
        small = positive & (a < 0.5)
        if np.any(small):
            out[small] = _bessel_series(1, a[small])
        rest = positive & ~small
        ap = a[rest]
        out[rest] = np.sin(ap) / (ap * ap) - np.cos(ap) / ap
    else:
        small = a < 0.5
        big = a >= n + 1.0
        mid = ~small & ~big
        if np.any(small):
            out[small] = _bessel_series(n, a[small])
        if np.any(big):
            out[big] = _bessel_upward(n, a[big])
        if np.any(mid):
            out[mid] = _bessel_downward(n, a[mid])
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def _bessel_series(n: int, a: np.ndarray) -> np.ndarray:
    import numpy as np

    half_sq = 0.5 * a * a
    total = np.ones_like(a)
    term = np.ones_like(a)
    for k in range(1, 8):
        term = term * (-half_sq) / (k * (2 * n + 2 * k + 1))
        total += term
    return a**n / _double_factorial_odd(n) * total


def _bessel_upward(n: int, a: np.ndarray) -> np.ndarray:
    import numpy as np

    prev = np.sin(a) / a
    cur = np.sin(a) / (a * a) - np.cos(a) / a
    for m in range(1, n):
        prev, cur = cur, (2 * m + 1) / a * cur - prev
    return cur


def _bessel_downward(n: int, a: np.ndarray) -> np.ndarray:
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
    return target * (np.sin(a) / a) / cur


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

    The integrand is called once with the node array; if it cannot handle
    array input, it is called per node instead.
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
    except Exception:
        values = np.array([float(integrand(t)) for t in nodes])
    return float(weights @ values)


# --------------------------------------------------------------------------
# exact trigonometric decomposition of Bessel products
# --------------------------------------------------------------------------
# A series is dict[label] -> dict[(kind, m)] -> Fraction, meaning
#   sum over labels of  coeff * r^(-m) * cos/sin(omega r),  kind 0=cos 1=sin,
# where omega = label . momenta. Labels are integer tuples, canonicalized so
# the first nonzero entry is positive (sin picks up the sign flip); this keeps
# frequency bookkeeping exact even when momenta make distinct labels collide.


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


def _add_part(series: dict, label: tuple[int, ...], kind: int, m: int, coeff: Fraction) -> None:
    label, flip = _canonical(label)
    if kind == 1 and flip < 0:
        coeff = -coeff
    parts = series.setdefault(label, {})
    parts[(kind, m)] = parts.get((kind, m), Fraction(0)) + coeff


def _bessel_atom(n: int, slot: int, n_slots: int, k: float) -> dict:
    """Series for the single factor j_n(k r)."""
    sin_part, cos_part = _rayleigh(n)
    k_exact = Fraction(k)
    label = tuple(1 if i == slot else 0 for i in range(n_slots))
    parts: dict[tuple[int, int], Fraction] = {}
    for power, coeff in cos_part:
        parts[(0, power)] = Fraction(coeff) / k_exact**power
    for power, coeff in sin_part:
        parts[(1, power)] = Fraction(coeff) / k_exact**power
    return {label: parts}


def _series_mul(sa: dict, sb: dict) -> dict:
    out: dict = {}
    for la, pa in sa.items():
        for lb, pb in sb.items():
            label_sum = tuple(x + y for x, y in zip(la, lb))
            label_diff = tuple(x - y for x, y in zip(la, lb))
            for (kind_a, ma), ca in pa.items():
                for (kind_b, mb), cb in pb.items():
                    m = ma + mb
                    half = ca * cb / 2
                    if kind_a == 0 and kind_b == 0:
                        _add_part(out, label_diff, 0, m, half)
                        _add_part(out, label_sum, 0, m, half)
                    elif kind_a == 1 and kind_b == 1:
                        _add_part(out, label_diff, 0, m, half)
                        _add_part(out, label_sum, 0, m, -half)
                    elif kind_a == 1 and kind_b == 0:
                        _add_part(out, label_sum, 1, m, half)
                        _add_part(out, label_diff, 1, m, half)
                    else:
                        _add_part(out, label_sum, 1, m, half)
                        _add_part(out, label_diff, 1, m, -half)
    return out


def _decompose_weighted_product(orders_slots: list[tuple[int, int]], momenta: tuple[float, ...]) -> dict:
    """Exact component form of r^2 * prod j_{n_i}(k_{slot_i} r), pruned of zeros."""
    n_slots = len(momenta)
    series = None
    for n, slot in orders_slots:
        atom = _bessel_atom(n, slot, n_slots, momenta[slot])
        series = atom if series is None else _series_mul(series, atom)
    shifted: dict = {}
    for label, parts in series.items():
        kept = {(kind, m - 2): c for (kind, m), c in parts.items() if c != 0}
        if kept:
            shifted[label] = kept
    return shifted


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
        cos_coeffs = {m: float(c) for (kind, m), c in parts.items() if kind == 0}
        sin_coeffs = {m: flip * float(c) for (kind, m), c in parts.items() if kind == 1}
        if omega == 0.0:
            # sin(0 * r) vanishes identically; the cosine part is a pure power law
            divergent = parts.get((0, 1), Fraction(0))
            if divergent != 0:
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


def _head_panels(factors: list[tuple[int, float]], edges: np.ndarray, n_nodes: int) -> float:
    import numpy as np

    nodes, weights = _gauss_rule(n_nodes)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half_widths = 0.5 * np.diff(edges)
    r = centers[:, None] + half_widths[:, None] * nodes[None, :]
    f = r * r
    for n, k in factors:
        f = f * spherical_bessel_j(n, k * r)
    return float((f @ weights) @ half_widths)


def _head_integral(
    factors: list[tuple[int, float]],
    radius: float,
    omega_max: float,
    panels_per_period: int,
) -> tuple[float, float]:
    import numpy as np

    n_panels = max(1, math.ceil(radius * omega_max / (2.0 * math.pi))) * panels_per_period
    edges = np.linspace(0.0, radius, n_panels + 1)
    fine = _head_panels(factors, edges, 12)
    coarse = _head_panels(factors, edges, 8)
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


def quad_bessel_numeric(
    spec: IntegralSpec, config: QuadratureConfig | None = None
) -> tuple[float, float]:
    """Numerical value and error estimate of the four-Bessel radial integral."""
    cfg = config or QuadratureConfig()
    k1, k2 = spec.k1, spec.k2
    k_min = min(k1, k2)
    r_max = cfg.resolved_radius(k_min)
    radius = _split_radius(spec.orders, k_min, r_max)
    factors = [
        (spec.lambda1, k1),
        (spec.lambda2, k2),
        (spec.lambda3, k1),
        (spec.lambda4, k2),
    ]
    head, head_err = _head_integral(factors, radius, 2.0 * (k1 + k2), cfg.panels_per_period)
    components = _decompose_weighted_product(
        [(spec.lambda1, 0), (spec.lambda2, 1), (spec.lambda3, 0), (spec.lambda4, 1)],
        (k1, k2),
    )
    tail, tail_err = _integrate_tail(
        components, (k1, k2), radius, r_max, cfg.acceleration_depth
    )
    value = head + tail
    estimate = head_err + tail_err
    _certify(value, estimate, math.pi / (4.0 * k1 * k2 * max(k1, k2)), cfg)
    return value, estimate


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
    k_min = min(k1, k2, K)
    r_max = cfg.resolved_radius(k_min)
    radius = _split_radius((l1, l2, L), k_min, r_max)
    factors = [(l1, k1), (l2, k2), (L, K)]
    head, head_err = _head_integral(factors, radius, k1 + k2 + K, cfg.panels_per_period)
    components = _decompose_weighted_product([(l1, 0), (l2, 1), (L, 2)], (k1, k2, K))
    tail, tail_err = _integrate_tail(
        components, (k1, k2, K), radius, r_max, 2 * cfg.acceleration_depth
    )
    value = head + tail
    estimate = head_err + tail_err
    _certify(value, estimate, math.pi / (4.0 * k1 * k2 * K), cfg)
    return value, estimate
