"""Numerical oracle: Bessel evaluation, quadrature rules, tail handling."""
from __future__ import annotations

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbessel import oracle
from fourbessel.core import IntegralSpec
from fourbessel.errors import DomainError, NoConvergence, NoValidBridge
from fourbessel.oracle import (
    _HEAD_BLOCK_PANELS,
    QuadratureConfig,
    _bessel_downward,
    _bessel_series,
    _bessel_sweep,
    _canonical,
    _compile_decomposition,
    _component_numerators,
    _decompose_weighted_product,
    _gauss_rule,
    _rayleigh,
    quad_bessel_numeric,
    spherical_bessel_j,
    triple_bessel_numeric,
)
from fourbessel.quadbessel import _horner_exact, _laurent_kernel, evaluate, triple_bessel_weighted
from fourbessel.wigner import select_bridge_order

from test_quadbessel import QUAD_REFERENCES, TRIPLE_REFERENCES, _reference_gauss_legendre


# --------------------------------------------------------------------------
# spherical Bessel functions
# --------------------------------------------------------------------------


def test_bessel_closed_forms():
    x = np.array([0.3, 1.0, 4.0, 30.0])
    assert spherical_bessel_j(0, x) == pytest.approx(np.sin(x) / x, rel=1e-15)
    assert spherical_bessel_j(1, x) == pytest.approx(
        np.sin(x) / x ** 2 - np.cos(x) / x, rel=1e-14
    )
    assert spherical_bessel_j(2, 1.0) == pytest.approx(0.062035052011373861, rel=1e-14)


def test_bessel_at_origin():
    assert spherical_bessel_j(0, 0.0) == 1.0
    for order in (1, 2, 5):
        assert spherical_bessel_j(order, 0.0) == 0.0


def test_bessel_rejects_negative_argument():
    with pytest.raises(DomainError):
        spherical_bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        spherical_bessel_j(2, np.array([1.0, -0.5]))


@pytest.mark.parametrize(
    "x",
    [math.nan, math.inf, -math.inf, np.array([1.0, math.nan, 2.0]), np.array([[0.5], [math.inf]])],
)
@pytest.mark.parametrize("order", [0, 1, 2, 3, 13])
def test_bessel_rejects_non_finite_argument(order, x):
    with pytest.raises(DomainError):
        spherical_bessel_j(order, x)


def test_bessel_rejects_a_tuple_of_orders():
    # the head runs several orders through _bessel_sweep; the public function
    # takes one order
    with pytest.raises(DomainError):
        spherical_bessel_j((0, 2), 1.0)


def test_bessel_matches_scipy_across_regimes():
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([
        np.logspace(-3, -0.5, 12),     # series regime
        np.linspace(0.6, 30.0, 40),    # mixed recurrence regimes
        np.logspace(1.6, 2.0, 8),      # upward recurrence regime
    ])
    for order in range(0, 21):
        expected = special.spherical_jn(order, x)
        ours = spherical_bessel_j(order, x)
        scale = np.maximum(np.abs(expected), 1e-280)
        assert np.max(np.abs(ours - expected) / scale) < 1e-10, order


def test_bessel_three_term_recurrence_identity():
    x = np.linspace(0.7, 60.0, 57)
    for order in range(1, 15):
        lhs = spherical_bessel_j(order - 1, x) + spherical_bessel_j(order + 1, x)
        rhs = (2 * order + 1) / x * spherical_bessel_j(order, x)
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-12)) < 1e-8


def test_bessel_scalar_and_array_agree():
    for order in (0, 1, 3, 8):
        for x in (0.01, 0.9, 7.7, 120.0):
            scalar = spherical_bessel_j(order, x)
            array = spherical_bessel_j(order, np.array([x]))[0]
            assert scalar == array


def _reference_bessel_j(n, x):
    """The former single-order evaluation, with a recurrence of its own.

    It computes in float64, or in np.longdouble when given longdouble x.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.result_type(x, float)))
    out = np.zeros_like(arr)
    positive = arr > 0.0
    if n == 0:
        out[~positive] = 1.0
        out[positive] = np.sin(arr[positive]) / arr[positive]
    elif n == 1:
        small = positive & (arr < 0.5)
        out[small] = _bessel_series(1, arr[small])
        rest = positive & ~small
        a = arr[rest]
        out[rest] = np.sin(a) / (a * a) - np.cos(a) / a
    else:
        small = arr < 0.5
        big = arr >= n + 1.0
        mid = ~small & ~big
        out[small] = _bessel_series(n, arr[small])
        a = arr[big]
        prev = np.sin(a) / a
        cur = np.sin(a) / (a * a) - np.cos(a) / a
        for m in range(1, n):
            prev, cur = cur, (2 * m + 1) / a * cur - prev
        out[big] = cur
        if np.any(mid):
            out[mid] = _bessel_downward(n, arr[mid], np.sin(arr[mid]))
    return out.reshape(np.shape(x))


# every regime boundary: 0, the series range, x = 0.5, the Miller range, x = n+1
_SWEEP_POINTS = np.array(
    [0.0, 1e-9, 0.01, 0.3, 0.4999999, 0.5, 0.5000001, 0.9, 1.7, 2.4, 4.6, 7.3, 9.99]
    + [n + 1.0 for n in range(14)]
    + [14.5, 23.0, 61.2, 250.0, 999.9, 1e3]
)


def _sweep(orders, x):
    """_bessel_sweep over the flat points of x, given np.sin and np.cos of them."""
    flat = np.asarray(x, dtype=float).reshape(-1)
    return _bessel_sweep(sorted(set(orders)), flat, flat.min(), (np.sin(flat), np.cos(flat)))


@pytest.mark.parametrize("first", range(14))
def test_bessel_sweep_is_bit_identical_to_single_orders(first):
    x = _SWEEP_POINTS
    singles = {n: spherical_bessel_j(n, x) for n in range(14)}
    assert np.array_equal(singles[first], _reference_bessel_j(first, x))
    alone = _sweep((first,), x)
    assert list(alone) == [first] and np.array_equal(alone[first], singles[first])
    for second in range(14):
        pair = _sweep((first, second), x)
        assert np.array_equal(pair[first], singles[first]), second
        assert np.array_equal(pair[second], singles[second]), second
        grid = spherical_bessel_j(second, x.reshape(-1, 3))
        assert np.array_equal(grid, singles[second].reshape(-1, 3)), second
        at_points = [_sweep((first, second), point) for point in x]
        assert [v[first][0] for v in at_points] == singles[first].tolist(), second
        assert [v[second][0] for v in at_points] == singles[second].tolist(), second


def test_bessel_sweep_of_many_orders():
    x = np.linspace(0.0, 40.0, 321)
    orders = (13, 0, 7, 2, 7, 1, 4)
    values = _sweep(orders, x)
    assert sorted(values) == sorted(set(orders))
    for n in orders:
        assert np.array_equal(values[n], _reference_bessel_j(n, x)), n
        assert np.array_equal(values[n], spherical_bessel_j(n, x)), n
    assert _sweep((), x) == {}


# --------------------------------------------------------------------------
# Gauss-Legendre helper
# --------------------------------------------------------------------------


def test_gauss_rule_polynomial_exactness():
    # the oracle's n-node rule integrates degree 2n - 1 exactly
    assert _reference_gauss_legendre(lambda t: t * t, 2) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert _reference_gauss_legendre(lambda t: t ** 4, 3) == pytest.approx(2.0 / 5.0, rel=1e-14)
    assert _reference_gauss_legendre(math.cos, 7) == pytest.approx(2.0 * math.sin(1.0), rel=1e-14)


# --------------------------------------------------------------------------
# oracle vs frozen references
# --------------------------------------------------------------------------


@pytest.mark.parametrize("key, expected", sorted(QUAD_REFERENCES.items()))
def test_oracle_reproduces_quad_references(key, expected):
    l1, l2, l3, l4, k1, k2 = key
    start = time.perf_counter()
    value, error_estimate = quad_bessel_numeric(
        IntegralSpec(int(l1), int(l2), int(l3), int(l4), k1, k2)
    )
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(expected, rel=1e-7)
    assert error_estimate < 1e-6 * max(abs(expected), 1e-3)
    assert elapsed < 5.0


@pytest.mark.parametrize("args, expected", sorted(TRIPLE_REFERENCES.items()))
def test_oracle_reproduces_triple_references(args, expected):
    l1, l2, bridge, k1, k2, big_k = args
    value, _ = triple_bessel_numeric(int(l1), int(l2), int(bridge), k1, k2, big_k)
    assert value == pytest.approx(expected, rel=1e-7)


def test_oracle_triple_outside_support_is_tiny():
    value, _ = triple_bessel_numeric(0, 0, 0, 1.0, 2.0, 4.0)
    assert abs(value) < 5e-8


def test_oracle_triple_at_support_boundary_halves():
    # at K = k1 + k2 the step-function support factor contributes with half
    # weight, exactly like a Fourier series at a jump
    inside = triple_bessel_weighted(0, 0, 0, 1.0, 2.0, 2.9)
    boundary, _ = triple_bessel_numeric(0, 0, 0, 1.0, 2.0, 3.0)
    # inside value is pi/(4 k1 k2 K); rescale to the boundary K
    assert boundary == pytest.approx(inside * 2.9 / 3.0 / 2.0, rel=1e-6)


def test_oracle_detects_logarithmic_divergence():
    with pytest.raises(NoConvergence, match="diverges logarithmically"):
        triple_bessel_numeric(1, 2, 2, 1.0, 2.0, 3.0)


def test_oracle_near_degenerate_momenta_converge():
    for offset in (1e-10, 1e-6):
        spec = IntegralSpec(1, 0, 1, 0, 1.0, 1.0 + offset)
        value, error_estimate = quad_bessel_numeric(spec)
        assert error_estimate < 1e-8 * abs(value)
        # continuity: stays near the equal-momentum paired value 7pi/60 family
        assert value == pytest.approx(math.pi / 12.0, rel=1e-4)


def test_oracle_equal_momentum_grid_matches_paired_path():
    worst = 0.0
    for a in range(3):
        for b in range(3):
            spec = IntegralSpec(a, a, b, b, 1.0, 1.0)
            oracle_value, _ = quad_bessel_numeric(spec)
            analytic_value = evaluate(spec).value
            worst = max(worst, abs(oracle_value - analytic_value) / abs(analytic_value))
    assert worst < 1e-8


def test_oracle_self_consistent_under_config_changes():
    spec = IntegralSpec(2, 1, 1, 2, 1.0, 2.0)
    base, base_err = quad_bessel_numeric(spec)
    tight, tight_err = quad_bessel_numeric(spec, QuadratureConfig(rel_tol=1e-10))
    shorter, shorter_err = quad_bessel_numeric(spec, QuadratureConfig(max_radius=1500.0))
    assert tight == pytest.approx(base, abs=10 * (base_err + tight_err))
    assert shorter == pytest.approx(base, abs=10 * (base_err + shorter_err) + 1e-12)


def test_oracle_closure_identity():
    # integrating the squared weighted triple product over the allowed
    # momentum band reconstructs the four-Bessel value (orders all zero)
    k1, k2 = 1.0, 2.0
    lo, hi = abs(k1 - k2), k1 + k2
    half_width = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)

    def integrand(t):
        big_k = mid + half_width * t
        triple = triple_bessel_weighted(0, 0, 0, k1, k2, big_k)
        return big_k * big_k * triple * triple

    band = half_width * _reference_gauss_legendre(integrand, 40)
    assert (2.0 / math.pi) * band == pytest.approx(math.pi / 16.0, rel=1e-12)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_radius=-10.0)
    with pytest.raises(DomainError):
        QuadratureConfig(panels_per_period=1)
    with pytest.raises(DomainError):
        QuadratureConfig(acceleration_depth=-1)
    assert QuadratureConfig().resolved_radius(2.0) == pytest.approx(2000.0)
    assert QuadratureConfig(max_radius=77.0).resolved_radius(2.0) == 77.0


@settings(deadline=None, max_examples=25)
@given(
    order=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=1e-3, max_value=200.0),
)
def test_bessel_bounded_by_unity(order, x):
    # |j_n(x)| <= 1 everywhere, with j_0 attaining 1 only at the origin
    assert abs(spherical_bessel_j(order, x)) <= 1.0


def test_closed_forms_do_not_load_numpy():
    # numpy is imported on first oracle use; a process that only evaluates
    # closed forms never loads it. The test-only packages are blocked, so the
    # package and its oracle run on numpy alone.
    code = (
        "import sys; "
        "sys.modules.update(dict.fromkeys(('mpmath', 'scipy', 'hypothesis'))); "
        "import fourbessel, fourbessel.cli; "
        "fourbessel.evaluate(fourbessel.IntegralSpec(2, 1, 3, 0, 1.0, 2.0)); "
        "loaded = 'numpy' in sys.modules; "
        "fourbessel.quad_bessel_numeric(fourbessel.IntegralSpec(0, 0, 0, 0, 1.0, 2.0)); "
        "print(loaded, 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


# --------------------------------------------------------------------------
# the compiled trigonometric decomposition
# --------------------------------------------------------------------------


def _reference_decomposition(orders_slots, momenta):
    """The former per-call expansion: Rayleigh atoms multiplied in Fraction."""

    def add(series, label, kind, m, coeff):
        label, flip = _canonical(label)
        if kind == 1 and flip < 0:
            coeff = -coeff
        parts = series.setdefault(label, {})
        parts[(kind, m)] = parts.get((kind, m), Fraction(0)) + coeff

    def atom(n, slot):
        sin_part, cos_part = _rayleigh(n)
        k = Fraction(momenta[slot])
        label = tuple(1 if i == slot else 0 for i in range(len(momenta)))
        parts = {(0, power): Fraction(coeff) / k**power for power, coeff in cos_part}
        parts.update({(1, power): Fraction(coeff) / k**power for power, coeff in sin_part})
        return {label: parts}

    def multiply(sa, sb):
        out = {}
        for la, pa in sa.items():
            for lb, pb in sb.items():
                label_sum = tuple(x + y for x, y in zip(la, lb))
                label_diff = tuple(x - y for x, y in zip(la, lb))
                for (kind_a, ma), ca in pa.items():
                    for (kind_b, mb), cb in pb.items():
                        m = ma + mb
                        half = ca * cb / 2
                        if kind_a == 0 and kind_b == 0:
                            add(out, label_diff, 0, m, half)
                            add(out, label_sum, 0, m, half)
                        elif kind_a == 1 and kind_b == 1:
                            add(out, label_diff, 0, m, half)
                            add(out, label_sum, 0, m, -half)
                        elif kind_a == 1 and kind_b == 0:
                            add(out, label_sum, 1, m, half)
                            add(out, label_diff, 1, m, half)
                        else:
                            add(out, label_sum, 1, m, half)
                            add(out, label_diff, 1, m, -half)
        return out

    series = None
    for n, slot in orders_slots:
        factor = atom(n, slot)
        series = factor if series is None else multiply(series, factor)
    shifted = {}
    for label, parts in series.items():
        kept = {(kind, m - 2): c for (kind, m), c in parts.items() if c != 0}
        if kept:
            shifted[label] = kept
    return shifted


def _assert_compiled_equals_reference(orders_slots, momenta):
    compiled = _compile_decomposition(orders_slots, len(momenta))
    den, numerators = _component_numerators(compiled, momenta)
    reference = _reference_decomposition(orders_slots, momenta)
    # equal as Fractions and in the same order: the tail sums its components
    # in this order, so the order is part of the oracle's value
    exact = [
        (label, [(key, Fraction(n, den)) for key, n in parts.items()])
        for label, parts in numerators.items()
    ]
    assert exact == [(label, list(parts.items())) for label, parts in reference.items()]
    rounded = _decompose_weighted_product(orders_slots, momenta)
    assert rounded == {
        label: {key: float(c) for key, c in parts.items()} for label, parts in reference.items()
    }


@pytest.mark.parametrize("l1", range(5))
def test_compiled_decomposition_equals_per_call_expansion(l1):
    for l2, l3, l4 in itertools.product(range(5), repeat=3):
        orders_slots = ((l1, 0), (l2, 1), (l3, 0), (l4, 1))
        for momenta in ((2.5, 0.75), (0.3, 1.7), (1.3, 1.3), (1.1, 1.1 * (1 + 1e-9))):
            _assert_compiled_equals_reference(orders_slots, momenta)


def test_compiled_triple_decomposition_equals_per_call_expansion():
    for l1, l2, bridge in itertools.product(range(5), repeat=3):
        for momenta in ((1.0, 2.0, 2.5), (1.5, 1.5, 3.0), (0.3, 1.7, 1.2)):
            _assert_compiled_equals_reference(((l1, 0), (l2, 1), (bridge, 2)), momenta)


def test_oracle_compiles_each_order_tuple_once():
    before = _compile_decomposition.cache_info().misses
    for k2 in (1.5, 2.5, 3.5):
        quad_bessel_numeric(IntegralSpec(3, 2, 2, 1, 1.0, k2))
    assert _compile_decomposition.cache_info().misses - before <= 1


def _mellin_finite_part_over_pi(orders, k1, k2):
    """I / pi from the decomposition's Mellin finite part, in exact arithmetic.

    int_0^inf r^(s-1) {cos, sin}(w r) dr = Gamma(s) {cos, sin}(pi s / 2) w^-s,
    continued to s = 1 - m. Cosines with even m and sines with odd m give
    -(-1)^((m-2)/2) and sign(w) (-1)^((m-1)/2) times pi |w|^(m-1) / (2 (m-1)!);
    the other components leave poles and logarithms that cancel in the sum.
    """
    compiled = _compile_decomposition(tuple(zip(orders, (0, 1, 0, 1))), 2)
    den, numerators = _component_numerators(compiled, (k1, k2))
    total = Fraction(0)
    for (n1, n2), parts in numerators.items():
        omega = n1 * k1 + n2 * k2
        for (kind, m), numerator in parts.items():
            if kind == 0 and m % 2 == 0:
                assert m >= 2, "a non-decaying cosine component"
                sign = -((-1) ** ((m - 2) // 2))
            elif kind == 1 and m % 2 == 1:
                sign = (-1) ** ((m - 1) // 2) * ((omega > 0) - (omega < 0))
            else:
                continue
            total += sign * Fraction(numerator, den) * abs(omega) ** (m - 1) / (
                2 * math.factorial(m - 1)
            )
    return total


def test_mellin_finite_part_equals_laurent_kernel_exactly():
    # two independent exact routes to the closed form: the oracle's
    # trigonometric decomposition (no Wigner symbols) and the recoupled kernel,
    # read for k1 < k2 from the exchanged tuple (l2, l1, l4, l3) as evaluate
    # reads it; evaluate declines exactly the tuples that have no bridge order
    compared = declined = 0
    for orders in itertools.product(range(5), repeat=4):
        try:
            bridge = select_bridge_order(*orders)
        except NoValidBridge:
            with pytest.raises(NoValidBridge):
                evaluate(IntegralSpec(*orders, 1.0, 3.0))
            declined += 1
            continue
        assert evaluate(IntegralSpec(*orders, 1.0, 3.0)).bridge_L == bridge
        l1, l2, l3, l4 = orders
        _, k1_high = _laurent_kernel(*orders)
        _, k2_high = _laurent_kernel(l2, l1, l4, l3)
        for k1, k2 in (
            (Fraction(7, 4), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(7, 4)),
            (Fraction(5, 3), Fraction(5, 3)),
        ):
            branch, k_lo, k_hi = (k2_high, k1, k2) if k1 < k2 else (k1_high, k2, k1)
            t = k_lo / k_hi
            expected = Fraction(*_horner_exact(branch, t.numerator, t.denominator)) / k_hi**3
            assert _mellin_finite_part_over_pi(orders, k1, k2) == expected, (orders, k1, k2)
            compared += 1
    assert compared == 807 and declined == 356


# --------------------------------------------------------------------------
# the head
# --------------------------------------------------------------------------


def _panel_count(radius, omega_max, panels_per_period):
    return max(1, math.ceil(radius * omega_max / (2.0 * math.pi))) * panels_per_period


def _linspace_panels(radius, n_panels):
    """(centres, half-widths) of the former head's panels, cut from np.linspace edges."""
    edges = np.linspace(0.0, radius, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)


def _uniform_panels(radius, n_panels):
    """(centres, half-widths) of the head's panels: c_p = (p + 1/2) h."""
    width = radius / n_panels
    return (np.arange(n_panels) + 0.5) * width, np.full(n_panels, 0.5 * width)


def _reference_head_integral(factors, radius, omega_max, panels_per_period):
    """The former head: np.sin of every node, each Gauss rule and factor on its own."""
    centers, half_widths = _linspace_panels(
        radius, _panel_count(radius, omega_max, panels_per_period)
    )

    def panels(n_nodes):
        nodes, weights = _gauss_rule(n_nodes)
        r = centers[:, None] + half_widths[:, None] * nodes[None, :]
        f = r * r
        for n, k in factors:
            f = f * _reference_bessel_j(n, k * r)
        return float((f @ weights) @ half_widths)

    fine = panels(12)
    coarse = panels(8)
    return fine, abs(fine - coarse) + 1e-16 * abs(fine)


def _longdouble_head(factors, radius, omega_max, panels_per_period, panels, n_nodes=12):
    """(Gauss sum, its sum of |w f h|) in np.longdouble, by default of the fine rule.

    The panels are the float64 ones ``panels`` cuts, the nodes the float64
    Gauss nodes; only the arithmetic is extended.
    """
    ld = np.longdouble
    centers, half_widths = panels(radius, _panel_count(radius, omega_max, panels_per_period))
    nodes, weights = _gauss_rule(n_nodes)
    r = centers.astype(ld)[:, None] + half_widths.astype(ld)[:, None] * nodes.astype(ld)
    f = r * r
    for n, k in factors:
        f = f * _reference_bessel_j(n, ld(k) * r)
    terms = f * weights.astype(ld) * half_widths.astype(ld)[:, None]
    return terms.sum(), np.abs(terms).sum()


def _outcome(call, *args):
    try:
        return call(*args)
    except NoConvergence as exc:
        return "NoConvergence", exc.value, exc.error_estimate


# (orders, momenta, distinct momenta): the first two span 16 head blocks
_HEAD_QUAD_SPECS = [
    ((6, 6, 4, 4), (0.1, 10.0), 2),
    ((6, 6, 4, 4), (10.0, 0.1), 2),
    ((3, 5, 2, 4), (0.35, 2.9), 2),
    ((2, 1, 3, 0), (1.3, 1.3), 1),
    ((0, 0, 1, 1), (0.1, 0.1), 1),
]
_HEAD_TRIPLE_SPECS = [
    ((2, 3, 4), (0.1, 5.0, 5.05), 3),
    ((1, 1, 2), (1.5, 1.5, 2.0), 2),
    ((0, 2, 2), (0.2, 0.3, 0.2), 2),
]
_HEAD_SPECS = [*_HEAD_QUAD_SPECS, *_HEAD_TRIPLE_SPECS]


def _oracle_call(orders, momenta):
    if len(orders) == 4:
        return quad_bessel_numeric, (IntegralSpec(*orders, *momenta),)
    return triple_bessel_numeric, (*orders, *momenta)


def _head_arguments(orders, momenta, monkeypatch):
    """(factors, radius, omega_max, panels_per_period) of the spec's one head call."""
    heads = []
    head_integral = oracle._head_integral

    def recording(*args):
        heads.append(args)
        return head_integral(*args)

    call, args = _oracle_call(orders, momenta)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_head_integral", recording)
        _outcome(call, *args)
    (head_args,) = heads
    return head_args


def _momentum_groups(orders, momenta):
    """{k: [orders carried by k]} in factor order."""
    groups = {}
    for n, k in zip(orders, (*momenta, *momenta) if len(orders) == 4 else momenta):
        groups.setdefault(k, []).append(n)
    return groups


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0**-60, reason="np.longdouble is not wider than float64"
)
@pytest.mark.parametrize("orders, momenta, distinct", _HEAD_SPECS)
def test_head_is_accurate_against_extended_precision(orders, momenta, distinct, monkeypatch):
    factors, *panel_args = _head_arguments(orders, momenta, monkeypatch)
    head, estimate = oracle._head_integral(factors, *panel_args)
    former, _ = _reference_head_integral(factors, *panel_args)
    exact, magnitude = _longdouble_head(factors, *panel_args, _uniform_panels)
    former_exact, _ = _longdouble_head(factors, *panel_args, _linspace_panels)
    bound = 2.0**-50 * float(magnitude)
    error = abs(head - float(exact))
    assert error <= bound
    # the estimate is |fine - coarse| + 1e-16 |fine|: the coarse 8-node sum
    # is held to the same bound, relative to its own sum of |w f h|
    coarse, coarse_magnitude = _longdouble_head(factors, *panel_args, _uniform_panels, 8)
    exact_estimate = float(abs(exact - coarse) + 1e-16 * abs(exact))
    assert abs(estimate - exact_estimate) <= 2.0**-50 * float(magnitude + coarse_magnitude)
    # this also spans the two grids' rounding: linspace edges perturb each
    # half-width by up to n_panels ulps, 8.4e-16 of |w f h| on the 16-block specs
    assert abs(head - former) <= bound
    if _panel_count(*panel_args) > 15 * _HEAD_BLOCK_PANELS:
        # np.sin of the rounded k r loses up to half an ulp of k r ~ 6000
        # per node; the compensated phase does not
        assert error < abs(former - float(former_exact))


@pytest.mark.parametrize("orders, momenta, distinct", _HEAD_SPECS)
def test_oracle_values_move_only_at_rounding_level(orders, momenta, distinct, monkeypatch):
    call, args = _oracle_call(orders, momenta)
    now = _outcome(call, *args)
    monkeypatch.setattr(oracle, "_head_integral", _reference_head_integral)
    former = _outcome(call, *args)
    assert (now[0] == "NoConvergence") == (former[0] == "NoConvergence")
    value, former_value = now[-2], former[-2]
    k = momenta
    scale = math.pi / (4.0 * (k[0] * k[1] * max(k) if len(k) == 2 else math.prod(k)))
    bound = 1e-13 * max(abs(former_value), scale)
    assert abs(value - former_value) <= bound
    # the error estimate, which decides NoConvergence, moves no further
    assert abs(now[-1] - former[-1]) <= bound


@pytest.mark.parametrize("orders, momenta, distinct", _HEAD_SPECS)
def test_head_sweeps_once_per_momentum_per_block(orders, momenta, distinct, monkeypatch):
    calls = []
    sweep = oracle._bessel_sweep

    def counting(wanted, a, lowest, trig):
        calls.append((tuple(wanted), a.size))
        return sweep(wanted, a, lowest, trig)

    factors, *panel_args = _head_arguments(orders, momenta, monkeypatch)
    monkeypatch.setattr(oracle, "_bessel_sweep", counting)
    oracle._head_integral(factors, *panel_args)
    by_momentum = _momentum_groups(orders, momenta)
    n_panels = _panel_count(*panel_args)
    blocks = math.ceil(n_panels / _HEAD_BLOCK_PANELS)
    assert len(by_momentum) == distinct
    assert len(calls) == distinct * blocks
    # every panel once, at the 12 + 8 nodes of both rules
    assert sum(size for _, size in calls) == distinct * 20 * n_panels
    assert {n for n, _ in calls} == {tuple(sorted(set(g))) for g in by_momentum.values()}
    if 0.1 in momenta and distinct > 1:
        assert n_panels > 4 * _HEAD_BLOCK_PANELS


@pytest.mark.parametrize("orders, momenta, distinct", _HEAD_SPECS)
def test_head_takes_sin_and_cos_per_panel_and_per_node_only(
    orders, momenta, distinct, monkeypatch
):
    factors, *panel_args = _head_arguments(orders, momenta, monkeypatch)
    points = {"sin": 0, "cos": 0}

    def counting(name):
        function = getattr(np, name)

        def counted(x, *args, **kwargs):
            points[name] += np.size(x)
            return function(x, *args, **kwargs)

        return counted

    for name in points:
        monkeypatch.setattr(np, name, counting(name))
    oracle._head_integral(factors, *panel_args)
    expected = distinct * (_panel_count(*panel_args) + 20)
    assert points == {"sin": expected, "cos": expected}


def test_head_rejects_non_finite_arguments():
    # k1 * r overflows on a head that reaches r ~ 1e12
    with pytest.raises(DomainError, match="not finite"):
        quad_bessel_numeric(IntegralSpec(0, 0, 0, 0, 1e300, 1e-10))


@pytest.mark.parametrize("k", [1e300, 1e-300])
def test_oracle_out_of_range_momenta_raise_domain_error(k):
    # the tail's radius^(1-m) overflows at 1e300, the head's r^2 at 1e-300
    with pytest.raises(DomainError, match="float range"):
        quad_bessel_numeric(IntegralSpec(1, 1, 1, 1, k, k))
    with pytest.raises(DomainError, match="float range"):
        triple_bessel_numeric(1, 1, 0, k, k, k)


@pytest.mark.parametrize("k_lo", [1e-300, 1e-20])
def test_oracle_unallocatable_head_raises_domain_error(k_lo):
    # the head's panel count passes numpy's index range, so no memory is
    # requested; ratios from about 1e7 up to that range would really
    # allocate, so none of them is tried
    message = rf"momenta \({k_lo!r}, 1\.0\) are too far apart for the oracle"
    with pytest.raises(DomainError, match=message):
        quad_bessel_numeric(IntegralSpec(1, 1, 1, 1, k_lo, 1.0))
    with pytest.raises(DomainError, match=message):
        triple_bessel_numeric(1, 1, 0, k_lo, 1.0, 1.0)


_PRODUCT_SAMPLE = np.random.default_rng(20261018)
_PRODUCT_MOMENTA = 10.0 ** _PRODUCT_SAMPLE.uniform(-3.0, 3.0, 400)
_PRODUCT_CENTERS = np.concatenate(
    (
        [0.0, 1e6],
        10.0 ** _PRODUCT_SAMPLE.uniform(-6.0, 6.0, 198),
        _PRODUCT_SAMPLE.uniform(0.0, 1e6, 200),
    )
)


def test_two_product_is_exact():
    product, error = oracle._two_product(_PRODUCT_MOMENTA, _PRODUCT_CENTERS)
    for k, c, p, e in zip(_PRODUCT_MOMENTA, _PRODUCT_CENTERS, product, error):
        assert Fraction(p) + Fraction(e) == Fraction(k) * Fraction(c), (k, c)
        assert oracle._two_product(float(k), float(c)) == (p, e)


def test_compensated_panel_phase_matches_the_exact_product():
    mpmath = pytest.importorskip("mpmath")
    cases = [(float(k), _PRODUCT_CENTERS) for k in _PRODUCT_MOMENTA[:40]]
    # momenta whose splitting alone would overflow, at phases of order 100
    cases += [(1.5e300, np.array([4e-298, 7e-299])), (3e-300, np.array([2e301, 9e301]))]
    for k, centers in cases:
        sin_c, cos_c = oracle._sin_cos_of_product(k, centers)
        with mpmath.workprec(240):
            for c, s, co in zip(centers, sin_c, cos_c):
                phase = mpmath.mpf(k) * mpmath.mpf(float(c))
                assert abs(s - mpmath.sin(phase)) <= 2.0**-52, (k, c)
                assert abs(co - mpmath.cos(phase)) <= 2.0**-52, (k, c)
