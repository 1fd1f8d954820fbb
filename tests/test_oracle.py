"""Numerical oracle: Bessel evaluation, quadrature rules, tail handling."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourbessel
from fourbessel import oracle
from fourbessel.core import IntegralSpec
from fourbessel.errors import DomainError, NoConvergence, NoValidBridge
from fourbessel.oracle import (
    _HEAD_BLOCK_PANELS,
    QuadratureConfig,
    _bessel_downward,
    _bessel_series,
    _bessel_sweep,
    _compile_decomposition,
    _component_numerators,
    _decompose_weighted_product,
    _gauss_rule,
    _hankel,
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
        out[small] = _bessel_series([1], arr[small])[0]
        rest = positive & ~small
        a = arr[rest]
        out[rest] = np.sin(a) / (a * a) - np.cos(a) / a
    else:
        small = arr < 0.5
        big = arr >= n + 1.0
        mid = ~small & ~big
        out[small] = _bessel_series([n], arr[small])[0]
        a = arr[big]
        prev = np.sin(a) / a
        cur = np.sin(a) / (a * a) - np.cos(a) / a
        for m in range(1, n):
            prev, cur = cur, (2 * m + 1) / a * cur - prev
        out[big] = cur
        if np.any(mid):
            out[mid] = _bessel_downward([n], arr[mid], np.sin(arr[mid]), np.cos(arr[mid]))[0]
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


def test_bessel_sweep_across_miller_starts():
    # orders 7, 8 and 40 start their downward recurrences at 32, 64 and 96;
    # each start is one recurrence, and every order keeps its own bits
    assert [oracle._miller_start(n) for n in (2, 7, 8, 30, 40)] == [32, 32, 64, 64, 96]
    x = np.concatenate([_SWEEP_POINTS, np.linspace(0.0, 45.0, 181)])
    orders = (2, 7, 8, 30, 40)
    for wanted in ((7, 8), (7, 40), orders):
        values = _sweep(wanted, x)
        for n in wanted:
            assert np.array_equal(values[n], spherical_bessel_j(n, x)), (wanted, n)
            assert np.array_equal(values[n], _reference_bessel_j(n, x)), (wanted, n)


@pytest.mark.parametrize(
    "stack",
    [
        ((1.0, (0, 7)), (0.37, (2, 8))),
        ((1.0, (7,)), (2.9, (8, 40))),
        ((1.0, (0, 1, 7)), (0.37, (8,)), (2.9, (2, 40))),
        ((0.37, (40,)), (1.0, (0,)), (2.9, (1, 7, 8))),
    ],
)
def test_bessel_sweep_over_stacked_momenta_is_pointwise(stack):
    # the head sweeps the arguments of all its momenta at once, with the
    # union of their orders: each momentum's points keep the bits of its own
    # sweep with its own orders, across Miller starts 32, 64 and 96
    x = np.concatenate([_SWEEP_POINTS, np.linspace(0.0, 45.0, 181)])
    union = [n for _, orders in stack for n in orders]
    together = _sweep(union, np.concatenate([k * x for k, _ in stack]))
    for i, (k, orders) in enumerate(stack):
        alone = _sweep(orders, k * x)
        for n in orders:
            assert np.array_equal(together[n][i * x.size : (i + 1) * x.size], alone[n]), (k, n)


def test_bessel_sweep_runs_one_series_pass_and_one_recurrence_per_start(monkeypatch):
    calls = {"series": [], "downward": []}

    def counting(name, function):
        def counted(orders, *args):
            calls[name].append(tuple(orders))
            return function(orders, *args)

        return counted

    monkeypatch.setattr(oracle, "_bessel_series", counting("series", oracle._bessel_series))
    monkeypatch.setattr(oracle, "_bessel_downward", counting("downward", oracle._bessel_downward))
    x = np.linspace(0.0, 45.0, 181)
    _sweep((5, 6), x)
    assert calls == {"series": [(5, 6)], "downward": [(5, 6)]}
    for made in calls.values():
        made.clear()
    _sweep((0, 1, 7, 40), x)
    assert calls == {"series": [(1, 7, 40)], "downward": [(7,), (40,)]}


def test_bessel_high_orders_match_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n in (60, 100, 150, 200):
            series = [1e-9, 0.01, 0.1, 0.3, 0.4999999]
            miller = np.linspace(0.5, n + 1.0, 97)[:-1].tolist() + [n + 0.999999]
            x = np.array(series + miller)
            for got, point in zip(spherical_bessel_j(n, x), x):
                t = mpmath.mpf(float(point))
                exact = mpmath.sqrt(mpmath.pi / (2 * t)) * mpmath.besselj(n + 0.5, t)
                if abs(exact) < 2.0**-1075:
                    # below the smallest subnormal
                    assert got == 0.0, (n, point)
                elif abs(exact) < 2.0**-1022:
                    # a subnormal carries no relative accuracy: one step of 2^-1074
                    assert abs(got - exact) <= 2.0**-1074, (n, point)
                else:
                    assert abs(got - exact) <= 1e-13 * abs(exact), (n, point)


def test_bessel_points_do_not_change_each_other():
    # a rescale of every point at once, when one passes the limit, underflows
    # the points with less growth to 0, and their normalisation is 0/0
    x = np.array([0.5, 20.0, 100.0, 190.0, 200.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = spherical_bessel_j(200, x)
    assert together.tolist() == [spherical_bessel_j(200, point) for point in x]
    assert together[0] == 0.0 and np.all(together[1:] > 0.0)
    x = np.linspace(0.5, 151.0, 400)
    assert np.array_equal(spherical_bessel_j(150, np.append(x, 0.5))[:-1], spherical_bessel_j(150, x))
    # (2n+1)!! overflows a float from n = 150; j_150(0.3) ~ 1e-387 underflows
    assert spherical_bessel_j(150, 0.3) == 0.0


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


def test_oracle_self_consistent_under_config_changes(monkeypatch):
    spec = IntegralSpec(2, 1, 1, 2, 1.0, 2.0)
    heads = []
    panels = []
    head_integral = oracle._head_integral

    def recording(factors, n_panels, width):
        heads.append(n_panels * width)
        panels.append(n_panels)
        return head_integral(factors, n_panels, width)

    monkeypatch.setattr(oracle, "_head_integral", recording)
    density = oracle._PANELS_PER_PERIOD
    base, base_err = quad_bessel_numeric(spec)
    tight, tight_err = quad_bessel_numeric(spec, QuadratureConfig(rel_tol=1e-10))
    monkeypatch.setattr(oracle, "_PANELS_PER_PERIOD", 7)
    denser, denser_err = quad_bessel_numeric(spec)
    monkeypatch.setattr(oracle, "_PANELS_PER_PERIOD", density)
    # a split radius forced to k_min R = 64, past the former fixed one
    monkeypatch.setattr(oracle, "_RUNGS", (64.0,))
    longer, longer_err = quad_bessel_numeric(spec)
    # the oracle scales the momenta to (0.5, 1.0), so k_min R = R / 2
    assert heads[0] / 2 <= 8.0 and heads[-1] / 2 == pytest.approx(64.0, rel=1e-12)
    # the denser head has 7 panels per period over the same split radius
    assert heads[2] == pytest.approx(heads[0], rel=1e-12) and density * panels[2] == 7 * panels[0]
    assert tight == pytest.approx(base, abs=10 * (base_err + tight_err))
    assert denser == pytest.approx(base, abs=10 * (base_err + denser_err))
    assert longer == pytest.approx(base, abs=10 * (base_err + longer_err) + 1e-12)


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
        QuadratureConfig(rel_tol=-1e-8)
    # an infinite tolerance never raises NoConvergence, and True is not 1.0
    for bad in (math.inf, math.nan, True):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=bad)
    assert QuadratureConfig(rel_tol=1).rel_tol == 1
    assert QuadratureConfig() == QuadratureConfig(1e-8)
    # the split radius is chosen by conditioning and the tails are exact:
    # the truncation radius and the averaging depth are gone, and the head's
    # panel density is a module constant, since a denser head certifies no more
    assert [field.name for field in dataclasses.fields(QuadratureConfig)] == ["rel_tol"]
    for gone in ("max_radius", "acceleration_depth", "panels_per_period"):
        with pytest.raises(TypeError):
            QuadratureConfig(**{gone: 1})


def test_estimate_failure_names_only_rel_tol(monkeypatch):
    # a head estimate past rel_tol of the value: rel_tol is the one setting
    # that can change the outcome, so the message advises nothing else
    spec = IntegralSpec(1, 1, 1, 1, 1.0, 2.0)
    value, _ = quad_bessel_numeric(spec)
    head_integral = oracle._head_integral
    monkeypatch.setattr(
        oracle, "_head_integral", lambda *args: (head_integral(*args)[0], 1e-3 * value)
    )
    with pytest.raises(NoConvergence) as caught:
        quad_bessel_numeric(spec)
    message = str(caught.value)
    assert "error estimate" in message and "rel_tol" in message
    assert "panel" not in message
    assert caught.value.value == value and caught.value.error_estimate > 1e-8 * value


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


def test_closed_forms_do_not_load_the_oracle():
    # import fourbessel binds the oracle's four public names on first read,
    # so a process that only evaluates closed forms never compiles oracle.py
    code = (
        "import sys, json; "
        "sys.modules.update(dict.fromkeys(('mpmath', 'scipy', 'hypothesis'))); "
        "import fourbessel; "
        "fourbessel.evaluate(fourbessel.IntegralSpec(2, 1, 3, 0, 1.0, 2.0)); "
        "loaded = [m for m in ('fourbessel.oracle', 'fourbessel.cli', 'numpy') if m in sys.modules]; "
        "listed = sorted(set(fourbessel.__all__) - set(dir(fourbessel))); "
        "namespace = {}; "
        "exec('from fourbessel import *', namespace); "
        "import fourbessel.oracle as oracle; "
        "lazy = ('QuadratureConfig', 'quad_bessel_numeric', 'spherical_bessel_j', "
        "'triple_bessel_numeric'); "
        "print(json.dumps({"
        "'loaded': loaded, 'unlisted': listed, "
        "'star': sorted(set(fourbessel.__all__) - namespace.keys()), "
        "'same': [getattr(fourbessel, n) is getattr(oracle, n) is namespace[n] for n in lazy], "
        "'cached': [n in vars(fourbessel) for n in lazy]}))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "loaded": [],
        "unlisted": [],
        "star": [],
        "same": [True] * 4,
        "cached": [True] * 4,
    }


def test_unknown_package_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fourbessel.no_such_name
    assert len(fourbessel.__all__) == 23
    assert {"QuadratureConfig", "quad_bessel_numeric"} <= set(dir(fourbessel))


# --------------------------------------------------------------------------
# the compiled trigonometric decomposition
# --------------------------------------------------------------------------


def _reference_rayleigh(n):
    """Integer coefficients of j_n(z) = sum a_i z^-i sin z + sum b_i z^-i cos z,
    as ({i: a_i}, {i: b_i}), by the recurrence j_(m+1) = (2m+1)/z j_m - j_(m-1)."""
    a_prev, b_prev = {1: 1}, {}
    if n == 0:
        return a_prev, b_prev
    a_cur, b_cur = {2: 1}, {1: -1}
    for m in range(1, n):
        a_nxt, b_nxt = {}, {}
        for src, dst in ((a_cur, a_nxt), (b_cur, b_nxt)):
            for power, coeff in src.items():
                dst[power + 1] = dst.get(power + 1, 0) + (2 * m + 1) * coeff
        for src, dst in ((a_prev, a_nxt), (b_prev, b_nxt)):
            for power, coeff in src.items():
                dst[power] = dst.get(power, 0) - coeff
        a_prev, b_prev = a_cur, b_cur
        a_cur = {p: c for p, c in a_nxt.items() if c}
        b_cur = {p: c for p, c in b_nxt.items() if c}
    return a_cur, b_cur


def _reference_canonical(label):
    """Canonical label (first nonzero entry positive) and the sign flip of its sines."""
    for entry in label:
        if entry > 0:
            return label, 1
        if entry < 0:
            return tuple(-e for e in label), -1
    return label, 1


def test_hankel_coefficients_equal_the_rayleigh_recurrence():
    # Re sum_k c_k z^-(k+1) e^(iz) = sum_k (Re c_k cos z - Im c_k sin z) z^-(k+1)
    for n in range(41):
        sin_part, cos_part = _reference_rayleigh(n)
        coefficients = _hankel(n)
        assert len(coefficients) == n + 1
        for k, (re, im) in enumerate(coefficients):
            assert (re, im) == (cos_part.get(k + 1, 0), -sin_part.get(k + 1, 0)), (n, k)
        assert set(sin_part) | set(cos_part) <= set(range(1, n + 2))


def _reference_decomposition(orders_slots, momenta):
    """The former per-call expansion: Rayleigh atoms multiplied in Fraction
    by the product-to-sum identities."""

    def add(series, label, kind, m, coeff):
        label, flip = _reference_canonical(label)
        if kind == 1 and flip < 0:
            coeff = -coeff
        parts = series.setdefault(label, {})
        parts[(kind, m)] = parts.get((kind, m), Fraction(0)) + coeff

    def atom(n, slot):
        sin_part, cos_part = _reference_rayleigh(n)
        k = Fraction(momenta[slot])
        label = tuple(1 if i == slot else 0 for i in range(len(momenta)))
        parts = {(0, power): Fraction(coeff) / k**power for power, coeff in cos_part.items()}
        parts.update({(1, power): Fraction(coeff) / k**power for power, coeff in sin_part.items()})
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
    # the zero label's sines multiply sin(0 r): the compiled form drops them
    zero = (0,) * len(momenta)
    if zero in reference:
        reference[zero] = {key: c for key, c in reference[zero].items() if key[0] == 0}
        if not reference[zero]:
            del reference[zero]
    # equal as Fractions, label by label; the order is free, because the tail
    # sums its values and its bounds with math.fsum
    exact = {
        label: {key: Fraction(n, den) for key, n in parts.items()}
        for label, parts in numerators.items()
    }
    assert exact == reference
    rounded = _decompose_weighted_product(orders_slots, momenta)
    assert rounded == {
        label: {key: float(c) for key, c in parts.items()} for label, parts in reference.items()
    }


# the order tuples of perfbench's oracle-certify workload, and those of them
# with orders 5 and 6
_ORACLE_CERTIFY_TUPLES = (
    (0, 0, 1, 1), (1, 0, 1, 2), (2, 1, 3, 0), (2, 2, 3, 3),
    (4, 1, 2, 3), (3, 5, 2, 4), (6, 2, 5, 1), (6, 6, 4, 4),
    (0, 0, 0, 1), (1, 0, 2, 0), (2, 1, 1, 1), (3, 0, 2, 2),
    (4, 1, 3, 1), (5, 2, 0, 4), (6, 3, 2, 4), (6, 5, 6, 4),
)
_HIGH_ORDER_TUPLES = tuple(orders for orders in _ORACLE_CERTIFY_TUPLES if max(orders) >= 5)


@pytest.mark.parametrize("l1", range(5))
def test_compiled_decomposition_equals_per_call_expansion(l1):
    tuples = list(itertools.product([l1], range(5), range(5), range(5)))
    # each high-order tuple runs in one of the five slices
    tuples += [orders for orders in _HIGH_ORDER_TUPLES if orders[0] % 5 == l1]
    for orders in tuples:
        orders_slots = tuple(zip(orders, (0, 1, 0, 1)))
        for momenta in ((2.5, 0.75), (0.3, 1.7), (1.3, 1.3), (1.1, 1.1 * (1 + 1e-9))):
            _assert_compiled_equals_reference(orders_slots, momenta)


def test_compiled_triple_decomposition_equals_per_call_expansion():
    for l1, l2, bridge in itertools.product(range(5), repeat=3):
        for momenta in ((1.0, 2.0, 2.5), (1.5, 1.5, 3.0), (0.3, 1.7, 1.2)):
            _assert_compiled_equals_reference(((l1, 0), (l2, 1), (bridge, 2)), momenta)


def _fraction_coefficients(compiled, momenta):
    """{label: {(kind, m): sum_e n_e / D prod k_i^(-e_i)}} of a compiled
    decomposition, every term a Fraction of its own, zeros pruned."""
    den, _, vectors, components = compiled
    exact = [Fraction(k) for k in momenta]
    out = {}
    for label, parts in components:
        kept = {}
        for key, terms in parts:
            value = sum(
                Fraction(coeff, den) * math.prod(k**-e for k, e in zip(exact, vectors[j]))
                for j, coeff in terms
            )
            if value:
                kept[key] = value
        if kept:
            out[label] = kept
    return out


def _numerator_momenta(rng, n_slots):
    """Seeded momenta: log-uniform, equal, near-equal, one 1e-20 to 1e-300
    times the rest, and one subnormal."""
    k = [float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, n_slots)]
    near = k[0] * (1.0 + 10.0 ** -rng.uniform(1.0, 9.0))
    far = k[0] * 10.0 ** -rng.uniform(20.0, 300.0)
    tiny = math.ldexp(rng.uniform(0.5, 1.0), -int(rng.integers(1023, 1074)))
    return [tuple(k), (k[0],) * n_slots, (k[0], near, *k[2:]), (far, *k[1:]), (*k[:-1], tiny)]


def test_component_numerators_equal_the_fraction_sum():
    rng = np.random.default_rng(20261023)
    cases = [(tuple(zip(orders, (0, 1, 0, 1))), 2) for orders in _ORACLE_CERTIFY_TUPLES]
    cases += [
        (((l1, 0), (l2, 1), (bridge, 2)), 3) for l1, l2, bridge in itertools.product(range(4), repeat=3)
    ]
    for orders_slots, n_slots in cases:
        compiled = _compile_decomposition(orders_slots, n_slots)
        for momenta in [*_numerator_momenta(rng, n_slots), (5e-324,) + (1.0,) * (n_slots - 1)]:
            den, numerators = _component_numerators(compiled, momenta)
            exact = {
                label: {key: Fraction(n, den) for key, n in parts.items()}
                for label, parts in numerators.items()
            }
            assert exact == _fraction_coefficients(compiled, momenta), (orders_slots, momenta)


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


def _linspace_panels(n_panels, width):
    """(centres, half-widths) of the former head's panels, cut from np.linspace edges."""
    edges = np.linspace(0.0, n_panels * width, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)


def _uniform_panels(n_panels, width):
    """(centres, half-widths) of the head's panels: c_p = (p + 1/2) h."""
    return (np.arange(n_panels) + 0.5) * width, np.full(n_panels, 0.5 * width)


def _rounding_units(factors, n_panels):
    """The head's rounding bound in units of 2^-53 of its fine sum of |w f h|."""
    return 32 + len(factors) + n_panels.bit_length() + 3 * sum(n + 1 for n, _ in factors)


def _reference_head_integral(factors, n_panels, width):
    """The former head: np.sin of every node, each Gauss rule and factor on its own."""
    centers, half_widths = _linspace_panels(n_panels, width)

    def panels(n_nodes):
        nodes, weights = _gauss_rule(n_nodes)
        r = centers[:, None] + half_widths[:, None] * nodes[None, :]
        f = r * r
        for n, k in factors:
            f = f * _reference_bessel_j(n, k * r)
        return float((f @ weights) @ half_widths), float((np.abs(f) @ weights) @ half_widths)

    fine, size = panels(12)
    coarse, _ = panels(8)
    return fine, abs(fine - coarse) + _rounding_units(factors, n_panels) * 2.0**-53 * size


def _longdouble_head(factors, n_panels, width, panels, n_nodes=12):
    """(Gauss sum, its sum of |w f h|) in np.longdouble, by default of the fine rule.

    The panels are the float64 ones ``panels`` cuts, the nodes the float64
    Gauss nodes; only the arithmetic is extended.
    """
    ld = np.longdouble
    centers, half_widths = panels(n_panels, width)
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


# (orders, momenta, distinct momenta): at the former split radius the first
# two span 8 head blocks and the first triple 5
_HEAD_QUAD_SPECS = [
    ((6, 6, 4, 4), (0.1, 10.0), 2),
    ((6, 6, 4, 4), (10.0, 0.1), 2),
    ((3, 5, 2, 4), (0.35, 2.9), 2),
    ((2, 1, 3, 0), (1.3, 1.3), 1),
    ((0, 0, 1, 1), (0.1, 0.1), 1),
]
_HEAD_TRIPLE_SPECS = [
    ((2, 3, 4), (0.1, 8.0, 8.05), 3),
    ((1, 1, 2), (1.5, 1.5, 2.0), 2),
    ((0, 2, 2), (0.2, 0.3, 0.2), 2),
]
_HEAD_SPECS = [*_HEAD_QUAD_SPECS, *_HEAD_TRIPLE_SPECS]


def _oracle_call(orders, momenta):
    if len(orders) == 4:
        return quad_bessel_numeric, (IntegralSpec(*orders, *momenta),)
    return triple_bessel_numeric, (*orders, *momenta)


def _head_arguments(orders, momenta):
    """(factors, n_panels, width) of a head at the former fixed split radius.

    That radius, (40 + lam (lam + 1) / 2) / k_min with lam the largest order,
    is 5 to 30 times the one the oracle now chooses: its heads cross block
    boundaries, 8 blocks on the first two specs.
    """
    slots = (0, 1, 0, 1) if len(orders) == 4 else (0, 1, 2)
    factors = [(n, momenta[slot]) for n, slot in zip(orders, slots)]
    lam = max(orders)
    radius = (40.0 + 0.5 * lam * (lam + 1)) / min(momenta)
    omega_max = math.fsum(k for _, k in factors)
    return (factors, *oracle._head_grid(factors, radius, omega_max))


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
def test_head_is_accurate_against_extended_precision(orders, momenta, distinct):
    factors, *panel_args = _head_arguments(orders, momenta)
    head, estimate = oracle._head_integral(factors, *panel_args)
    former, _ = _reference_head_integral(factors, *panel_args)
    exact, magnitude = _longdouble_head(factors, *panel_args, _uniform_panels)
    former_exact, _ = _longdouble_head(factors, *panel_args, _linspace_panels)
    bound = 2.0**-50 * float(magnitude)
    error = abs(head - float(exact))
    assert error <= bound
    # the estimate is |fine - coarse| plus the rounding units times 2^-53 of
    # the fine sum of |w f h|: the coarse 8-node sum is held to the same
    # bound, relative to its own sum of |w f h|
    coarse, coarse_magnitude = _longdouble_head(factors, *panel_args, _uniform_panels, 8)
    units = _rounding_units(factors, panel_args[0])
    exact_estimate = float(abs(exact - coarse) + units * 2.0**-53 * magnitude)
    assert abs(estimate - exact_estimate) <= 2.0**-50 * float(magnitude + coarse_magnitude)
    # the exact centres make the linspace edges exact too: the former panels
    # are the same panels
    assert np.array_equal(
        np.concatenate(_linspace_panels(*panel_args)), np.concatenate(_uniform_panels(*panel_args))
    )
    # np.sin of the rounded k r loses up to half an ulp of k r ~ 6000 per
    # node; the compensated phase does not. The former head is held to the
    # bound plus its own error against the same panels in extended precision
    former_error = abs(former - float(former_exact))
    assert abs(head - former) <= bound + former_error
    if panel_args[0] > 7 * _HEAD_BLOCK_PANELS:
        assert error < former_error


def _density_specs():
    """Seeded (orders, k1, k2): 12 tuples of orders 0-8, both order-sum
    parities, each at equal and near-equal momenta, at a log-uniform ratio
    from 1 to 100 and at a ratio of 100 the other way round."""
    rng = np.random.default_rng(20261022)
    specs = []
    for parity in (0, 1) * 6:
        orders = [int(n) for n in rng.integers(0, 9, 4)]
        if sum(orders) % 2 != parity:
            orders[3] += 1 if orders[3] < 8 else -1
        k = 10.0 ** rng.uniform(-1.0, 1.0)
        near = k * (1.0 + 10.0 ** -rng.uniform(1.0, 9.0))
        apart = k * 10.0 ** rng.uniform(0.0, 2.0)
        pairs = ((k, k), (k, near), (k, apart), (100.0 * k, k))
        specs += [(tuple(orders), k1, k2) for k1, k2 in pairs]
    return specs


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0**-60, reason="np.longdouble is not wider than float64"
)
def test_head_density_leaves_the_estimate_almost_all_rounding_bound(monkeypatch):
    # on the heads the oracle chooses, the fine and coarse Gauss sums agree to
    # a quarter of the head's rounding bound: a denser grid would certify no
    # more. At one panel per period they differ by 36 bounds in the median
    heads = []
    head_integral = oracle._head_integral

    def recording(factors, n_panels, width):
        heads.append((factors, n_panels, width))
        return head_integral(factors, n_panels, width)

    monkeypatch.setattr(oracle, "_head_integral", recording)
    specs = _density_specs()
    for orders, k1, k2 in specs:
        _outcome(quad_bessel_numeric, IntegralSpec(*orders, k1, k2))
    assert len(heads) == len(specs)
    for factors, n_panels, width in heads:
        fine, magnitude = _longdouble_head(factors, n_panels, width, _uniform_panels)
        coarse, _ = _longdouble_head(factors, n_panels, width, _uniform_panels, 8)
        bound = _rounding_units(factors, n_panels) * 2.0**-53 * magnitude
        assert abs(fine - coarse) <= 0.25 * bound, (factors, n_panels)


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
def test_head_sweeps_once_per_block_for_all_momenta(orders, momenta, distinct, monkeypatch):
    calls = []
    sweep = oracle._bessel_sweep

    def counting(wanted, a, lowest, trig):
        calls.append((tuple(wanted), a.copy(), lowest))
        return sweep(wanted, a, lowest, trig)

    factors, n_panels, width = _head_arguments(orders, momenta)
    monkeypatch.setattr(oracle, "_bessel_sweep", counting)
    oracle._head_integral(factors, n_panels, width)
    by_momentum = _momentum_groups(orders, momenta)
    assert len(by_momentum) == distinct
    # one sweep per block, a block holding _HEAD_BLOCK_PANELS // distinct panels
    assert len(calls) == math.ceil(n_panels / (_HEAD_BLOCK_PANELS // distinct))
    # each with the union of the orders, and no more points than one
    # momentum's full block: the temporaries stay at 80 kB
    assert {wanted for wanted, _, _ in calls} == {tuple(sorted(set(orders)))}
    assert max(a.size for _, a, _ in calls) <= 20 * _HEAD_BLOCK_PANELS
    assert all(lowest == a.min() for _, a, lowest in calls)
    # every panel's 12 + 8 nodes once per distinct momentum, at k (c_p + o_j)
    nodes = np.concatenate((_gauss_rule(12)[0], _gauss_rule(8)[0]))
    r = np.add.outer((0.5 * width) * nodes, (np.arange(n_panels) + 0.5) * width)
    expected = np.concatenate([k * r.reshape(-1) for k in by_momentum])
    swept = np.concatenate([a for _, a, _ in calls])
    assert np.array_equal(np.sort(swept), np.sort(expected))
    if 0.1 in momenta and distinct > 1:
        assert n_panels > 4 * _HEAD_BLOCK_PANELS


@pytest.mark.parametrize("orders, momenta, distinct", _HEAD_SPECS)
def test_head_takes_sin_and_cos_per_panel_and_per_node_only(
    orders, momenta, distinct, monkeypatch
):
    factors, n_panels, width = _head_arguments(orders, momenta)
    points = {"sin": 0, "cos": 0}

    def counting(name):
        function = getattr(np, name)

        def counted(x, *args, **kwargs):
            points[name] += np.size(x)
            return function(x, *args, **kwargs)

        return counted

    for name in points:
        monkeypatch.setattr(np, name, counting(name))
    oracle._head_integral(factors, n_panels, width)
    expected = distinct * (n_panels + 20)
    assert points == {"sin": expected, "cos": expected}


def test_head_rejects_non_finite_arguments():
    # k1 * r overflows on a head that reaches r ~ 1e12: no panel count covers it
    with pytest.raises(DomainError, match=r"momenta \(1e\+300, 1e-10\) are too far apart"):
        quad_bessel_numeric(IntegralSpec(0, 0, 0, 0, 1e300, 1e-10))


@pytest.mark.parametrize("k", [1e300, 1e-300])
def test_oracle_out_of_range_momenta_raise_domain_error(k):
    # the momenta are scaled into [1, 2) and the value back by 2^(3e): it
    # underflows the normal floats at 1e300 and overflows at 1e-300, where
    # evaluate raises DomainError too
    with pytest.raises(DomainError, match="float range"):
        quad_bessel_numeric(IntegralSpec(1, 1, 1, 1, k, k))
    with pytest.raises(DomainError, match="float range"):
        triple_bessel_numeric(1, 1, 0, k, k, k)
    with pytest.raises(DomainError, match="float range"):
        evaluate(IntegralSpec(1, 1, 1, 1, k, k))


def test_oracle_answers_where_evaluate_does_at_small_momenta():
    # at k1 = k2 = 1e-50 the value is 3.665e149; the oracle's own head and
    # tail at those momenta would leave the float range
    spec = IntegralSpec(1, 1, 1, 1, 1e-50, 1e-50)
    value, estimate = quad_bessel_numeric(spec)
    exact = evaluate(spec).value
    assert exact == pytest.approx(3.665191429188092e149, rel=1e-15)
    assert abs(value - exact) <= min(estimate, 1e-8 * exact)


@pytest.mark.parametrize("e", [-300, -60, -7, -1, 1, 9, 300])
def test_oracle_scales_exactly_by_powers_of_two(e):
    # I(2^e k1, 2^e k2) = 2^(-3e) I(k1, k2), bit for bit: both calls scale
    # their momenta to the same pair in [1, 2)
    for orders, k1, k2 in (((1, 0, 1, 2), 1.3, 0.4), ((2, 1, 1, 1), 0.7, 1.9)):
        value, estimate = quad_bessel_numeric(IntegralSpec(*orders, k1, k2))
        scaled = quad_bessel_numeric(IntegralSpec(*orders, math.ldexp(k1, e), math.ldexp(k2, e)))
        assert scaled == (math.ldexp(value, -3 * e), math.ldexp(estimate, -3 * e))
    value, estimate = triple_bessel_numeric(1, 2, 3, 0.9, 1.2, 1.6)
    scaled = triple_bessel_numeric(1, 2, 3, *(math.ldexp(k, e) for k in (0.9, 1.2, 1.6)))
    assert scaled == (math.ldexp(value, -3 * e), math.ldexp(estimate, -3 * e))


@pytest.mark.parametrize("k_lo", [1e-300, 1e-20])
def test_oracle_unallocatable_head_raises_domain_error(k_lo):
    # the head's panel count passes the 2^51 that a grid of exact centres can
    # lay out, so no memory is requested; ratios from about 1e7 up to that
    # range would really allocate, so none of them is tried
    message = rf"momenta \({k_lo!r}, 1\.0\) are too far apart for the oracle"
    with pytest.raises(DomainError, match=message):
        quad_bessel_numeric(IntegralSpec(1, 1, 1, 1, k_lo, 1.0))
    with pytest.raises(DomainError, match=message):
        triple_bessel_numeric(1, 1, 0, k_lo, 1.0, 1.0)
    # a ratio past the float range leaves the head's argument k * r infinite
    message = r"momenta \(1e\+200, 1e-110\) are too far apart for the oracle"
    with pytest.raises(DomainError, match=message):
        quad_bessel_numeric(IntegralSpec(0, 0, 0, 0, 1e200, 1e-110))


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


def test_panel_phase_of_a_column_of_momenta_is_each_momentum_s_own():
    column = _PRODUCT_MOMENTA[:, None]
    sin_c, cos_c = oracle._sin_cos_of_product(column, _PRODUCT_CENTERS)
    assert sin_c.shape == cos_c.shape == (len(_PRODUCT_MOMENTA), len(_PRODUCT_CENTERS))
    for k, sin_row, cos_row in zip(_PRODUCT_MOMENTA, sin_c, cos_c):
        sin_k, cos_k = oracle._sin_cos_of_product(float(k), _PRODUCT_CENTERS)
        assert np.array_equal(sin_row, sin_k) and np.array_equal(cos_row, cos_k), k
    # the head's (momenta x 1 x 1) column gives one (1 x panels) row each
    sin_c, _ = oracle._sin_cos_of_product(column[:3, :, None], _PRODUCT_CENTERS)
    assert np.array_equal(sin_c[:, 0], oracle._sin_cos_of_product(column[:3], _PRODUCT_CENTERS)[0])


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


# --------------------------------------------------------------------------
# the exact tails, the split radius and the error estimate
# --------------------------------------------------------------------------


def test_tail_rules_match_mpmath():
    # int_R^inf r^-m {cos, sin}(omega r) dr = R^(1-m) {Re, Im} E_m(-i omega R)
    # for m = 1..30 and omega R from 1e-3 to 1e4: the series seed up to
    # omega R = 1.5, one continued fraction above it. Over 141 log-spaced
    # phases the worst error measured relative to |E_m| was 8.1e-15 (m = 9,
    # omega R = 2.5); the tolerance is 2e-14. Every error is within the
    # reported bound.
    mpmath = pytest.importorskip("mpmath")
    phases = [*np.logspace(-3.0, 4.0, 15), 1.5, 1.5000001, 1.6]
    worst = 0.0
    with mpmath.workdps(30):
        for x in phases:
            for radius in (3.7,):
                omega = float(x) / radius
                phase = mpmath.mpf(omega) * radius
                for m in range(1, 31):
                    exact = mpmath.expint(m, mpmath.mpc(0, -phase)) * mpmath.mpf(radius) ** (1 - m)
                    for kind, part in ((0, exact.real), (1, exact.imag)):
                        value, bound = oracle._integrate_tail({(1,): {(kind, m): 1.0}}, (omega,), radius)
                        error = float(abs(value - part))
                        assert error <= bound, (x, radius, m, kind)
                        worst = max(worst, error / float(abs(exact)))
    assert worst < 2e-14


def test_continued_fraction_that_does_not_converge_raises(monkeypatch):
    # at omega R = 1.6 the continued fraction needs about 117 steps
    monkeypatch.setattr(oracle, "_LENTZ_STEPS", 20)
    with pytest.raises(NoConvergence, match="did not converge in 20 steps"):
        oracle._integrate_tail({(1,): {(0, 2): 1.0}}, (1.6,), 1.0)
    with pytest.raises(NoConvergence, match="did not converge"):
        quad_bessel_numeric(IntegralSpec(0, 0, 0, 0, 1.0, 2.0))


@pytest.mark.parametrize("gap", [1e-2, 1e-7, 1e-12])
def test_oracle_matches_evaluate_as_the_momenta_meet(gap):
    # the closed form is exact at k1 = k2 at every bridge order, and the
    # oracle, which knows nothing of it, agrees with it as the gap closes
    spec = IntegralSpec(2, 0, 0, 2, 2.0, 2.0 * (1.0 + gap))
    value, _ = quad_bessel_numeric(spec, QuadratureConfig(rel_tol=1e-8))
    assert evaluate(spec).value == pytest.approx(value, rel=1e-7)


# pi to 36 digits, so that an even-sum error is measured in exact arithmetic
_PI = Fraction(3141592653589793238462643383279502884, 10**36)

# the two specs that returned values more than rel_tol off without raising,
# both far corners of (6, 6, 4, 4), and odd order sums (no bridge order)
_ESTIMATE_SPECS = [
    ((1, 0, 1, 2), 10.0, 0.1),
    ((2, 1, 3, 0), 3.9326437915057024, 3.4405122239046926),
    ((6, 6, 4, 4), 0.1, 10.0),
    ((6, 6, 4, 4), 10.0, 0.1),
    ((4, 1, 2, 3), 10.0, 0.1),
    ((0, 0, 0, 1), 1.0, 2.0),
    ((1, 0, 2, 0), 0.3, 3.0),
    ((3, 0, 2, 2), 1.7, 1.7),
    ((6, 5, 6, 4), 2.0, 0.7),
    ((5, 2, 0, 4), 0.1, 10.0),
]


def _mellin_finite_part_mp(orders, k1, k2, mpmath):
    """I from the decomposition's Mellin finite part, logarithms included, in mpmath.

    With N = m - 1 and sigma = sign(omega), the finite part of
    int_0^inf r^-m e^(i omega r) dr is (-1)^N / N! e^(-i pi sigma N / 2)
    |omega|^N (H_N + i pi sigma / 2 - log|omega|), less a gamma-constant
    times the pole residue; both cancel in the sum over components.
    """
    den, numerators = _component_numerators(
        _compile_decomposition(tuple(zip(orders, (0, 1, 0, 1))), 2), (k1, k2)
    )
    total = mpmath.mpf(0)
    for (n1, n2), parts in numerators.items():
        omega = n1 * mpmath.mpf(k1) + n2 * mpmath.mpf(k2)
        if omega == 0:
            continue
        sigma = 1 if omega > 0 else -1
        for (kind, m), numerator in parts.items():
            n = m - 1
            finite = (
                (-1) ** n / mpmath.factorial(n) * mpmath.expjpi(-sigma * n / mpmath.mpf(2))
                * abs(omega) ** n
                * (mpmath.harmonic(n) + 0.5j * sigma * mpmath.pi - mpmath.log(abs(omega)))
            )
            total += mpmath.mpf(numerator) / den * (finite.imag if kind else finite.real)
    return total


@pytest.mark.parametrize("orders, k1, k2", _ESTIMATE_SPECS)
def test_oracle_estimate_bounds_the_actual_error(orders, k1, k2):
    value, estimate = quad_bessel_numeric(IntegralSpec(*orders, k1, k2))
    if sum(orders) % 2 == 0:
        exact = _PI * _mellin_finite_part_over_pi(orders, Fraction(k1), Fraction(k2))
        error = abs(Fraction(value) - exact)
    else:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            exact = _mellin_finite_part_mp(orders, k1, k2, mpmath)
            error = abs(mpmath.mpf(value) - exact)
    assert error <= estimate
    assert error <= 1e-8 * abs(exact)


def test_mellin_finite_part_with_logarithms_matches_the_exact_even_sums():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        for orders, k1, k2 in _ESTIMATE_SPECS:
            if sum(orders) % 2 == 0:
                fraction = _mellin_finite_part_over_pi(orders, Fraction(k1), Fraction(k2))
                exact = mpmath.pi * fraction.numerator / fraction.denominator
                got = _mellin_finite_part_mp(orders, k1, k2, mpmath)
                assert abs(got - exact) <= mpmath.mpf(10) ** -25 * abs(exact), orders
