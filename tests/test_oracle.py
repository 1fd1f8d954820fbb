"""Numerical oracle: Bessel evaluation, quadrature rules, tail handling."""
from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbessel.core import IntegralSpec
from fourbessel.errors import DomainError, NoConvergence
from fourbessel.oracle import (
    QuadratureConfig,
    gauss_legendre,
    quad_bessel_numeric,
    spherical_bessel_j,
    triple_bessel_numeric,
)
from fourbessel.quadbessel import evaluate, triple_bessel_weighted

from test_quadbessel import QUAD_REFERENCES, TRIPLE_REFERENCES


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


# --------------------------------------------------------------------------
# Gauss-Legendre helper
# --------------------------------------------------------------------------


def test_gauss_legendre_polynomial_exactness():
    assert gauss_legendre(lambda t: t * t, 2) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert gauss_legendre(lambda t: t ** 4, 3) == pytest.approx(2.0 / 5.0, rel=1e-14)
    assert gauss_legendre(np.cos, 7) == pytest.approx(2.0 * math.sin(1.0), rel=1e-14)


def test_gauss_legendre_accepts_scalar_only_integrands():
    def scalar_only(t):
        if isinstance(t, np.ndarray):
            raise TypeError("scalars only")
        return t * t

    assert gauss_legendre(scalar_only, 2) == pytest.approx(2.0 / 3.0, rel=1e-14)


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

    band = half_width * gauss_legendre(integrand, 40)
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
    # closed forms never loads it
    code = (
        "import sys, fourbessel, fourbessel.cli; "
        "fourbessel.evaluate(fourbessel.IntegralSpec(2, 1, 3, 0, 1.0, 2.0)); "
        "loaded = 'numpy' in sys.modules; "
        "fourbessel.quad_bessel_numeric(fourbessel.IntegralSpec(0, 0, 0, 0, 1.0, 2.0)); "
        "print(loaded, 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]
