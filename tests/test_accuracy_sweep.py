"""Seeded accuracy sweeps of evaluate, the oracle, legendre_p and spherical_bessel_j.

Each value is held to the accuracy the README states for it, against a
reference that shares no code with the function: the exact Mellin finite
part of the oracle's decomposition for evaluate, mpmath for legendre_p and
spherical_bessel_j. The oracle's own estimate must bound its error against
the exact closed forms. The sweeps of assoc_legendre_gt1 and
triple_bessel_weighted live beside their other tests.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fourbessel import IntegralSpec, evaluate, legendre_p
from fourbessel.errors import DomainError, NoConvergence, NoValidBridge
from fourbessel.oracle import (
    QuadratureConfig,
    quad_bessel_numeric,
    spherical_bessel_j,
    triple_bessel_numeric,
)
from fourbessel.wigner import wigner_3j_zero

from test_oracle import _PI, _mellin_finite_part_over_pi
from test_quadbessel import _reference_triple_over_pi

mpmath = pytest.importorskip("mpmath")

SEED = 20261019


def test_legendre_p_seeded_sweep_matches_mpmath():
    # degrees 0-300, x uniform on [-1, 1], 1e-12 to 0.1 from +-1, and the
    # endpoints and 0: within 3.5e-12 relative, absolute where |P| < 1e-3
    rng = np.random.default_rng(SEED)
    cases = [(int(rng.integers(0, 301)), float(rng.uniform(-1.0, 1.0))) for _ in range(2000)]
    for _ in range(600):
        near = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
        cases.append((int(rng.integers(0, 301)), float(near * rng.choice([-1.0, 1.0]))))
    cases += [(degree, x) for degree in (0, 1, 2, 150, 299, 300) for x in (-1.0, 0.0, 1.0)]
    worst = 0.0
    with mpmath.workdps(30):
        for degree, x in cases:
            exact = mpmath.legendre(degree, x)
            error = float(abs(legendre_p(degree, x) - exact) / max(abs(exact), 1e-3))
            assert error <= 3.5e-12, (degree, x, error)
            worst = max(worst, error)
    assert worst > 0.0


def test_spherical_bessel_j_seeded_sweep_matches_mpmath():
    # orders 0-120, x log-uniform on [1e-3, 1e3] and at the regime edges
    # x = 0.5 and x = n + 1. Below the first zero (x <= n + 1/2) j_n holds the
    # README's 1e-13 relative, one subnormal step in the subnormal range and
    # 0.0 below it. Past it, 1e-14 of the envelope sqrt(j_n^2 + y_n^2): the
    # upward recurrence starts at x = n + 1, where 4.7e-15 was seen.
    rng = np.random.default_rng(SEED + 1)
    cases = [(int(rng.integers(0, 121)), float(10.0 ** rng.uniform(-3.0, 3.0)))
             for _ in range(1400)]
    for _ in range(300):
        order = int(rng.integers(0, 121))
        edge = 0.5 if rng.uniform() < 0.5 else order + 1.0
        cases.append((order, float(edge * (1.0 + rng.uniform(-1e-6, 1e-6)))))
    counted = {"relative": 0, "subnormal": 0, "envelope": 0}
    with mpmath.workdps(30):
        for order, x in cases:
            point = mpmath.mpf(x)
            factor = mpmath.sqrt(mpmath.pi / (2 * point))
            exact = factor * mpmath.besselj(order + 0.5, point)
            got = spherical_bessel_j(order, x)
            error = abs(got - exact)
            if x > order + 0.5:
                envelope = mpmath.hypot(exact, factor * mpmath.bessely(order + 0.5, point))
                assert error <= 1e-14 * envelope, (order, x, got)
                counted["envelope"] += 1
            elif abs(exact) < 2.0**-1075:
                assert got == 0.0, (order, x, got)
            elif abs(exact) < 2.0**-1022:
                assert error <= 2.0**-1074, (order, x, got)
                counted["subnormal"] += 1
            else:
                assert error <= 1e-13 * abs(exact), (order, x, got)
                counted["relative"] += 1
    assert min(counted.values()) > 100, counted


def _has_bridge_order(l1, l2, l3, l4):
    """The rule evaluate states: an even order sum and overlapping triangle windows."""
    return (l1 + l2 + l3 + l4) % 2 == 0 and max(abs(l1 - l2), abs(l3 - l4)) <= min(
        l1 + l2, l3 + l4
    )


def test_evaluate_seeded_sweep_matches_the_mellin_finite_part():
    # orders 0-15 at momenta log-uniform on [0.01, 100]^2, a third of them
    # with k2 = k1 (1 +- 10^-u), u in [1, 12]; then both orientations of two
    # tuples above bridge order 13. Every value is within the README's 5e-13
    # relative of pi times the exact finite part at the same float momenta,
    # and evaluate refuses exactly the tuples without a bridge order.
    rng = np.random.default_rng(SEED + 2)
    specs, refused = [], 0
    while len(specs) < 150:
        orders = tuple(int(order) for order in rng.integers(0, 16, size=4))
        k1 = float(10.0 ** rng.uniform(-2.0, 2.0))
        if len(specs) % 3 == 2:
            k2 = float(k1 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 12.0)))
        else:
            k2 = float(10.0 ** rng.uniform(-2.0, 2.0))
        if _has_bridge_order(*orders):
            specs.append((orders, k1, k2))
        else:
            with pytest.raises(NoValidBridge):
                evaluate(IntegralSpec(*orders, k1, k2))
            refused += 1
    for orders in ((14, 0, 14, 0), (17, 3, 16, 4)):
        for _ in range(6):
            high, low = sorted(float(10.0 ** x) for x in rng.uniform(-2.0, 2.0, size=2))[::-1]
            specs += [(orders, high, low), (orders, low, high)]
    worst = 0.0
    for orders, k1, k2 in specs:
        value = evaluate(IntegralSpec(*orders, k1, k2)).value
        exact = _PI * _mellin_finite_part_over_pi(orders, Fraction(k1), Fraction(k2))
        if exact == 0:
            assert value == 0.0, (orders, k1, k2)
            continue
        error = float(abs(Fraction(value) - exact) / abs(exact))
        assert error <= 5e-13, (orders, k1, k2, value, error)
        worst = max(worst, error)
    assert refused > 100 and 0.0 < worst


def _oracle_sweep(cases, run, exact_over_pi):
    """(answered, refused, zeros, off) over the cases; every estimate must bound its error.

    A NoConvergence or DomainError is a refusal. ``zeros`` counts the answered
    cases whose exact value is zero, and ``off`` the others that are more than
    rel_tol off in relative terms.
    """
    rel_tol = QuadratureConfig().rel_tol
    answered = refused = zeros = off = 0
    for case in cases:
        try:
            value, estimate = run(*case)
        except (NoConvergence, DomainError):
            refused += 1
            continue
        answered += 1
        exact = _PI * exact_over_pi(*case)
        error = abs(Fraction(value) - exact)
        assert error <= estimate, (case, value, estimate, float(error))
        if exact == 0:
            zeros += 1
        elif error > rel_tol * abs(exact):
            off += 1
    return answered, refused, zeros, off


def test_quad_bessel_numeric_seeded_sweep_estimate_bounds_the_error():
    # even order sums of orders 0-8, k1 log-uniform on [0.01, 100]: half with
    # k2/k1 log-uniform up to 10^+-2.5, a quarter equal and a quarter with
    # k2 = k1 (1 +- 10^-u), u in [1, 12], against pi times the exact finite part
    rng = np.random.default_rng(SEED + 3)
    cases = []
    while len(cases) < 150:
        orders = tuple(int(order) for order in rng.integers(0, 9, size=4))
        if sum(orders) % 2:
            continue
        k1 = float(10.0 ** rng.uniform(-2.0, 2.0))
        slot = len(cases) % 4
        if slot == 2:
            k2 = k1
        elif slot == 3:
            k2 = float(k1 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 12.0)))
        else:
            k2 = float(k1 * 10.0 ** rng.uniform(-2.5, 2.5))
        cases.append((IntegralSpec(*orders, k1, k2),))
    counts = _oracle_sweep(
        cases,
        quad_bessel_numeric,
        lambda spec: _mellin_finite_part_over_pi(spec.orders, Fraction(spec.k1), Fraction(spec.k2)),
    )
    # All 150 are answered; 11 are zero by structure. The oracle certifies
    # against rel_tol * max(|value|, pi / (4 k1 k2 max k)), so a value far below
    # that floor passes more than rel_tol off while its estimate still bounds
    # the absolute error: 5 do, the worst 7.5e-6 relative at (0, 2, 4, 2).
    # ROADMAP item 4 (certify relative to |value|) must bring that 5 down to 0.
    assert counts == (150, 0, 11, 5)


def test_triple_bessel_numeric_seeded_sweep_estimate_bounds_the_error():
    # orders 0-8 with a nonzero 3j(l1, l2, L), k1 log-uniform on [0.01, 100],
    # k2/k1 log-uniform up to 10^+-2.5; K uniform inside the triangle
    # |k1 - k2| < K < k1 + k2 for three cases in four, else log-uniform on
    # [0.01, 100], mostly outside it, where the integral is zero
    rng = np.random.default_rng(SEED + 4)
    cases = []
    while len(cases) < 100:
        l1, l2, bridge = (int(order) for order in rng.integers(0, 9, size=3))
        if wigner_3j_zero(l1, l2, bridge).is_zero:
            continue
        k1 = float(10.0 ** rng.uniform(-2.0, 2.0))
        k2 = float(k1 * 10.0 ** rng.uniform(-2.5, 2.5))
        if len(cases) % 4:
            big_k = float(rng.uniform(abs(k1 - k2), k1 + k2))
        else:
            big_k = float(10.0 ** rng.uniform(-2.0, 2.0))
        cases.append((l1, l2, bridge, k1, k2, big_k))
    counts = _oracle_sweep(cases, triple_bessel_numeric, _reference_triple_over_pi)
    # all answered, 24 zero outside the triangle, and no nonzero value more
    # than rel_tol off; ROADMAP item 4 must keep the last count at 0
    assert counts == (100, 0, 24, 0)
