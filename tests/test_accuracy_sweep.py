"""Seeded accuracy sweeps of legendre_p and spherical_bessel_j against mpmath.

Each value is held to the accuracy the README states for it, against a
reference that shares no code with the function. The sweeps of
assoc_legendre_gt1 and triple_bessel_weighted live beside their other tests.
"""
from __future__ import annotations

import numpy as np
import pytest

from fourbessel import legendre_p
from fourbessel.oracle import spherical_bessel_j

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
