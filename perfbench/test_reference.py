"""Tests of the benchmark's exact reference, its workloads and its tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest

import reference
import workloads
from fourbessel import IntegralSpec, quad_bessel_numeric, quad_bessel_paired
from tracer import Tracer


def _separated_specs(parity: int, count: int, seed: int):
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        orders = tuple(rng.randint(0, 6) for _ in range(4))
        k1, k2 = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1)
        if sum(orders) % 2 == parity and max(k1, k2) / min(k1, k2) > 1.3:
            specs.append((orders, k1, k2))
    return specs


def test_rayleigh_form_matches_spherical_bessel():
    with mpmath.workdps(60):
        for n in range(14):
            sin_part, cos_part = reference.rayleigh(n)
            for x in (mpmath.mpf("0.7"), mpmath.mpf(3), mpmath.mpf("11.5")):
                rayleigh = sum(c * x**-i for i, c in sin_part.items()) * mpmath.sin(x)
                rayleigh += sum(c * x**-i for i, c in cos_part.items()) * mpmath.cos(x)
                bessel = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(n + 0.5, x)
                assert abs(rayleigh - bessel) <= mpmath.mpf(10) ** -25 * abs(bessel)


@pytest.mark.parametrize("parity", [0, 1])
def test_agrees_with_oracle_within_its_estimate(parity):
    for orders, k1, k2 in _separated_specs(parity, 8, seed=11 + parity):
        value, estimate = quad_bessel_numeric(IntegralSpec(*orders, k1, k2))
        exact = float(reference.exact_value(orders, k1, k2).mp())
        assert abs(value - exact) <= estimate, (orders, k1, k2)


@pytest.mark.parametrize("k1, k2", [(1.0, 2.0), (0.3, 5.5), (0.125, 0.75)])
def test_2130_below_diagonal_is_pi_over_140_k2_cubed(k1, k2):
    value = reference.Reference((2, 1, 3, 0)).value(k1, k2)
    assert value.pi_part == Fraction(1, 140) / Fraction(k2) ** 3
    assert value.rational == 0 and value.logs == ()


@pytest.mark.parametrize("k1, k2", [(1.0, 2.0), (0.5, 3.0), (1.5, 1.5)])
def test_1151_vanishes_for_k1_up_to_k2(k1, k2):
    assert reference.Reference((1, 1, 5, 1)).value(k1, k2).is_zero


def test_1151_does_not_vanish_for_k1_above_k2():
    # disjoint triangle windows ([0,2] and [4,6]) do not make the integral zero on both sides
    value = reference.Reference((1, 1, 5, 1)).value(2.0, 1.0)
    assert value.pi_part == Fraction(-1, 256) and value.rational == 0 and value.logs == ()
    oracle, estimate = quad_bessel_numeric(IntegralSpec(1, 1, 5, 1, 2.0, 1.0))
    assert abs(oracle + math.pi / 256) <= estimate


@pytest.mark.parametrize("a, b", [(0, 0), (1, 3), (4, 2), (7, 7)])
@pytest.mark.parametrize("k1, k2", [(1.0, 2.0), (3.0, 0.4), (1.25, 1.25)])
def test_paired_tuples_match_paired_closed_form(a, b, k1, k2):
    exact = float(reference.exact_value((a, a, b, b), k1, k2).mp())
    assert quad_bessel_paired(a, b, k1, k2).value == pytest.approx(exact, rel=1e-13)


def test_parity_mismatched_tuple_is_not_zero():
    # (0,0,0,1) has no parity-valid bridge order, yet the integral is finite and nonzero
    value = reference.exact_value((0, 0, 0, 1), 1.0, 2.0)
    assert value.logs
    assert float(value.mp()) == pytest.approx(0.10299490206263529, rel=1e-15)


def test_even_order_sums_have_no_log_part():
    for orders in [(1, 0, 1, 0), (3, 2, 4, 1), (13, 0, 13, 0), (6, 5, 2, 3)]:
        assert not reference.Reference(orders).has_logs


def test_near_equal_momenta_stay_exact():
    exact = float(reference.exact_value((1, 0, 1, 0), 1.0, 1.0 + 1e-8).mp())
    value, estimate = quad_bessel_numeric(IntegralSpec(1, 0, 1, 0, 1.0, 1.0 + 1e-8))
    assert abs(value - exact) <= estimate


def test_relative_error_uses_scale_only_for_exact_zero():
    assert reference.relative_error((1, 1, 5, 1), 1.0, 2.0, 0.0) == 0.0
    scale = reference.char_scale(1.0, 2.0)
    assert reference.relative_error((1, 1, 5, 1), 1.0, 2.0, 1e-3 * scale) == pytest.approx(1e-3)
    assert reference.relative_error((0, 0, 0, 0), 1.0, 2.0, math.nan) == math.inf


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_a_function_of_the_seed(name):
    assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build(name, 3) != workloads.build(name, 4)


def _bridge_order(orders):
    """Smallest parity-valid bridge order, or None when the closed form declines."""
    l1, l2, l3, l4 = orders
    lo = max(abs(l1 - l2), abs(l3 - l4))
    return lo if sum(orders) % 2 == 0 and lo <= min(l1 + l2, l3 + l4) else None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eval_kgrid_covers_every_stratum(seed):
    workload = workloads.eval_kgrid(seed)
    bridges = {_bridge_order(t) for t in workload.tuples if not (t[0] == t[1] and t[2] == t[3])}
    assert bridges == {1, 2, 3, 5, 9, 13}
    assert any(t[0] == t[1] and t[2] == t[3] for t in workload.tuples)
    assert any(k1 == k2 for *_, k1, k2 in workload.specs)


def test_tracer_restores_names_and_reports_absent_ones(monkeypatch):
    import fourbessel.cli as cli
    import fourbessel.quadbessel as quadbessel

    original = quadbessel.legendre_band_integral
    monkeypatch.delattr(cli, "quad_bessel_numeric")
    tracer = Tracer()
    tracer.install()
    try:
        quadbessel.evaluate(IntegralSpec(1, 0, 1, 0, 1.0, 2.0))
    finally:
        tracer.uninstall()
    assert quadbessel.legendre_band_integral is original
    assert tracer.absent == ["fourbessel.cli.quad_bessel_numeric"]
    metrics = tracer.layer_metrics()
    assert metrics["quadbessel.band_calls"] >= 1 and metrics["quadbessel.terms"] == 4
    assert metrics["legendre.poly_part_calls"] >= 1 and metrics["oracle.calls"] == 0
