"""Acceptance criteria for the four-Bessel integral package.

Each test exercises one numbered criterion end to end at its stated
tolerance and records a single PASS/FAIL line; the lines are replayed
together at the end of the pytest run (see conftest).
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from conftest import record_criterion
from test_quadbessel import _ratio_integral

from fourbessel.core import IntegralSpec
from fourbessel.legendre import assoc_legendre_gt1
from fourbessel.oracle import quad_bessel_numeric
from fourbessel.quadbessel import (
    _laurent_kernel,
    evaluate,
    quad_bessel_paired,
    triple_bessel_weighted,
)
from fourbessel.wigner import wigner_3j_zero, wigner_6j

MOMENTUM_PAIRS = ((1.0, 2.0), (2.0, 5.0), (1.0, 1.25), (3.0, 3.0))


@contextlib.contextmanager
def criterion(number: int):
    outcome = {"passed": False, "detail": "did not complete"}
    try:
        yield outcome
    except BaseException as exc:  # record the line even on hard failure
        record_criterion(number, False, f"raised {type(exc).__name__}: {exc}")
        raise
    record_criterion(number, outcome["passed"], outcome["detail"])
    assert outcome["passed"], f"criterion {number}: {outcome['detail']}"


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def test_criterion_1_paired_closed_values():
    with criterion(1) as outcome:
        analytic_err = max(
            _rel(quad_bessel_paired(0, 0, 1.0, 2.0).value, math.pi / 16.0),
            _rel(quad_bessel_paired(0, 0, 1.0, 1.0).value, math.pi / 4.0),
        )
        oracle_err = 0.0
        slowest = 0.0
        for (k1, k2), target in (((1.0, 2.0), math.pi / 16.0), ((1.0, 1.0), math.pi / 4.0)):
            start = time.perf_counter()
            value, _ = quad_bessel_numeric(IntegralSpec(0, 0, 0, 0, k1, k2))
            slowest = max(slowest, time.perf_counter() - start)
            oracle_err = max(oracle_err, _rel(value, target))
        outcome["passed"] = analytic_err <= 1e-12 and oracle_err <= 1e-7 and slowest < 5.0
        outcome["detail"] = (
            f"pi/16 & pi/4: analytic err {analytic_err:.2e} (<=1e-12), "
            f"oracle err {oracle_err:.2e} (<=1e-7), slowest oracle {slowest:.3f}s (<5s)"
        )


def test_criterion_2_paired_grid_vs_oracle():
    with criterion(2) as outcome:
        start = time.perf_counter()
        worst = 0.0
        count = 0
        for l1, l2 in itertools.product(range(4), repeat=2):
            for k1, k2 in MOMENTUM_PAIRS:
                analytic = quad_bessel_paired(l1, l2, k1, k2).value
                oracle, _ = quad_bessel_numeric(IntegralSpec(l1, l1, l2, l2, k1, k2))
                worst = max(worst, _rel(analytic, oracle))
                count += 1
        elapsed = time.perf_counter() - start
        outcome["passed"] = worst <= 1e-6 and elapsed < 120.0
        outcome["detail"] = (
            f"{count} paired specs (orders <=3, 4 momentum pairs): worst rel "
            f"discrepancy {worst:.2e} (<=1e-6) in {elapsed:.1f}s (<120s)"
        )


def test_criterion_3_general_path_matches_paired_path():
    with criterion(3) as outcome:
        # the kernel built by the general recoupling against the paired closed
        # form {mu - 1: 3j(l1, l2, mu)^2 / 4}, as Fractions; (l1, l1, l2, l2) is
        # its own momentum exchange, so both momentum orders read this kernel
        mismatched = []
        for l1, l2 in itertools.product(range(4), repeat=2):
            paired = {
                mu - 1: Fraction(1, 4) * wigner_3j_zero(l1, l2, mu).radicand
                for mu in range(abs(l1 - l2), l1 + l2 + 1, 2)
            }
            bridge, b = _laurent_kernel(l1, l1, l2, l2)
            coeffs = {
                p: Fraction(n, b.common) for (p, _), n in zip(b.terms, b.numerators, strict=True)
            }
            if bridge != 0 or coeffs != paired:
                mismatched.append((l1, l2))
        outcome["passed"] = not mismatched
        outcome["detail"] = (
            f"16 order pairs, both momentum orders: general kernel equals the paired closed form "
            f"as Fractions: {'yes' if not mismatched else f'NO at {mismatched}'}"
        )


def test_criterion_4_bridged_sets_vs_oracle():
    with criterion(4) as outcome:
        worst = 0.0
        for orders in ((2, 0, 0, 2), (1, 0, 1, 2), (2, 1, 1, 2), (1, 0, 1, 0)):
            for k1, k2 in ((1.0, 2.0), (2.0, 5.0)):
                spec = IntegralSpec(*orders, k1, k2)
                analytic = evaluate(spec).value
                oracle, _ = quad_bessel_numeric(spec)
                worst = max(worst, _rel(analytic, oracle))
        outcome["passed"] = worst <= 1e-6
        outcome["detail"] = (
            f"4 bridged order sets x 2 momentum pairs: worst rel discrepancy "
            f"{worst:.2e} (<=1e-6)"
        )


def _extended_precision_gauss_rule(count: int):
    """Gauss-Legendre nodes/weights refined in arbitrary precision.

    Plain double-precision rules carry ~1e-15 node noise, which swamps a
    1e-9 relative comparison on cells whose integral is tiny through
    near-orthogonality (e.g. P_0 P_4 against a slowly varying kernel).
    """
    import mpmath as mp
    from numpy.polynomial import legendre as npleg

    mp.mp.dps = 40
    seeds, _ = npleg.leggauss(count)
    nodes, weights = [], []
    for seed in seeds:
        x = mp.mpf(float(seed))
        for _ in range(4):
            p_prev, p = mp.mpf(1), x
            for k in range(1, count):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            x -= p / (count * (x * p - p_prev) / (x * x - 1))
        p_prev, p = mp.mpf(1), x
        for k in range(1, count):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        derivative = count * (x * p - p_prev) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * derivative * derivative))
    return nodes, weights


def test_criterion_5_ratio_integral_identity():
    with criterion(5) as outcome:
        import mpmath as mp

        nodes, weights = _extended_precision_gauss_rule(160)
        legendre_rows = []
        for x in nodes:
            row = [mp.mpf(1), x]
            for k in range(1, 4):
                row.append(((2 * k + 1) * x * row[-1] - k * row[-2]) / (k + 1))
            legendre_rows.append(row)
        worst_quadrature = 0.0
        for l, lp, bridge, y in itertools.product(range(5), range(5), range(4),
                                                  (1.1, 1.25, 2.0, 10.0)):
            exponent = mp.mpf(-bridge) - mp.mpf(1) / 2
            direct = float(math.fsum(
                float(w * row[l] * row[lp] * (mp.mpf(y) - x) ** exponent)
                for x, w, row in zip(nodes, weights, legendre_rows)
            ))
            worst_quadrature = max(
                worst_quadrature, _rel(_ratio_integral(l, lp, bridge, y), direct)
            )
        worst_closed = max(
            _rel(_ratio_integral(0, 0, 0, y),
                 2.0 * (math.sqrt(y + 1.0) - math.sqrt(y - 1.0)))
            for y in (1.1, 1.25, 2.0, 10.0)
        )
        outcome["passed"] = worst_quadrature <= 1e-9 and worst_closed <= 1e-12
        outcome["detail"] = (
            f"400 (l,l',L,y) cells vs 160-node extended-precision quadrature: "
            f"worst rel {worst_quadrature:.2e} (<=1e-9); closed kernel value "
            f"worst rel {worst_closed:.2e} (<=1e-12)"
        )


def _terminating_hypergeometric(degree: int, order: Fraction, x: float) -> float:
    z = (1.0 - x) / 2.0
    c = 1.0 - float(order)
    term = 1.0
    total = 1.0
    for n in range(degree):
        term *= (-degree + n) * (degree + 1 + n) / ((c + n) * (n + 1)) * z
        total += term
    return ((x + 1.0) / (x - 1.0)) ** (float(order) / 2.0) / math.gamma(c) * total


def _derivative_continuation(degree: int, order: int, x: float) -> float:
    from numpy.polynomial import legendre as npleg

    series = npleg.legder([0.0] * degree + [1.0], order)
    return (x * x - 1.0) ** (order / 2.0) * float(npleg.legval(x, series))


def test_criterion_6_half_integer_legendre_conformance():
    with criterion(6) as outcome:
        worst = 0.0
        cells = 0
        for degree in range(5):
            for x in (1.2, 5.0 / 3.0, 3.0, 10.0):
                for order in (Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 2)):
                    reference = _terminating_hypergeometric(degree, order, x)
                    worst = max(worst, _rel(assoc_legendre_gt1(degree, order, x), reference))
                    cells += 1
                for order in (0, 1):
                    if order > degree:
                        continue  # the standard continuation vanishes there
                    reference = _derivative_continuation(degree, order, x)
                    worst = max(worst, _rel(assoc_legendre_gt1(degree, order, x), reference))
                    cells += 1
        outcome["passed"] = worst <= 1e-12
        outcome["detail"] = (
            f"{cells} (l, m, x) cells vs hypergeometric/derivative references: "
            f"worst rel {worst:.2e} (<=1e-12)"
        )


def test_criterion_7_wigner_exactness():
    with criterion(7) as outcome:
        orthogonal = all(
            sum((2 * j3 + 1) * wigner_3j_zero(j1, j2, j3).radicand
                for j3 in range(abs(j1 - j2), j1 + j2 + 1)) == 1
            for j1 in range(7)
            for j2 in range(7)
        )
        symmetric = True
        samples = 0
        for j1, j2 in itertools.product(range(5), repeat=2):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 4) + 1):
                for j4, j5 in itertools.product(range(5), repeat=2):
                    if not abs(j4 - j5) <= j3 <= j4 + j5:
                        continue
                    for j6 in range(abs(j1 - j5), min(j1 + j5, 4) + 1):
                        reference = wigner_6j(j1, j2, j3, j4, j5, j6)
                        symmetric &= wigner_6j(j2, j1, j3, j5, j4, j6) == reference
                        symmetric &= wigner_6j(j1, j3, j2, j4, j6, j5) == reference
                        symmetric &= wigner_6j(j4, j5, j3, j1, j2, j6) == reference
                        symmetric &= wigner_6j(j4, j2, j6, j1, j5, j3) == reference
                        samples += 1
        outcome["passed"] = orthogonal and symmetric
        outcome["detail"] = (
            f"3j orthogonality exact rational for 49 (l,l') pairs: "
            f"{'yes' if orthogonal else 'NO'}; 6j tetrahedral symmetry exact on "
            f"{samples} samples: {'yes' if symmetric else 'NO'}"
        )


def test_criterion_8_structural_invariants():
    with criterion(8) as outcome:
        worst_scale = 0.0
        worst_swap = 0.0
        for l1, l2 in itertools.product(range(4), repeat=2):
            for k1, k2 in MOMENTUM_PAIRS:
                base = quad_bessel_paired(l1, l2, k1, k2).value
                for c in (0.5, 2.0, 10.0):
                    scaled = quad_bessel_paired(l1, l2, c * k1, c * k2).value
                    worst_scale = max(worst_scale, _rel(scaled, base / c ** 3))
                worst_swap = max(
                    worst_swap,
                    _rel(quad_bessel_paired(l2, l1, k1, k2).value, base),
                    _rel(quad_bessel_paired(l1, l2, k2, k1).value, base),
                )
        zero_outside = (
            triple_bessel_weighted(0, 0, 0, 1.0, 2.0, 4.0) == 0.0
            and triple_bessel_weighted(2, 2, 2, 1.0, 1.0, 7.0) == 0.0
            and triple_bessel_weighted(1, 1, 2, 2.0, 5.0, 0.5) == 0.0
        )
        outcome["passed"] = worst_scale <= 1e-12 and worst_swap <= 1e-12 and zero_outside
        outcome["detail"] = (
            f"scale covariance worst rel {worst_scale:.2e}, swap symmetry worst rel "
            f"{worst_swap:.2e} (both <=1e-12); outside-support triple exactly zero: "
            f"{'yes' if zero_outside else 'NO'}"
        )


def test_criterion_9_failure_mode_contract():
    with criterion(9) as outcome:
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "fourbessel", *args],
                capture_output=True, text=True,
            )

        parity = run("eval", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "1",
                     "--k1", "1", "--k2", "2")
        degenerate = run("eval", "--l1", "1", "--l2", "0", "--l3", "1", "--l4", "0",
                         "--k1", "1", "--k2", "1")
        retired = run("eval", "--l1", "1", "--l2", "0", "--l3", "1", "--l4", "0",
                      "--k1", "1", "--k2", "1", "--fallback-oracle")
        degenerate_error = float("inf")
        if degenerate.returncode == 0:
            value = json.loads(degenerate.stdout)["value"]
            degenerate_error = abs(value - math.pi / 12.0) / (math.pi / 12.0)
        outcome["passed"] = (
            parity.returncode == 2
            and degenerate.returncode == 0
            and degenerate_error <= 1e-14
            and retired.returncode == 64
        )
        outcome["detail"] = (
            f"parity mismatch exit {parity.returncode} (want 2); k1 = k2 exit "
            f"{degenerate.returncode} (want 0) with rel error {degenerate_error:.1e} "
            f"from pi/12 (<=1e-14); --fallback-oracle exit {retired.returncode} "
            f"(want 64, usage error)"
        )
