#!/usr/bin/env python3
"""Compare the closed form with the quadrature oracle as the two momenta meet.

The closed form is evaluated from an exact Laurent polynomial in
t = min(k)/max(k), which is finite at t = 1, so it keeps its digits as
k2 -> k1 at every bridge order. This script sweeps k2/k1 - 1 over a log grid
and shows, side by side, the analytic value and how the quadrature oracle
behaves (value drift and error estimate) as the gap closes.

Example:
    python scripts/degenerate_scan.py --orders 1 0 1 0 --k1 2.0
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from fourbessel import (
    IntegralSpec,
    QuadratureConfig,
    evaluate,
    quad_bessel_numeric,
)


@dataclass(frozen=True)
class ScanConfig:
    orders: tuple[int, int, int, int] = (1, 0, 1, 0)
    k1: float = 2.0
    gap_min: float = 1e-12
    gap_max: float = 1e-2
    points: int = 11
    rel_tol: float = 1e-8


def run_scan(config: ScanConfig) -> list[dict]:
    oracle_config = QuadratureConfig(rel_tol=config.rel_tol)
    rows = []
    for gap in np.logspace(np.log10(config.gap_max), np.log10(config.gap_min), config.points):
        spec = IntegralSpec(*config.orders, config.k1, config.k1 * (1.0 + gap))
        value, estimate = quad_bessel_numeric(spec, oracle_config)
        rows.append({
            "gap": float(gap),
            "analytic": evaluate(spec).value,
            "oracle": value,
            "estimate": estimate,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs=4, default=(1, 0, 1, 0),
                        metavar=("L1", "L2", "L3", "L4"))
    parser.add_argument("--k1", type=float, default=2.0)
    parser.add_argument("--gap-min", type=float, default=1e-12)
    parser.add_argument("--gap-max", type=float, default=1e-2)
    parser.add_argument("--points", type=int, default=11)
    parser.add_argument("--rel-tol", type=float, default=1e-8)
    args = parser.parse_args(argv)

    config = ScanConfig(tuple(args.orders), args.k1, args.gap_min, args.gap_max,
                        args.points, args.rel_tol)
    rows = run_scan(config)

    print(f"orders {config.orders}, k1 = {config.k1:g}, k2 = k1 * (1 + gap)")
    print(f"{'gap':>10} {'analytic':>16} {'oracle':>16} {'oracle est':>12} {'|a-o|/|o|':>12}")
    worst = 0.0
    for row in rows:
        disc = abs(row["analytic"] - row["oracle"]) / max(abs(row["oracle"]), 1e-300)
        worst = max(worst, disc)
        print(f"{row['gap']:>10.1e} {row['analytic']:>16.9e} {row['oracle']:>16.9e} "
              f"{row['estimate']:>12.2e} {disc:>12.2e}")
    print(f"worst analytic-oracle discrepancy {worst:.2e} over {len(rows)} gaps; "
          f"watch the oracle's error estimate, not just its value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
