#!/usr/bin/env python3
"""Probe behaviour as the two momenta approach each other.

The closed form is evaluated from an exact Laurent polynomial in
t = min(k)/max(k), so it keeps its digits as k2 -> k1. For bridge orders
L >= 1 it still refuses below a relative gap of 1e-9 (DEGENERATE_THRESHOLD),
as a contract rather than for accuracy. This script sweeps k2/k1 - 1 over a
log grid and shows, side by side, the analytic value until that gate raises
DegenerateMomenta, and how the quadrature oracle behaves (value drift and
error estimate) as the gap closes.

Example:
    python scripts/degenerate_scan.py --orders 1 0 1 0 --k1 2.0
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from fourbessel import (
    DegenerateMomenta,
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
        row = {"gap": float(gap)}
        try:
            row["analytic"] = evaluate(spec).value
        except DegenerateMomenta:
            row["analytic"] = None
        value, estimate = quad_bessel_numeric(spec, oracle_config)
        row["oracle"] = value
        row["estimate"] = estimate
        rows.append(row)
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
    refused = 0
    for row in rows:
        if row["analytic"] is None:
            refused += 1
            analytic_text = "  (degenerate)"
            disc_text = "n/a"
        else:
            analytic_text = f"{row['analytic']:>16.9e}"
            disc = abs(row["analytic"] - row["oracle"]) / max(abs(row["oracle"]), 1e-300)
            disc_text = f"{disc:.2e}"
        print(f"{row['gap']:>10.1e} {analytic_text:>16} {row['oracle']:>16.9e} "
              f"{row['estimate']:>12.2e} {disc_text:>12}")
    print(f"analytic path refused {refused}/{len(rows)} cells; the oracle stays "
          f"usable through the crossover (watch its error estimate, not just the value)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
