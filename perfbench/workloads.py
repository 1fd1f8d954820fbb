"""Seeded workload generation for the benchmark.

Nothing here imports the program or mpmath: the set-up child process imports
this module before it starts its clock.

A spec is a plain tuple (l1, l2, l3, l4, k1, k2).  Each workload is a closed
loop with one caller: the next operation starts when the previous one returns.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("eval-kgrid", "cli-order-grid", "oracle-certify")

# eval-kgrid order tuples, fixed: one stratum per line.  The seed draws the momenta and the
# loop order.  Drawing the tuples per seed as well made the timing metrics swing by 20-30%
# between seeds, because tuples with the same bridge order and term count still differ 2x in
# cost; so each stratum is represented by tuples near its median cost and failure rate, and a
# stratum with two tuples has one "aligned" (l1 - l2 and l3 - l4 of one sign) and one
# "crossed", which at the seed lose accuracy on far more momenta.  Three L = 1 tuples put the
# median operation inside the L = 1 block rather than at its edge.
EVAL_TUPLES = (
    (0, 0, 1, 1), (2, 2, 5, 5), (6, 6, 9, 9), (13, 13, 12, 12),  # paired (a, a, b, b)
    (11, 10, 6, 5), (1, 2, 8, 7), (3, 2, 4, 3),  # L = 1
    (4, 6, 10, 10),  # L = 2
    (6, 9, 4, 3),  # L = 3
    (8, 3, 13, 10), (5, 8, 11, 6),  # L = 5
    (13, 4, 11, 2), (11, 2, 4, 13),  # L = 9
    (13, 0, 13, 0), (13, 0, 0, 13),  # L = 13, the largest the Legendre degree limit allows
)
GRID_POINTS = 6  # log-spaced momenta; all 36 ordered pairs, the diagonal included
GAP_POINTS = 9  # k2 = k1 (1 + 10^-u), one u in each ninth of [1, 9]

# oracle-certify order tuples, fixed for the same reason as EVAL_TUPLES: the oracle's cost grows
# with the orders (its exact decomposition) and with max(k)/min(k) (its head panels), so the
# seed draws only the momenta, stratified in the log-ratio.  Orders 0-6, both parities.
ORACLE_TUPLES = (
    (0, 0, 1, 1), (1, 0, 1, 2), (2, 1, 3, 0), (2, 2, 3, 3),  # even order sums
    (4, 1, 2, 3), (3, 5, 2, 4), (6, 2, 5, 1), (6, 6, 4, 4),
    (0, 0, 0, 1), (1, 0, 2, 0), (2, 1, 1, 1), (3, 0, 2, 2),  # odd: no bridge order exists
    (4, 1, 3, 1), (5, 2, 0, 4), (6, 3, 2, 4), (6, 5, 6, 4),
)
ORACLE_RANDOM_PAIRS = 13  # plus one corner pair, (0.1, 10) or (10, 0.1)
ORACLE_EQUAL_PAIRS = 3
ORACLE_GAP_PAIRS = 3

CLI_GRID = 4

TRACE_SPECS_PER_TUPLE = 6  # traced run: this many specs of each tuple, after the set-up calls


@dataclass(frozen=True)
class Workload:
    name: str
    tuples: tuple  # distinct order tuples, in the order the set-up touches them
    specs: tuple  # one pass of the timed loop, shuffled
    cli_pairs: tuple = ()  # cli-order-grid only: the --k-pairs momenta

    def setup_pairs(self) -> tuple:
        """cli-order-grid set-up: one invocation over the whole grid with the first pair."""
        return self.cli_pairs[:1]

    def traced_specs(self) -> list:
        """Fixed sample for the traced run: the first few specs of each tuple in loop order."""
        taken: dict = {}
        out = []
        for spec in self.specs:
            if taken.get(spec[:4], 0) < TRACE_SPECS_PER_TUPLE:
                taken[spec[:4]] = taken.get(spec[:4], 0) + 1
                out.append(spec)
        return out


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _gap_pairs(rng: random.Random, count: int) -> list:
    """k2 = k1 (1 + 10^-u) with u stratified over [1, 9]."""
    pairs = []
    for j in range(count):
        u = 1.0 + 8.0 * (j + rng.random()) / count
        k1 = _log_uniform(rng, -1.0, 0.99)
        pairs.append((k1, k1 * (1.0 + 10.0**-u)))
    return pairs


def eval_kgrid(seed: int) -> Workload:
    rng = random.Random(f"eval-kgrid:{seed}")
    grid = [
        10.0 ** (-1.0 + 2.0 * (i + rng.random()) / GRID_POINTS) for i in range(GRID_POINTS)
    ]
    momenta = [(k1, k2) for k1 in grid for k2 in grid] + _gap_pairs(rng, GAP_POINTS)
    specs = [(*orders, k1, k2) for orders in EVAL_TUPLES for k1, k2 in momenta]
    rng.shuffle(specs)
    return Workload("eval-kgrid", EVAL_TUPLES, tuple(specs))


def _log_uniform_pairs(rng: random.Random, count: int) -> list:
    """(k1, k2) log-uniform on [0.1, 10]^2, stratified in log10(k2/k1).

    The log-ratio of two independent log-uniform momenta has a triangular
    density on [-2, 2]; one draw per quantile stratum keeps the spread of
    ratios, which sets the oracle's cost, the same for every seed.
    """
    pairs = []
    for j in range(count):
        u = (j + rng.random()) / count
        ratio = -2.0 + math.sqrt(8.0 * u) if u <= 0.5 else 2.0 - math.sqrt(8.0 * (1.0 - u))
        center = rng.uniform(-1.0 + abs(ratio) / 2, 1.0 - abs(ratio) / 2)
        pairs.append((10.0 ** (center - ratio / 2), 10.0 ** (center + ratio / 2)))
    return pairs


def oracle_certify(seed: int) -> Workload:
    rng = random.Random(f"oracle-certify:{seed}")
    specs = []
    for orders in ORACLE_TUPLES:
        pairs = [(0.1, 10.0) if rng.random() < 0.5 else (10.0, 0.1)]
        pairs += _log_uniform_pairs(rng, ORACLE_RANDOM_PAIRS)
        for _ in range(ORACLE_EQUAL_PAIRS):
            k = _log_uniform(rng, -1.0, 1.0)
            pairs.append((k, k))
        pairs += _gap_pairs(rng, ORACLE_GAP_PAIRS)
        specs += [(*orders, k1, k2) for k1, k2 in pairs]
    rng.shuffle(specs)
    return Workload("oracle-certify", ORACLE_TUPLES, tuple(specs))


def cli_order_grid(seed: int) -> Workload:
    """One near pair (k2/k1 = 1.1) and two well-separated pairs (ratio 2 to 10).

    The near pair's ratio is fixed because the closed form's error there grows
    steeply as the ratio approaches 1; a drawn ratio made the worst error swing
    from seed to seed.
    """
    rng = random.Random(f"cli-order-grid:{seed}")
    k1 = _log_uniform(rng, -0.5, 0.5)
    pairs = [(k1, 1.1 * k1) if rng.random() < 0.5 else (1.1 * k1, k1)]
    for _ in range(2):
        k1 = _log_uniform(rng, -1.0, 1.0)
        step = rng.uniform(0.301, 1.0)
        # step away from the nearer end of [0.1, 10]
        k2 = k1 * 10.0 ** (-step if k1 > 1.0 else step)
        pairs.append((k1, k2))
    rng.shuffle(pairs)
    tuples = tuple(itertools.product(range(CLI_GRID + 1), repeat=4))
    return Workload("cli-order-grid", tuples, grid_specs(pairs), tuple(pairs))


def grid_specs(pairs) -> tuple:
    """The rows ``batch --grid`` evaluates, in its order: orders outer, pairs inner."""
    return tuple(
        (*orders, k1, k2)
        for orders in itertools.product(range(CLI_GRID + 1), repeat=4)
        for k1, k2 in pairs
    )


def build(name: str, seed: int) -> Workload:
    return {"eval-kgrid": eval_kgrid, "cli-order-grid": cli_order_grid, "oracle-certify": oracle_certify}[
        name
    ](seed)


def cli_argv(pairs) -> list:
    """The batch invocation the CLI workload times, for the given momentum pairs."""
    k_pairs = ",".join(f"{k1!r}:{k2!r}" for k1, k2 in pairs)
    return ["batch", "--grid", str(CLI_GRID), "--k-pairs", k_pairs, "--mode", "analytic"]
