#!/usr/bin/env python3
"""Benchmark: time to a correct four-Bessel integral, scored against an exact reference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-kgrid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh processes,
then a closed loop of warm operations for ``--seconds``.  Every time is
scaled to a nominal host speed by a calibration job timed beside it.  ``--trace 1``
instead runs a fixed sample of the workload twice from cold caches, once
plain and once with the outside-in tracer, and reports the per-layer
metrics.  Every value the program returns is scored against the exact
reference in ``reference.py``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See perfbench/README.md for the metric definitions and why each workload exists.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (no program import: safe before the set-up clock)

SETUP_REPEATS = 9
SETUP_MOMENTA = (1.0, 2.0)  # eval and oracle set-up calls: one separated pair per tuple
FAIL_TOL = 1e-8  # the oracle's default rel_tol
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)  # p50 stands when no rung has 10 samples beyond
TAIL_MIN_BEYOND = 10
# Repeats kept per distinct operation.  Later repeats still run, so memory, and with it
# peak_rss_mb, stays flat however fast the program gets.
MAX_REPEATS = 200
WORST_SHOWN = 5

# Host-speed calibration.  A fixed pure-Python job runs between operations, at least every
# CAL_EVERY_S of the timed loop; each operation's time is scaled by CAL_NOMINAL_S / (mean of
# the CAL_WINDOW job times nearest it), that is, to a host on which the job takes CAL_NOMINAL_S.
# A mean, not a median: the host flips between a fast and a slow state within milliseconds, so
# an operation's time follows the share of time spent in each, which the mean estimates.
CAL_EVERY_S = 0.05
CAL_WINDOW = 9
CAL_NOMINAL_S = 2e-3
CAL_ROUNDS = 140
# Set-up calibration: a fresh process imports these modules, none of which the program or
# this script imports, and runs the calibration job REFERENCE_JOBS times; set-up times are
# scaled to a host on which that takes REFERENCE_NOMINAL_S.
REFERENCE_IMPORTS = (
    "asyncio", "configparser", "email.message", "http.client", "logging", "multiprocessing",
    "plistlib", "pydoc", "sqlite3", "tarfile", "tomllib", "unittest", "urllib.request", "uuid",
    "xml.etree.ElementTree",
)
REFERENCE_JOBS = 10
REFERENCE_NOMINAL_S = 0.12


class ProgramMissing(RuntimeError):
    pass


def calibration_job() -> float:
    """Seconds taken by a fixed job of the kinds of work the program does.

    Integer and Fraction arithmetic, float math and dict look-ups, none of it in the
    program.  The shared host this benchmark was built on ran the same code up to
    1.7 times slower from one second, or one minute, to the next; the job slows down
    with it, so the ratio of an operation's time to the job's stays steady.
    """
    start = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    x = 0.0
    for i in range(1, CAL_ROUNDS + 1):
        acc += Fraction(i * i - 1, 2 * i + 1)
        x += math.sqrt(i) * math.cos(x)
        for j in range(40):
            table[(i * j) % 97] = table.get((i * j) % 97, 0) + j
    if acc.denominator == 0 or x != x:  # keep the results alive
        raise ArithmeticError("calibration job")
    return time.perf_counter() - start


class HostSpeed:
    """Calibration job times, and the scale to the nominal host speed around each of them."""

    def __init__(self):
        self.seen = [calibration_job() for _ in range(CAL_WINDOW)]

    def tick(self) -> None:
        self.seen.append(calibration_job())

    def scales(self) -> list:
        """scales()[i]: the scale for work done just after job i, from the jobs nearest it."""
        half = CAL_WINDOW // 2
        last = len(self.seen) - CAL_WINDOW
        return [
            CAL_NOMINAL_S / statistics.fmean(self.seen[min(max(0, i - half), last) :][:CAL_WINDOW])
            for i in range(len(self.seen))
        ]


def import_program():
    """Import fourbessel from the checkout's own src/."""
    if not (SRC / "fourbessel" / "__init__.py").is_file():
        raise ProgramMissing(f"no fourbessel package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("fourbessel")


def clear_program_caches() -> None:
    """Empty every lru cache in the program, as a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if name == "fourbessel" or name.startswith("fourbessel."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


# --------------------------------------------------------------------------
# operations: each returns an outcome tuple and never raises
# --------------------------------------------------------------------------


class Operations:
    """The calls a workload makes into the program, with their inputs prepared."""

    def __init__(self, fb, workload: workloads.Workload):
        self.fb = fb
        self.kind = workload.name
        if self.kind == "cli-order-grid":
            self.cli = importlib.import_module("fourbessel.cli")
            self.argv = workloads.cli_argv(workload.cli_pairs)
            self.loop_length, self.specs_per_op = 1, len(workload.specs)
        else:
            self.loop_length, self.specs_per_op = len(workload.specs), 1
            self.specs = [fb.IntegralSpec(*spec) for spec in workload.specs]
            self.evaluate = importlib.import_module("fourbessel.quadbessel").evaluate
            self.numeric = importlib.import_module("fourbessel.oracle").quad_bessel_numeric

    def spec_call(self, spec):
        """Outcome of one evaluate / quad_bessel_numeric call on an IntegralSpec."""
        try:
            if self.kind == "eval-kgrid":
                value, estimate = self.evaluate(spec).value, None
            else:
                value, estimate = self.numeric(spec)
        except self.fb.NoValidBridge:
            return ("declined", "NoValidBridge", None)
        except Exception as exc:  # scored as a failure, named in the output
            return ("raised", type(exc).__name__, None)
        # one NaN object, so that repeats of a NaN outcome compare equal
        return ("value", math.nan if value != value else value, estimate)

    def cli_call(self, argv):
        """Outcome of one in-process batch invocation: (exit code, stdout)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash leaves the rows unscored: an integrity failure
            return ("crashed", type(exc).__name__, out.getvalue())
        return ("exit", code, out.getvalue())

    def timed_call(self, position: int):
        if self.kind == "cli-order-grid":
            return self.cli_call(self.argv)
        return self.spec_call(self.specs[position])

    def outcome_key(self, outcome):
        """Hashable form of one outcome; repeats of the same result share a key."""
        if self.kind == "cli-order-grid":
            return outcome[0], outcome[1], _without_timings(outcome[2])
        return outcome


def _without_timings(text: str) -> str:
    """Batch CSV without its wall_time_s column, which differs on every invocation."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    column = None
    for row in csv.reader(line for line in io.StringIO(text) if not line.startswith("#")):
        if column is None:
            column = row.index("wall_time_s") if "wall_time_s" in row else len(row)
        writer.writerow(row[:column] + row[column + 1 :])
    return out.getvalue()


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    declined: int = 0
    digits: list = field(default_factory=list)
    worst: list = field(default_factory=list)  # (error, spec, value or error name)
    integrity: list = field(default_factory=list)  # why the run's checking is incomplete
    oracle_ratio_max: float = 0.0  # actual error / reported error estimate

    def add(self, spec, kind, payload, estimate=None):
        """Score the outcome of one spec."""
        from reference import exact_value, relative_error  # noqa: PLC0415  (after timing)

        self.attempted += 1
        if kind == "declined":
            self.declined += 1
            return
        if kind != "value":
            self.failed += 1
            self._note(math.inf, spec, payload)
            return
        orders, k1, k2 = tuple(spec[:4]), spec[4], spec[5]
        try:
            err = relative_error(orders, k1, k2, payload)
        except ArithmeticError as exc:
            self.integrity.append(f"reference failed for {spec}: {exc}")
            return
        if estimate is not None and math.isfinite(err):
            exact = float(exact_value(orders, k1, k2).mp())
            actual = abs(payload - exact)
            ratio = actual / estimate if estimate > 0 else (0.0 if actual == 0 else math.inf)
            self.oracle_ratio_max = max(self.oracle_ratio_max, ratio)
        self.digits.append(16.0 if err <= 1e-16 else min(16.0, max(0.0, -math.log10(err))))
        if not err <= FAIL_TOL:
            self.failed += 1
        self._note(err, spec, payload)

    def _note(self, err, spec, payload):
        self.worst.append((err, spec, payload))
        if len(self.worst) > 4 * WORST_SHOWN:
            self.worst = self._top()

    def _top(self):
        unique = {}
        for err, spec, payload in sorted(self.worst, key=lambda w: -w[0]):
            unique.setdefault(spec, (err, spec, payload))
        return list(unique.values())[:WORST_SHOWN]

    @property
    def digits_min(self) -> float:
        return min(self.digits) if self.digits else 16.0

    def report_lines(self) -> list[str]:
        from reference import exact_value  # noqa: PLC0415

        lines = [
            f"fail_frac {self.failed / self.attempted:.6g}  declined_frac "
            f"{self.declined / self.attempted:.6g}  digits_min {self.digits_min:.3f}  "
            f"(attempted {self.attempted}, failed {self.failed}, declined {self.declined})"
        ]
        for rank, (err, spec, payload) in enumerate(self._top(), start=1):
            orders, k1, k2 = tuple(spec[:4]), spec[4], spec[5]
            exact = float(exact_value(orders, k1, k2).mp())
            lines.append(
                f"worst {rank}: orders {orders} k1 {k1!r} k2 {k2!r} value {payload!r} "
                f"reference {exact!r} error {err:.3g}"
            )
        return lines + [f"integrity: {note}" for note in self.integrity[:WORST_SHOWN]]


def score_cli_outcome(outcome, pairs, score: Score) -> int:
    """Score one batch invocation row by row; returns its row count."""
    kind, code, text = outcome
    if kind == "crashed":
        score.integrity.append(f"cli.main raised {code}")
        return 0
    expected = workloads.grid_specs(pairs)
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    if len(rows) != len(expected):
        score.integrity.append(f"batch printed {len(rows)} rows, expected {len(expected)}")
    any_error = False
    for spec, row in zip(expected, rows):
        got = tuple(int(row[c]) for c in ("l1", "l2", "l3", "l4")) + (float(row["k1"]), float(row["k2"]))
        if got != spec:
            score.integrity.append(f"batch row {got} where {spec} was expected")
            return len(rows)
        error = row["error"]
        if error.startswith("NoValidBridge"):
            score.add(spec, "declined", "NoValidBridge")
        elif error:
            any_error = True
            score.add(spec, "raised", error.split(":")[0])
        else:
            score.add(spec, "value", float(row["value"]))
    if code != (1 if any_error else 0):
        score.integrity.append(f"batch exit code {code} with row failures={any_error}")
    return len(rows)


# --------------------------------------------------------------------------
# set-up: fresh processes, cold caches
# --------------------------------------------------------------------------


def setup_job(workload: workloads.Workload) -> dict:
    if workload.name == "cli-order-grid":
        return {"kind": "cli", "argv": workloads.cli_argv(workload.setup_pairs())}
    return {"kind": workload.name, "tuples": [list(t) for t in workload.tuples]}


def run_setup_calls(fb, job: dict) -> None:
    """Import-time work plus one call per distinct order tuple (or one batch invocation)."""
    if job["kind"] == "cli":
        cli = importlib.import_module("fourbessel.cli")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(job["argv"])
        return
    call = fb.evaluate if job["kind"] == "eval-kgrid" else fb.quad_bessel_numeric
    for orders in job["tuples"]:
        try:
            call(fb.IntegralSpec(*orders, *SETUP_MOMENTA))
        except fb.FourBesselError:
            pass


def setup_child(payload: str) -> int:
    job = json.loads(payload)
    start = time.perf_counter()
    fb = import_program()
    run_setup_calls(fb, job)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def reference_child() -> int:
    """The set-up calibration: a fresh process's fixed imports and first calls."""
    start = time.perf_counter()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    for _ in range(REFERENCE_JOBS):
        calibration_job()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def child_seconds(flag: str, payload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), flag, payload],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=str(ROOT),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure_setup(workload: workloads.Workload) -> tuple[float, float]:
    """Median (host-scaled, raw) set-up seconds over SETUP_REPEATS fresh processes.

    Each set-up process is followed by a reference process, and its time is scaled by
    REFERENCE_NOMINAL_S / the reference's time.  Most of a fresh process's set-up is
    imports, which the calibration job of the timed loop does not track.
    """
    payload = json.dumps(setup_job(workload))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        took = child_seconds("--setup-child", payload)
        raw.append(took)
        scaled.append(took * REFERENCE_NOMINAL_S / child_seconds("--reference-child", ""))
    return statistics.median(scaled), statistics.median(raw)


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


def tail_percentile(latencies) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder rung with >= 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            break
    return pct, ordered[rank - 1], n - rank


def end_to_end(fb, workload: workloads.Workload, seconds: float) -> tuple[dict, Score, list[str]]:
    setup_s, setup_raw_s = measure_setup(workload)
    ops = Operations(fb, workload)
    run_setup_calls(fb, setup_job(workload))  # warm: the timed phase measures warm operations
    speed = HostSpeed()
    times: list = [[] for _ in range(ops.loop_length)]  # (seconds, last calibration job) per op
    raw_total = 0.0
    outcomes: list = [{} for _ in range(ops.loop_length)]  # distinct outcome keys, in order seen
    start = time.perf_counter()
    deadline = start + seconds
    next_tick = start + CAL_EVERY_S
    index = 0
    while True:
        if time.perf_counter() >= next_tick:
            speed.tick()
            next_tick = time.perf_counter() + CAL_EVERY_S
        position = index % ops.loop_length
        t0 = time.perf_counter()
        outcome = ops.timed_call(position)
        t1 = time.perf_counter()
        raw_total += t1 - t0
        if len(times[position]) < MAX_REPEATS:
            times[position].append((t1 - t0, len(speed.seen) - 1))
        key = ops.outcome_key(outcome)
        outcomes[position].setdefault(key, None)
        index += 1
        if t1 >= deadline and index >= ops.loop_length:  # at least one whole pass
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each distinct operation is scored once, so attempted and failed depend on the seed
    # only; a repeat that returned something else makes the run's checking incomplete.
    score = Score()
    for position, seen in enumerate(outcomes):
        outcome = next(iter(seen))
        if len(seen) > 1:
            score.integrity.append(f"operation {position} returned {len(seen)} different results")
        if workload.name == "cli-order-grid":
            score_cli_outcome(outcome, workload.cli_pairs, score)
        else:
            score.add(workload.specs[position], *outcome)
    scales = speed.scales()
    typical = [statistics.median(t * scales[job] for t, job in repeats) for repeats in times]
    unscaled_p50 = statistics.median(statistics.median(t for t, _ in repeats) for repeats in times)
    pct, tail, beyond = tail_percentile(typical)
    metrics = {
        "setup_s": (setup_s, "s"),
        "specs_per_s": (len(typical) * ops.specs_per_op / sum(typical), "1/s"),
        "lat_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "lat_tail_ms": (tail * 1e3, "ms"),
        "pass_frac": (1.0 - score.failed / score.attempted, "ratio"),
        "answered_frac": (1.0 - score.declined / score.attempted, "ratio"),
        "digits_lost_max": (16.0 - score.digits_min, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    cal = statistics.fmean(speed.seen)
    notes = [
        f"timed: {index} operations in {wall:.3f} s, {raw_total / wall:.1%} of it in the program; "
        f"unscaled: {index * ops.specs_per_op / raw_total:.6g} specs/s, p50 "
        f"{unscaled_p50 * 1e3:.6g} ms, set-up {setup_raw_s:.6g} s",
        f"host speed: calibration job mean {cal * 1e3:.4f} ms over {len(speed.seen)} runs "
        f"(nominal {CAL_NOMINAL_S * 1e3:g} ms)",
        f"lat_tail_ms is p{pct:g} of {len(typical)} distinct operations, each at its median of "
        f"{index / len(typical):.1f} repeats ({beyond} samples beyond)",
    ]
    return metrics, score, notes


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def traced_phase(fb, workload: workloads.Workload, tracer=None):
    """Set-up calls, then the fixed traced sample; returns (outcomes, seconds)."""
    from tracer import OP_CLI, OP_EVALUATE, OP_ORACLE  # noqa: PLC0415

    ops = Operations(fb, workload)

    def traced(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    start = time.perf_counter()
    outcomes = []
    if workload.name == "cli-order-grid":
        for pairs in (workload.setup_pairs(), workload.cli_pairs):
            argv = workloads.cli_argv(pairs)
            outcomes.append((pairs, traced(OP_CLI, ops.cli_call, argv)))
    else:
        name = OP_EVALUATE if workload.name == "eval-kgrid" else OP_ORACLE
        sample = [(*orders, *SETUP_MOMENTA) for orders in workload.tuples] + workload.traced_specs()
        for spec in sample:
            outcomes.append((spec, traced(name, ops.spec_call, fb.IntegralSpec(*spec))))
    return outcomes, time.perf_counter() - start


def traced_run(fb, workload: workloads.Workload) -> tuple[dict, Score, list[str]]:
    from tracer import PER_LAYER_UNITS, Tracer  # noqa: PLC0415

    clear_program_caches()
    _, plain_s = traced_phase(fb, workload)
    clear_program_caches()  # before install: clearing also resets the cache_info() counters
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, traced_s = traced_phase(fb, workload, tracer)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics()

    score = Score()
    rows = 0
    for item, outcome in outcomes:
        if workload.name == "cli-order-grid":
            rows += score_cli_outcome(outcome, item, score)
        else:
            score.add(item, *outcome)
    values["cli.rows"] = rows
    values["oracle.err_over_estimate_max"] = score.oracle_ratio_max
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    notes = [f"traced phase {traced_s:.3f} s, untraced {plain_s:.3f} s, {len(tracer.names)} spans"]
    notes += [f"absent: {name}" for name in tracer.absent]
    return metrics, score, notes


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    parser.add_argument("--reference-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child is not None:
            return setup_child(args.setup_child)
        if args.reference_child is not None:
            return reference_child()
        if args.workload is None:
            parser.error("--workload is required")
        fb = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    workload = workloads.build(args.workload, args.seed)
    if args.trace:
        metrics, score, notes = traced_run(fb, workload)
    else:
        metrics, score, notes = end_to_end(fb, workload, args.seconds)
    print(
        f"workload {workload.name} seed {args.seed}: {len(workload.tuples)} order tuples, "
        f"{len(workload.specs)} specs per pass"
    )
    for line in notes + score.report_lines():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not score.integrity,
        "attempted": score.attempted,
        "failed": score.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
