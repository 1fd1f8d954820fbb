"""Command-line surface for the four-Bessel integral library.

Subcommands:

* ``eval``      one integral as a JSON document (optionally oracle-checked)
* ``batch``     CSV/JSON-lines runs over an input file or an order grid
* ``wigner``    exact 3j/6j symbols ("+sqrt(2/15)" style plus decimal)
* ``legendre``  Legendre polynomial / associated-function evaluation
* ``oracle``    direct numerical quadrature (quad or triple integrand)

Exit codes: 0 success; 1 batch row failures or discrepancy threshold exceeded;
2 no parity-valid bridge order; 4 quadrature non-convergence; 64 usage errors,
including momenta whose value leaves the float range; 65 malformed batch input.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from dataclasses import fields
from fractions import Fraction

from .core import IntegralSpec
from .errors import (
    DomainError,
    FourBesselError,
    NoConvergence,
    NoValidBridge,
)
from .legendre import assoc_legendre_gt1, legendre_p
from .oracle import QuadratureConfig, quad_bessel_numeric, triple_bessel_numeric
from .quadbessel import evaluate
from .wigner import wigner_3j_zero, wigner_6j

_BATCH_COLUMNS = [
    "l1", "l2", "l3", "l4", "k1", "k2",
    "L", "method", "value", "oracle_value", "oracle_error",
    "discrepancy", "wall_time_s", "error",
]
_DISCREPANCY_COLUMN = _BATCH_COLUMNS.index("discrepancy")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


class _MalformedInput(Exception):
    """Batch input file cannot be interpreted as integral specs."""


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _order_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an order like -1/2 or 0.5, got {text!r}"
        ) from None


def _momentum_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"expected momentum pairs like 1:2,2:5, got {chunk!r}"
            )
        try:
            k1, k2 = float(parts[0]), float(parts[1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"non-numeric momentum in {chunk!r}"
            ) from None
        if k1 <= 0 or k2 <= 0:
            raise argparse.ArgumentTypeError(f"momenta must be positive in {chunk!r}")
        pairs.append((k1, k2))
    if not pairs:
        raise argparse.ArgumentTypeError("no momentum pairs given")
    return pairs


def _quadrature_config(args) -> QuadratureConfig:
    """The config from the flags given; each flag's dest is its field's name."""
    return QuadratureConfig(**{
        field.name: value
        for field in fields(QuadratureConfig)
        if (value := getattr(args, field.name, None)) is not None
    })


def _relative_discrepancy(value: float, reference: float) -> float:
    gap = abs(value - reference)
    return gap / abs(reference) if reference != 0.0 else gap


def _emit(document: dict) -> None:
    print(json.dumps(document))


def _error_document(exc: Exception, **context) -> dict:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    doc.update(context)
    return doc


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    spec = IntegralSpec(args.l1, args.l2, args.l3, args.l4, args.k1, args.k2)
    config = _quadrature_config(args)
    context = {"lambda": list(spec.orders), "k1": spec.k1, "k2": spec.k2}
    try:
        report = evaluate(spec)
    except NoValidBridge as exc:
        _emit(_error_document(exc, **context))
        return 2
    if args.check:
        try:
            oracle_value, oracle_error = quad_bessel_numeric(spec, config)
        except NoConvergence as exc:
            _emit(_error_document(exc, **context))
            return 4
        report.oracle_value = oracle_value
        report.oracle_error_estimate = oracle_error
        report.discrepancy = _relative_discrepancy(report.value, oracle_value)
    _emit(report.as_dict(spec))
    return 0


# --------------------------------------------------------------------------
# batch
# --------------------------------------------------------------------------


def _load_input_specs(path: str) -> list[IntegralSpec]:
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise _MalformedInput(f"cannot read {path!r}: {exc}") from None
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise _MalformedInput(f"{path!r} is empty")
        required = ["l1", "l2", "l3", "l4", "k1", "k2"]
        missing = [name for name in required if name not in header]
        if missing:
            raise _MalformedInput(f"{path!r} is missing columns {missing}")
        specs = []
        for line_number, row in enumerate(reader, start=2):
            try:
                specs.append(
                    IntegralSpec(
                        int(row["l1"]), int(row["l2"]),
                        int(row["l3"]), int(row["l4"]),
                        float(row["k1"]), float(row["k2"]),
                    )
                )
            except (TypeError, ValueError, DomainError) as exc:
                raise _MalformedInput(f"{path!r} line {line_number}: {exc}") from None
    if not specs:
        raise _MalformedInput(f"{path!r} contains no integral specs")
    return specs


def _grid_specs(order_max: int, momentum_pairs: list[tuple[float, float]]) -> list[IntegralSpec]:
    return [
        IntegralSpec(*orders, k1, k2)
        for orders in itertools.product(range(order_max + 1), repeat=4)
        for k1, k2 in momentum_pairs
    ]


def _evaluate_row(spec: IntegralSpec, mode: str, config: QuadratureConfig) -> tuple[list, bool]:
    """One batch row, in _BATCH_COLUMNS order, and whether the row failed."""
    bridge = method = value = oracle_value = oracle_error = discrepancy = error = None
    failed = False
    start = time.perf_counter()
    try:
        if mode in ("analytic", "both"):
            report = evaluate(spec)
            bridge, method, value = report.bridge_L, report.method, report.value
        if mode in ("oracle", "both"):
            oracle_value, oracle_error = quad_bessel_numeric(spec, config)
            if mode == "oracle":
                method, value = "oracle", oracle_value
        if mode == "both":
            discrepancy = _relative_discrepancy(value, oracle_value)
    except NoValidBridge as exc:
        # inapplicable rather than failed: the analytic method does not cover
        # parity-mismatched order sets
        error = f"NoValidBridge: {exc}"
    except FourBesselError as exc:
        error = f"{type(exc).__name__}: {exc}"
        failed = True
    wall_time = round(time.perf_counter() - start, 6)
    row = [
        spec.lambda1, spec.lambda2, spec.lambda3, spec.lambda4, spec.k1, spec.k2,
        bridge, method, value, oracle_value, oracle_error,
        discrepancy, wall_time, error,
    ]
    return row, failed


def _cmd_batch(args) -> int:
    if (args.input is None) == (args.grid is None):
        print("batch: exactly one of --input or --grid is required", file=sys.stderr)
        return 64
    if args.grid is not None and args.k_pairs is None:
        print("batch: --grid requires --k-pairs", file=sys.stderr)
        return 64
    try:
        if args.input is not None:
            specs = _load_input_specs(args.input)
        else:
            specs = _grid_specs(args.grid, args.k_pairs)
    except _MalformedInput as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 65
    config = _quadrature_config(args)
    # rows are written as they are computed; csv.writer writes None as ""
    writer = None
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_BATCH_COLUMNS)
    any_failed = False
    max_discrepancy = None
    for spec in specs:
        row, failed = _evaluate_row(spec, args.mode, config)
        any_failed = any_failed or failed
        discrepancy = row[_DISCREPANCY_COLUMN]
        if discrepancy is not None and (max_discrepancy is None or discrepancy > max_discrepancy):
            max_discrepancy = discrepancy
        if writer is None:
            print(json.dumps(dict(zip(_BATCH_COLUMNS, row))))
        else:
            writer.writerow(row)
    if writer is None:
        print(json.dumps({"max_discrepancy": max_discrepancy}))
    else:
        footer = "n/a" if max_discrepancy is None else repr(max_discrepancy)
        print(f"# max_discrepancy={footer}")
    if any_failed:
        return 1
    if args.mode == "both" and max_discrepancy is not None:
        if max_discrepancy > 10.0 * config.rel_tol:
            return 1
    return 0


# --------------------------------------------------------------------------
# wigner / legendre / oracle
# --------------------------------------------------------------------------


def _print_exact(value) -> int:
    if value.is_zero:
        print("0")
    else:
        print(f"{value} = {value.to_float()!r}")
    return 0


def _cmd_wigner_3j(args) -> int:
    return _print_exact(wigner_3j_zero(args.j1, args.j2, args.j3))


def _cmd_wigner_6j(args) -> int:
    return _print_exact(wigner_6j(args.j1, args.j2, args.j3, args.j4, args.j5, args.j6))


def _cmd_legendre_p(args) -> int:
    try:
        value = legendre_p(args.l, args.x)
    except DomainError as exc:
        print(f"legendre p: {exc}", file=sys.stderr)
        return 64
    print(repr(value))
    return 0


def _cmd_legendre_assoc(args) -> int:
    try:
        value = assoc_legendre_gt1(args.l, args.m, args.x)
    except DomainError as exc:
        print(f"legendre assoc: {exc}", file=sys.stderr)
        return 64
    print(repr(value))
    return 0


def _cmd_oracle_quad(args) -> int:
    spec = IntegralSpec(args.l1, args.l2, args.l3, args.l4, args.k1, args.k2)
    context = {"lambda": list(spec.orders), "k1": spec.k1, "k2": spec.k2}
    try:
        value, error_estimate = quad_bessel_numeric(spec, _quadrature_config(args))
    except NoConvergence as exc:
        _emit(_error_document(exc, **context))
        return 4
    _emit({"value": value, "error_estimate": error_estimate, **context})
    return 0


def _cmd_oracle_triple(args) -> int:
    context = {
        "l1": args.l1, "l2": args.l2, "L": args.L,
        "k1": args.k1, "k2": args.k2, "K": args.K,
    }
    try:
        value, error_estimate = triple_bessel_numeric(
            args.l1, args.l2, args.L, args.k1, args.k2, args.K,
            _quadrature_config(args),
        )
    except NoConvergence as exc:
        _emit(_error_document(exc, **context))
        return 4
    _emit({"value": value, "error_estimate": error_estimate, **context})
    return 0


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------


def _add_orders_and_momenta(parser: argparse.ArgumentParser) -> None:
    for name in ("l1", "l2", "l3", "l4"):
        parser.add_argument(f"--{name}", type=_nonnegative_int, required=True,
                            help=f"order {name} (non-negative integer)")
    parser.add_argument("--k1", type=_positive_float, required=True, help="first momentum")
    parser.add_argument("--k2", type=_positive_float, required=True, help="second momentum")


def _add_quadrature_flags(parser: argparse.ArgumentParser, full: bool = False) -> None:
    parser.add_argument("--rel-tol", type=_positive_float, default=None,
                        help="oracle target relative tolerance (default 1e-8)")
    parser.add_argument("--max-radius", type=_positive_float, default=None,
                        help="oracle truncation radius (default 4000/min momentum)")
    if full:
        parser.add_argument("--panels-per-period", type=_positive_int, default=None,
                            help="head panels per oscillation period (default 4)")
        parser.add_argument("--acceleration-depth", type=_nonnegative_int, default=None,
                            help="tail averaging depth (default 6)")


def build_parser() -> _Parser:
    parser = _Parser(prog="fourbessel",
                     description="Closed-form four-spherical-Bessel radial integrals "
                                 "with numerical certification.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cmd = commands.add_parser("eval", help="evaluate one integral, JSON output")
    _add_orders_and_momenta(cmd)
    cmd.add_argument("--check", action="store_true", help="also run the oracle and report discrepancy")
    _add_quadrature_flags(cmd)
    cmd.set_defaults(handler=_cmd_eval)

    cmd = commands.add_parser("batch", help="evaluate many integrals, CSV or JSON lines")
    cmd.add_argument("--input", help="CSV file with header l1,l2,l3,l4,k1,k2")
    cmd.add_argument("--grid", type=_nonnegative_int, default=None,
                     help="evaluate all orders in {0..N}^4 (needs --k-pairs)")
    cmd.add_argument("--k-pairs", type=_momentum_pairs, default=None,
                     help="momentum pairs for --grid, e.g. 1:2,2:5")
    cmd.add_argument("--mode", choices=("both", "analytic", "oracle"), default="both")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_quadrature_flags(cmd)
    cmd.set_defaults(handler=_cmd_batch)

    wig = commands.add_parser("wigner", help="exact coupling coefficients")
    wig_kinds = wig.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    cmd = wig_kinds.add_parser("3j", help="3j symbol with zero projections")
    for name in ("j1", "j2", "j3"):
        cmd.add_argument(name, type=_nonnegative_int)
    cmd.set_defaults(handler=_cmd_wigner_3j)
    cmd = wig_kinds.add_parser("6j", help="6j symbol")
    for name in ("j1", "j2", "j3", "j4", "j5", "j6"):
        cmd.add_argument(name, type=_nonnegative_int)
    cmd.set_defaults(handler=_cmd_wigner_6j)

    leg = commands.add_parser("legendre", help="Legendre polynomial / associated function")
    leg_kinds = leg.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    cmd = leg_kinds.add_parser("p", help="Legendre polynomial on [-1, 1]")
    cmd.add_argument("--l", type=_nonnegative_int, required=True)
    cmd.add_argument("--x", type=float, required=True)
    cmd.set_defaults(handler=_cmd_legendre_p)
    cmd = leg_kinds.add_parser("assoc", help="associated Legendre function for x > 1")
    cmd.add_argument("--l", type=_nonnegative_int, required=True)
    cmd.add_argument("--m", type=_order_fraction, required=True,
                     help="order, e.g. -1/2 or -0.5 or 2")
    cmd.add_argument("--x", type=float, required=True)
    cmd.set_defaults(handler=_cmd_legendre_assoc)

    orc = commands.add_parser("oracle", help="direct numerical quadrature")
    orc_kinds = orc.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    cmd = orc_kinds.add_parser("quad", help="four-Bessel integrand")
    _add_orders_and_momenta(cmd)
    _add_quadrature_flags(cmd, full=True)
    cmd.set_defaults(handler=_cmd_oracle_quad)
    cmd = orc_kinds.add_parser("triple", help="weighted triple-Bessel integrand")
    cmd.add_argument("--l1", type=_nonnegative_int, required=True)
    cmd.add_argument("--l2", type=_nonnegative_int, required=True)
    cmd.add_argument("--L", type=_nonnegative_int, required=True)
    cmd.add_argument("--k1", type=_positive_float, required=True)
    cmd.add_argument("--k2", type=_positive_float, required=True)
    cmd.add_argument("--K", type=_positive_float, required=True)
    _add_quadrature_flags(cmd, full=True)
    cmd.set_defaults(handler=_cmd_oracle_triple)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join ``--m -1/2`` style pairs into ``--m=-1/2``.

    argparse treats a separate token beginning with ``-`` as a flag, which
    would otherwise reject negative orders and abscissae.
    """
    merged = []
    skip = False
    for index, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--m", "--x") and index + 1 < len(argv):
            value = argv[index + 1]
            if len(value) > 1 and value[0] == "-" and (value[1].isdigit() or value[1] == "."):
                merged.append(f"{token}={value}")
                skip = True
                continue
        merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_merge_dash_values(tokens))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 64


def entry() -> None:
    sys.exit(main())
