"""Command-line surface for the four-Bessel integral library.

Subcommands:

* ``eval``      one integral as a JSON document (optionally oracle-checked)
* ``batch``     CSV/JSON-lines runs over an input file or an order grid
* ``wigner``    exact 3j/6j symbols ("+sqrt(2/15)" style plus decimal)
* ``legendre``  Legendre polynomial / associated-function evaluation
* ``oracle``    direct numerical quadrature (quad or triple integrand)

Exit codes: 0 success; 1 batch row failures or discrepancy threshold exceeded;
2 no parity-valid bridge order; 4 quadrature non-convergence; 64 usage errors,
including momenta whose value leaves the float range; 65 malformed batch input;
141 the reader closed standard output early (128 + SIGPIPE).

The numerical oracle is imported by the handlers that run it, on their first
call: ``eval`` without ``--check``, ``batch --mode analytic`` and the
``wigner`` and ``legendre`` commands never load it or numpy. Likewise only
the ``legendre`` handlers import ``fourbessel.legendre``.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .core import IntegralSpec, require_momentum
from .errors import (
    DomainError,
    FourBesselError,
    NoConvergence,
    NoValidBridge,
)
from .quadbessel import _evaluate, evaluate
from .wigner import _bridge_verdict, wigner_3j_zero, wigner_6j

_BATCH_COLUMNS = [
    "l1", "l2", "l3", "l4", "k1", "k2",
    "L", "method", "value", "oracle_value", "oracle_error",
    "discrepancy", "wall_time_s", "error",
]
_CSV_HEADER = ",".join(_BATCH_COLUMNS) + "\n"


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


def quad_bessel_numeric(spec: IntegralSpec, config=None) -> tuple[float, float]:
    """The oracle's ``quad_bessel_numeric``, imported on the first call.

    Every handler reaches the oracle through this module-level name, so
    replacing it (to trace or count oracle runs) covers them all.
    """
    from .oracle import quad_bessel_numeric as numeric

    return numeric(spec, config)


def _quadrature_config(args):
    """The oracle's QuadratureConfig, with ``--rel-tol`` when it is given."""
    from .oracle import QuadratureConfig

    if args.rel_tol is None:
        return QuadratureConfig()
    return QuadratureConfig(rel_tol=args.rel_tol)


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
    if args.rel_tol is not None and not args.check:
        print("eval: --rel-tol requires --check", file=sys.stderr)
        return 64
    spec = IntegralSpec(args.l1, args.l2, args.l3, args.l4, args.k1, args.k2)
    context = {"lambda": list(spec.orders), "k1": spec.k1, "k2": spec.k2}
    try:
        report = evaluate(spec)
    except NoValidBridge as exc:
        _emit(_error_document(exc, **context))
        return 2
    document = report.as_dict(spec)
    if args.check:
        try:
            oracle_value, oracle_error = quad_bessel_numeric(spec, _quadrature_config(args))
        except NoConvergence as exc:
            _emit(_error_document(exc, **context))
            return 4
        document["oracle"] = {"value": oracle_value, "error_estimate": oracle_error}
        document["discrepancy"] = _relative_discrepancy(report.value, oracle_value)
    _emit(document)
    return 0


# --------------------------------------------------------------------------
# batch
# --------------------------------------------------------------------------


def _load_input_rows(path: str) -> list[tuple]:
    """The (l1, l2, l3, l4, k1, k2) rows of a batch input file, each checked by an IntegralSpec."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheets write
        handle = open(path, newline="", encoding="utf-8-sig")
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
        rows = []
        for line_number, row in enumerate(reader, start=2):
            try:
                values = (
                    int(row["l1"]), int(row["l2"]),
                    int(row["l3"]), int(row["l4"]),
                    float(row["k1"]), float(row["k2"]),
                )
                # the spec's fields are these values once it has accepted them
                IntegralSpec(*values)
            except (TypeError, ValueError, DomainError) as exc:
                raise _MalformedInput(f"{path!r} line {line_number}: {exc}") from None
            rows.append(values)
    if not rows:
        raise _MalformedInput(f"{path!r} contains no integral specs")
    return rows


def _grid_rows(
    order_max: int, momentum_pairs: list[tuple[float, float]], momenta_format: str
) -> Iterator[tuple]:
    """Each order tuple of {0..order_max}^4, lazily, with every pair as (its text, k1, k2).

    The momenta are validated before the first row, in the order the rows meet
    them; each distinct one is formatted once, with repr, into momenta_format.
    """
    for k1, k2 in momentum_pairs:
        require_momentum(k1, "k1")
        require_momentum(k2, "k2")
    text = {k: repr(k) for k in set(itertools.chain.from_iterable(momentum_pairs))}
    pairs = [(momenta_format.format(text[k1], text[k2]), k1, k2) for k1, k2 in momentum_pairs]
    return ((orders, pairs) for orders in itertools.product(range(order_max + 1), repeat=4))


def _csv_text(text: str) -> str:
    """A free-text CSV field, quoted as ``csv.writer(..., lineterminator="\\n")`` quotes it."""
    if "\r" in text:
        # csv quotes a lone \r on CPython 3.13 and leaves it bare before, so
        # csv itself decides
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text])
        return buffer.getvalue()[:-1]
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(orders, momenta, bridge, method, value, oracle_value, oracle_error,
              discrepancy, wall_time, error) -> str:
    """One batch row as a CSV line: byte for byte what ``csv.writer(...,
    lineterminator="\\n")`` writes for its fields in _BATCH_COLUMNS order.

    ``orders`` is "l1,l2,l3,l4,", ``momenta`` "k1,k2,", ``wall_time`` its text and
    ``error`` its text from _csv_text or None. L is an int, ``method`` a word that
    needs no quoting, each float is written as its repr and None as an empty field.
    """
    return (
        f"{orders}{momenta}"
        f"{'' if bridge is None else bridge},{'' if method is None else method},"
        f"{'' if value is None else f'{value!r}'},"
        f"{'' if oracle_value is None else f'{oracle_value!r}'},"
        f"{'' if oracle_error is None else f'{oracle_error!r}'},"
        f"{'' if discrepancy is None else f'{discrepancy!r}'},"
        f"{wall_time},{'' if error is None else error}\n"
    )


_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_number(value) -> str:
    """A float or None as ``json.dumps`` writes it."""
    text = "null" if value is None else f"{value!r}"
    return _JSON_NONFINITE.get(text, text)


def _json_line(orders, momenta, bridge, method, value, oracle_value, oracle_error,
               discrepancy, wall_time, error) -> str:
    """_csv_line's row as a JSON line: byte for byte ``json.dumps(dict(zip(_BATCH_COLUMNS,
    fields)))`` and a newline. Its pieces are in JSON: ``orders`` is '{"l1": 0, "l2": 1,
    "l3": 1, "l4": 0, ', ``momenta`` '"k1": 1.0, "k2": 2.0, ' and ``error`` from json.dumps.
    """
    method = "null" if method is None else f'"{method}"'
    return (
        f'{orders}{momenta}"L": {"null" if bridge is None else bridge}, "method": {method}, '
        f'"value": {_json_number(value)}, "oracle_value": {_json_number(oracle_value)}, '
        f'"oracle_error": {_json_number(oracle_error)}, '
        f'"discrepancy": {_json_number(discrepancy)}, '
        f'"wall_time_s": {wall_time}, "error": {"null" if error is None else error}}}\n'
    )


# per --format: the header, the orders' and the momenta's text as format
# strings, the text of a free-text field, and the row's line
_BATCH_FORMATS = {
    "csv": (_CSV_HEADER, "{},{},{},{},", "{},{},", _csv_text, _csv_line),
    "json": ("", '{{"l1": {}, "l2": {}, "l3": {}, "l4": {}, ', '"k1": {}, "k2": {}, ',
             json.dumps, _json_line),
}

# wall_time_s below a millisecond, in whole microseconds: for each of them
# repr(n / 1e6) is also repr(round(n / 1e6, 6))
_WALL_TIME_TEXT = [repr(n / 1e6) for n in range(1000)]


def _cmd_batch(args) -> int:
    if (args.input is None) == (args.grid is None):
        print("batch: exactly one of --input or --grid is required", file=sys.stderr)
        return 64
    if args.grid is not None and args.k_pairs is None:
        print("batch: --grid requires --k-pairs", file=sys.stderr)
        return 64
    if args.grid is None and args.k_pairs is not None:
        print("batch: --k-pairs requires --grid", file=sys.stderr)
        return 64
    if args.rel_tol is not None and args.mode == "analytic":
        print("batch: --rel-tol requires --mode both or oracle", file=sys.stderr)
        return 64
    header, orders_format, momenta_format, field_text, line = _BATCH_FORMATS[args.format]
    try:
        if args.input is not None:
            rows = _load_input_rows(args.input)
            # consecutive rows with the same orders share their tuple's work
            groups = (
                (orders, [(momenta_format.format(k1, k2), k1, k2) for *_, k1, k2 in group])
                for orders, group in itertools.groupby(rows, key=lambda row: row[:4])
            )
        else:
            groups = _grid_rows(args.grid, args.k_pairs, momenta_format)
    except _MalformedInput as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 65
    config = None
    if args.mode != "analytic":
        config = _quadrature_config(args)
        # the oracle imports numpy and its Gauss rules on first use; loaded
        # here, that import is timed in no row
        import numpy.polynomial.legendre  # noqa: F401
    # rows are written as they are computed
    write, clock = sys.stdout.write, time.perf_counter_ns
    write(header)
    analytic, oracle = args.mode != "oracle", args.mode != "analytic"
    any_failed = False
    max_discrepancy = None
    # a tuple's text and bridge verdict are made once and timed in no row
    for (l1, l2, l3, l4), pairs in groups:
        orders = orders_format.format(l1, l2, l3, l4)
        refusal = None
        if analytic and type(verdict := _bridge_verdict(l1, l2, l3, l4)) is str:
            # inapplicable rather than failed: the closed form covers only tuples
            # with a bridge order, and the cached refusal is the text a
            # NoValidBridge would carry. Neither engine runs on its rows.
            refusal = field_text(f"NoValidBridge: {verdict}")
        for momenta, k1, k2 in pairs:
            bridge = method = value = oracle_value = oracle_error = discrepancy = None
            error = refusal
            start = clock()
            if refusal is None:
                try:
                    if analytic:
                        value, bridge, method = _evaluate(l1, l2, l3, l4, k1, k2)[:3]
                    if oracle:
                        spec = IntegralSpec(l1, l2, l3, l4, k1, k2)
                        oracle_value, oracle_error = quad_bessel_numeric(spec, config)
                        if analytic:
                            discrepancy = _relative_discrepancy(value, oracle_value)
                            if max_discrepancy is None or discrepancy > max_discrepancy:
                                max_discrepancy = discrepancy
                        else:
                            method, value = "oracle", oracle_value
                except FourBesselError as exc:
                    error = field_text(f"{type(exc).__name__}: {exc}")
                    any_failed = True
            micros = (clock() - start + 500) // 1000  # rounded half up
            write(line(
                orders, momenta, bridge, method, value, oracle_value, oracle_error, discrepancy,
                _WALL_TIME_TEXT[micros] if micros < 1000 else f"{micros / 1e6!r}", error,
            ))
    if args.format == "json":
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
    from .legendre import legendre_p

    print(repr(legendre_p(args.l, args.x)))
    return 0


def _cmd_legendre_assoc(args) -> int:
    from .legendre import assoc_legendre_gt1

    print(repr(assoc_legendre_gt1(args.l, args.m, args.x)))
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
        from .oracle import triple_bessel_numeric

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


def _add_quadrature_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rel-tol", type=_positive_float, default=None,
                        help="oracle target relative tolerance (default 1e-8)")


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI's argument parser, built once per process; parsing leaves it unchanged."""
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
    _add_quadrature_flags(cmd)
    cmd.set_defaults(handler=_cmd_oracle_quad)
    cmd = orc_kinds.add_parser("triple", help="weighted triple-Bessel integrand")
    cmd.add_argument("--l1", type=_nonnegative_int, required=True)
    cmd.add_argument("--l2", type=_nonnegative_int, required=True)
    cmd.add_argument("--L", type=_nonnegative_int, required=True)
    cmd.add_argument("--k1", type=_positive_float, required=True)
    cmd.add_argument("--k2", type=_positive_float, required=True)
    cmd.add_argument("--K", type=_positive_float, required=True)
    _add_quadrature_flags(cmd)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``fourbessel batch | head``): what is still
        # buffered goes to the null device, so the flush at shutdown is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # the shell's status for a death by SIGPIPE
    sys.exit(code)
