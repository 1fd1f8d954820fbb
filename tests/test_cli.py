"""Command-line interface: subcommands, schemas, exit codes."""
from __future__ import annotations

import builtins
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import subprocess
import sys
import textwrap
import time
import types

import pytest

from fourbessel import EvaluationReport, IntegralSpec, QuadratureConfig, evaluate
from fourbessel import cli, quadbessel, wigner
from fourbessel.errors import FourBesselError, NoValidBridge
from fourbessel.oracle import quad_bessel_numeric


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "fourbessel", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def test_eval_json_schema_and_value():
    result = run_cli("eval", "--l1", "1", "--l2", "0", "--l3", "1", "--l4", "2",
                     "--k1", "1", "--k2", "2")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["lambda"] == [1, 0, 1, 2]
    assert document["k1"] == 1.0 and document["k2"] == 2.0
    assert document["L"] == 1
    assert document["method"] == "analytic"
    assert document["value"] == pytest.approx(-0.045814892864851151, rel=1e-12)
    assert document["terms"], "term breakdown expected"
    assert {"indices", "value"} <= set(document["terms"][0])
    assert "oracle" not in document


def test_eval_check_adds_oracle_block():
    result = run_cli("eval", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "0",
                     "--k1", "1", "--k2", "2", "--check")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    oracle = document["oracle"]
    assert oracle["value"] == pytest.approx(math.pi / 16.0, rel=1e-7)
    assert oracle["error_estimate"] > 0.0
    assert document["discrepancy"] < 1e-6


def test_eval_check_document_keeps_its_keys_in_order():
    # the oracle block is the CLI's own: EvaluationReport has no oracle fields
    result = run_cli("eval", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
                     "--k1", "1", "--k2", "2", "--check")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert list(document) == [
        "lambda", "k1", "k2", "L", "value", "method", "terms", "oracle", "discrepancy",
    ]
    assert list(document["oracle"]) == ["value", "error_estimate"]
    assert [field.name for field in dataclasses.fields(EvaluationReport)] == [
        "value", "bridge_L", "terms", "method",
    ]


def test_eval_round_trip_is_bit_identical():
    result = run_cli("eval", "--l1", "2", "--l2", "1", "--l3", "1", "--l4", "2",
                     "--k1", "1", "--k2", "2")
    document = json.loads(result.stdout)
    report = evaluate(IntegralSpec(*document["lambda"], document["k1"], document["k2"]))
    assert report.value == document["value"]
    again = json.loads(run_cli("eval", "--l1", "2", "--l2", "1", "--l3", "1", "--l4", "2",
                               "--k1", "1", "--k2", "2").stdout)
    assert again == document


def test_eval_no_valid_bridge_exit_2():
    result = run_cli("eval", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "1",
                     "--k1", "1", "--k2", "2")
    assert result.returncode == 2
    document = json.loads(result.stdout)
    assert document["error"]["type"] == "NoValidBridge"
    assert "parity" in document["error"]["message"]


def test_eval_degenerate_momenta_returns_the_closed_form():
    argv = ("eval", "--l1", "2", "--l2", "0", "--l3", "0", "--l4", "2", "--k1", "1", "--k2", "1")
    result = run_cli(*argv)
    assert result.returncode == 0 and result.stderr == ""
    document = json.loads(result.stdout)
    assert document["method"] == "analytic" and document["L"] == 2
    # pi/20: the (2,0,0,2) kernel at t = 1
    assert document["value"] == pytest.approx(math.pi / 20.0, rel=1e-14)
    checked = run_cli(*argv, "--check")
    assert checked.returncode == 0
    document = json.loads(checked.stdout)
    assert document["oracle"]["value"] == pytest.approx(math.pi / 20.0, rel=1e-7)
    assert document["discrepancy"] < 1e-7


def test_eval_out_of_range_momenta_exit_64():
    result = run_cli("eval", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
                     "--k1", "1e300", "--k2", "1e300")
    assert result.returncode == 64
    assert "float range" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_eval_usage_errors_exit_64():
    assert run_cli("eval", "--l1", "1").returncode == 64
    assert run_cli("eval", "--l1", "-1", "--l2", "0", "--l3", "0", "--l4", "1",
                   "--k1", "1", "--k2", "2").returncode == 64
    assert run_cli("eval", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "0",
                   "--k1", "0", "--k2", "2").returncode == 64
    assert run_cli("nonsense").returncode == 64
    assert run_cli().returncode == 64


# --------------------------------------------------------------------------
# batch
# --------------------------------------------------------------------------


def test_batch_grid_both_modes():
    result = run_cli("batch", "--grid", "1", "--k-pairs", "1:2", "--mode", "both")
    assert result.returncode == 0
    assert "\r" not in result.stdout
    lines = result.stdout.strip().split("\n")
    assert lines[0] == ("l1,l2,l3,l4,k1,k2,L,method,value,oracle_value,"
                        "oracle_error,discrepancy,wall_time_s,error")
    assert lines[-1].startswith("# max_discrepancy=")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[:-1]))))
    assert len(rows) == 16
    bridged = [row for row in rows if not row["error"]]
    skipped = [row for row in rows if row["error"]]
    assert len(bridged) == 8 and len(skipped) == 8
    assert all(row["error"].startswith("NoValidBridge") for row in skipped)
    assert float(lines[-1].split("=", 1)[1]) < 1e-6
    # rows come back in grid iteration order
    assert [row["l1"] + row["l2"] + row["l3"] + row["l4"] for row in rows[:4]] == [
        "0000", "0001", "0010", "0011"
    ]


def test_batch_grid_both_covers_equal_momenta():
    # every tuple in {0, 1}^4 at k1 = k2 and at (2, 5): the 8 tuples with a
    # bridge order are answered at both pairs and agree with the oracle
    code, text = _batch_in_process(["batch", "--grid", "1", "--k-pairs", "1:1,2:5",
                                    "--mode", "both"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
    assert len(rows) == 32
    declined = [row for row in rows if row["error"].startswith("NoValidBridge: ")]
    answered = [row for row in rows if not row["error"]]
    assert len(declined) == 16 and len(answered) == 16
    assert {(row["k1"], row["k2"]) for row in answered} == {("1.0", "1.0"), ("2.0", "5.0")}
    rel_tol = QuadratureConfig().rel_tol
    for row in answered:
        assert float(row["discrepancy"]) <= 10.0 * rel_tol, row


def test_batch_input_file_analytic_csv(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n1,0,1,2,1,2\n0,0,0,0,1,2\n", encoding="utf-8")
    result = run_cli("batch", "--input", str(path), "--mode", "analytic")
    assert result.returncode == 0
    rows = [line for line in result.stdout.strip().split("\n")
            if line and not line.startswith("#") and not line.startswith("l1")]
    assert len(rows) == 2
    first = rows[0].split(",")
    assert first[:6] == ["1", "0", "1", "2", "1.0", "2.0"]
    assert float(first[8]) == pytest.approx(-0.045814892864851151, rel=1e-12)
    assert result.stdout.strip().endswith("# max_discrepancy=n/a")


def test_batch_input_reads_a_byte_order_mark(tmp_path):
    # spreadsheets save "CSV UTF-8" with a byte-order mark before the header
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfl1,l2,l3,l4,k1,k2\n1,1,1,1,1,2\n")
    code, text = _batch_in_process(["batch", "--input", str(path), "--mode", "analytic"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
    assert len(rows) == 1 and rows[0]["error"] == ""
    assert float(rows[0]["value"]) == evaluate(IntegralSpec(1, 1, 1, 1, 1.0, 2.0)).value


def test_batch_oracle_mode(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n0,0,0,0,1,2\n", encoding="utf-8")
    result = run_cli("batch", "--input", str(path), "--mode", "oracle", "--format", "json")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    row = json.loads(lines[0])
    assert row["method"] == "oracle"
    assert row["value"] == pytest.approx(math.pi / 16.0, rel=1e-7)
    assert row["oracle_error"] > 0.0 and row["wall_time_s"] >= 0.0
    assert json.loads(lines[-1]) == {"max_discrepancy": None}


def test_batch_json_footer_carries_max_discrepancy():
    result = run_cli("batch", "--grid", "0", "--k-pairs", "1:2,2:5", "--format", "json")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 3
    footer = json.loads(lines[-1])
    assert 0.0 < footer["max_discrepancy"] < 1e-6


def test_batch_degenerate_row_has_a_value(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n2,0,0,2,1,1\n0,0,0,0,1,2\n", encoding="utf-8")
    result = run_cli("batch", "--input", str(path), "--mode", "analytic")
    assert result.returncode == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout.rsplit("#", 1)[0])))
    assert [row["error"] for row in rows] == ["", ""]
    assert float(rows[0]["value"]) == pytest.approx(math.pi / 20.0, rel=1e-14)


def test_batch_out_of_range_row_is_a_row_error(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n0,0,0,0,1e-300,1e-300\n0,0,0,0,1,2\n",
                    encoding="utf-8")
    for mode in ("analytic", "oracle"):
        result = run_cli("batch", "--input", str(path), "--mode", mode)
        assert result.returncode == 1, mode
        assert "Traceback" not in result.stderr
        rows = list(csv.DictReader(io.StringIO(result.stdout.rsplit("#", 1)[0])))
        assert rows[0]["error"].startswith("DomainError: ") and rows[0]["value"] == ""
        assert rows[1]["error"] == ""
        assert float(rows[1]["value"]) == pytest.approx(math.pi / 16.0, rel=1e-7)


def test_batch_unallocatable_oracle_head_is_a_row_error(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n1,1,1,1,1e-300,1\n0,0,0,0,1,2\n", encoding="utf-8")
    code, text = _batch_in_process(["batch", "--input", str(path), "--mode", "oracle"])
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
    assert rows[0]["error"].startswith("DomainError: momenta (1e-300, 1.0) are too far apart")
    assert rows[0]["value"] == ""
    assert float(rows[1]["value"]) == pytest.approx(math.pi / 16.0, rel=1e-7)


def test_batch_malformed_inputs_exit_65(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    header_only = tmp_path / "header.csv"
    header_only.write_text("l1,l2,l3,l4,k1,k2\n", encoding="utf-8")
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b\n1,2\n", encoding="utf-8")
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("l1,l2,l3,l4,k1,k2\n1,zap,1,2,1,2\n", encoding="utf-8")
    bad_momentum = tmp_path / "bad_momentum.csv"
    bad_momentum.write_text("l1,l2,l3,l4,k1,k2\n1,1,1,1,-3,2\n", encoding="utf-8")
    for path in (empty, header_only, bad_header, bad_cell, bad_momentum):
        result = run_cli("batch", "--input", str(path))
        assert result.returncode == 65, path.name
        assert result.stderr
    assert run_cli("batch", "--input", str(tmp_path / "missing.csv")).returncode == 65


def test_batch_source_flags_are_exclusive(tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n0,0,0,0,1,2\n", encoding="utf-8")
    assert run_cli("batch").returncode == 64
    assert run_cli("batch", "--input", str(path), "--grid", "1",
                   "--k-pairs", "1:2").returncode == 64
    assert run_cli("batch", "--grid", "1").returncode == 64
    assert run_cli("batch", "--grid", "1", "--k-pairs", "nope").returncode == 64
    result = run_cli("batch", "--input", str(path), "--k-pairs", "3:4")
    assert result.returncode == 64 and result.stdout == ""
    assert result.stderr == "batch: --k-pairs requires --grid\n"


def test_rel_tol_without_an_oracle_run_is_a_usage_error(capsys):
    # the tolerance reaches only the oracle; without an oracle run it was
    # once accepted and ignored
    eval_argv = ["eval", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
                 "--k1", "1", "--k2", "2"]
    batch_argv = ["batch", "--grid", "1", "--k-pairs", "1:2"]
    for argv, message in (
        ([*eval_argv, "--rel-tol", "1e-9"], "eval: --rel-tol requires --check\n"),
        ([*batch_argv, "--mode", "analytic", "--rel-tol", "1e-9"],
         "batch: --rel-tol requires --mode both or oracle\n"),
    ):
        assert cli.main(argv) == 64, argv
        assert capsys.readouterr() == ("", message), argv
    for argv in (
        [*eval_argv, "--check", "--rel-tol", "1e-9"],
        [*batch_argv, "--mode", "oracle", "--rel-tol", "1e-9"],
        [*batch_argv, "--rel-tol", "1e-9"],
    ):
        assert cli.main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out and not err, argv


@pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("slot", ["k1", "k2"])
def test_batch_refuses_a_bad_grid_momentum_before_any_output(text, slot, capsys):
    # the bad momentum sits in the second pair: the grid streams its rows,
    # so every pair must be checked before the header is written
    bad = f"{text}:3" if slot == "k1" else f"3:{text}"
    for output in ("csv", "json"):
        code = cli.main(["batch", "--grid", "1", "--k-pairs", f"1:2,{bad}",
                         "--mode", "analytic", "--format", output])
        out, err = capsys.readouterr()
        assert code == 64 and out == ""
        assert err == (f"fourbessel: error: {slot} must be positive and finite, "
                       f"got {float(text)!r}\n")


def test_analytic_batch_rows_build_no_per_row_objects(monkeypatch, tmp_path):
    built = {"IntegralSpec": 0, "EvaluationReport": 0, "NoValidBridge": 0}
    verdicts = []

    def counting_verdict(*orders):
        verdicts.append(orders)
        return wigner._bridge_verdict(*orders)

    def counting(cls):
        def build(*args, **kwargs):
            built[cls.__name__] += 1
            return cls(*args, **kwargs)
        return build

    class CountedRefusal(NoValidBridge):
        def __init__(self, *args):
            built["NoValidBridge"] += 1
            super().__init__(*args)

    for module, cls in ((cli, IntegralSpec), (quadbessel, IntegralSpec),
                        (quadbessel, EvaluationReport)):
        monkeypatch.setattr(module, cls.__name__, counting(cls))
    monkeypatch.setattr(wigner, "NoValidBridge", CountedRefusal)
    monkeypatch.setattr(cli, "_bridge_verdict", counting_verdict)
    for output in ("csv", "json"):
        verdicts.clear()
        code, text = _batch_in_process(["batch", "--grid", "2", "--k-pairs", "1:2,3:1",
                                        "--mode", "analytic", "--format", output])
        assert code == 0 and text.count("\n") == 81 * 2 + 1 + (output == "csv")
        # the declined rows read the cached refusal: no exception is made
        assert text.count("NoValidBridge: ") == 44 * 2
        assert built == {"IntegralSpec": 0, "EvaluationReport": 0, "NoValidBridge": 0}, output
        # one verdict per order tuple, read before its two rows
        assert verdicts == list(itertools.product(range(3), repeat=4)), output
    # eval still raises its refusal, and exits 2
    code, text = _batch_in_process(["eval", "--l1", "0", "--l2", "0", "--l3", "0",
                                    "--l4", "1", "--k1", "1", "--k2", "2"])
    assert code == 2 and json.loads(text)["error"]["type"] == "CountedRefusal"
    assert built["NoValidBridge"] == 1
    built.update(IntegralSpec=0, NoValidBridge=0)
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n1,1,1,1,1,2\n0,0,0,0,3,4\n1,0,1,2,2,1\n",
                    encoding="utf-8")
    code, text = _batch_in_process(["batch", "--input", str(path), "--mode", "analytic"])
    # the three specs validate the file's rows as it is read
    assert code == 0 and built == {"IntegralSpec": 3, "EvaluationReport": 0, "NoValidBridge": 0}
    built.update(IntegralSpec=0)
    code, text = _batch_in_process(["batch", "--grid", "1", "--k-pairs", "1:2,3:3",
                                    "--mode", "both"])
    # one spec per row that reaches the oracle: the declined rows run neither engine
    assert code == 0 and text.count("NoValidBridge: ") == 8 * 2
    assert built == {"IntegralSpec": 8 * 2, "EvaluationReport": 0, "NoValidBridge": 0}


def _reference_evaluate_row(spec, mode, config):
    """The batch row as a dict, computed as batch did before it streamed its rows."""
    row = dict.fromkeys(cli._BATCH_COLUMNS)
    row.update(
        l1=spec.lambda1, l2=spec.lambda2, l3=spec.lambda3, l4=spec.lambda4,
        k1=spec.k1, k2=spec.k2,
    )
    failed = False
    start = time.perf_counter()
    try:
        if mode in ("analytic", "both"):
            report = evaluate(spec)
            row["L"] = report.bridge_L
            row["method"] = report.method
            row["value"] = report.value
        if mode in ("oracle", "both"):
            value, error_estimate = quad_bessel_numeric(spec, config)
            row["oracle_value"] = value
            row["oracle_error"] = error_estimate
            if mode == "oracle":
                row["method"] = "oracle"
                row["value"] = value
        if mode == "both":
            row["discrepancy"] = cli._relative_discrepancy(row["value"], row["oracle_value"])
    except NoValidBridge as exc:
        row["error"] = f"NoValidBridge: {exc}"
    except FourBesselError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        failed = True
    row["wall_time_s"] = round(time.perf_counter() - start, 6)
    return row, failed


def _reference_batch(argv):
    """(exit code, stdout) of a batch run that collects its rows, then writes them."""
    args = cli.build_parser().parse_args(argv)
    if args.input is not None:
        loaded = cli._load_input_rows(args.input)
    else:
        # orders outer, pairs inner
        loaded = [
            (*orders, k1, k2)
            for orders in itertools.product(range(args.grid + 1), repeat=4)
            for k1, k2 in args.k_pairs
        ]
    specs = [IntegralSpec(*values) for values in loaded]
    config = cli._quadrature_config(args)
    out = io.StringIO()
    rows = []
    any_failed = False
    for spec in specs:
        row, failed = _reference_evaluate_row(spec, args.mode, config)
        rows.append(row)
        any_failed = any_failed or failed
    discrepancies = [row["discrepancy"] for row in rows if row["discrepancy"] is not None]
    max_discrepancy = max(discrepancies) if discrepancies else None
    if args.format == "csv":
        writer = csv.DictWriter(out, fieldnames=cli._BATCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: ("" if val is None else val) for key, val in row.items()})
        footer = "n/a" if max_discrepancy is None else repr(max_discrepancy)
        print(f"# max_discrepancy={footer}", file=out)
    else:
        for row in rows:
            print(json.dumps(row), file=out)
        print(json.dumps({"max_discrepancy": max_discrepancy}), file=out)
    code = 0
    if any_failed:
        code = 1
    elif args.mode == "both" and max_discrepancy is not None:
        if max_discrepancy > 10.0 * config.rel_tol:
            code = 1
    return code, out.getvalue()


def _batch_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _without_wall_time(text):
    """Batch output with the wall_time_s column removed, otherwise byte for byte."""
    lines = []
    for line in text.splitlines(keepends=True):
        if line.startswith("{"):
            line = re.sub(r'"wall_time_s": [^,}]*, ', "", line)
        elif not line.startswith("#"):
            # the twelve columns before wall_time_s never contain a comma
            fields = line.split(",", 13)
            line = ",".join(fields[:12] + fields[13:])
        lines.append(line)
    return "".join(lines)


def _csv_writer_line(row):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(row)
    return out.getvalue()


def _formatter_rows():
    """Batch rows as their 14 fields: every mode's outcomes, free texts and extreme floats."""
    config = QuadratureConfig()
    specs = [
        IntegralSpec(1, 0, 1, 2, 1.0, 2.0),  # analytic
        IntegralSpec(2, 0, 0, 2, 1.0, 1.0),  # paired, k1 = k2
        IntegralSpec(0, 0, 0, 1, 1.0, 2.0),  # declined: parities
        IntegralSpec(0, 0, 2, 0, 1.0, 2.0),  # declined: triangle windows, with commas
        IntegralSpec(0, 0, 0, 0, 1e-300, 1e-300),  # DomainError with commas
        IntegralSpec(1, 1, 1, 1, 1e-300, 1.0),  # analytic answers, the oracle refuses
    ]
    rows = [
        list(_reference_evaluate_row(spec, mode, config)[0].values())
        for mode in ("analytic", "oracle", "both")
        for spec in specs
    ]
    errors = {row[-1].split(":")[0] for row in rows if row[-1] is not None}
    assert errors == {"NoValidBridge", "DomainError"}
    assert {row[7] for row in rows} == {"analytic", "paired", "oracle", None}
    assert any(row[8] is not None and row[-1] is not None for row in rows)
    texts = ["a, b", 'say "no"', "a\rb", "a\nb", "\r\n", " leading space",
             "naïve ∫ r² dr = π/16", 'all, "of"\r\nthem', "", "plain"]
    rows += [[0, 0, 0, 1, 1.0, 2.0, None, None, None, None, None, None, 1e-06, text]
             for text in texts]
    floats = [1e-05, -0.0, 5e-324, 1.7976931348623157e+308, 0.30000000000000004]
    rows += [[2, 1, 1, 2, x, x, 3, "analytic", x, x, x, x, x, None] for x in floats]
    return rows


def _formatted_line(output, row):
    """cli's line for one row, from the per-tuple and per-row pieces batch makes."""
    _, orders_format, momenta_format, field_text, line = cli._BATCH_FORMATS[output]
    l1, l2, l3, l4, k1, k2, *middle, wall_time, error = row
    return line(
        orders_format.format(l1, l2, l3, l4), momenta_format.format(repr(k1), repr(k2)),
        *middle, repr(wall_time), None if error is None else field_text(error),
    )


def test_csv_line_matches_csv_writer():
    for row in _formatter_rows():
        assert _formatted_line("csv", row) == _csv_writer_line(row), row


def test_json_line_matches_json_dumps():
    rows = _formatter_rows()
    # json.dumps writes the floats that have no repr in JSON by their own names
    rows += [[0, 3, 3, 0, 1.5, 0.5, 3, "oracle", x, x, x, x, 0.25, None]
             for x in (math.inf, -math.inf, math.nan)]
    for row in rows:
        expected = json.dumps(dict(zip(cli._BATCH_COLUMNS, row))) + "\n"
        assert _formatted_line("json", row) == expected, row


def test_wall_time_is_whole_microseconds_rounded_half_up(monkeypatch):
    # below a millisecond each text is read from the table, and above it is
    # made as it would have been from the rounded seconds
    assert len(cli._WALL_TIME_TEXT) == 1000
    for n, text in enumerate(cli._WALL_TIME_TEXT):
        assert text == repr(round(n / 1e6, 6)), n
    expected = {
        0: "0.0", 499: "0.0", 500: "1e-06", 2_500: "3e-06", 999_499: "0.000999",
        999_500: "0.001", 1_234_567: "0.001235", 12_345_678_901_234: "12345.678901",
    }
    for step, text in expected.items():
        # a clock that advances by step on every read: each row takes step ns
        ticks = itertools.count(start=10**12, step=step)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter_ns=ticks.__next__))
        code, text_csv = _batch_in_process(["batch", "--grid", "1", "--k-pairs", "1:2",
                                            "--mode", "analytic"])
        rows = list(csv.DictReader(io.StringIO(text_csv.rsplit("#", 1)[0])))
        assert code == 0 and {row["wall_time_s"] for row in rows} == {text}, step
        assert len(rows) == 16 and text == repr(round((step + 500) // 1000 / 1e6, 6))
        code, text_json = _batch_in_process(["batch", "--grid", "1", "--k-pairs", "1:2",
                                             "--mode", "analytic", "--format", "json"])
        lines = text_json.splitlines()[:-1]
        assert code == 0 and all(f'"wall_time_s": {text}, ' in line for line in lines), step
        assert {json.loads(line)["wall_time_s"] for line in lines} == {float(text)}


# pairs that share and swap momenta, one of them not the shortest decimal
_SHARED_PAIRS = "0.1:0.30000000000000004,0.30000000000000004:0.1,2:2"
_OUT_OF_RANGE_PAIRS = "1e-300:1e-300,1e300:1"


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "--grid", "2", "--k-pairs", "1:1.1,3:1", "--mode", "analytic"],
        ["batch", "--grid", "2", "--k-pairs", "1:1.1,3:1", "--mode", "analytic",
         "--format", "json"],
        ["batch", "--grid", "1", "--k-pairs", "1:2", "--mode", "both"],
        ["batch", "--grid", "2", "--k-pairs", _SHARED_PAIRS, "--mode", "analytic"],
        ["batch", "--grid", "2", "--k-pairs", _SHARED_PAIRS, "--mode", "analytic",
         "--format", "json"],
        ["batch", "--input", "{specs}"],
        ["batch", "--input", "{distinct}", "--mode", "analytic"],
        ["batch", "--input", "{distinct}", "--mode", "oracle"],
        # the declined rows carry both refusals, one of them with commas
        ["batch", "--grid", "2", "--k-pairs", "2:5", "--mode", "both"],
        ["batch", "--input", "{out_of_range}", "--mode", "both"],
        # every row's value, or t = k_lo/k_hi, leaves the float range
        ["batch", "--grid", "2", "--k-pairs", _OUT_OF_RANGE_PAIRS, "--mode", "analytic"],
        ["batch", "--grid", "2", "--k-pairs", _OUT_OF_RANGE_PAIRS, "--mode", "analytic",
         "--format", "json"],
    ],
)
def test_streamed_batch_matches_collected_rendering(argv, tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text(
        "l1,l2,l3,l4,k1,k2\n2,0,0,2,1,1\n0,0,0,1,1,2\n1,0,1,2,1,2\n0,0,0,0,1,2\n",
        encoding="utf-8",
    )
    # every momentum differs, and some are written otherwise than their repr
    distinct = tmp_path / "distinct.csv"
    distinct.write_text(
        "l1,l2,l3,l4,k1,k2\n1,1,1,1,0.1,0.30000000000000004\n2,0,0,2,1.10,1e-5\n"
        "1,0,1,2,7.25,12345.678\n0,0,0,0,3.3333333333333335,2.5E2\n",
        encoding="utf-8",
    )
    # the first row's DomainError text holds commas; on the second the
    # analytic value is answered and the oracle refuses
    out_of_range = tmp_path / "out_of_range.csv"
    out_of_range.write_text(
        "l1,l2,l3,l4,k1,k2\n0,0,0,0,1e-300,1e-300\n1,1,1,1,1e-300,1\n0,0,0,0,1,2\n",
        encoding="utf-8",
    )
    tokens = {"{specs}": str(path), "{distinct}": str(distinct),
              "{out_of_range}": str(out_of_range)}
    argv = [tokens.get(token, token) for token in argv]
    code, text = _batch_in_process(argv)
    expected_code, expected = _reference_batch(argv)
    assert code == expected_code
    assert _without_wall_time(text) == _without_wall_time(expected)
    assert text.count("wall_time_s") == expected.count("wall_time_s")
    assert text.splitlines()[-1] == expected.splitlines()[-1]
    if "json" in argv:
        first = json.loads(text.splitlines()[0])
        assert type(first["k1"]) is float and type(first["k2"]) is float
    if str(path) in argv:
        # the k1 = k2 row of (2,0,0,2) has a value; (0,0,0,1) is declined
        rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
        assert code == 0 and rows[0]["error"] == ""
        assert float(rows[0]["value"]) == pytest.approx(math.pi / 20.0, rel=1e-14)
    if "2:5" in argv:
        assert "have different parities\n" in text
        assert re.search(r',"NoValidBridge: [^"]* triangle windows \[\d+,\d+\] and', text)
    if str(out_of_range) in argv:
        rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
        assert code == 1 and [row["error"][:13] for row in rows] == [
            "DomainError: ", "DomainError: ", "",
        ]
        assert "," in rows[0]["error"] and "," in rows[1]["error"]
        assert rows[1]["value"] and not rows[1]["oracle_value"]
    if _OUT_OF_RANGE_PAIRS in argv:
        assert code == 1
        assert ("DomainError: momenta k1=1e-300, k2=1e-300 are out of range for orders "
                "(0, 0, 0, 0): ") in text
        assert "k1=1e+300, k2=1.0 are out of range for orders (2, 2, 2, 2): " in text


def test_consecutive_input_rows_with_the_same_orders_share_one_verdict(monkeypatch, tmp_path):
    # runs of equal orders, a tuple that comes back after another, and
    # neighbours that differ only in l4
    path = tmp_path / "specs.csv"
    path.write_text(
        "l1,l2,l3,l4,k1,k2\n0,0,0,1,1,2\n0,0,0,1,3,4\n0,0,0,0,1,2\n0,0,0,0,2,1\n"
        "0,0,0,1,1,1\n1,0,1,2,2,1\n1,0,1,3,2,1\n1,0,1,2,1,2\n1,0,1,2,1,1\n",
        encoding="utf-8",
    )
    verdicts = []

    def counting_verdict(*orders):
        verdicts.append(orders)
        return wigner._bridge_verdict(*orders)

    monkeypatch.setattr(cli, "_bridge_verdict", counting_verdict)
    for mode, output in (("analytic", "csv"), ("both", "json"), ("oracle", "csv")):
        verdicts.clear()
        argv = ["batch", "--input", str(path), "--mode", mode, "--format", output]
        code, text = _batch_in_process(argv)
        expected_code, expected = _reference_batch(argv)
        assert code == expected_code == 0
        assert _without_wall_time(text) == _without_wall_time(expected), mode
        assert verdicts == ([] if mode == "oracle" else [
            (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 2), (1, 0, 1, 3), (1, 0, 1, 2),
        ]), mode


def test_grid_formats_each_distinct_momentum_once(monkeypatch, tmp_path):
    formatted = []

    def counting_repr(value):
        formatted.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    code, text = _batch_in_process(
        ["batch", "--grid", "2", "--k-pairs", "1:1.1,3:1,1.1:3", "--mode", "analytic"]
    )
    assert code == 0 and text.count("\n") == 1 + 81 * 3 + 1
    assert sorted(formatted) == [1.0, 1.1, 3.0]
    # rows read from a file are left to the csv writer: no map grows with them
    formatted.clear()
    path = tmp_path / "specs.csv"
    path.write_text("l1,l2,l3,l4,k1,k2\n1,1,1,1,1,2\n0,0,0,0,3,4\n", encoding="utf-8")
    code, text = _batch_in_process(["batch", "--input", str(path), "--mode", "analytic"])
    assert code == 0 and formatted == []


def test_batch_at_benchmark_scale_in_process():
    pairs = [(1.0, 1.1), (0.3, 3.0), (5.0, 0.8)]
    code, text = _batch_in_process(
        ["batch", "--grid", "4", "--k-pairs", "1:1.1,0.3:3,5:0.8", "--mode", "analytic"]
    )
    assert code == 0
    assert text.endswith("# max_discrepancy=n/a\n")
    rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
    assert len(rows) == 1875
    expected = [
        (*orders, k1, k2)
        for orders in itertools.product(range(5), repeat=4)
        for k1, k2 in pairs
    ]
    declined = 0
    for row, spec in zip(rows, expected):
        key = tuple(int(row[name]) for name in ("l1", "l2", "l3", "l4"))
        assert key + (float(row["k1"]), float(row["k2"])) == spec
        if row["error"]:
            assert row["error"].startswith("NoValidBridge: "), row
            assert row["value"] == ""
            declined += 1
        else:
            assert float(row["value"]) == evaluate(IntegralSpec(*spec)).value, row
    assert declined == 1068


# --------------------------------------------------------------------------
# wigner / legendre / oracle subcommands
# --------------------------------------------------------------------------


def test_wigner_output_formats():
    result = run_cli("wigner", "3j", "1", "1", "2")
    assert result.returncode == 0
    assert result.stdout.startswith("+sqrt(2/15) = 0.3651483716701107")
    assert run_cli("wigner", "3j", "1", "1", "1").stdout.strip() == "0"
    negative = run_cli("wigner", "3j", "1", "1", "0")
    assert negative.stdout.startswith("-sqrt(1/3)")
    sixj = run_cli("wigner", "6j", "1", "1", "0", "1", "1", "2")
    assert sixj.stdout.startswith("+sqrt(1/9)")
    assert run_cli("wigner", "3j", "1", "1").returncode == 64


def test_legendre_subcommands():
    assoc = run_cli("legendre", "assoc", "--l", "0", "--m", "-1/2", "--x", "1.6666667")
    assert assoc.returncode == 0
    assert float(assoc.stdout) == pytest.approx(0.797885, rel=1e-5)
    decimal_form = run_cli("legendre", "assoc", "--l", "0", "--m", "-0.5", "--x", "1.6666667")
    assert decimal_form.stdout == assoc.stdout
    plain = run_cli("legendre", "p", "--l", "2", "--x", "-0.5")
    assert float(plain.stdout) == pytest.approx(-0.125, abs=1e-15)
    # a value outside the domain is a usage error, reported by main as for eval
    for argv, message in (
        (("assoc", "--l", "0", "--m", "-1/2", "--x", "0.5"), "must be > 1, got 0.5"),
        (("p", "--l", "2", "--x", "1.5"), "must lie in [-1, 1], got 1.5"),
    ):
        result = run_cli("legendre", *argv)
        assert result.returncode == 64, argv
        assert result.stderr.startswith("fourbessel: error: ") and message in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""
    # an order off the half-integers: 3^(1/6) / Gamma(4/3), within one rounding
    third = run_cli("legendre", "assoc", "--l", "0", "--m", "1/3", "--x", "2")
    assert third.returncode == 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        reference = float(mpmath.cbrt(3) ** 0.5 / mpmath.gamma(mpmath.mpf(4) / 3))
    assert float(third.stdout) == pytest.approx(reference, rel=2.5e-16, abs=0.0)


def test_legendre_assoc_near_one_and_out_of_range():
    # b_12(x, 3) cancels about 1e13-fold at x = 1 + 1e-7; mpmath's
    # legenp(12, 3, x, type=3) is 6.7149247327822e-06
    near_one = run_cli("legendre", "assoc", "--l", "12", "--m", "3", "--x", "1.0000001")
    assert near_one.returncode == 0
    assert float(near_one.stdout) == pytest.approx(6.7149247327822e-06, rel=1e-14)
    # x^2 leaves the float range: a usage error, not a traceback
    huge = run_cli("legendre", "assoc", "--l", "2", "--m", "1/2", "--x", "1e200")
    assert huge.returncode == 64
    assert "float range" in huge.stderr and "Traceback" not in huge.stderr


def test_oracle_subcommands():
    quad = run_cli("oracle", "quad", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "0",
                   "--k1", "1", "--k2", "2")
    assert quad.returncode == 0
    document = json.loads(quad.stdout)
    assert document["value"] == pytest.approx(math.pi / 16.0, rel=1e-7)
    assert document["error_estimate"] > 0.0

    triple = run_cli("oracle", "triple", "--l1", "1", "--l2", "1", "--L", "0",
                     "--k1", "1", "--k2", "1", "--K", "1")
    assert triple.returncode == 0
    assert json.loads(triple.stdout)["value"] == pytest.approx(math.pi / 8.0, rel=1e-7)

    divergent = run_cli("oracle", "triple", "--l1", "1", "--l2", "2", "--L", "2",
                        "--k1", "1", "--k2", "2", "--K", "3")
    assert divergent.returncode == 4
    assert json.loads(divergent.stdout)["error"]["type"] == "NoConvergence"


def test_oracle_unallocatable_head_exit_64():
    for args in (
        ("quad", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1", "--k1", "1e-300", "--k2", "1"),
        ("triple", "--l1", "1", "--l2", "1", "--L", "0", "--k1", "1e-300", "--k2", "1", "--K", "1"),
    ):
        result = run_cli("oracle", *args)
        assert result.returncode == 64, args
        assert "too far apart" in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""


def test_oracle_config_flags_round_trip():
    tight = run_cli("oracle", "quad", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
                    "--k1", "1", "--k2", "2", "--rel-tol", "1e-9")
    assert tight.returncode == 0
    assert json.loads(tight.stdout)["value"] == pytest.approx(0.071994831644766095, rel=1e-7)
    # --rel-tol reaches its field; left out, the field keeps its default
    base = ["oracle", "quad", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
            "--k1", "1", "--k2", "2"]
    parser = cli.build_parser()
    assert cli._quadrature_config(parser.parse_args(base)) == QuadratureConfig()
    assert cli._quadrature_config(parser.parse_args(base + ["--rel-tol", "1e-9"])) == (
        QuadratureConfig(rel_tol=1e-9)
    )
    # an infinite tolerance would certify nothing: both commands refuse it
    check = ["eval", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
             "--k1", "1", "--k2", "2", "--check"]
    for argv in (base, check):
        result = run_cli(*argv, "--rel-tol", "inf")
        assert result.returncode == 64, argv
        assert "rel_tol" in result.stderr and result.stdout == ""
    # the truncation radius, the averaging depth and the head's panel density
    # are gone, flags and fields
    triple = ["oracle", "triple", "--l1", "1", "--l2", "1", "--L", "0",
              "--k1", "1", "--k2", "1", "--K", "1"]
    for argv, gone in (
        (base, ["--max-radius", "3000"]),
        (base, ["--acceleration-depth", "8"]),
        (base, ["--panels-per-period", "5"]),
        (triple, ["--panels-per-period", "5"]),
    ):
        result = run_cli(*argv, *gone)
        assert result.returncode == 64, gone
        assert "unrecognized arguments" in result.stderr and result.stdout == ""


def test_commands_without_the_oracle_do_not_load_it():
    # the closed-form commands never compile oracle.py nor import numpy
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        sys.modules.update(dict.fromkeys(("mpmath", "scipy", "hypothesis")))
        from fourbessel import cli
        runs = [
            ["batch", "--grid", "2", "--k-pairs", "1:2,3:1", "--mode", "analytic"],
            ["eval", "--l1", "1", "--l2", "0", "--l3", "1", "--l4", "2", "--k1", "1", "--k2", "2"],
            ["wigner", "3j", "1", "1", "2"],
            ["legendre", "p", "--l", "2", "--x", "0.5"],
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for argv in runs]
        loaded = [name for name in ("fourbessel.oracle", "numpy") if name in sys.modules]
        print(json.dumps({"codes": codes, "lines": out.getvalue().count("\\n"), "loaded": loaded}))
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # the batch header, 162 rows and the footer; one JSON document, one symbol, one value
    assert json.loads(result.stdout) == {"codes": [0, 0, 0, 0], "lines": 167, "loaded": []}


@pytest.mark.parametrize("mode", ("both", "oracle"))
def test_oracle_batch_loads_numpy_before_its_first_row(mode):
    # numpy's import is timed in no row's wall_time_s: it is loaded before the
    # first oracle run, which times the first row
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        sys.modules.update(dict.fromkeys(("mpmath", "scipy", "hypothesis")))
        from fourbessel import cli
        numeric, seen = cli.quad_bessel_numeric, []

        def recording(spec, config=None):
            if not seen:
                seen.extend(name in sys.modules for name in ("numpy", "numpy.polynomial.legendre"))
            return numeric(spec, config)

        cli.quad_bessel_numeric = recording
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["batch", "--grid", "1", "--k-pairs", "1:2", "--mode", "{mode}"])
        print(json.dumps({{"code": code, "loaded": seen}}))
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"code": 0, "loaded": [True, True]}


def test_every_oracle_run_goes_through_the_module_name(capsys, monkeypatch):
    # replacing cli.quad_bessel_numeric (as the benchmark's tracer does) sees
    # every oracle evaluation of every command, once each
    calls = []

    def counting(spec, config=None):
        calls.append(spec)
        return quad_bessel_numeric(spec, config)

    monkeypatch.setattr(cli, "quad_bessel_numeric", counting)
    code = cli.main(["batch", "--grid", "1", "--k-pairs", "1:2,3:3", "--mode", "both"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out.rsplit("#", 1)[0])))
    assert code == 0 and len(rows) == 32
    checked = [row for row in rows if row["oracle_value"]]
    assert len(checked) == 16 and len(calls) == 16
    assert [(spec.orders, spec.k1, spec.k2) for spec in calls] == [
        (tuple(int(row[name]) for name in ("l1", "l2", "l3", "l4")), float(row["k1"]),
         float(row["k2"]))
        for row in checked
    ]
    calls.clear()
    orders = ["--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1", "--k1", "1", "--k2", "2"]
    assert cli.main(["eval", *orders, "--check"]) == 0
    assert len(calls) == 1 and "oracle" in json.loads(capsys.readouterr().out)
    assert cli.main(["oracle", "quad", *orders]) == 0
    assert len(calls) == 2
    assert cli.main(["eval", *orders]) == 0
    assert cli.main(["batch", "--grid", "1", "--k-pairs", "1:2", "--mode", "analytic"]) == 0
    assert len(calls) == 2


def test_batch_into_a_closed_pipe_exits_141_quietly():
    # about 0.5 MB of rows, far more than a pipe buffers: the writer meets the
    # closed pipe while rows remain, as under `fourbessel batch | head -1`
    pairs = ",".join(f"{k}:{k + 1}" for k in range(1, 9))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fourbessel", "batch", "--grid", "4", "--k-pairs", pairs,
         "--mode", "analytic"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        header = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert header.startswith("l1,l2,l3,l4,k1,k2,")
    assert stderr == ""
    assert proc.returncode == 141


def test_main_reuses_one_parser(capsys, monkeypatch):
    # main parses with the parser built on its first call; two subcommands and
    # a usage error print and return what a freshly built parser gives
    runs = [
        ["eval", "--l1", "1", "--l2", "0", "--l3", "1", "--l4", "2", "--k1", "1", "--k2", "2"],
        ["wigner", "6j", "1", "1", "1", "1", "1", "1"],
        ["eval", "--l1", "1", "--k1", "0"],
        ["legendre", "assoc", "--l", "2", "--m", "-1/2", "--x", "1.5"],
    ]

    def run_all():
        results = []
        for argv in runs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    assert cli.build_parser() is cli.build_parser()
    reused = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_all()
    assert [code for code, _, _ in reused] == [0, 0, 64, 0]
    assert "usage: fourbessel eval" in reused[2][2]
    assert reused == fresh
