"""Command-line interface: subcommands, schemas, exit codes."""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import re
import subprocess
import sys
import time

import pytest

from fourbessel import IntegralSpec, QuadratureConfig, evaluate
from fourbessel import cli
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
        specs = cli._load_input_specs(args.input)
    else:
        specs = cli._grid_specs(args.grid, args.k_pairs)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "--grid", "2", "--k-pairs", "1:1.1,3:1", "--mode", "analytic"],
        ["batch", "--grid", "2", "--k-pairs", "1:1.1,3:1", "--mode", "analytic",
         "--format", "json"],
        ["batch", "--grid", "1", "--k-pairs", "1:2", "--mode", "both"],
        ["batch", "--input", "{specs}"],
    ],
)
def test_streamed_batch_matches_collected_rendering(argv, tmp_path):
    path = tmp_path / "specs.csv"
    path.write_text(
        "l1,l2,l3,l4,k1,k2\n2,0,0,2,1,1\n0,0,0,1,1,2\n1,0,1,2,1,2\n0,0,0,0,1,2\n",
        encoding="utf-8",
    )
    argv = [str(path) if token == "{specs}" else token for token in argv]
    code, text = _batch_in_process(argv)
    expected_code, expected = _reference_batch(argv)
    assert code == expected_code
    assert _without_wall_time(text) == _without_wall_time(expected)
    assert text.count("wall_time_s") == expected.count("wall_time_s")
    assert text.splitlines()[-1] == expected.splitlines()[-1]
    if "--input" in argv:
        # the k1 = k2 row of (2,0,0,2) has a value; (0,0,0,1) is declined
        rows = list(csv.DictReader(io.StringIO(text.rsplit("#", 1)[0])))
        assert code == 0 and rows[0]["error"] == ""
        assert float(rows[0]["value"]) == pytest.approx(math.pi / 20.0, rel=1e-14)


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
    assert run_cli("legendre", "assoc", "--l", "0", "--m", "-1/2", "--x", "0.5").returncode == 64
    assert run_cli("legendre", "p", "--l", "2", "--x", "1.5").returncode == 64
    assert run_cli("legendre", "assoc", "--l", "0", "--m", "1/3", "--x", "2").returncode == 0


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
                    "--k1", "1", "--k2", "2", "--rel-tol", "1e-9",
                    "--max-radius", "3000", "--panels-per-period", "5",
                    "--acceleration-depth", "8")
    assert tight.returncode == 0
    assert json.loads(tight.stdout)["value"] == pytest.approx(0.071994831644766095, rel=1e-7)
    assert run_cli("oracle", "quad", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "0",
                   "--k1", "1", "--k2", "2", "--panels-per-period", "1").returncode == 64
    # each flag reaches its field; a flag left out keeps the field's default
    base = ["oracle", "quad", "--l1", "1", "--l2", "1", "--l3", "1", "--l4", "1",
            "--k1", "1", "--k2", "2"]
    parser = cli.build_parser()
    flags = ["--rel-tol", "1e-9", "--max-radius", "3000", "--panels-per-period", "5",
             "--acceleration-depth", "8"]
    assert cli._quadrature_config(parser.parse_args(base + flags)) == QuadratureConfig(
        rel_tol=1e-9, max_radius=3000.0, panels_per_period=5, acceleration_depth=8
    )
    assert cli._quadrature_config(parser.parse_args(base)) == QuadratureConfig()
