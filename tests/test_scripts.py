"""Smoke tests of the scripts under scripts/: each runs to exit 0 and refuses no cell."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _run(module, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main(argv)
    return code, out.getvalue()


def test_degenerate_scan_answers_every_gap():
    module = _load("degenerate_scan")
    argv = ["--orders", "2", "0", "0", "2", "--points", "3"]
    code, text = _run(module, argv)
    assert code == 0
    assert "over 3 gaps" in text
    rows = module.run_scan(module.ScanConfig(orders=(2, 0, 0, 2), points=3))
    assert [row["gap"] for row in rows] == pytest.approx([1e-2, 1e-7, 1e-12])
    for row in rows:
        assert row["analytic"] == pytest.approx(row["oracle"], rel=1e-7), row
