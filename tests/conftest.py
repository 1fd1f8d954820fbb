"""Shared pytest plumbing: the checkout's package, and acceptance-criterion summary lines.

The checkout's ``src/`` goes first on ``sys.path``, and on ``PYTHONPATH`` for
the processes the tests start, so ``python -m pytest`` runs against this
checkout without installing it.

Each acceptance test records a one-line verdict; the lines are replayed in a
dedicated section of the terminal summary so a full-suite run ends with a
compact pass/fail table for the nine acceptance criteria.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

_CRITERION_LINES: dict[int, tuple[bool, str]] = {}


@pytest.fixture
def cold_caches():
    """Start cold: every lru cache of the package emptied.

    The fixture's value empties them again when called.
    """
    from fourbessel import cli, legendre, oracle, quadbessel, wigner

    def clear():
        for module in (cli, legendre, oracle, quadbessel, wigner):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    clear()
    return clear


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _CRITERION_LINES[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        passed, detail = _CRITERION_LINES[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {detail}")
