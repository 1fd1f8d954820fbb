"""What a fresh process loads: the closed-form engine alone, the rest on first use.

Each test runs in a new interpreter, so no module imported by the suite
itself is already loaded. The test-only packages are blocked, so the package
runs on numpy alone.
"""
from __future__ import annotations

import json
import subprocess
import sys
import textwrap

BLOCK_TEST_PACKAGES = (
    "import sys\nsys.modules.update(dict.fromkeys(('mpmath', 'scipy', 'hypothesis')))\n"
)
LAZY_MODULES = ("fourbessel.legendre", "fourbessel.oracle", "numpy")


def _run(code: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", BLOCK_TEST_PACKAGES + textwrap.dedent(code)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_closed_form_and_analytic_batch_load_neither_legendre_nor_oracle():
    loaded = _run(
        f"""
        import contextlib, io, json
        import fourbessel
        after_import = [m for m in {LAZY_MODULES!r} if m in sys.modules]
        value = fourbessel.evaluate(fourbessel.IntegralSpec(2, 1, 3, 0, 1.0, 2.0)).value
        after_evaluate = [m for m in {LAZY_MODULES!r} if m in sys.modules]
        from fourbessel import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["batch", "--grid", "2", "--k-pairs", "1.0:2.0", "--mode", "analytic"]
            )
        print(json.dumps({{
            "import": after_import,
            "evaluate": after_evaluate,
            "batch": [m for m in {LAZY_MODULES!r} if m in sys.modules],
            "value": value.hex(),
            "code": code,
            "rows": sum(not line.startswith("#") for line in out.getvalue().splitlines()) - 1,
        }}))
        """
    )
    assert loaded == {
        "import": [],
        "evaluate": [],
        "batch": [],
        # (2, 1, 3, 0) at k1 < k2 is exactly pi / (140 k2^3)
        "value": (3.141592653589793 / 1120).hex(),
        "code": 0,
        "rows": 3**4,
    }


def test_legendre_names_resolve_on_first_read():
    seen = _run(
        """
        import json
        import fourbessel
        names = ("legendre_p", "assoc_legendre_gt1")
        listed = [n in dir(fourbessel) for n in names]
        bound_before = [n in vars(fourbessel) for n in names]
        loaded_before = "fourbessel.legendre" in sys.modules
        first = [getattr(fourbessel, n) for n in names]
        from fourbessel import legendre
        namespace = {}
        exec("from fourbessel import *", namespace)
        print(json.dumps({
            "listed": listed,
            "bound_before": bound_before,
            "loaded_before": loaded_before,
            "same": [f is getattr(legendre, n) is namespace[n] for f, n in zip(first, names)],
            "bound_after": [n in vars(fourbessel) for n in names],
            "star": sorted(set(fourbessel.__all__) - namespace.keys()),
            "unlisted": sorted(set(fourbessel.__all__) - set(dir(fourbessel))),
            "value": fourbessel.legendre_p(3, 0.3),
        }))
        """
    )
    assert seen == {
        "listed": [True, True],
        "bound_before": [False, False],
        "loaded_before": False,
        "same": [True, True],
        "bound_after": [True, True],
        "star": [],
        "unlisted": [],
        # P_3(0.3) = (5 0.3^3 - 3 0.3) / 2
        "value": -0.3825,
    }


def test_unknown_names_still_raise_attribute_error():
    seen = _run(
        """
        import json
        import fourbessel
        try:
            fourbessel.legendre_q
        except AttributeError as error:
            message = str(error)
        print(json.dumps({"message": message, "loaded": "fourbessel.legendre" in sys.modules}))
        """
    )
    assert seen == {
        "message": "module 'fourbessel' has no attribute 'legendre_q'",
        "loaded": False,
    }


def test_legendre_commands_in_a_fresh_process():
    for argv, printed in (
        (["p", "--l", "3", "--x", "0.3"], "-0.3825"),
        (["assoc", "--l", "3", "--m", "-1/2", "--x", "1.7"], "4.953417738752559"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "fourbessel", "legendre", *argv],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, printed + "\n", ""), argv
