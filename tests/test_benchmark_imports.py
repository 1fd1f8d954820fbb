"""The benchmark under perfbench/ imports from fourbessel; every name it imports must exist.

The files are parsed, never imported or changed: an API removal that would stop
the benchmark or its tests from collecting fails here instead.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_fourbessel(module_name) -> bool:
    return isinstance(module_name, str) and module_name.split(".")[0] == "fourbessel"


def _import_module_target(node):
    """The constant module name of an ``importlib.import_module("...")`` call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value
    return None


def _fourbessel_imports():
    """(file, module, name) per name taken from fourbessel; name is None for a module import.

    Covers ``from fourbessel... import name``, ``import fourbessel...``,
    ``importlib.import_module("fourbessel...")`` and an attribute read
    straight off such a call.
    """
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if _is_fourbessel(node.module):
                    for alias in node.names:
                        yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_fourbessel(alias.name):
                        yield path.name, alias.name, None
            elif _is_fourbessel(_import_module_target(node)):
                yield path.name, _import_module_target(node), None
            elif isinstance(node, ast.Attribute) and _is_fourbessel(
                _import_module_target(node.value)
            ):
                yield path.name, _import_module_target(node.value), node.attr


def test_every_name_the_benchmark_imports_resolves():
    imports = list(_fourbessel_imports())
    # the two forms the benchmark uses today, so the parser cannot find nothing
    assert ("test_reference.py", "fourbessel", "quad_bessel_paired") in imports
    assert ("run.py", "fourbessel.quadbessel", "evaluate") in imports
    missing = []
    for filename, module_name, name in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append((filename, module_name, name))
            continue
        if name is not None and name != "*" and not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                missing.append((filename, module_name, name))
    assert not missing, missing
