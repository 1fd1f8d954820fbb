"""The benchmark under perfbench/ imports from fourbessel; every name it imports must exist.

The files are parsed, never imported or changed: an API removal that would stop
the benchmark or its tests from collecting fails here instead. The same holds
for the names the benchmark's tracer wraps: a removed name is traced as
nothing, which would silently blind its per-layer view.
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


# tracer hooks on names the package has already retired; the tracer reports
# them as absent. A name may leave this set, never join it.
ABSENT_TRACER_HOOKS = {
    ("fourbessel.quadbessel", "legendre_poly_part"),
    ("fourbessel.quadbessel", "legendre_band_integral"),
    ("fourbessel.quadbessel", "quad_bessel_analytic"),
}


def _tracer_constants():
    """The tracer's module-level HOOKS, EXACT_CLASS, EXACT_METHODS and CACHED literals."""
    path = PERFBENCH / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    wanted = {"HOOKS", "EXACT_CLASS", "EXACT_METHODS", "CACHED"}
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in wanted:
                found[target.id] = ast.literal_eval(node.value)
    assert set(found) == wanted, sorted(found)
    return found


def test_every_name_the_tracer_wraps_resolves():
    constants = _tracer_constants()
    targets = [(module, name) for module, name, _ in constants["HOOKS"]]
    targets += list(constants["CACHED"])
    exact_module, exact_class = constants["EXACT_CLASS"]
    targets.append((exact_module, exact_class))
    # the hooks the tracer has today, so the parser cannot find nothing
    assert ("fourbessel.cli", "evaluate") in targets
    assert ("fourbessel.wigner", "wigner_6j") in targets
    absent = {
        (module, name)
        for module, name in targets
        if not hasattr(importlib.import_module(module), name)
    }
    assert absent <= ABSENT_TRACER_HOOKS, sorted(absent - ABSENT_TRACER_HOOKS)
    exact = getattr(importlib.import_module(exact_module), exact_class)
    assert constants["EXACT_METHODS"]
    for method in constants["EXACT_METHODS"]:
        assert callable(getattr(exact, method, None)), method
    for module, name in constants["CACHED"]:
        assert callable(getattr(getattr(importlib.import_module(module), name), "cache_info"))
