"""Outside-in tracer for the traced benchmark run.

The program is not changed.  The tracer replaces public names where the
program looks them up (a module global, or a method on a class) with a
wrapper that records a span: name, start, end and the index of the enclosing
span.  Spans stay in memory; ``layer_metrics`` reduces them once the traced
phase is over.  A name that the program no longer has is reported as absent
and traced as nothing.
"""
from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name)
HOOKS = (
    ("fourbessel.quadbessel", "wigner_3j_zero", "wigner.coeff"),
    ("fourbessel.quadbessel", "wigner_6j", "wigner.coeff"),
    ("fourbessel.legendre", "wigner_3j_zero", "wigner.coeff"),
    ("fourbessel.quadbessel", "legendre_poly_part", "legendre.poly_part"),
    ("fourbessel.quadbessel", "legendre_band_integral", "quadbessel.band"),
    ("fourbessel.quadbessel", "quad_bessel_analytic", "quadbessel.analytic"),
    ("fourbessel.quadbessel", "quad_bessel_paired", "quadbessel.paired"),
    ("fourbessel.oracle", "spherical_bessel_j", "oracle.bessel"),
    ("fourbessel.cli", "evaluate", "cli.evaluate"),
    ("fourbessel.cli", "quad_bessel_numeric", "cli.oracle"),
)
EXACT_CLASS = ("fourbessel.wigner", "SignedSqrtRational")
EXACT_METHODS = ("__mul__", "__truediv__", "scaled_by", "to_float")
# lru-cached coefficient functions whose cache_info() deltas give the hit ratio
CACHED = (("fourbessel.wigner", "wigner_3j_zero"), ("fourbessel.wigner", "wigner_6j"))

# span names the benchmark itself opens around each timed operation
OP_EVALUATE = "op.evaluate"
OP_ORACLE = "op.oracle"
OP_CLI = "op.cli"

_ANALYTIC_ERRORS = ("DegenerateMomenta", "DomainError")

PER_LAYER_UNITS = {
    "wigner.exact_ops": "count",
    "wigner.exact_s": "s",
    "wigner.coeff_calls": "count",
    "wigner.coeff_hit_ratio": "ratio",
    "wigner.coeff_s": "s",
    "legendre.poly_part_calls": "count",
    "legendre.poly_part_s": "s",
    "quadbessel.terms": "count",
    "quadbessel.band_calls": "count",
    "quadbessel.band_self_s": "s",
    "quadbessel.assembly_self_s": "s",
    "quadbessel.paired_s": "s",
    "quadbessel.errors": "count",
    "oracle.calls": "count",
    "oracle.bessel_calls": "count",
    "oracle.bessel_s": "s",
    "oracle.self_s": "s",
    "oracle.nonconvergence": "count",
    "oracle.err_over_estimate_max": "ratio",
    "cli.rows": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.absent_hooks": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.errors: list[tuple[int, str]] = []  # (span, exception type name)
        self.terms = 0  # closed-form terms in the reports the analytic layer returned
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_before: dict = {}

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.errors.append((index, type(exc).__name__))
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.starts[index] = start
            self.ends[index] = end
        if name in ("quadbessel.analytic", "quadbessel.paired"):
            self.terms += len(getattr(result, "terms", ()) or ())
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        module = importlib.import_module(EXACT_CLASS[0])
        cls = getattr(module, EXACT_CLASS[1], None)
        for method in EXACT_METHODS:
            original = cls.__dict__.get(method) if cls is not None else None
            if original is None:
                self.absent.append(f"{'.'.join(EXACT_CLASS)}.{method}")
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap("wigner.exact", original))
        self._cache_before = _cache_counts()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and busy times from the recorded spans."""
        count = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += duration[i]

        def spans(*names):
            return [i for i in range(count) if self.names[i] in names]

        def outer_time(name):
            """Busy time of a span name, not counting spans nested in the same name."""
            return sum(
                duration[i]
                for i in spans(name)
                if self.parents[i] < 0 or self.names[self.parents[i]] != name
            )

        def self_time(*names):
            return sum(duration[i] - child_time[i] for i in spans(*names))

        def raised(types, *names):
            wanted = set(spans(*names))
            return sum(1 for i, kind in self.errors if i in wanted and kind in types)

        after = _cache_counts()
        hits = sum(after[k][0] - self._cache_before.get(k, (0, 0))[0] for k in after)
        misses = sum(after[k][1] - self._cache_before.get(k, (0, 0))[1] for k in after)
        oracle_ops = (OP_ORACLE, "cli.oracle")
        return {
            "wigner.exact_ops": len(spans("wigner.exact")),
            "wigner.exact_s": outer_time("wigner.exact"),
            "wigner.coeff_calls": len(spans("wigner.coeff")),
            "wigner.coeff_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "wigner.coeff_s": outer_time("wigner.coeff"),
            "legendre.poly_part_calls": len(spans("legendre.poly_part")),
            "legendre.poly_part_s": outer_time("legendre.poly_part"),
            "quadbessel.terms": self.terms,
            "quadbessel.band_calls": len(spans("quadbessel.band")),
            "quadbessel.band_self_s": self_time("quadbessel.band"),
            "quadbessel.assembly_self_s": self_time("quadbessel.analytic"),
            "quadbessel.paired_s": outer_time("quadbessel.paired"),
            "quadbessel.errors": raised(_ANALYTIC_ERRORS, "quadbessel.analytic", "quadbessel.paired"),
            "oracle.calls": len(spans(*oracle_ops)),
            "oracle.bessel_calls": len(spans("oracle.bessel")),
            "oracle.bessel_s": outer_time("oracle.bessel"),
            "oracle.self_s": self_time(*oracle_ops),
            "oracle.nonconvergence": raised(("NoConvergence",), *oracle_ops),
            "cli.self_s": self_time(OP_CLI),
            "trace.absent_hooks": len(self.absent),
        }


def _cache_counts() -> dict:
    out = {}
    for module_name, attr in CACHED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            stats = info()
            out[f"{module_name}.{attr}"] = (stats.hits, stats.misses)
    return out
