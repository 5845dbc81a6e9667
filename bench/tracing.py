"""Layer spans and exact call counts for the sulvalab benchmark.

Spans are recorded from the benchmark's side only: :func:`install` replaces
each sulvalab module's functions, as the other modules and the benchmark
see them, with wrappers that open a span when a call crosses into the
layer (module) that defines the function.  A call made from inside the
same layer runs unwrapped, so a span marks a layer boundary and its self
time is its duration minus the time covered by the spans it caused.

Spans are aggregated in memory per name (count, inclusive seconds, self
seconds, plus the individual durations of the spans whose medians the
benchmark reports) and exported once at the end of a run.

Exact counts come from a separate ``cProfile`` pass (:func:`call_counts`),
which uses its call tallies only, never its times.
"""

from __future__ import annotations

import functools
import importlib
import pstats
import types
from fractions import Fraction
from time import perf_counter

LAYERS = ("exactreal", "geom", "catalog", "analysis", "sulvascript", "svg_render", "cli")

# names whose individual span times are kept, for per-call medians
SAMPLED_PREFIXES = (
    "exactreal.mul.",
    "exactreal.div.",
    "exactreal.sign.",
    "exactreal.sqrt.",
    "exactreal.enclose.",
    "exactreal.to_decimal.",
    "analysis.full_table.",
    "cli.main",
)

# object-protocol hooks that must keep their exact behaviour
_NOT_WRAPPED = {
    "__setattr__",
    "__delattr__",
    "__getattribute__",
    "__getattr__",
    "__new__",
    "__hash__",
    "__repr__",
    "__init_subclass__",
}

_SVG_FIGURE_CLASSES = ('class="square"', 'class="circle"', 'class="segment"', 'class="mark"')


class Tracer:
    """Span stack plus per-name aggregates; one per process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, start, child_seconds]
        self.totals: dict[str, list] = {}  # name -> [count, inclusive, self]
        self.samples: dict[str, list[float]] = {}
        self.units: dict[str, float] = {}

    def begin(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def end(self, name: str) -> None:
        layer, start, child = self.stack.pop()
        duration = perf_counter() - start
        if self.stack:
            self.stack[-1][2] += duration
        own = duration - child
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += own
        if name.startswith(SAMPLED_PREFIXES):
            self.samples.setdefault(name, []).append(duration)

    def reset(self) -> None:
        self.totals.clear()
        self.samples.clear()
        self.units.clear()

    def add_unit(self, key: str, amount: float) -> None:
        self.units[key] = self.units.get(key, 0) + amount

    def export(self) -> dict:
        return {"totals": self.totals, "samples": self.samples, "units": self.units}


def merge(into: dict, exported: dict) -> None:
    """Add one process's exported spans to ``into``."""
    for name, (count, inclusive, own) in exported["totals"].items():
        total = into["totals"].setdefault(name, [0, 0.0, 0.0])
        total[0] += count
        total[1] += inclusive
        total[2] += own
    for name, samples in exported["samples"].items():
        into["samples"].setdefault(name, []).extend(samples)
    for key, amount in exported["units"].items():
        into["units"][key] = into["units"].get(key, 0) + amount


def _height(value: object) -> int:
    tower = getattr(value, "tower", None)
    return 0 if tower is None else tower.height


def _is_rational(value: object) -> bool:
    return isinstance(value, (int, Fraction)) or (
        hasattr(value, "tower") and value.tower is None
    )


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def _tagger(layer: str, qualname: str):
    """For calls whose metrics are split by tower height, precision or
    digits: a function of (args, kwargs, result) that names the span."""
    if layer == "exactreal":
        if qualname in ("ConstructibleReal.__mul__", "ConstructibleReal.__rmul__"):
            return lambda a, k, r: f"exactreal.mul.h{max(_height(a[0]), _height(a[1]))}"
        if qualname in ("ConstructibleReal.__truediv__", "ConstructibleReal.__rtruediv__"):
            return lambda a, k, r: f"exactreal.div.h{max(_height(a[0]), _height(a[1]))}"
        if qualname in ("sign", "ConstructibleReal.sign"):
            return lambda a, k, r: f"exactreal.sign.h{_height(a[0])}"
        if qualname == "sqrt":
            # a root opens or finds the tower of its result
            return lambda a, k, r: (
                "exactreal.sqrt.rational" if _is_rational(a[0]) else f"exactreal.sqrt.h{_height(r)}"
            )
        if qualname in ("enclose", "ConstructibleReal.enclose", "Quantity.enclose"):
            return lambda a, k, r: f"exactreal.enclose.b{_arg(a, k, 1, 'precision_bits')}"
        if qualname == "to_decimal":
            return lambda a, k, r: f"exactreal.to_decimal.d{_arg(a, k, 1, 'digits')}"
    if layer == "analysis" and qualname == "full_table":
        return lambda a, k, r: f"analysis.full_table.b{_arg(a, k, 0, 'precision_bits') or 128}"
    return None


def _record_units(tracer: Tracer, layer: str, qualname: str, args: tuple, result) -> None:
    """Work units observed at a boundary, for the per-unit layer metrics."""
    if layer == "sulvascript":
        if qualname == "parse":
            tracer.add_unit("parse_bytes", len(args[0].encode("utf-8")))
        elif qualname == "evaluate":
            tracer.add_unit("statements", len(args[0].statements))
        elif qualname == "render_report":
            tracer.add_unit("reports", 1)
    elif layer == "svg_render" and isinstance(result, str):
        tracer.add_unit("svg_docs", 1)
        tracer.add_unit("svg_bytes", len(result.encode("utf-8")))
        tracer.add_unit("svg_figures", sum(result.count(c) for c in _SVG_FIGURE_CLASSES))


def _wrap(tracer: Tracer, fn, layer: str, qualname: str):
    base = f"{layer}.{qualname}"
    tagger = _tagger(layer, qualname)
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        tracer.begin(layer)
        name = base
        try:
            result = fn(*args, **kwargs)
            if tagger is not None:
                name = tagger(args, kwargs, result)
        finally:
            tracer.end(name)
        _record_units(tracer, layer, qualname, args, result)
        return result

    return wrapper


def layer_modules() -> dict[str, types.ModuleType]:
    return {layer: importlib.import_module(f"sulvalab.{layer}") for layer in LAYERS}


def install(tracer: Tracer) -> None:
    """Wrap every sulvalab function as its callers see it.

    Module-level functions are rebound in every sulvalab module (and the
    package) that refers to them; private ones only where another module
    imported them.  Methods of the public classes are wrapped on the class.
    """
    modules = layer_modules()
    owners = {f"sulvalab.{layer}": layer for layer in LAYERS}
    wrappers: dict[int, object] = {}
    package = importlib.import_module("sulvalab")
    for namespace in [package, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if not isinstance(value, types.FunctionType) or value.__module__ not in owners:
                continue
            own = namespace.__name__ == value.__module__
            if own and attr.startswith("_"):
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = _wrap(tracer, value, owners[value.__module__], value.__name__)
            setattr(namespace, attr, wrappers[id(value)])
    for layer, module in modules.items():
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if cls.__name__.startswith("_"):
                continue
            for attr, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and attr not in _NOT_WRAPPED:
                    setattr(cls, attr, _wrap(tracer, value, layer, f"{cls.__name__}.{attr}"))


# -- exact call counts ---------------------------------------------------------


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(profile) -> dict[str, int]:
    """Exact counts the benchmark reports, read from a ``cProfile.Profile``."""
    import fractions

    modules = layer_modules()
    er, catalog, analysis = modules["exactreal"], modules["catalog"], modules["analysis"]
    stats = pstats.Stats(profile).stats  # key -> (primitive, total, tt, ct, callers)

    def total(fn) -> int:
        entry = stats.get(_key(fn))
        return 0 if entry is None else entry[1]

    def primitive(fn) -> int:
        entry = stats.get(_key(fn))
        return 0 if entry is None else entry[0]

    def from_callers(fn, callers) -> int:
        entry = stats.get(_key(fn))
        if entry is None:
            return 0
        return sum(n[0] for caller, n in entry[4].items() if callers(caller))

    def in_file(path: str) -> int:
        return sum(entry[1] for key, entry in stats.items() if key[0] == path)

    return {
        "field_mul_calls": total(er._mul),
        "field_inv_calls": total(er._inv),
        "embed_calls": total(er._embed_into),
        "towers_created": total(er.Tower.__init__),
        "extend_compare_calls": from_callers(er._sub, lambda c: c == _key(er._extend)),
        "interval_raw_calls": total(er.ConstructibleReal._interval_raw)
        + total(er.Quantity._interval_raw),
        "fraction_ops": in_file(fractions.__file__),
        "norm_path_calls": primitive(er._norm_is_zero),
        "sign_calls": primitive(er.ConstructibleReal.sign),
        "rule_run_calls": total(catalog.Rule.run),
        "rule_runs_from_analysis": from_callers(
            catalog.Rule.run, lambda c: c[0] == analysis.__file__
        ),
        "report_calls": total(analysis.report_for),
        "geom_calls": in_file(modules["geom"].__file__),
    }
