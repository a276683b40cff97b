"""Per-layer tracing, installed from the benchmark's own files.

The layers are the modules of ``src/dsolid``.  ``Tracer.install`` wraps every
public function and public method of each layer module (plus the arithmetic
operators of ``MultiPoly``) in a span, and rebinds every place that holds the
original: module globals in all dsolid modules (``incidence`` imports
``build_surface`` by name, ``cli`` imports ``random_instance``), class
attributes, and the check functions inside ``checks.CHECKS``.  A span keeps
its call count and self time, which is its duration minus the time covered
by the spans it caused.  ``uninstall`` puts every original back; ``leftovers``
proves that none remains.  The engine's files are never touched.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("poly", "qfield", "scroll", "lattice", "systems", "incidence", "elimination",
          "checks", "report", "cli")
# checks are wrapped through CHECKS, one span per check id
MODULE_LAYERS = tuple(layer for layer in LAYERS if layer != "checks")
POLY_OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__")

# spans whose metric name differs from "<layer>.<qualified name>"
NAMED = {
    "poly.MultiPoly.substitute_monomials": "poly.substitute",
    "poly.MultiPoly.substitute": "poly.substitute",
    "poly.MultiPoly.__mul__": "poly.mul",
    "poly.MultiPoly.derivative": "poly.derivative",
    "qfield.eval_poly_at": "qfield.eval",
    "qfield.sqrt_fraction": "qfield.sqrt",
    "scroll.random_instance": "scroll.generate",
    "scroll.build_instance": "scroll.build",
    "scroll.double_conic_verify": "scroll.tangency",
    "scroll.double_curve_degree": "scroll.cone",
    "scroll.smoothness_probe": "scroll.probe",
    "scroll.ScrollParam.compose": "scroll.pullback",
    "scroll.write_instance": "scroll.io",
    "scroll.read_instance": "scroll.io",
    "scroll.instance_to_json": "scroll.io",
    "scroll.instance_from_json": "scroll.io",
    "lattice.DivisorClass.dot": "lattice.dot",
    "lattice.build_surface": "lattice.build",
    "systems.strip_fixed_components": "systems.strip",
    "incidence.complete_pairings": "incidence.complete",
    "elimination.run_elimination": "elimination.run",
    "elimination.base_curve_scan": "elimination.scan",
    "elimination.blow_up_curves": "elimination.blowup",
    "report.render": "report.render",
}


def _check_ids() -> list[str]:
    from dsolid.checks import CHECKS

    return list(CHECKS)


# Per-layer metrics in the order BENCHMARK.json lists them.  Ratios are 0 when
# the workload never reaches the layer (their base is then 0 as well).
PER_LAYER_UNITS = {
    "poly.substitute.calls": "count", "poly.substitute.self_s": "s",
    "poly.substitute.terms_out": "count",
    "poly.mul.calls": "count", "poly.mul.self_s": "s", "poly.mul.terms_out": "count",
    "poly.derivative.self_s": "s",
    "qfield.eval.calls": "count", "qfield.eval.self_s": "s",
    "qfield.sqrt.irrational_ratio": "ratio",
    "scroll.generate.calls": "count", "scroll.generate.self_s": "s",
    "scroll.generate.accept_ratio": "ratio",
    "scroll.tangency.self_s": "s", "scroll.cone.self_s": "s",
    "scroll.probe.calls": "count", "scroll.probe.self_s": "s",
    "scroll.pullback.self_s": "s", "scroll.pullback_cache.hit_ratio": "ratio",
    "scroll.io.self_s": "s",
    "lattice.dot.calls": "count", "lattice.dot.self_s": "s",
    "lattice.build.calls": "count", "lattice.build.self_s": "s",
    "systems.strip.calls": "count", "systems.strip.self_s": "s",
    "systems.strip.steps": "count", "systems.strip.hit_ratio": "ratio",
    "incidence.complete.calls": "count", "incidence.complete.self_s": "s",
    "incidence.complete.unknowns": "count", "incidence.table_cache.hit_ratio": "ratio",
    "elimination.run.calls": "count", "elimination.run.self_s": "s",
    "elimination.run.total_s": "s",
    "elimination.scan.self_s": "s", "elimination.blowups": "count",
    "report.render.self_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit: named spans, checks, layer totals."""
    units = dict(PER_LAYER_UNITS)
    units.update({f"check.{cid}.self_s": "s" for cid in _check_ids()})
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units["trace.wall_s"] = "s"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_hit_ratio(fn) -> float:
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return _ratio(info.hits, info.hits + info.misses) if info else 0.0


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, time covered by child spans]
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds, total seconds]
        self.layer_of: dict[str, str] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.check_spans: list[tuple[str, int, float]] = []  # (check id, n, self seconds)
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _span(self, fn, name: str, layer: str, after=None):
        stack, clock = self.stack, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                d = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += d - frame[1]
                stat[2] += d
                if stack:
                    stack[-1][1] += d
                if after is not None:
                    after(args, kwargs, result, d - frame[1])

        span.perfbench_span = True
        return span

    def _after(self, name: str):
        """Counters taken where the work happens, from arguments and results.

        A hook runs when its span closes, with ``result`` None if the call
        raised; the enclosing span is then ``stack[-1]``.
        """
        counts, stack = self.counts, self.stack

        def terms_out(args, kwargs, result, self_s):
            counts[name + ".terms_out"] += len(result.terms) if result is not None else 0

        def sqrt(args, kwargs, result, self_s):
            counts["qfield.sqrt.irrational"] += not isinstance(result, Fraction)

        def generate(args, kwargs, result, self_s):
            counts["scroll.generate.returned"] += result is not None

        def build(args, kwargs, result, self_s):
            if stack and stack[-1][0] == "scroll.generate":
                counts["scroll.generate.attempts"] += 1

        def dot(args, kwargs, result, self_s):
            if stack and stack[-1][0] == "systems.strip":
                counts["systems.strip.dots"] += 1

        def strip(args, kwargs, result, self_s):
            counts["systems.strip.steps"] += sum(result.fixed.values()) if result is not None else 0

        def complete(args, kwargs, result, self_s):
            counts["incidence.complete.unknowns"] += len(result.nu) if result is not None else 0

        def blowup(args, kwargs, result, self_s):
            counts["elimination.blowups"] += len(kwargs.get("curves", args[-1]))

        return {"poly.substitute": terms_out, "poly.mul": terms_out, "qfield.sqrt": sqrt,
                "scroll.generate": generate, "scroll.build": build, "lattice.dot": dot,
                "systems.strip": strip, "incidence.complete": complete,
                "elimination.blowup": blowup}.get(name)

    def _wrap_named(self, fn, qual: str, layer: str):
        name = NAMED.get(qual, qual)
        return self._span(fn, name, layer, self._after(name))

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        originals: dict[int, tuple] = {}  # id(original) -> (original, span)
        for layer in MODULE_LAYERS:
            mod = importlib.import_module(f"dsolid.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj) and id(obj) not in originals:
                    # an alias (build_surface_s) shares the span of the defining name
                    qual = f"{layer}.{getattr(obj, '__name__', attr)}"
                    originals[id(obj)] = (obj, self._wrap_named(obj, qual, layer))
        # every module-level binding of a wrapped function, in every dsolid module
        for modname, mod in list(sys.modules.items()):
            if modname != "dsolid" and not modname.startswith("dsolid."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        from dsolid.checks import CHECKS

        for cid, spec in list(CHECKS.items()):
            def after(args, kwargs, result, self_s, cid=cid):
                self.check_spans.append((cid, args[0], self_s))

            self._undo.append((CHECKS.__setitem__, cid, spec))
            CHECKS[cid] = dataclasses.replace(
                spec, fn=self._span(spec.fn, f"check.{cid}", "checks", after))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (layer == "poly" and attr in POLY_OPERATORS):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap_named(raw.__func__, qual, layer))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap_named(raw.fget, qual, layer),
                               raw.fset, raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrap_named(raw, qual, layer)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric; call after ``uninstall``."""
        from dsolid import incidence, scroll

        stats, counts = self.stats, self.counts

        def calls(name):
            return stats.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return stats.get(name, [0, 0.0, 0.0])[1]

        def total_s(name):
            return stats.get(name, [0, 0.0, 0.0])[2]

        out: dict[str, float] = {}
        for metric in PER_LAYER_UNITS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls(base)
            elif kind == "self_s":
                out[metric] = self_s(base)
            elif kind == "total_s":
                out[metric] = total_s(base)
            else:
                out[metric] = counts.get(metric, 0)
        out["qfield.sqrt.irrational_ratio"] = _ratio(counts["qfield.sqrt.irrational"],
                                                     calls("qfield.sqrt"))
        out["scroll.generate.accept_ratio"] = _ratio(counts["scroll.generate.returned"],
                                                     counts["scroll.generate.attempts"])
        out["scroll.pullback_cache.hit_ratio"] = _cache_hit_ratio(
            getattr(scroll, "_pullback_fiber_derivative", None))
        out["systems.strip.hit_ratio"] = _ratio(counts["systems.strip.steps"],
                                                counts["systems.strip.dots"])
        out["incidence.table_cache.hit_ratio"] = _cache_hit_ratio(
            getattr(incidence, "completed_table", None))
        for cid in _check_ids():
            out[f"check.{cid}.self_s"] = self_s(f"check.{cid}")
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                st[1] for name, st in stats.items() if self.layer_of[name] == layer)
        out["trace.wall_s"] = wall_s
        return out


def leftovers() -> list[str]:
    """Names in dsolid that still hold a span; empty after ``uninstall``."""
    from dsolid.checks import CHECKS

    def is_span(obj) -> bool:
        inner = getattr(obj, "__func__", None) or getattr(obj, "fget", None) or obj
        return getattr(inner, "perfbench_span", False)

    found = [f"CHECKS[{cid}]" for cid, spec in CHECKS.items() if is_span(spec.fn)]
    for modname, mod in list(sys.modules.items()):
        if modname != "dsolid" and not modname.startswith("dsolid."):
            continue
        for attr, obj in list(vars(mod).items()):
            if is_span(obj):
                found.append(f"{modname}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == modname:
                found += [f"{modname}.{obj.__name__}.{a}" for a, raw in vars(obj).items()
                          if is_span(raw)]
    return found
