"""Span recorder that wraps lsdeficit's layers from outside the package.

``Tracer`` replaces each traced function with a timing wrapper under every
name callers use (``transport.transport_cost``, ``bounds.transport_cost``,
``lsdeficit.transport_cost``, ...), and each traced method or cached
property on the density classes that define it.  Spans are kept in memory
as ``(layer, start, end, parent, op, returned)`` tuples; leaving the ``with`` block
puts every original object back.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded, so children nest inside their
parent and never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

# Layer name -> (module, function), wrapped under every name bound to it.
FUNCTION_LAYERS = {
    "densities.gaussian_convolve": ("lsdeficit.densities", "gaussian_convolve"),
    "densities.gaussian_convolve_2d": ("lsdeficit.densities", "gaussian_convolve_2d"),
    "recentering.recenter": ("lsdeficit.recentering", "recenter"),
    "recentering.tensorise": ("lsdeficit.recentering", "tensorise"),
    "quadrature.integrate": ("lsdeficit.quadrature", "integrate"),
    "quadrature.integrate_values": ("lsdeficit.quadrature", "integrate_values"),
    "quadrature.integrate_values_2d": ("lsdeficit.quadrature", "integrate_values_2d"),
    "transport.transport_cost": ("lsdeficit.transport", "transport_cost"),
    "transport.costs_to_standard_gaussian_rows": (
        "lsdeficit.transport",
        "costs_to_standard_gaussian_rows",
    ),
    "transport.monotone_plan": ("lsdeficit.transport", "monotone_plan"),
    "cli.main": ("lsdeficit.cli", "main"),
    "specio.load": ("lsdeficit.specio", "load"),
    "bounds.evaluate_bound": ("lsdeficit.bounds", "evaluate_bound"),
}
# Layer name -> (module, attribute): a method or cached property, wrapped on
# every class of that module which defines it.
CLASS_LAYERS = {
    "densities.quantile": ("lsdeficit.densities", "quantile"),
    "densities.table": ("lsdeficit.densities", "table"),
}
# Every public function defined in these modules is traced under one layer.
MODULE_LAYERS = {"functionals": "lsdeficit.functionals"}

_QUADRATURE = ("quadrature.integrate", "quadrature.integrate_values", "quadrature.integrate_values_2d")


class Tracer:
    """Context manager: wrap the layers on entry, restore them on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self.n_evals = 0
        self.convolve_repeats = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._convolved: dict[tuple[int, float], weakref.ref] = {}

    # -- patching -----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for layer, (mod, attr) in FUNCTION_LAYERS.items():
                fn = getattr(sys.modules[mod], attr)
                self._rebind(fn, self._wrap(layer, fn))
            for layer, mod in MODULE_LAYERS.items():
                module = sys.modules[mod]
                for attr, fn in list(vars(module).items()):
                    if inspect.isfunction(fn) and fn.__module__ == mod and not attr.startswith("_"):
                        self._rebind(fn, self._wrap(layer, fn))
            for layer, (mod, attr) in CLASS_LAYERS.items():
                classes = {c for c in vars(sys.modules[mod]).values() if inspect.isclass(c)}
                for cls in classes:
                    if attr in vars(cls):
                        self._patch_class(cls, attr, layer)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper) -> None:
        """Point every lsdeficit module-level name bound to ``fn`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "lsdeficit" or name.startswith("lsdeficit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _patch_class(self, cls: type, attr: str, layer: str) -> None:
        original = vars(cls)[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(layer, original.func))
            replacement.__set_name__(cls, attr)
        else:
            replacement = self._wrap(layer, original)
        self._set(cls, attr, replacement)

    # -- recording ----------------------------------------------------------
    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        after = None
        if layer in _QUADRATURE:
            after = self._count_evals
        elif layer == "densities.gaussian_convolve":
            signature = inspect.signature(fn)
            after = lambda args, kwargs, out: self._count_repeat(signature, args, kwargs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            returned = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op, returned)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _count_evals(self, args, kwargs, out) -> None:
        self.n_evals += out.n_evals

    def _count_repeat(self, signature, args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        density, t = bound.arguments["density"], bound.arguments["t"]
        key = (id(density), t)
        seen = self._convolved.get(key)
        if seen is not None and seen() is density:
            self.convolve_repeats += 1
        else:
            self._convolved[key] = weakref.ref(density)

    # -- summary ------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, calls that returned, and summed self time."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "returned": 0, "self_s": 0.0}
        )
        for (layer, start, end, _, _, returned), children in zip(self.spans, child_time):
            row = totals[layer]
            row["calls"] += 1
            row["returned"] += returned
            row["self_s"] += (end - start) - children
        return dict(totals)
