"""Outside-in layer tracer.

Wraps the public entry points of the package's layers by attribute
replacement, from the benchmark's own code, and records per entry point
its call count and self time (span time minus the time of nested spans).
Nothing in the package changes; the wrappers are removed again on exit.
An entry point that a later commit no longer has is reported with zero
calls.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# Public entry points per layer.  "Class.method" wraps a method.
LAYERS = {
    "geometry": ("parse_arrangement", "decone", "cone", "intersection_points", "shear_to_generic"),
    "presentation": ("arvola_randell", "projective_presentation", "free_reduce_and_strip"),
    "cover": ("build_cover_complex", "CoverComplex.chain_ok", "h1_of_cover"),
    "snf": ("quotient_with_ranks", "smith_normal_form", "rank_mod_p"),
    "bounds": ("predict", "bound_report", "oka_sakamoto_check"),
    "pipeline": ("analyze", "report_dict", "projective_h1"),
}

def entry_points():
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Context manager that installs the wrappers on ``<package>.<layer>``.

    For the entry points named in ``capture`` it also keeps every
    ``(args, result)`` in ``returns[key]``, for counters read later.
    """

    def __init__(self, package, capture=()):
        self.package = package
        self.self_s = dict.fromkeys(entry_points(), 0.0)
        self.calls = dict.fromkeys(entry_points(), 0)
        self.returns = {key: [] for key in capture}
        self._open = []  # child time accumulated by each open span
        self._restore = []

    def __enter__(self):
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            for name in names:
                owner, _, attr = name.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                original = getattr(target, attr, None) if target is not None else None
                if original is None:
                    continue
                self._restore.append((target, attr, original))
                setattr(target, attr, self._wrap(original, f"{layer}.{name}"))
        return self

    def __exit__(self, *exc):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _wrap(self, fn, key):
        open_spans = self._open
        self_s, calls = self.self_s, self.calls
        returns = self.returns.get(key)

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[key] += elapsed - open_spans.pop()
                calls[key] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if returns is not None:
                returns.append((args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_totals(self):
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, value in self.self_s.items():
            totals[key.split(".", 1)[0]] += value
        return totals

