"""Per-layer tracing installed from outside the program.

``Tracer.install`` wraps the public functions and methods of every layer
module of cyclealg and a few numpy entry points, and rebinds each wrapper in
every cyclealg module namespace that bound the original (``reconstruction``
imports its own ``mul_elem`` from ``algebra``, for instance).
``Tracer.uninstall`` puts the originals back.

A span is (name, start, end, parent index, request id), kept in memory until
the run ends.  Hot entry points that only need a count (``Poly`` construction
and most numpy kernels) bump a counter instead of opening a span, so their
time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("poly", "algebra", "representations", "derivations",
          "reconstruction", "cli")

# dunder methods traced under a readable name
_SPAN_DUNDERS = {"__mul__": "mul", "__rmul__": "mul", "__pow__": "pow"}
# (class, method) pairs that are counted, not spanned
_COUNTED_METHODS = {("Poly", "__init__"): "construct"}

# numpy entry points: label -> (namespace, attribute names, spanned?)
_NUMPY = {
    "numpy.linalg.lstsq": (np.linalg, ("lstsq",), True),
    "numpy.linalg.norm": (np.linalg, ("norm",), False),
    "numpy.linalg.svd": (np.linalg, ("svd",), False),
    "numpy.convolve": (np, ("convolve",), False),
    "numpy.fft": (np.fft, ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                           "fftn", "ifftn"), False),
}

# Result observers: label -> (metric suffix, value taken from the result).
_OBSERVE = {
    "reconstruction.solve_boundary_field": ("grid_points", lambda r: r.m),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.observed: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self.labels: set[str] = set()  # every label a wrapper reports

    # ---- wrappers -------------------------------------------------------

    def _span(self, label: str, fn):
        spans, stack, observed = self.spans, self._stack, self.observed
        clock = time.perf_counter
        observe = _OBSERVE.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.request)
            if observe is not None:
                observed[f"{label}.{observe[0]}"] += observe[1](result)
            return result

        return wrapper

    def _counter(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # ---- install / uninstall -------------------------------------------

    def install(self) -> None:
        by_id: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"cyclealg.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    label = f"{layer}.{name}"
                    by_id[id(obj)] = self._span(label, obj)
                    self._originals[id(obj)] = label
                    self.labels.add(label)
                elif isinstance(obj, type):
                    self._install_class(layer, obj)
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        for label, (namespace, attrs, spanned) in _NUMPY.items():
            for attr in attrs:
                fn = getattr(namespace, attr)
                make = self._span if spanned else self._counter
                self._patch(namespace, attr, make(label, fn))
            self.labels.add(label)

    def _install_class(self, layer: str, cls: type) -> None:
        wrapped: dict[int, object] = {}
        for attr, member in list(vars(cls).items()):
            if not isinstance(member, types.FunctionType):
                continue
            counted = _COUNTED_METHODS.get((cls.__name__, attr))
            name = _SPAN_DUNDERS.get(attr, attr)
            if counted is None and name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{counted or name}"
            if id(member) not in wrapped:
                make = self._counter if counted else self._span
                wrapped[id(member)] = make(label, member)
                self._originals[id(member)] = label
                self.labels.add(label)
            self._patch(cls, attr, wrapped[id(member)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stale_bindings(self) -> list[str]:
        """Module or class attributes still bound to an unwrapped original."""
        found = []
        for module in _package_modules():
            for name, obj in vars(module).items():
                owners = [(name, obj)]
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    owners += [(f"{name}.{a}", m) for a, m in vars(obj).items()]
                for where, value in owners:
                    label = self._originals.get(id(value))
                    if label is not None:
                        found.append(f"{module.__name__}.{where} -> {label}")
        return found

    # ---- aggregation ----------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per-label self time, span calls and span durations by request."""
        covered = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int, self.counts)
        roots: dict[int, float] = defaultdict(float)
        for index, (label, start, end, parent, request) in enumerate(
            self.spans
        ):
            self_s[label] += end - start - covered[index]
            calls[label] += 1
            if parent < 0:
                roots[request] += end - start
        return self_s, calls, roots

    def inclusive(self) -> dict[str, float]:
        """Per-label span time, counting a span nested in a span of the
        same label only once."""
        out: dict[str, float] = defaultdict(float)
        for label, start, end, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != label:
                parent = self.spans[parent][3]
            if parent < 0:
                out[label] += end - start
        return out


def _package_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "cyclealg" or name.startswith("cyclealg."))
    ]
