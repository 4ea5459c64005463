"""Spans recorded from outside the library, by wrapping its public names.

While a Tracer is entered, every public module-level function of mimisbm
is replaced by a timing wrapper in every namespace that binds it (the
package itself and each submodule that imported it by name), and so are
numpy.linalg.eigh and VariationalState.__init__. Leaving the Tracer puts
the originals back, so code outside a traced region runs unwrapped.

A span is [label, start, end, parent index, op id, extra]. Spans stay in
memory; the caller writes them out when the run ends.
"""

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

SUBMODULES = ("core", "mathfn", "generator", "metrics", "inference", "selection", "io", "cli")


def _fit_extra(report):
    return [getattr(report, "best_restart", None), getattr(report, "converged", None)]


# Labels whose return value is summarized into the span.
EXTRAS = {"inference.fit": _fit_extra}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self._originals = {}  # original function -> label
        self._special = []  # (owner, attribute, label)
        package = importlib.import_module("mimisbm")
        self._modules = [package]
        for sub in SUBMODULES:
            try:
                mod = importlib.import_module(f"mimisbm.{sub}")
            except ImportError:
                continue
            self._modules.append(mod)
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._originals[obj] = f"{sub}.{name}"
        self._special.append((np.linalg, "eigh", "inference.eigh"))
        core = importlib.import_module("mimisbm.core")
        if hasattr(core, "VariationalState"):
            self._special.append((core.VariationalState, "__init__", "core.VariationalState"))
        self.labels = set(self._originals.values()) | {label for _, _, label in self._special}

    def _wrap(self, label, fn):
        spans = self.spans
        stack = self._stack
        extra = EXTRAS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if extra is not None:
                span[5] = extra(result)
            return result

        return wrapper

    def __enter__(self):
        wrappers = {fn: self._wrap(label, fn) for fn, label in self._originals.items()}
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for owner, attr, label in self._special:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(label, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def aggregate(spans, indices):
    """Per label: calls, summed seconds and summed self seconds over the
    spans at `indices`. Self time is a span's duration minus the durations
    of its direct children; spans nest on one thread, so children never
    overlap and their durations add up to the time they cover."""
    child = {}
    for i in indices:
        parent = spans[i][3]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
    out = {}
    for i in indices:
        label, start, end = spans[i][0], spans[i][1], spans[i][2]
        calls, total, self_s = out.get(label, (0, 0.0, 0.0))
        out[label] = (calls + 1, total + end - start, self_s + end - start - child.get(i, 0.0))
    return out
