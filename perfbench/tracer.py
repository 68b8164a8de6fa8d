"""Span tracing of the fecam layers, installed from outside the package.

`install` replaces every public module-level function of each layer module
with a timing wrapper, in every fecam namespace that binds it (the package
root, the defining module, and modules such as `cli` that import names
directly), so nested calls are attributed too.  Spans (name, start, end,
parent) are kept in flat in-memory arrays and written out once at the end;
self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("device", "cell", "array", "encoder", "costmodel", "config",
          "fileio", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []          # frames [span index, name id, child seconds]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()   # filled by hooks
        self.active = True        # False while the benchmark checks results

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self):
        return self.names[self._stack[-1][1]] if self._stack else None

    def _open(self, nid: int):
        frame = [len(self.span_start), nid, 0.0]
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0: float, t1: float):
        self._stack.pop()
        self.span_start[frame[0]] = t0
        self.span_end[frame[0]] = t1
        self.self_s[self.names[frame[1]]] += (t1 - t0) - frame[2]
        self.calls[self.names[frame[1]]] += 1

    @contextmanager
    def span(self, name: str):
        """Root span for one unit of benchmark work (one request)."""
        frame = self._open(self._name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._close(frame, t0, t1)
            if self._stack:
                self._stack[-1][2] += t1 - t0

    @contextmanager
    def paused(self):
        """Run oracle and check calls into fecam without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(frame, t0, t1)
            if hook is not None:
                hook(self, args, kwargs, result)
            if stack:  # wrapper and hook cost stay out of the caller's self time
                stack[-1][2] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def install(tracer: Tracer, hooks: dict):
    """Wrap every public function of the layer modules; returns an undo
    callable that restores the original bindings."""
    modules = [importlib.import_module("fecam")]
    modules += [importlib.import_module(f"fecam.{layer}") for layer in LAYERS]
    wrapped = {}
    bindings = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            package, _, layer = obj.__module__.rpartition(".")
            if package != "fecam" or layer not in LAYERS:
                continue
            if obj not in wrapped:
                name = f"{layer}.{obj.__name__}"
                wrapped[obj] = tracer.wrap(name, obj, hooks.get(name))
            bindings.append((module, attr, obj))
            setattr(module, attr, wrapped[obj])

    def undo():
        for module, attr, obj in bindings:
            setattr(module, attr, obj)
    return undo
