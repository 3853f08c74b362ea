"""Per-layer spans for the traced benchmark run.

``Tracer.install`` wraps the public entry points of every tensorcalc layer,
replacing each public function in every module namespace that imported it,
and the public methods on their classes.  Nothing in the library changes;
the untraced run never imports this module.

A span is aggregated in memory by name: calls, total time, and self time
(total minus the time of the spans it caused).  Operator constructors are
not timed themselves: the fields they return are tagged, so the span
``operators.<ctor>`` times every evaluation of such a field.  Checks run
with the tracer paused, so only the workload's own calls are counted.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

import numpy as np

from layout import OPERATOR_CTORS
from tensorcalc import euler, evolving, fields, geometry, operators, quadrature, stress, suites, tensor

FUNCTION_LAYERS = (tensor, quadrature, euler, stress, evolving)


def _point_key(_geom, x, t=0.0):
    return hash((np.asarray(x, dtype=float).tobytes(), float(t)))


class Tracer:
    def __init__(self) -> None:
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.distinct = {}  # span name -> set of call keys
        self.fd_depth_max = 0
        self.paused = False
        self._stack = []  # time covered by the children of each open span
        self._alive = {}  # id -> evaluated field, so the ids stay unique
        self._tagged = {}  # id -> field returned by an operator constructor

    def wrap(self, name, fn, key=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        seen = self.distinct.setdefault(name, set()) if key else None
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(key(*args, **kwargs))
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat[0] += 1
                stat[1] += span
                stat[2] += span - stack.pop()
                if stack:
                    stack[-1] += span

        return traced

    def _field_key(self, field, x, t=0.0):
        self._alive[id(field)] = field
        return hash((id(field), np.asarray(x, dtype=float).tobytes(), float(t)))

    def _tagging(self, name, ctor):
        span = f"operators.{name}"
        self.stats.setdefault(span, [0, 0.0, 0.0])  # reported even when never used

        @functools.wraps(ctor)
        def build(*args, **kwargs):
            field = ctor(*args, **kwargs)
            if not self.paused and self._tagged.get(id(field)) is not field:
                self._tagged[id(field)] = field
                field._func = self.wrap(span, field._func)
                self.fd_depth_max = max(self.fd_depth_max, field.depth)
            return field

        return build

    def install(self) -> None:
        replace = {}
        for mod in FUNCTION_LAYERS:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType):
                    replace[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        replace[id(geometry.project)] = (
            geometry.project, self.wrap("geometry.project", geometry.project))
        for name in OPERATOR_CTORS:
            ctor = getattr(operators, name)
            replace[id(ctor)] = (ctor, self._tagging(name, ctor))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", {})
            for attr, value in list(namespace.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        cls = geometry.LevelSetGeometry
        cls.frame_at = self.wrap("geometry.frame_at", cls.frame_at, key=_point_key)
        cls.frame_derivative_at = self.wrap("geometry.frame_derivative_at", cls.frame_derivative_at)
        cls = fields.TensorField
        cls.values = self.wrap("fields.values", cls.values, key=self._field_key)
        cls.gradient_values = self.wrap("fields.gradient_values", cls.gradient_values)
        quadrature.Chart.points = self.wrap("quadrature.chart_points", quadrature.Chart.points)
        for name, fn in list(suites.SUITES.items()):
            suites.SUITES[name] = self.wrap(f"suites.{name}", fn)

    def reset(self) -> None:
        """Forget the spans recorded so far (set-up), keep the wrappers."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for seen in self.distinct.values():
            seen.clear()

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def summary(self) -> dict:
        spans = {}
        for name, (calls, total, self_s) in sorted(self.stats.items()):
            entry = {"calls": calls, "total_s": total, "self_s": self_s}
            if name in self.distinct:
                entry["distinct"] = len(self.distinct[name])
            spans[name] = entry
        return {"spans": spans, "fd_depth_max": self.fd_depth_max}
