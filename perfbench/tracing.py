"""Span tracing installed from outside the program.

The traced run wraps public functions and methods at the names their
callers resolve (``splinecol.estimator.assemble`` rather than
``splinecol.collocation.assemble``, because the estimator calls the name it
imported) and the problem's callbacks, so nothing in the package changes.

Coarse calls are spans: their time is summed by name. Per-point calls
(spline evaluation at one point, one geometry pullback, one callback)
would swamp the trace as spans, so they add a count and their time to the
span that encloses them instead, under ``<span>.<call>``. Every wrapped call charges its duration minus
its wrapped children to its layer, which gives per-layer self times that
add up to the duration of the outermost calls.

A target that no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

perf = time.perf_counter


def _callback_points(args, kwargs, parent):
    x = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(x)
    return "callback.points", (math.prod(shape[:-1]) if len(shape) > 1 else 1)


def _lattice_points(args, kwargs, parent):
    axes = args[1] if len(args) > 1 else kwargs["axes"]
    kind = "sample_points" if parent == "absolute_error_field" else "quad_points"
    return kind, math.prod(len(a) for a in axes)


# (module, class or None, attribute, counter name, layer, span?, point counter)
TARGETS = (
    ("splinecol.estimator", None, "build_field", "refine", "estimator.refine", True, None),
    ("splinecol.estimator", None, "build_field_from_knots", "refine", "estimator.refine", True, None),
    ("splinecol.estimator", None, "generate_collocation_points", "points", "estimator.points", True, None),
    ("splinecol.estimator", None, "assemble", "assemble", "collocation", True, None),
    ("splinecol.estimator", None, "solve_square", "solve", "solvers", True, None),
    ("splinecol.estimator", None, "solve_normal_equations", "solve", "solvers", True, None),
    ("splinecol.metrics", None, "relative_quantity_errors", "relative_quantity_errors", "metrics", True, None),
    ("splinecol.metrics", None, "absolute_error_field", "absolute_error_field", "metrics", True, None),
    ("splinecol.metrics", None, "relative_operator_error", "relative_operator_error", "metrics", True, None),
    ("splinecol.metrics", None, "lattice_pullbacks", "lattice_pullbacks", "geometry", True, _lattice_points),
    ("splinecol.splines", "TensorSpline", "evaluate", "evaluate", "splines", False, None),
    ("splinecol.splines", "TensorSpline", "basis_jets", "basis_jets", "splines", False, None),
    ("splinecol.splines", "TensorSpline", "evaluate_lattice", "evaluate_lattice", "splines", True, None),
    ("splinecol.geometry", "GeometryMap", "pullback", "pullback", "geometry", False, None),
)


_MISSING = object()


def _owner(module_name, class_name):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return owner if class_name is None else getattr(owner, class_name, None)


class Tracer:
    """Per-layer self times, span times and counts, one cell at a time."""

    def __init__(self):
        self._frames = []  # open calls: [seconds of wrapped children]
        self._open = []  # names of the open spans, innermost last
        self.begin_cell()

    def begin_cell(self):
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.counts = defaultdict(int)

    def end_cell(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "span_s": dict(self.span_s),
            "counts": dict(self.counts),
        }

    def call(self, name, layer, fn, args, kwargs=None, span=True, counter=None):
        kwargs = kwargs or {}
        frame = [0.0]
        parent = self._open[-1] if self._open else None
        if span:
            self._open.append(name)
        self._frames.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf() - start
            self._frames.pop()
            self.self_s[layer] += duration - frame[0]
            if self._frames:
                self._frames[-1][0] += duration
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                key, points = counter(args, kwargs, parent)
                self.counts[key] += points
            if span:
                self._open.pop()
                self.span_s[name] += duration
            else:
                self.counts[f"{parent}.{name}.calls"] += 1
                self.span_s[f"{parent}.{name}"] += duration

    def _wrap(self, fn, name, layer, span, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, span, counter)

        return traced

    @contextmanager
    def instrumented(self):
        """Patch every existing target for the duration of the block."""
        saved = []
        try:
            for module, cls, attr, name, layer, span, counter in TARGETS:
                owner = _owner(module, cls)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self._wrap(fn, name, layer, span, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose source, analytic and BC callbacks are traced."""

        def traced(obj, *keys):
            names = {f.name for f in dataclasses.fields(obj)}
            return {
                key: self._wrap(getattr(obj, key), "callback", "problems", False, _callback_points)
                for key in keys
                if key in names and getattr(obj, key) is not None
            }

        def each(objs, *keys):
            return tuple(dataclasses.replace(o, **traced(o, *keys)) for o in objs)

        return dataclasses.replace(
            problem,
            **traced(problem, "source", "analytic_solution"),
            boundary_conditions=each(problem.boundary_conditions, "value"),
            quantities=each(problem.quantities, "analytic"),
            point_constraints=each(problem.point_constraints, "value"),
        )
