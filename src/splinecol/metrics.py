"""Error functionals for manufactured-solution benchmarks.

Relative solution and operator errors are L2-type integrals evaluated by
Gauss-Legendre quadrature per knot cell of the discrete field, weighted by
the geometry Jacobian; absolute error fields are sampled on a dense
parametric lattice mapped to physical space. Reductions are ordered and
deterministic so repeated runs produce identical numbers.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._validation import per_direction
from .errors import PreconditionError, UndefinedMetricError
from .geometry import (
    lattice_pullbacks,
    lattice_push_gradient,
    lattice_push_hessian,
)
from .problems import BvpDefinition, callback_values
from .splines import TensorSpline

DEFAULT_ABS_SAMPLES = {1: 1001, 2: 201, 3: 41}
REPORT_STAGES = ("samples", "pullback", "evaluate", "integrate")

logger = logging.getLogger("splinecol")


def stage_seconds(timings) -> str:
    """One log line's worth of stage timings, ``stage=seconds`` in stage order."""
    return " ".join(f"{stage}={seconds:.6f}s" for stage, seconds in timings.items())


def default_quad_order(field: TensorSpline) -> int:
    return max(field.degrees) + 2


def _gauss_axis(kv, order):
    """Quadrature nodes and weights over all nonempty cells of one direction."""
    nodes, wts = leggauss(order)
    axes, weights = [], []
    for a, b in kv.spans:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        axes.append(mid + half * nodes)
        weights.append(half * wts)
    return np.concatenate(axes), np.concatenate(weights)


def quadrature_rule(field: TensorSpline, quad_order=None):
    """Per-direction node arrays and the flattened tensor weight vector."""
    if quad_order is None:
        quad_order = default_quad_order(field)
    if quad_order < max(field.degrees) + 1:
        raise PreconditionError(
            f"quad_order {quad_order} is below degree+1 = {max(field.degrees) + 1}"
        )
    axes, wts = zip(*(_gauss_axis(kv, quad_order) for kv in field.kvs))
    w = wts[0]
    for extra in wts[1:]:
        w = np.multiply.outer(w, extra)
    return list(axes), w.ravel(), quad_order


def _field_data(problem, field, axes, max_deriv, stamps=None):
    """Physical points, Jacobian weights and pushed field jets on a lattice.

    When ``stamps`` is a list, the ``perf_counter`` times after the
    pullback and after the pushed jets are appended to it.
    """
    pts, _, inv, det, second = lattice_pullbacks(
        problem.geometry, axes, max_deriv=max(1, max_deriv)
    )
    if stamps is not None:
        stamps.append(time.perf_counter())
    jet = field.evaluate_lattice(axes, max_deriv=max_deriv)
    c = field.ncomp
    value = jet.value.reshape(-1, c)
    grad_x = hess_x = None
    if max_deriv >= 1:
        grad_t = jet.grad.reshape(-1, field.dim, c)
        grad_x = lattice_push_gradient(inv, grad_t)
    if max_deriv >= 2:
        hess_t = jet.hess.reshape(-1, field.dim, field.dim, c)
        hess_x = lattice_push_hessian(inv, second, grad_x, hess_t)
    if stamps is not None:
        stamps.append(time.perf_counter())
    return pts, np.abs(det), value, grad_x, hess_x


def absolute_error_field(problem: BvpDefinition, field: TensorSpline, sample_counts=None):
    """Pointwise absolute errors on a parametric lattice mapped to physical space.

    Returns (points, errors) with ``points`` of shape (N, d) in physical
    coordinates and ``errors`` a dict mapping quantity names to (N,) arrays.
    """
    if problem.analytic_solution is None:
        raise UndefinedMetricError(
            f"example {problem.example_id} carries no analytic solution"
        )
    d = problem.dim
    if sample_counts is None:
        sample_counts = DEFAULT_ABS_SAMPLES[d]
    sample_counts = per_direction(sample_counts, d, "sample_counts")
    axes = [
        np.linspace(kv.start, kv.end, m) for kv, m in zip(field.kvs, sample_counts)
    ]
    needs_grad = any(qty.needs_gradient for qty in problem.quantities)
    pts, _, value, grad_x, _ = _field_data(
        problem, field, axes, max_deriv=1 if needs_grad else 0
    )
    errors = {}
    for qty in problem.quantities:
        exact = np.asarray(qty.analytic(pts), dtype=float)
        approx = np.asarray(qty.extract(value, grad_x), dtype=float)
        errors[qty.name] = np.abs(exact - approx)
    return pts, errors


@dataclass(frozen=True)
class QuantityError:
    name: str
    relative: float
    max_abs: float


@dataclass(frozen=True)
class ErrorReport:
    """Errors of one solve, per reported quantity plus the operator error.

    ``timings`` holds the ``perf_counter`` seconds of each stage of
    :func:`error_report`, keyed by ``REPORT_STAGES``: ``samples`` (the
    quadrature rule and the absolute-error lattice), ``pullback`` (the
    geometry on the quadrature lattice), ``evaluate`` (the field's jets,
    pushed to physical derivatives) and ``integrate`` (the relative errors
    and e_DT). Comparisons cover the scalar results only: the timings
    vary from run to run, and ``sample_points``/``sample_errors`` hold
    arrays, which ``==`` compares element by element.
    """

    example_id: str
    quantities: tuple
    e_DT: float | None
    quadrature_order: int
    sample_points: np.ndarray = dataclasses.field(compare=False)
    sample_errors: dict = dataclasses.field(compare=False)
    timings: dict = dataclasses.field(default_factory=dict, compare=False)

    @property
    def e_T(self) -> float:
        """Relative solution error of the primary quantity."""
        return self.quantities[0].relative

    @property
    def max_abs(self) -> float:
        return self.quantities[0].max_abs

    def quantity(self, name: str) -> QuantityError:
        for q in self.quantities:
            if q.name == name:
                return q
        raise KeyError(name)

    def to_dict(self, include_samples: bool = False) -> dict:
        out = {
            "example": self.example_id,
            "quadrature_order": self.quadrature_order,
            "e_DT": self.e_DT,
            "quantities": [
                {"name": q.name, "e_T": q.relative, "max_abs": q.max_abs}
                for q in self.quantities
            ],
        }
        if include_samples:
            out["samples"] = {
                "points": self.sample_points.tolist(),
                "errors": {k: v.tolist() for k, v in self.sample_errors.items()},
            }
        return out


def _relative_l2(exact, approx, dw):
    """Relative L2 distance of ``approx`` from ``exact`` under quadrature weights ``dw``.

    Both take one row per quadrature point, (N,) or (N, c). Returns None
    when ``exact`` has zero L2 norm.
    """
    exact = exact.reshape(len(dw), -1)
    approx = approx.reshape(len(dw), -1)
    den = np.sum((exact**2).sum(axis=1) * dw)
    if den == 0.0:
        return None
    return float(np.sqrt(np.sum(((exact - approx) ** 2).sum(axis=1) * dw) / den))


def error_report(
    problem: BvpDefinition,
    field: TensorSpline,
    quad_order=None,
    sample_counts=None,
) -> ErrorReport:
    """Full error report: relative errors, operator error, absolute samples.

    One pass over the quadrature lattice gives every quantity's relative L2
    error and the operator error e_DT. For a manufactured solution the
    reference operator values equal the source term, so e_DT measures how
    far the discrete field is from satisfying the strong-form equation; it
    is None when the source has zero L2 norm. The absolute errors are
    sampled on a separate lattice (:func:`absolute_error_field`).
    """
    stamps = [time.perf_counter()]
    axes, w, order = quadrature_rule(field, quad_order)
    pts, abs_errors = absolute_error_field(problem, field, sample_counts)
    stamps.append(time.perf_counter())
    x, det, value, grad_x, hess_x = _field_data(problem, field, axes, 2, stamps)
    dw = det * w
    quantities = []
    for qty in problem.quantities:
        exact = np.asarray(qty.analytic(x), dtype=float)
        approx = np.asarray(qty.extract(value, grad_x), dtype=float)
        rel = _relative_l2(exact, approx, dw)
        if rel is None:
            raise UndefinedMetricError(f"quantity {qty.name!r} has zero L2 norm")
        quantities.append(QuantityError(qty.name, rel, float(abs_errors[qty.name].max())))
    source = callback_values(problem.source, x, field.ncomp, "source")
    e_dt = _relative_l2(source, problem.operator.apply(value, grad_x, hess_x), dw)
    stamps.append(time.perf_counter())
    timings = {s: end - start for s, start, end in zip(REPORT_STAGES, stamps, stamps[1:])}
    logger.debug("error_report %s: %s", problem.example_id, stage_seconds(timings))
    return ErrorReport(
        example_id=problem.example_id,
        quantities=tuple(quantities),
        e_DT=e_dt,
        quadrature_order=order,
        sample_points=pts,
        sample_errors=abs_errors,
        timings=timings,
    )
