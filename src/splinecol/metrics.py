"""Error functionals for manufactured-solution benchmarks.

Relative solution and operator errors are L2-type integrals evaluated by
Gauss-Legendre quadrature per knot cell of the discrete field, weighted by
the geometry Jacobian; absolute error fields are sampled on a dense
parametric lattice mapped to physical space. Reductions are ordered and
deterministic so repeated runs produce identical numbers. What does not
depend on the field's coefficients, on each lattice, is a reference the
problem holds (:func:`_reference`).
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._validation import per_direction, whole_number
from .errors import PreconditionError, UndefinedMetricError
from .geometry import lattice_pullbacks, lattice_push_gradient, pull_back_coefficients
from .problems import BvpDefinition, callback_values, row_coefficients
from .splines import (
    TensorSpline,
    _jet_rows,
    _lattice_jet,
    _lattice_operators,
    _weight_sums,
)

DEFAULT_ABS_SAMPLES = {1: 1001, 2: 201, 3: 41}
REPORT_STAGES = ("samples", "pullback", "evaluate", "integrate")

logger = logging.getLogger("splinecol")


def stage_timings(label, stages, stamps) -> dict:
    """Seconds between consecutive ``perf_counter`` ``stamps``, keyed by ``stages``.

    Logs them at debug level as one line, ``label: stage=seconds ...`` in
    stage order.
    """
    timings = {stage: end - start for stage, start, end in zip(stages, stamps, stamps[1:])}
    text = " ".join(f"{stage}={seconds:.6f}s" for stage, seconds in timings.items())
    logger.debug("%s: %s", label, text)
    return timings


def default_quad_order(field: TensorSpline) -> int:
    return max(field.degrees) + 2


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    rule = leggauss(order)
    for x in rule:
        x.flags.writeable = False
    return rule


def _gauss_axis(kv, order):
    """Quadrature nodes and weights over all nonempty cells of one direction."""
    nodes, wts = _gauss_legendre(order)
    bp = kv.breakpoints
    mid, half = 0.5 * (bp[:-1] + bp[1:]), 0.5 * (bp[1:] - bp[:-1])
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * wts).ravel()


def quadrature_rule(field: TensorSpline, quad_order=None):
    """Per-direction node arrays and the flattened tensor weight vector."""
    if quad_order is None:
        quad_order = default_quad_order(field)
    quad_order = whole_number(quad_order, "quad_order")
    if quad_order < max(field.degrees) + 1:
        raise PreconditionError(
            f"quad_order {quad_order} is below degree+1 = {max(field.degrees) + 1}"
        )
    axes, wts = zip(*(_gauss_axis(kv, quad_order) for kv in field.kvs))
    w = wts[0]
    for extra in wts[1:]:
        w = np.multiply.outer(w, extra)
    return list(axes), w.ravel(), quad_order


def _physical_gradient(problem, field, inv, jet):
    """The field's physical gradient (N, d, c) when a quantity reads it, else None.

    ``inv`` holds the lattice's inverse Jacobians, None when the geometry
    was evaluated to order 0.
    """
    if inv is None or not any(qty.needs_gradient for qty in problem.quantities):
        return None
    return lattice_push_gradient(inv, jet.grad.reshape(-1, field.dim, field.ncomp))


#: Points per block of the operator's pulled-back coefficients. A block's
#: contraction temporaries take under 2 MB and are reused by the next block,
#: where one pass over a large lattice faults in fresh pages for each
#: temporary. Placed by timing the quadrature lattices of III igac 12 and
#: II igal_variable 60 when each report pulled the coefficients back (in
#: process, one BLAS thread, medians of 11, ms): 4096 points 8.2 / 2.7,
#: 16384 7.0 / 2.2, 65536 7.4 / 2.4, one block 8.1 / 2.6.
OPERATOR_BLOCK = 1 << 14


def _pulled_back_operator(problem, inv, second):
    """The operator's coefficients, pulled back to the parameter domain, as ``(value, blocks)``.

    ``value`` (c, c) weighs the field's value, which the pullback leaves
    as it is. ``blocks`` holds one (P, c, c, points) block per
    ``OPERATOR_BLOCK`` lattice points, in lattice order: entry [e, r, k]
    weighs partial e of component k in output row r, over the first and
    second partials of :func:`_jet_rows` in its order. A mixed partial's
    entry is the sum of the coefficients of its (a, b) and (b, a) jet
    entries.
    """
    c = problem.field_components
    coeffs = row_coefficients(problem)
    coeffs = coeffs.reshape(len(coeffs), c * c, 1)
    rows = list(_jet_rows(inv.shape[1], 2).values())[1:]
    blocks = []
    for start in range(0, len(inv), OPERATOR_BLOCK):
        at = slice(start, start + OPERATOR_BLOCK)
        block = pull_back_coefficients(coeffs, inv[at], second[at])
        block = np.stack([block[r[0]] + block[r[1]] if r[1:] else block[r[0]] for r in rows])
        blocks.append(block.reshape(len(rows), c, c, -1))
    return coeffs[0].reshape(c, c), tuple(blocks)


def _operator_values(operator, jet):
    """The interior operator applied to a field's order-2 lattice jet, as (N, c).

    ``operator`` is the pair of :func:`_pulled_back_operator`. Each block
    is contracted with the matching points of the jet's first partials,
    then of its distinct second partials one at a time, each read as a
    view of the jet's buffer.
    """
    value_coeff, blocks = operator
    d, c = jet.value.ndim - 1, jet.value.shape[-1]
    n = jet.value.size // c
    # Each block of the jet is a view of its (entries, c, lattice) buffer rows.
    value, grad, hess = (
        np.moveaxis(x, range(d), range(-d, 0)).reshape(x.shape[d:] + (n,))
        for x in (jet.value, jet.grad, jet.hess)
    )
    entries = [*grad, *hess.reshape(d * d, c, n)]
    second = [entries[r[0] - 1] for r in list(_jet_rows(d, 2).values())[1 + d :]]
    out = np.empty((c, n))
    for start, k in zip(range(0, n, OPERATOR_BLOCK), blocks):
        at = slice(start, start + OPERATOR_BLOCK)
        block = np.einsum("rk,kn->rn", value_coeff, value[:, at], out=out[:, at])
        part = np.einsum("arkn,akn->rn", k[:d], grad[..., at])
        block += part
        np.einsum("rkn,kn->rn", k[d], second[0][:, at], out=part)
        for coeff, partial in zip(k[d + 1 :], second[1:]):
            part += np.einsum("rkn,kn->rn", coeff, partial[:, at])
        block += part
    return out.T


def _reference(problem, kind, key, build):
    """The problem's reference of ``kind`` for ``key``, built by ``build()`` when not held.

    A problem holds one reference per kind (``"samples"`` or
    ``"quadrature"``) in its private ``_references`` slot, and a new
    ``key`` replaces the held one. ``build()`` returns the entry and the
    arrays in it, which are made read-only; nothing is kept when it raises.
    """
    held = problem._references.get(kind)
    if held is not None and held[0] == key:
        return held[1]
    entry, arrays = build()
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    problem._references[kind] = key, entry
    return entry


@dataclass(frozen=True)
class _QuadratureReference:
    """What :func:`error_report` reads on one quadrature lattice besides the field's numerator.

    ``weights`` (N,) are |det J| times the quadrature weights, ``exact``
    maps each quantity's name to its exact values, ``source`` (N, c) holds
    the source values, ``operator`` the pair of
    :func:`_pulled_back_operator` and ``inv`` the inverse Jacobians
    (N, d, d), None when no quantity reads a gradient. ``weight`` holds
    the partials of a rational field's weight function W up to order 2
    (:func:`splines._weight_sums`), one lattice array each, and is None
    for a B-spline field.
    """

    weights: np.ndarray
    exact: dict
    source: np.ndarray
    operator: tuple
    inv: np.ndarray | None
    weight: np.ndarray | None


def _quadrature_reference(problem, field, axes, w, order, ops):
    """The problem's :class:`_QuadratureReference` on the quadrature lattice ``axes``.

    It is keyed by the quadrature order, the field's knot vectors, from
    which ``axes`` and ``w`` follow, and the bytes of its weights, so a
    field with other weights on the same knots misses. It is built from the
    geometry's order-2 pullback, which raises
    :class:`SingularGeometryError` first, and W's sums against ``ops``,
    the field's direction operators on ``axes``.
    """
    key = order, field.kvs, field.weights.tobytes()

    def build():
        x, _, inv, det, second = lattice_pullbacks(problem.geometry, axes, max_deriv=2)
        ref = _QuadratureReference(
            weights=np.abs(det) * w,
            exact={
                qty.name: np.asarray(qty.analytic(x), dtype=float) for qty in problem.quantities
            },
            source=callback_values(problem.source, x, problem.field_components, "source"),
            operator=_pulled_back_operator(problem, inv, second),
            inv=inv if any(qty.needs_gradient for qty in problem.quantities) else None,
            weight=None if field.is_polynomial else np.concatenate(_weight_sums(field, ops, 2)),
        )
        value, blocks = ref.operator
        arrays = (ref.weights, ref.source, ref.inv, ref.weight, value, *blocks)
        return ref, arrays + tuple(ref.exact.values())

    return _reference(problem, "quadrature", key, build)


def absolute_error_field(problem: BvpDefinition, field: TensorSpline, sample_counts=None):
    """Pointwise absolute errors on a parametric lattice mapped to physical space.

    Returns (points, errors) with ``points`` of shape (N, d) in physical
    coordinates and ``errors`` a dict mapping quantity names to (N,) arrays.
    ``sample_counts`` are at least 1. The lattice goes to order 1, and is
    checked for a singular Jacobian, only when a quantity reads a gradient.

    The points, their inverse Jacobians (if read) and the exact values are
    the problem's sample reference: computed once per parametric box and
    ``sample_counts``, held until other counts replace them, and kept only
    after the pullback and every callback have succeeded (see
    :func:`_reference`); ``points`` is read-only and ``analytic`` must be
    pure.
    Raises :class:`PreconditionError` naming both counts when the field's
    dimension or component count is not the problem's.
    """
    want = (problem.dim, problem.field_components)
    if (field.dim, field.ncomp) != want:
        raise PreconditionError(
            f"field has dimension {field.dim} and {field.ncomp} components; example "
            f"{problem.example_id} needs dimension {want[0]} and {want[1]} components"
        )
    if problem.analytic_solution is None:
        raise UndefinedMetricError(
            f"example {problem.example_id} carries no analytic solution"
        )
    d = problem.dim
    if sample_counts is None:
        sample_counts = DEFAULT_ABS_SAMPLES[d]
    sample_counts = per_direction(sample_counts, d, "sample_counts", 1)
    key = tuple((kv.start, kv.end, m) for kv, m in zip(field.kvs, sample_counts))
    axes = [np.linspace(*lattice) for lattice in key]
    needs_grad = any(qty.needs_gradient for qty in problem.quantities)

    def build():
        pts, _, inv, _, _ = lattice_pullbacks(problem.geometry, axes, max_deriv=int(needs_grad))
        exact = {
            qty.name: np.asarray(qty.analytic(pts), dtype=float) for qty in problem.quantities
        }
        return (pts, inv, exact), (pts, inv, *exact.values())

    pts, inv, exact = _reference(problem, "samples", key, build)
    jet = field.evaluate_lattice(axes, max_deriv=int(needs_grad))
    value = jet.value.reshape(-1, field.ncomp)
    grad_x = _physical_gradient(problem, field, inv, jet)
    errors = {}
    for qty in problem.quantities:
        approx = np.asarray(qty.extract(value, grad_x), dtype=float)
        errors[qty.name] = np.abs(exact[qty.name] - approx)
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
    quadrature rule, its basis tables and the absolute-error lattice),
    ``pullback`` (the problem's quadrature reference: when the problem does
    not hold it for the field's knots and weights, the geometry's order-2
    pullback, the exact and source values, the operator's pulled-back
    coefficients and a rational field's W; a lookup otherwise),
    ``evaluate`` (the field's parametric jets from its numerator w q, and
    its physical gradient when a quantity reads one) and ``integrate``
    (the relative errors, and e_DT by contracting the jet with the
    pulled-back coefficients). Comparisons cover the scalar results only:
    the timings vary from run to run.
    """

    example_id: str
    quantities: tuple
    e_DT: float | None
    quadrature_order: int
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

    def to_dict(self) -> dict:
        return {
            "example": self.example_id,
            "quadrature_order": self.quadrature_order,
            "e_DT": self.e_DT,
            "quantities": [
                {"name": q.name, "e_T": q.relative, "max_abs": q.max_abs}
                for q in self.quantities
            ],
        }


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

    What the quadrature lattice gives apart from the field's numerator is
    computed once per problem, quadrature order, knots and weights
    (:func:`_quadrature_reference`), W's partials among it. A rational jet
    contracts w q alone and divides by W's sums; on the quadrature lattice
    these are the held ones, cold or warm, so a report of a second field on
    the same knots and weights contracts only its numerator there.
    """
    stamps = [time.perf_counter()]
    axes, w, order = quadrature_rule(field, quad_order)
    ops = _lattice_operators(field.kvs, axes, 2)
    _, abs_errors = absolute_error_field(problem, field, sample_counts)
    stamps.append(time.perf_counter())
    ref = _quadrature_reference(problem, field, axes, w, order, ops)
    stamps.append(time.perf_counter())
    jet = _lattice_jet(field, ops, 2, ref.weight)
    grad_x = _physical_gradient(problem, field, ref.inv, jet)
    stamps.append(time.perf_counter())
    value = jet.value.reshape(-1, field.ncomp)
    quantities = []
    for qty in problem.quantities:
        approx = np.asarray(qty.extract(value, grad_x), dtype=float)
        rel = _relative_l2(ref.exact[qty.name], approx, ref.weights)
        if rel is None:
            raise UndefinedMetricError(f"quantity {qty.name!r} has zero L2 norm")
        quantities.append(QuantityError(qty.name, rel, float(abs_errors[qty.name].max())))
    e_dt = _relative_l2(ref.source, _operator_values(ref.operator, jet), ref.weights)
    stamps.append(time.perf_counter())
    timings = stage_timings(f"error_report {problem.example_id}", REPORT_STAGES, stamps)
    return ErrorReport(
        example_id=problem.example_id,
        quantities=tuple(quantities),
        e_DT=e_dt,
        quadrature_order=order,
        timings=timings,
    )
