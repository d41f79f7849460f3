"""Scikit-learn style solver facade.

:class:`CollocationSolver` wires field construction, point generation,
assembly and the sparse direct solve into a fit/predict estimator with
``get_params``/``set_params`` semantics, so discretization studies compose
with generic parameter-sweep tooling.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

from ._validation import as_points, per_direction
from .collocation import (
    CollocationScheme,
    assemble,
    build_field,
    build_field_from_knots,
    generate_collocation_points,
)
from .errors import InvalidSchemeError, PreconditionError
from .metrics import stage_timings
from .problems import BvpDefinition
from .solvers import solve_normal_equations, solve_square

METHODS = ("igac", "igal_fixed", "igal_variable")
FIT_STAGES = ("refine", "points", "assemble", "solve")


def point_counts(method, n_counts, m_counts=None):
    """Collocation-point counts per direction for basis counts ``n_counts``.

    ``igac`` collocates at n points and ``igal_variable`` at n + 2;
    ``igal_fixed`` takes ``m_counts`` (one count or one per direction),
    which must reach n in every direction. Raises
    :class:`InvalidSchemeError` for ``m_counts`` other than n with ``igac``
    and for any ``m_counts`` with ``igal_variable``.
    """
    if method not in METHODS:
        raise PreconditionError(f"method must be one of {METHODS}, got {method!r}")
    n_counts = tuple(n_counts)
    if method == "igal_variable":
        if m_counts is not None:
            raise InvalidSchemeError(
                f"igal_variable derives m = n + 2; got m_per_dir {m_counts!r}"
            )
        return tuple(n + 2 for n in n_counts)
    if method == "igac" and m_counts is None:
        return n_counts
    m_counts = per_direction(m_counts, len(n_counts), "m_per_dir")
    if method == "igac" and m_counts != n_counts:
        raise InvalidSchemeError(
            f"igac collocates at exactly n = {n_counts} points; got m_per_dir {m_counts}"
        )
    if any(m < n for m, n in zip(m_counts, n_counts)):
        raise InvalidSchemeError(
            f"least-squares point counts {m_counts} must reach the "
            f"basis counts {n_counts}"
        )
    return m_counts


class CollocationSolver:
    """Strong-form spline collocation solver (interpolatory or least-squares).

    Parameters
    ----------
    method:
        ``"igac"`` collocates at exactly as many points as unknowns and
        solves the square system by sparse LU. ``"igal_fixed"`` uses the
        explicit ``m_per_dir`` point counts (more points than unknowns) and
        solves the normal equations by band Cholesky.
        ``"igal_variable"`` derives the point counts as n + 2 per direction.
    n_per_dir:
        Control-point count per direction (int or tuple); must be None when
        ``interior_knots`` is given.
    m_per_dir:
        Collocation-point count per direction for ``igal_fixed``; ``igac``
        accepts only n, and ``igal_variable`` none.
    scheme:
        ``"greville"`` (Greville abscissae of a collocation knot vector) or
        ``"uniform"`` (evenly spaced points including the endpoints).
    boundary_weight:
        Scalar weighting applied to boundary rows; ``"auto"`` (default)
        equalizes boundary rows with the mean interior row norm, ``1``
        gives the plain unweighted least-squares stacking.
    interior_knots:
        Optional explicit interior knots per direction for non-uniform
        discretizations (used by the stability experiment).

    Attributes (after ``fit``)
    --------------------------
    field_ : the solved spline field
    points_ : the collocation point set
    system_ : the assembled collocation system
    solve_report_ : solver diagnostics (residual, flops, condition estimate)
    timings_ : ``perf_counter`` seconds of each stage of ``fit``, keyed by
        ``FIT_STAGES``: ``refine`` (the field), ``points``, ``assemble`` and
        ``solve``
    """

    def __init__(
        self,
        method="igac",
        n_per_dir=None,
        m_per_dir=None,
        scheme="greville",
        boundary_weight="auto",
        interior_knots=None,
    ):
        self.method = method
        self.n_per_dir = n_per_dir
        self.m_per_dir = m_per_dir
        self.scheme = scheme
        self.boundary_weight = boundary_weight
        self.interior_knots = interior_knots

    # -- sklearn-compatible parameter handling ------------------------------

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise PreconditionError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    # -- fitting -------------------------------------------------------------

    def fit(self, problem: BvpDefinition, y=None):
        """Solve ``problem`` and store the fitted field on the estimator."""
        if not isinstance(problem, BvpDefinition):
            raise TypeError("fit expects a BvpDefinition")
        c = problem.field_components
        stamps = [time.perf_counter()]

        if self.interior_knots is not None:
            if self.n_per_dir is not None:
                raise InvalidSchemeError(
                    f"n_per_dir {self.n_per_dir!r} and interior_knots both fix the "
                    "field's basis counts; set one of them"
                )
            field = build_field_from_knots(
                problem.geometry, self.interior_knots, components=c
            )
        else:
            counts = per_direction(self.n_per_dir, problem.dim, "n_per_dir")
            field = build_field(problem.geometry, counts, components=c)
        stamps.append(time.perf_counter())
        m_counts = point_counts(self.method, field.shape, self.m_per_dir)
        points = generate_collocation_points(
            field.kvs, CollocationScheme(self.scheme, m_counts)
        )
        stamps.append(time.perf_counter())
        system = assemble(problem, field, points, boundary_weight=self.boundary_weight)
        stamps.append(time.perf_counter())
        if self.method == "igac":
            report = solve_square(system.csr, system.rhs)
        else:
            report = solve_normal_equations(system.csr, system.rhs)
        stamps.append(time.perf_counter())

        self.problem_ = problem
        self.points_ = points
        self.system_ = system
        self.solve_report_ = report
        self.field_ = field.with_coefficients(report.coefficients)
        self.timings_ = stage_timings(
            f"fit {problem.example_id} {self.method}", FIT_STAGES, stamps
        )
        return self

    # -- prediction ----------------------------------------------------------

    def predict(self, theta) -> np.ndarray:
        """Solution values at parametric points, shape (n, components)."""
        self._check_fitted()
        return _values_at(self.field_, theta)

    def physical_points(self, theta) -> np.ndarray:
        """Physical images of parametric points under the problem geometry."""
        self._check_fitted()
        return _values_at(self.problem_.geometry.spline, theta)

    def _check_fitted(self):
        if not hasattr(self, "field_"):
            raise RuntimeError("this solver has not been fitted yet")


def _values_at(spline, theta) -> np.ndarray:
    """Values (n, components) of a spline at parametric points.

    The row table of one unit value coefficient per point holds the basis
    values there, which weigh the local coefficients.
    """
    theta = as_points(theta, spline.dim)
    cols, basis = spline.row_table(theta, np.ones((1, len(theta))))
    coeffs = spline.coeffs.reshape(-1, spline.ncomp)
    return np.einsum("nl,nlc->nc", basis, coeffs[cols])
