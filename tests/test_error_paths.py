"""Every documented refusal raises its own error type.

Each case below is a check that the rest of the suite and the benchmark
never reach; the call triggers it and the message names what is wrong.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from splinecol.collocation import (
    CollocationScheme,
    CollocationSet,
    assemble,
    build_field,
    generate_collocation_points,
)
from splinecol.estimator import CollocationSolver
from splinecol.errors import (
    InvalidSchemeError,
    PreconditionError,
    SingularSystemError,
    SplineColError,
    UndefinedMetricError,
)
from splinecol.geometry import GeometryMap
from splinecol.metrics import ErrorReport, error_report
from splinecol.problems import (
    FieldQuantity,
    example_1d_dirichlet,
    example_2d_annulus,
    make_example,
)
from splinecol.solvers import solve_square
from splinecol.splines import KnotVector, TensorSpline

CUBIC = KnotVector([0, 0, 0, 0, 1, 1, 1, 1], 3)
LINE = TensorSpline.polynomial((CUBIC,), np.arange(4.0))


def _two_component_field_on_annulus():
    prob = example_2d_annulus()
    field = build_field(prob.geometry, (6, 6), components=2)
    pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (6, 6)))
    assemble(prob, field, pts)


def _zero_quantity():
    prob = example_1d_dirichlet()
    zero = FieldQuantity("T", lambda x: np.zeros(len(x)), lambda value, grad: value[..., 0])
    error_report(replace(prob, quantities=(zero,)), build_field(prob.geometry, (6,)))


def _assemble_on_annulus(points=None, boundary_weight="auto"):
    prob = example_2d_annulus()
    field = build_field(prob.geometry, (6, 6))
    if points is None:
        points = generate_collocation_points(field.kvs, CollocationScheme("greville", (6, 6)))
    assemble(prob, field, points, boundary_weight=boundary_weight)


CASES = {
    "assemble-axis-span": (
        lambda: _assemble_on_annulus(CollocationSet(([0.0, 0.5, 1.0], [0.1, 0.5, 0.9]))),
        InvalidSchemeError,
        r"collocation axis 1 spans \[0\.1, 0\.9\], but the field's direction 1 "
        r"spans \[0\.0, 1\.0\]",
    ),
    "assemble-weight-string": (
        lambda: _assemble_on_annulus(boundary_weight="x"),
        PreconditionError, "boundary_weight must be \"auto\" or a positive finite number, got 'x'",
    ),
    "assemble-weight-none": (
        lambda: _assemble_on_annulus(boundary_weight=None),
        PreconditionError, "boundary_weight .* got None",
    ),
    "report-field-components": (
        lambda: error_report(make_example("IV"), build_field(make_example("IV").geometry, 6)),
        PreconditionError, "field has dimension 2 and 1 components; example IV needs "
        "dimension 2 and 2 components",
    ),
    "report-field-dimension": (
        lambda: error_report(example_1d_dirichlet(), build_field(example_2d_annulus().geometry, 6)),
        PreconditionError, "field has dimension 2 and 1 components; example I needs "
        "dimension 1 and 1 components",
    ),
    "fit-counts-twice": (
        lambda: CollocationSolver(n_per_dir=50, interior_knots=[0.5]).fit(example_1d_dirichlet()),
        InvalidSchemeError, "n_per_dir 50 and interior_knots both fix",
    ),
    "field-count-below-geometry": (
        lambda: build_field(example_2d_annulus().geometry, (8, 3)),
        PreconditionError, "requested 3 basis functions in direction 1, geometry already has 4",
    ),
    "with-coefficients-size": (
        lambda: LINE.with_coefficients(np.zeros(5)),
        PreconditionError, "need 4 coefficients, got 5",
    ),
    "scheme-one-point": (
        lambda: CollocationScheme("greville", (1,)),
        InvalidSchemeError, "at least 2 collocation points",
    ),
    "scheme-counts-per-direction": (
        lambda: generate_collocation_points((CUBIC,), CollocationScheme("uniform", (4, 4))),
        InvalidSchemeError, "2 counts for 1 directions",
    ),
    "field-components": (
        _two_component_field_on_annulus,
        PreconditionError, "field has 2 components, problem needs 1",
    ),
    "geometry-components": (
        lambda: GeometryMap(TensorSpline.polynomial((CUBIC,), np.zeros((4, 2)))),
        PreconditionError, r"got 2 vs 1",
    ),
    "report-unknown-quantity": (
        lambda: ErrorReport("I", (), None, 4).quantity("sigma_x"),
        KeyError, "sigma_x",
    ),
    "report-zero-quantity": (
        _zero_quantity,
        UndefinedMetricError, "quantity 'T' has zero L2 norm",
    ),
    "problem-unknown-face": (
        lambda: example_1d_dirichlet().condition_for_face(2),
        KeyError, "2",
    ),
    "square-solve-zero-row": (
        lambda: solve_square(sp.csr_array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0] * 3]), np.ones(3)),
        SingularSystemError, "row 2 of the system is zero",
    ),
    "knots-degree": (
        lambda: KnotVector([0, 0, 1, 1], 1.5),
        PreconditionError, "degree must be a non-negative integer, got 1.5",
    ),
    "knots-last-multiplicity": (
        lambda: KnotVector([0, 0, 0.5, 1], 1),
        PreconditionError, "last knot must be repeated exactly degree",
    ),
    "greville-degree-0": (
        lambda: KnotVector([0, 1], 0).greville_abscissae(),
        PreconditionError, "undefined for degree 0",
    ),
    "spline-dimension": (
        lambda: TensorSpline.polynomial((CUBIC,) * 4, np.zeros((4,) * 4)),
        PreconditionError, "dimensions 1 to 3",
    ),
    "spline-coefficient-shape": (
        lambda: TensorSpline.polynomial((CUBIC,), np.zeros((5, 1))),
        PreconditionError, r"coefficients must have shape \(4, 'c'\), got \(5, 1\)",
    ),
    "spline-weight-shape": (
        lambda: TensorSpline((CUBIC,), np.zeros((4, 1)), np.ones(5)),
        PreconditionError, r"weights must have shape \(4,\), got \(5,\)",
    ),
    "lattice-axis-count": (
        lambda: LINE.evaluate_lattice([[0.5], [0.5]]),
        PreconditionError, "expected 1 axes, got 2",
    ),
    "insert-knots-direction": (
        lambda: LINE.insert_knots(1, [0.5]),
        PreconditionError, "direction 1 out of range for dim 1",
    ),
}


@pytest.mark.parametrize("call,error,match", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_documented_error(call, error, match):
    with pytest.raises(error, match=match) as caught:
        call()
    # Only a missing key is a plain KeyError; every other refusal is one
    # the package's callers can catch as a SplineColError.
    assert isinstance(caught.value, SplineColError) or error is KeyError
