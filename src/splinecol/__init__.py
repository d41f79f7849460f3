"""splinecol: isogeometric spline collocation solvers and benchmarks.

The package solves second-order boundary value problems in strong form on
NURBS-mapped domains, either interpolatory (as many collocation points as
unknowns, solved by sparse LU) or least-squares (more points than
unknowns, solved through the sparse normal equations), and ships five
manufactured-solution benchmarks with error metrics and a CLI harness.
"""

from .collocation import (
    CollocationScheme,
    CollocationSet,
    assemble,
    build_field,
    build_field_from_knots,
    collocation_knot_vector,
    empty_cells,
    generate_collocation_points,
)
from .config import ExperimentConfig
from .errors import (
    AssemblyError,
    CallbackError,
    ConfigError,
    DomainError,
    InvalidRefinementError,
    InvalidSchemeError,
    PreconditionError,
    RankDeficientError,
    SingularGeometryError,
    SingularSystemError,
    SplineColError,
    UndefinedMetricError,
    UnsupportedDerivativeError,
)
from .estimator import CollocationSolver
from .geometry import GeometryMap
from .metrics import absolute_error_field, error_report
from .problems import STABILITY_KNOTS, BvpDefinition, MaterialParams, make_example
from .solvers import flop_cost_model, solve_normal_equations, solve_square
from .splines import KnotVector, TensorSpline

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BvpDefinition",
    "CallbackError",
    "CollocationScheme",
    "CollocationSet",
    "CollocationSolver",
    "ConfigError",
    "DomainError",
    "ExperimentConfig",
    "GeometryMap",
    "InvalidRefinementError",
    "InvalidSchemeError",
    "KnotVector",
    "MaterialParams",
    "PreconditionError",
    "RankDeficientError",
    "STABILITY_KNOTS",
    "SingularGeometryError",
    "SingularSystemError",
    "SplineColError",
    "TensorSpline",
    "UndefinedMetricError",
    "UnsupportedDerivativeError",
    "absolute_error_field",
    "assemble",
    "build_field",
    "build_field_from_knots",
    "collocation_knot_vector",
    "empty_cells",
    "error_report",
    "flop_cost_model",
    "generate_collocation_points",
    "make_example",
    "solve_normal_equations",
    "solve_square",
]
