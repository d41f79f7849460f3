"""Boundary value problems and the shipped benchmark examples.

Defines the operator/boundary-condition abstraction consumed by the
assembler, plus five ready-made manufactured-solution benchmarks on
embedded geometries: a 1D reaction-diffusion problem with Dirichlet ends,
the same PDE on a quarter annulus (2D, rational geometry) and a unit cube
(3D), a simply supported plane-stress beam, and a 1D mixed
Dirichlet/Neumann variant used for stability experiments. The first
three share one builder: they differ only in geometry, manufactured
solution and source. The interval, cube and beam geometries are affine
cubic maps of the unit box.

Every operator and boundary condition is written once, as ``apply`` on
field jets with any leading batch shape and a trailing component axis:
``value`` (..., c), ``grad`` (..., d, c) and ``hess`` (..., d, d, c), where
``grad[..., a, k]`` is the derivative of component k along x_a. Each
``apply`` must be linear in the jet with no constant term:
:func:`linear_coefficients` probes it once per call for its constant
coefficients and checks that it is. Assembly and the operator error both
apply only those coefficients, pulled back to the parameter domain
(:func:`splinecol.geometry.pull_back_coefficients`), so the rows of the
system and the operator error cannot disagree. The plane-stress law is
written once too, in :func:`plane_stress`.

Callbacks (``source``, ``analytic_solution``, boundary-condition ``value``
and ``PointConstraint.value``) take physical points of shape (N, d) and
return values of shape (N, c); :func:`callback_values` enforces this.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import CallbackError, ConfigError, PreconditionError
from .geometry import GeometryMap
from .splines import KnotVector, TensorSpline, jet_size

SQRT2 = math.sqrt(2.0)

#: Interior knots of the non-uniform discretization used by the 1D
#: stability experiment (10 basis functions on the unit-interval curve).
STABILITY_KNOTS = (0.25, 0.5, 0.6, 0.7, 0.75, 0.8)


# ---------------------------------------------------------------------------
# material data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterialParams:
    """Plane-stress material and beam load data.

    The reference stress field of the beam benchmark is independent of E
    and nu, so their defaults only affect displacement scaling. E defaults
    to 1 to keep displacement rows and traction rows of the collocation
    system on comparable scales.
    """

    youngs_modulus: float = 1.0
    poisson_ratio: float = 0.3
    load: float = 10.0
    depth: float = 2.0
    half_length: float = 5.0

    def __post_init__(self):
        for name in ("youngs_modulus", "depth", "half_length"):
            if getattr(self, name) <= 0:
                raise PreconditionError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )
        if not 0.0 < self.poisson_ratio < 0.5:
            raise PreconditionError(
                f"poisson_ratio must lie in (0, 0.5), got {self.poisson_ratio!r}"
            )

    @property
    def stiffness(self) -> float:
        """Plane-stress axial stiffness E / (1 - nu^2)."""
        return self.youngs_modulus / (1.0 - self.poisson_ratio**2)

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


def plane_stress(material: MaterialParams, grad):
    """Plane-stress (sigma_x, sigma_y, tau_xy) of displacement gradients.

    ``grad`` (..., 2, 2) holds ``grad[..., a, k]`` = d u_k / d x_a; each
    stress has the leading shape of ``grad``.
    """
    c1, nu = material.stiffness, material.poisson_ratio
    ex, ey = grad[..., 0, 0], grad[..., 1, 1]
    return (
        c1 * (ex + nu * ey),
        c1 * (ey + nu * ex),
        material.shear_modulus * (grad[..., 1, 0] + grad[..., 0, 1]),
    )


# ---------------------------------------------------------------------------
# interior operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScreenedPoissonOperator:
    """The scalar operator -laplace(T) + T in physical coordinates."""

    order: int = 2

    def apply(self, value, grad, hess):
        return value - np.trace(hess, axis1=-3, axis2=-2)


@dataclass(frozen=True)
class PlaneStressNavierOperator:
    """Displacement-form equilibrium operator of plane-stress elasticity.

    Acts on (u_x, u_y); with zero body force the interior equations are
    div sigma(u) = 0. The law is linear, so d sigma / d x_a is the law
    applied to the gradient of d u / d x_a, ``hess[..., a, :, :]``.
    """

    material: MaterialParams
    order: int = 2

    def apply(self, value, grad, hess):
        sx_x, _, tau_x = plane_stress(self.material, hess[..., 0, :, :])
        _, sy_y, tau_y = plane_stress(self.material, hess[..., 1, :, :])
        return np.stack([sx_x + tau_y, tau_x + sy_y], axis=-1)


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------


def face_id(axis: int, side: int) -> int:
    return 2 * axis + side


#: Relative tolerance of the linearity check in :func:`linear_coefficients`.
LINEARITY_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _probe_jets(dim: int, components: int, order: int):
    """Read-only probe fields for :func:`linear_coefficients` and the test jet's flat entries.

    There are P = c * E probes, E = 1 + d (+ d*d) jet entries: probe
    k * E + e is the unit jet of entry e (value, gradient, then Hessian in
    C order) of component k. Then come the zero jet and a seeded random
    one, whose entries are returned in probe order, as a (P,) array.
    """
    entries = jet_size(dim, order)
    size = components * entries
    jets = np.zeros((size + 2, entries, components))
    jets[:size] = np.eye(size).reshape(size, components, entries).transpose(0, 2, 1)
    jets[-1] = np.random.default_rng(2010).uniform(-1.0, 1.0, (entries, components))
    jets.flags.writeable = False
    fields = [jets[:, 0], jets[:, 1 : 1 + dim], jets[:, 1 + dim :]][: order + 1]
    if order == 2:
        fields[2] = fields[2].reshape(size + 2, dim, dim, components)
    test = np.ascontiguousarray(jets[-1].T).reshape(-1)
    test.flags.writeable = False
    return tuple(fields), test


def linear_coefficients(apply, dim: int, components: int, order: int, name: str):
    """Coefficient tensors (E, rows, c, ...) of a linear ``apply`` on field jets.

    ``apply`` takes ``value`` and ``grad`` and, at ``order`` 2, ``hess`` (see
    the module docstring), so a boundary condition comes with its normals
    bound: they broadcast against the probe batch in front of its axis, and
    any axes they add to the output trail the returned tensors. Entry
    [e, r, k] is the weight of jet entry e (value, gradient, then Hessian
    in C order) of component k in output row r, found from one call on
    unit jets. The same call checks that ``apply`` is linear with no
    constant term: it must give exactly 0 on the zero jet and, on a seeded
    random jet, the coefficients' contraction to ``LINEARITY_TOL``
    relative. Raises :class:`PreconditionError` naming ``name`` otherwise.
    """
    fields, test = _probe_jets(dim, components, order)
    out = np.asarray(apply(*fields), dtype=float)  # (..., P + 2, rows)
    units = out[..., :-2, :]
    expected = test @ units
    error = np.abs(out[..., -1, :] - expected)
    if (out[..., -2, :] != 0.0).any() or not (
        error <= LINEARITY_TOL * (np.abs(test) @ np.abs(units))
    ).all():
        raise PreconditionError(
            f"{name} must be linear in the field jet with no constant term: "
            f"it gives {np.max(np.abs(out[..., -2, :])):.3e} on the zero jet and "
            f"{np.max(error):.3e} off its coefficients on a test jet"
        )
    lead = out.ndim - 2
    units = units.reshape(out.shape[:-2] + (components, len(test) // components, out.shape[-1]))
    return units.transpose((lead + 1, lead + 2, lead) + tuple(range(lead)))


def row_coefficients(problem: BvpDefinition, condition=None, normals=None):
    """:func:`linear_coefficients` of the operator, or of ``condition`` at its ``normals``.

    The operator is probed to order 2 and must give c rows, a condition to
    order 1 and its ``n_rows``; raises :class:`PreconditionError` naming
    the operator or face and both counts otherwise.
    """
    if condition is None:
        name, rows = f"operator {type(problem.operator).__name__}", problem.field_components
        apply, order = problem.operator.apply, 2
    else:
        name, rows = f"boundary condition on face {condition.face}", condition.n_rows
        apply, order = functools.partial(condition.apply, normals), 1
    coeffs = linear_coefficients(apply, problem.dim, problem.field_components, order, name)
    if coeffs.shape[1] != rows:
        raise PreconditionError(f"{name} gives {coeffs.shape[1]} rows per point, expected {rows}")
    return coeffs


def callback_values(fn, x, components: int, name: str) -> np.ndarray:
    """Values (N, components) of a problem callback at physical points x (N, d).

    Raises :class:`CallbackError` naming the callback if it returns any
    other shape.
    """
    values = np.asarray(fn(x), dtype=float)
    expected = (len(x), components)
    if values.shape != expected:
        raise CallbackError(
            f"{name} must map points of shape {np.shape(x)} to values of shape "
            f"{expected}, got shape {values.shape}"
        )
    return values


class _FaceCondition:
    """Face bookkeeping shared by the boundary conditions (``axis``, ``side``).

    Each condition's ``apply(normal, value, grad)`` takes unit outward
    normals (..., d) and field jets ``value`` (..., c) and ``grad``
    (..., d, c) and returns the condition's ``n_rows`` left-hand sides
    (..., n_rows), to be matched by ``value(x)``.
    """

    @property
    def face(self) -> int:
        return face_id(self.axis, self.side)


@dataclass(frozen=True)
class DirichletBC(_FaceCondition):
    """Prescribed field values on one parametric face."""

    axis: int
    side: int
    value: Callable[[np.ndarray], np.ndarray]
    components: int = 1
    kind: str = "dirichlet"

    @property
    def n_rows(self) -> int:
        return self.components

    def apply(self, normal, value, grad):
        return value


@dataclass(frozen=True)
class NormalDerivativeBC(_FaceCondition):
    """Prescribed outward normal derivative of a scalar field on one face."""

    axis: int
    side: int
    value: Callable[[np.ndarray], np.ndarray]
    kind: str = "neumann"

    @property
    def n_rows(self) -> int:
        return 1

    def apply(self, normal, value, grad):
        return np.einsum("...a,...ac->...c", normal, grad)


@dataclass(frozen=True)
class TractionBC(_FaceCondition):
    """Prescribed traction sigma(u) . n on one face (plane stress)."""

    axis: int
    side: int
    material: MaterialParams
    value: Callable[[np.ndarray], np.ndarray]
    kind: str = "traction"

    @property
    def n_rows(self) -> int:
        return 2

    def apply(self, normal, value, grad):
        sx, sy, tau = plane_stress(self.material, grad)
        n0, n1 = normal[..., 0], normal[..., 1]
        return np.stack([sx * n0 + tau * n1, tau * n0 + sy * n1], axis=-1)


@dataclass(frozen=True)
class PointConstraint:
    """A single-component field value pinned at one parametric point.

    Used to remove rigid-body modes from pure-traction problems. During
    assembly the constraint replaces the matching component row of the
    collocation point nearest ``theta``; ``value`` is evaluated at that
    point's physical location so the constraint stays consistent with the
    analytic solution even when the nearest point is not exactly ``theta``.
    Like every callback it maps points (N, d) to values, here (N, 1).
    """

    theta: tuple
    component: int
    value: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldQuantity:
    """A scalar output derived from the solution, with its reference field."""

    name: str
    analytic: Callable[[np.ndarray], np.ndarray]
    extract: Callable[[np.ndarray, np.ndarray], np.ndarray]
    needs_gradient: bool = False


@dataclass(frozen=True)
class BvpDefinition:
    """A strong-form boundary value problem on a mapped domain.

    Callbacks must be pure: ``absolute_error_field`` computes its sample
    reference (read-only points, exact values) once per problem and sample
    counts, and keeps it in a private slot that comparisons skip and that
    a ``dataclasses.replace`` copy starts empty.
    """

    example_id: str
    geometry: GeometryMap
    operator: object
    source: Callable[[np.ndarray], np.ndarray]
    boundary_conditions: tuple
    analytic_solution: Callable[[np.ndarray], np.ndarray] | None
    quantities: tuple
    point_constraints: tuple = ()
    field_components: int = 1
    _samples: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.operator.order > 2:
            raise PreconditionError(
                f"operators above second order are not supported, got order "
                f"{self.operator.order}"
            )
        covered = sorted(bc.face for bc in self.boundary_conditions)
        expected = list(range(2 * self.geometry.dim))
        if covered != expected:
            raise PreconditionError(
                f"every parametric face must carry exactly one boundary condition; "
                f"got faces {covered}, expected {expected}"
            )
        for pc in self.point_constraints:
            if not 0 <= pc.component < self.field_components:
                raise PreconditionError(
                    f"point constraint at theta={pc.theta} pins component "
                    f"{pc.component}, outside 0..{self.field_components - 1}"
                )

    @property
    def dim(self) -> int:
        return self.geometry.dim

    def condition_for_face(self, face: int):
        for bc in self.boundary_conditions:
            if bc.face == face:
                return bc
        raise KeyError(face)


# ---------------------------------------------------------------------------
# embedded geometries (unit-interval curve, quarter annulus, unit cube, beam)
# ---------------------------------------------------------------------------


def _cubic_kv() -> KnotVector:
    return KnotVector([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0], 3)


def _box(lows, highs) -> GeometryMap:
    """Cubic B-spline mapping the unit box affinely onto the box [lows, highs]."""
    kv = _cubic_kv()
    g = kv.greville_abscissae()
    axes = [lo + (hi - lo) * g for lo, hi in zip(lows, highs)]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return GeometryMap(TensorSpline.polynomial((kv,) * len(axes), coeffs))


def curve_unit_interval() -> GeometryMap:
    """Cubic B-spline curve representing [0, 1] with the identity map."""
    return _box((0.0,), (1.0,))


def patch_quarter_annulus() -> GeometryMap:
    """Rational cubic patch mapping the unit square onto a quarter annulus.

    The u direction is radial (radius 1 to 4), v sweeps the quarter turn.
    The circular arcs are exact thanks to the (1 + sqrt 2)/3 weights on the
    interior angular rows.
    """
    # Angular control polygon of the exact cubic unit-circle quadrant.
    arc = np.array(
        [[1.0, 0.0], [1.0, 2.0 - SQRT2], [2.0 - SQRT2, 1.0], [0.0, 1.0]]
    )
    radii = np.array([1.0, 2.0, 3.0, 4.0])
    coeffs = radii[:, None, None] * arc[None, :, :]  # (u, v, 2)
    w_arc = np.array([1.0, (1.0 + SQRT2) / 3.0, (1.0 + SQRT2) / 3.0, 1.0])
    weights = np.tile(w_arc, (4, 1))
    kv = _cubic_kv()
    return GeometryMap(TensorSpline((kv, kv), coeffs, weights))


def solid_unit_cube() -> GeometryMap:
    """Cubic B-spline solid representing the unit cube with the identity map."""
    return _box((0.0,) * 3, (1.0,) * 3)


def patch_beam(half_length: float = 5.0, depth: float = 2.0) -> GeometryMap:
    """Cubic patch for the beam domain [-l, l] x [-h/2, h/2] (affine map)."""
    return _box((-half_length, -0.5 * depth), (half_length, 0.5 * depth))


# ---------------------------------------------------------------------------
# scalar examples
# ---------------------------------------------------------------------------


def _constant(*values):
    """Callback with the same values at every point: (N, d) -> (N, len(values))."""
    return lambda x: np.tile(values, np.shape(x)[:-1] + (1,))


def _column(scalar):
    """Callback (N, d) -> (N, 1) from a scalar field (N, d) -> (N,)."""
    return lambda x: scalar(x)[..., None]


def _screened_poisson(example_id, geometry, analytic, source) -> BvpDefinition:
    """-laplace(T) + T = source on ``geometry`` with T = 0 on every face.

    ``analytic`` and ``source`` are scalar fields (N, d) -> (N,); T is the
    one reported quantity.
    """
    zero = _constant(0.0)
    return BvpDefinition(
        example_id=example_id,
        geometry=geometry,
        operator=ScreenedPoissonOperator(),
        source=_column(source),
        boundary_conditions=tuple(
            DirichletBC(axis=face // 2, side=face % 2, value=zero)
            for face in range(2 * geometry.dim)
        ),
        analytic_solution=_column(analytic),
        quantities=(FieldQuantity("T", analytic, lambda value, grad: value[..., 0]),),
    )


def example_1d_dirichlet() -> BvpDefinition:
    """-T'' + T = (1 + 4 pi^2) sin(2 pi x) on [0, 1], T(0) = T(1) = 0."""

    def analytic(x):
        return np.sin(2.0 * np.pi * x[..., 0])

    def source(x):
        return (1.0 + 4.0 * np.pi**2) * np.sin(2.0 * np.pi * x[..., 0])

    return _screened_poisson("I", curve_unit_interval(), analytic, source)


def example_2d_annulus() -> BvpDefinition:
    """-laplace(T) + T = f on a quarter annulus, T = 0 on the boundary.

    The manufactured solution (x^2+y^2-1)(x^2+y^2-16) sin x sin y vanishes
    on the inner and outer arcs through its radial factors and on the two
    straight edges through the sine factors.
    """

    def analytic(x):
        xx, yy = x[..., 0], x[..., 1]
        r2 = xx**2 + yy**2
        return (r2 - 1.0) * (r2 - 16.0) * np.sin(xx) * np.sin(yy)

    def source(x):
        xx, yy = x[..., 0], x[..., 1]
        sx, cx = np.sin(xx), np.cos(xx)
        sy, cy = np.sin(yy), np.cos(yy)
        poly = (
            3 * xx**4
            - 67 * xx**2
            - 67 * yy**2
            + 3 * yy**4
            + 6 * xx**2 * yy**2
            + 116
        )
        return (
            poly * sx * sy
            + (68 * xx - 8 * xx**3 - 8 * xx * yy**2) * cx * sy
            + (68 * yy - 8 * yy**3 - 8 * yy * xx**2) * cy * sx
        )

    return _screened_poisson("II", patch_quarter_annulus(), analytic, source)


def example_3d_cube() -> BvpDefinition:
    """-laplace(T) + T on the unit cube with T = 0 on every face."""

    def analytic(x):
        return (
            np.sin(2 * np.pi * x[..., 0])
            * np.sin(2 * np.pi * x[..., 1])
            * np.sin(2 * np.pi * x[..., 2])
        )

    def source(x):
        return (1.0 + 12.0 * np.pi**2) * analytic(x)

    return _screened_poisson("III", solid_unit_cube(), analytic, source)


def example_1d_mixed() -> BvpDefinition:
    """Example I's PDE with T(0) = 0 and the Neumann condition T'(1) = 2 pi."""
    base = example_1d_dirichlet()
    neumann = NormalDerivativeBC(axis=0, side=1, value=_constant(2.0 * np.pi))
    return replace(
        base, example_id="V", boundary_conditions=(base.boundary_conditions[0], neumann)
    )


# ---------------------------------------------------------------------------
# the simply supported beam (Example IV)
# ---------------------------------------------------------------------------


def beam_stresses(params: MaterialParams):
    """Reference stress fields of the simply supported beam.

    With depth h and faces at y = +-h/2, the field carries the load q on
    the lower face (sigma_y(-h/2) = -q, sigma_y(+h/2) = 0) and the shear on
    each end integrates to the reaction force q*l.
    """
    q, h, l = params.load, params.depth, params.half_length

    def sigma_x(x):
        xx, yy = x[..., 0], x[..., 1]
        return (6 * q / h**3) * (l**2 - xx**2) * yy + q * (yy / h) * (
            4 * yy**2 / h**2 - 3.0 / 5.0
        )

    def sigma_y(x):
        yy = x[..., 1]
        return -(q / 2.0) * (1.0 + yy / h) * (1.0 - 2.0 * yy / h) ** 2

    def tau_xy(x):
        xx, yy = x[..., 0], x[..., 1]
        return -(6 * q / h**3) * xx * (h**2 / 4.0 - yy**2)

    return sigma_x, sigma_y, tau_xy


def beam_displacements(params: MaterialParams):
    """Displacement field matching :func:`beam_stresses` under plane stress.

    Integration constants are fixed by the simply-supported gauge
    u_y(+-l, 0) = 0 and u_x(0, y) = 0 (the problem is symmetric in x).
    """
    q, h, l = params.load, params.depth, params.half_length
    E, nu = params.youngs_modulus, params.poisson_ratio
    c_gauge = (5.0 / (2 * h**3)) * l**4 + (l**2 / (2 * h)) * (2.4 + 1.5 * nu)

    def u_x(x):
        xx, yy = x[..., 0], x[..., 1]
        return (q / E) * (
            (6 / h**3) * (l**2 * xx - xx**3 / 3.0) * yy
            + xx
            * (
                (4 / h**3) * yy**3
                - (3.0 / (5 * h)) * yy
                + nu / 2.0
                - (3 * nu / (2 * h)) * yy
                + (2 * nu / h**3) * yy**3
            )
        )

    def u_y(x):
        xx, yy = x[..., 0], x[..., 1]
        return (q / E) * (
            -yy / 2.0
            + (3.0 / (4 * h)) * yy**2
            - yy**4 / (2 * h**3)
            - nu * (3 / h**3) * (l**2 - xx**2) * yy**2
            - nu * yy**4 / h**3
            + (3 * nu / (10 * h)) * yy**2
            + xx**4 / (2 * h**3)
            - (3 * l**2 / h**3) * xx**2
            - ((2.4 + 1.5 * nu) / (2 * h)) * xx**2
            + c_gauge
        )

    return u_x, u_y


def example_beam(
    params: MaterialParams | None = None, end_condition: str = "pinned"
) -> BvpDefinition:
    """Simply supported plane-stress beam under a uniform surface load.

    ``end_condition`` selects how the ends x = +-l are supported:

    * ``"pinned"`` (default): the reference tractions act on all four faces
      and three point constraints (u_y at the two end midpoints, u_x at the
      center) remove the rigid-body modes, mirroring a weakly simply
      supported beam held by its end reactions.
    * ``"dirichlet"``: the reference displacements are prescribed on both
      end faces instead (a stiffer support, useful for comparison runs).
    """
    params = params or MaterialParams()
    if end_condition not in ("pinned", "dirichlet"):
        raise PreconditionError(
            f"unknown end_condition {end_condition!r}; choose 'pinned' or 'dirichlet'"
        )
    q, h, l = params.load, params.depth, params.half_length
    sigma_x, sigma_y, tau_xy = beam_stresses(params)
    u_x, u_y = beam_displacements(params)

    def displacement(x):
        return np.stack([u_x(x), u_y(x)], axis=-1)

    def traction(normal):
        n0, n1 = normal

        def value(x):
            x = np.asarray(x, dtype=float)
            sx, sy, txy = sigma_x(x), sigma_y(x), tau_xy(x)
            return np.stack([sx * n0 + txy * n1, txy * n0 + sy * n1], axis=-1)

        return value

    top = TractionBC(axis=1, side=1, material=params, value=traction((0.0, 1.0)))
    bottom = TractionBC(axis=1, side=0, material=params, value=traction((0.0, -1.0)))
    if end_condition == "pinned":
        left = TractionBC(axis=0, side=0, material=params, value=traction((-1.0, 0.0)))
        right = TractionBC(axis=0, side=1, material=params, value=traction((1.0, 0.0)))
        constraints = (
            PointConstraint(theta=(0.0, 0.5), component=1, value=_column(u_y)),
            PointConstraint(theta=(1.0, 0.5), component=1, value=_column(u_y)),
            PointConstraint(theta=(0.5, 0.5), component=0, value=_column(u_x)),
        )
    else:
        left = DirichletBC(axis=0, side=0, value=displacement, components=2)
        right = DirichletBC(axis=0, side=1, value=displacement, components=2)
        constraints = ()

    def stress(i):
        return lambda value, grad: plane_stress(params, grad)[i]

    quantities = tuple(
        FieldQuantity(name, analytic=analytic, extract=stress(i), needs_gradient=True)
        for i, (name, analytic) in enumerate(
            (("sigma_x", sigma_x), ("sigma_y", sigma_y), ("tau_xy", tau_xy))
        )
    )

    return BvpDefinition(
        example_id="IV",
        geometry=patch_beam(l, h),
        operator=PlaneStressNavierOperator(params),
        source=_constant(0.0, 0.0),
        boundary_conditions=(bottom, top, left, right),
        analytic_solution=displacement,
        quantities=quantities,
        point_constraints=constraints,
        field_components=2,
    )


#: Factory registry keyed by the benchmark identifiers used on the CLI.
EXAMPLES = {
    "I": example_1d_dirichlet,
    "II": example_2d_annulus,
    "III": example_3d_cube,
    "IV": example_beam,
    "V": example_1d_mixed,
}


def make_example(example_id: str, **kwargs) -> BvpDefinition:
    try:
        factory = EXAMPLES[example_id]
    except KeyError:
        raise ConfigError(
            f"unknown example {example_id!r}; choose one of {sorted(EXAMPLES)}"
        ) from None
    return factory(**kwargs)
