"""Collocation point generation and strong-form system assembly.

Turns a boundary value problem plus a discrete unknown field into a
sparse linear system whose rows come in lattice order: each collocation
point owns a run of consecutive rows, interior operator rows or its
boundary condition's rows, with field components interleaved. With as
many collocation points as unknowns the system is square (interpolatory
collocation) and point i pairs with basis function i, so the diagonal is
zero-free; with more points it is overdetermined and meant for a
least-squares solve.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._validation import as_float_array, per_direction, whole_counts
from .errors import (
    AssemblyError,
    InvalidSchemeError,
    PreconditionError,
    SingularGeometryError,
)
from .geometry import GeometryMap, boundary_normals, lattice_pullbacks, pull_back_coefficients
from .problems import BvpDefinition, callback_values, row_coefficients
from .splines import KnotVector, TensorSpline, _refine, jet_size

SCHEME_KINDS = ("greville", "uniform")


@dataclass(frozen=True)
class CollocationScheme:
    """How collocation points are placed: Greville abscissae or uniform."""

    kind: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise InvalidSchemeError(
                f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}"
            )
        counts = whole_counts(self.counts, "counts")
        if any(c < 2 for c in counts):
            raise InvalidSchemeError("need at least 2 collocation points per direction")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class CollocationSet:
    """Collocation points on the tensor lattice spanned by ``axes``, split by the faces they touch.

    ``axes`` holds one 1D parameter array per direction. ``lattice`` (N, d)
    is computed from them in C order and ``faces`` (N, 2d) marks the faces
    each point lies on: face 2a the points at the first entry of axis a,
    face 2a + 1 those at its last entry that are not on face 2a. A point
    on no face is interior.
    """

    axes: tuple[np.ndarray, ...]
    lattice: np.ndarray = dataclasses.field(init=False, repr=False)
    faces: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        axes = tuple(as_float_array(a, f"axes[{i}]", ndim=1) for i, a in enumerate(self.axes))
        if not all(len(a) for a in axes):
            raise PreconditionError("every collocation axis needs at least one point")
        lattice = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        faces = np.empty((len(lattice), 2 * len(axes)), dtype=bool)
        faces[:, 0::2] = lattice == [a[0] for a in axes]
        faces[:, 1::2] = (lattice == [a[-1] for a in axes]) & ~faces[:, 0::2]
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "faces", faces)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def on_boundary(self) -> np.ndarray:
        return self.faces.any(axis=1)

    @property
    def n_points(self) -> int:
        return len(self.lattice)


def collocation_knot_vector(kv: KnotVector, m: int) -> KnotVector:
    """Knot vector whose Greville abscissae serve as m collocation sites.

    The collocation knot vector is built by uniform interior-knot insertion
    over the field's parametric range, independent of the field's own
    interior knots. For fields that were themselves uniformly refined this
    reproduces classical interpolatory collocation at the field's Greville
    abscissae when m equals the basis count. Alternatives that adapt to the
    field knots (midpoint refinement, or the field knots themselves on
    non-uniform discretizations) produce unevenly spaced sites that cost
    about an order of magnitude of least-squares accuracy.
    """
    if m < kv.n_basis:
        raise InvalidSchemeError(
            f"Greville count {m} below the basis count {kv.n_basis}"
        )
    p = kv.degree
    interior = _uniform_knots(kv, m - p - 1)
    knots = np.concatenate([np.full(p + 1, kv.start), interior, np.full(p + 1, kv.end)])
    return KnotVector(knots, p)


def _uniform_knots(kv: KnotVector, count: int) -> np.ndarray:
    """``count`` interior knots splitting the range of ``kv`` into equal cells."""
    return kv.start + np.arange(1, count + 1) * (kv.end - kv.start) / (count + 1)


def generate_collocation_points(kvs, scheme: CollocationScheme) -> CollocationSet:
    """Tensor-product collocation points for a field on knot vectors ``kvs``.

    Greville placement takes the Greville abscissae of a per-direction
    collocation knot vector (see :func:`collocation_knot_vector`); uniform
    placement spaces points evenly including the endpoints. Both start and
    end each axis at its knot vector's ends, which mark the boundary points.
    """
    kvs = tuple(kvs)
    if len(scheme.counts) != len(kvs):
        raise InvalidSchemeError(
            f"scheme has {len(scheme.counts)} counts for {len(kvs)} directions"
        )
    axes = []
    for kv, m in zip(kvs, scheme.counts):
        if scheme.kind == "greville":
            axes.append(collocation_knot_vector(kv, m).greville_abscissae())
        else:
            axes.append(np.linspace(kv.start, kv.end, m))
    return CollocationSet(tuple(axes))


def empty_cells(points: CollocationSet, kvs):
    """Knot cells (as per-direction span indices) without any collocation point.

    ``kvs`` are the field's knot vectors. A point on a shared cell face
    counts for every adjacent cell. The consistency analysis of
    least-squares collocation assumes every cell holds a point.
    """
    # A lattice point covers a cell iff each coordinate covers the matching
    # per-direction span, so coverage separates by direction.
    covered = [
        ((kv.breakpoints[:-1, None] <= u) & (u <= kv.breakpoints[1:, None])).any(axis=1)
        for kv, u in zip(kvs, points.axes)
    ]
    full = functools.reduce(np.logical_and.outer, covered)
    return [tuple(int(i) for i in cell) for cell in np.argwhere(~full)]


def build_field(geometry: GeometryMap, counts, components: int = 1) -> TensorSpline:
    """Unknown solution field with ``counts`` basis functions per direction.

    Each direction of the geometry takes count - n uniform interior knots,
    n being its basis count, through :func:`build_field_from_knots`.
    Raises :class:`PreconditionError` for a count below n.
    """
    counts = per_direction(counts, geometry.dim, "counts")
    knots = []
    for axis, (target, kv) in enumerate(zip(counts, geometry.kvs)):
        if target < kv.n_basis:
            raise PreconditionError(
                f"requested {target} basis functions in direction {axis}, "
                f"geometry already has {kv.n_basis}"
            )
        knots.append(_uniform_knots(kv, target - kv.n_basis))
    return build_field_from_knots(geometry, knots, components)


def build_field_from_knots(
    geometry: GeometryMap, interior_knots, components: int = 1
) -> TensorSpline:
    """Unknown field obtained by inserting explicit interior knots per direction.

    The field has the geometry's knot vectors with the knots inserted,
    zero coefficients and unit weights, or over a rational geometry its
    weights refined alone (never its control points), so that field and
    geometry share one weight function. In 1D a flat sequence of knots is
    the one direction's. Raises :class:`PreconditionError` naming both
    counts unless there is one knot list per direction, and
    :class:`InvalidRefinementError` naming the direction of a bad knot.
    """
    interior_knots = tuple(interior_knots)
    if geometry.dim == 1 and (not interior_knots or np.ndim(interior_knots[0]) == 0):
        interior_knots = (interior_knots,)
    if len(interior_knots) != geometry.dim:
        raise PreconditionError(
            f"need one interior knot list per direction ({geometry.dim}), "
            f"got {len(interior_knots)}"
        )
    spline = geometry.spline
    kvs, weights = list(spline.kvs), None if spline.is_polynomial else spline.weights
    # An isotropic field refines equal knot vectors by equal knots: once.
    done = []
    for axis, knots in enumerate(interior_knots):
        kv = kvs[axis]
        known = [r[2:] for r in done if r[0] == kv and np.array_equal(r[1], knots)]
        kvs[axis], weights, oslo = _refine(weights, kv, knots, axis, *known[:1])
        done.append((kv, knots, kvs[axis], oslo))
    shape = tuple(kv.n_basis for kv in kvs)
    weights = np.ones(shape) if weights is None else weights
    return TensorSpline(kvs, np.zeros(shape + (components,)), weights)


@dataclass(frozen=True)
class CollocationSystem:
    """Sparse collocation matrix (CSR) with right-hand side and row provenance.

    Row i is a ``row_kind[i]`` row ("interior", "boundary" or "constraint")
    at ``points.lattice[row_point[i]]`` for component ``row_component[i]``;
    ``row_face[i]`` is the face owning a boundary row, -1 on other rows.
    Rows come in lattice order, so ``row_point`` is non-decreasing.
    """

    csr: sp.csr_array
    rhs: np.ndarray
    row_point: np.ndarray
    row_kind: np.ndarray
    row_component: np.ndarray
    row_face: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """A dense copy of the matrix, made on each access; the solve never needs one."""
        return self.csr.toarray()

    @property
    def shape(self):
        return self.csr.shape


def assemble(
    problem: BvpDefinition,
    field: TensorSpline,
    points: CollocationSet,
    boundary_weight="auto",
) -> CollocationSystem:
    """Assemble the strong-form collocation system A x = b.

    Each point owns a run of consecutive rows, and the runs follow the C
    order of ``points.lattice``. An interior point's c rows impose the
    differential operator, a boundary point's rows the owning face's
    condition scaled by ``boundary_weight``; point constraints then
    replace the matching component row of their nearest collocation
    point, ties going to interior points. A boundary point on several
    faces is owned by one condition: Dirichlet conditions win over
    derivative-type ones, and remaining ties go to the lowest face id.
    This keeps corner points from emitting duplicate rows and keeps the
    interpolatory (square) case square, with row i at the point that
    pairs with unknown i.

    ``boundary_weight="auto"`` scales every boundary row by the mean
    2-norm of the interior rows. Interior operator rows carry second
    derivatives of the basis and grow like the squared mesh density, so an
    unweighted least-squares stack would let them drown out the O(1)
    boundary rows; equalizing the scales keeps the boundary conditions
    enforced as the point count grows. A square system's solution is
    unaffected by the scaling. A numeric weight must be positive and finite.
    Each axis of ``points`` must span its knot vector's range exactly.

    Geometry comes from one pullback of the collocation lattice. The
    operator's and the conditions' probed coefficients
    (:func:`row_coefficients`; a condition's at its points' normals) fill
    one table over all points, padded to the most rows a point owns; the
    probes alone give the operator's order and each condition's rows. It is
    pulled back once (:func:`pull_back_coefficients`) and applied to the
    basis by one :meth:`TensorSpline.row_table` call at the highest order
    any row reads, plus one at order 0 for point constraints. A row
    touches only the L = prod(degree + 1) basis functions supported at its
    point, so its values (L, c) read in order are its CSR entries.
    """
    c = problem.field_components
    if field.ncomp != c:
        raise PreconditionError(
            f"field has {field.ncomp} components, problem needs {c}"
        )
    # No operator coefficient may sit at a jet order of the lowest degree or above.
    operator = row_coefficients(problem)
    if operator[jet_size(problem.dim, min(field.degrees) - 1) :].any():
        raise PreconditionError(
            "field degree must exceed the operator order in every direction"
        )
    for a, (kv, axis) in enumerate(zip(field.kvs, points.axes)):
        if axis[[0, -1]].tolist() != [kv.start, kv.end]:
            raise InvalidSchemeError(
                f"collocation axis {a} spans {axis[[0, -1]].tolist()}, but the field's "
                f"direction {a} spans {[kv.start, kv.end]}"
            )
    if boundary_weight != "auto":
        try:
            weight = float(boundary_weight)
        except (TypeError, ValueError):
            weight = np.nan
        if not 0.0 < weight < np.inf:
            raise PreconditionError(
                'boundary_weight must be "auto" or a positive finite number, '
                f"got {boundary_weight!r}"
            )
        boundary_weight = weight
    try:
        x, _, inv, _, second = lattice_pullbacks(problem.geometry, points.axes)
    except SingularGeometryError as exc:
        raise AssemblyError(f"singular geometry at a collocation point: {exc}") from exc
    lattice = points.lattice
    inner = np.flatnonzero(~points.on_boundary)
    outer = np.flatnonzero(points.on_boundary)

    conds = [problem.condition_for_face(f) for f in range(2 * points.dim)]
    rank = [f + len(conds) * (bc.kind != "dirichlet") for f, bc in enumerate(conds)]
    point_face = np.full(len(lattice), -1)
    point_face[outer] = np.argmin(np.where(points.faces[outer], rank, 2 * len(conds)), axis=1)

    # Each condition is probed at the normals of the points it owns, and
    # each of those points owns as many rows as the probe finds.
    probed = []
    for bc in conds:
        sel = outer[point_face[outer] == bc.face]
        if len(sel):
            normal = boundary_normals(inv[sel], bc.axis, bc.side)[:, None]
            probed.append((bc, sel, row_coefficients(problem, bc, normal)))

    # One physical coefficient table and right-hand side over all points,
    # padded to the most rows any point owns: the operator's c rows at
    # interior points, the owning condition's rows at boundary points.
    d = points.dim
    n_rows = max([c] + [found.shape[1] for _, _, found in probed])
    coeffs = np.zeros((jet_size(d, 2), n_rows, c, len(lattice)))
    rhs = np.zeros((len(lattice), n_rows))
    owned = np.zeros((len(lattice), n_rows), dtype=bool)
    coeffs[:, :c, :, inner] = operator[..., None]
    rhs[inner, :c] = callback_values(problem.source, x[inner], c, "source")
    owned[inner, :c] = True
    for bc, sel, found in probed:
        width = found.shape[1]
        coeffs[: 1 + d, :width, :, sel] = found.reshape(1 + d, width, c, -1)
        name = f"value of the boundary condition on face {bc.face}"
        rhs[sel, :width] = callback_values(bc.value, x[sel], width, name)
        owned[sel, :width] = True

    # One pull-back and one row table at the highest order any row reads;
    # each point's rows are then read off in lattice order.
    reads = max((k for k in range(1, 3) if coeffs[jet_size(d, k - 1) :].any()), default=0)
    coeffs = coeffs[: jet_size(d, reads)].reshape(-1, n_rows * c, len(lattice))
    coeffs = pull_back_coefficients(coeffs, inv, None if reads < 2 else second)
    support, table = field.row_table(lattice, coeffs.reshape(len(coeffs), n_rows, c, -1))
    size = support.shape[1] * c  # entries per row
    row_point, row_component = np.nonzero(owned)
    values = table.transpose(2, 0, 3, 1)[row_point, row_component]
    b = rhs[owned]
    row_face = point_face[row_point]
    interior = row_face < 0
    row_kind = np.where(interior, "interior", "boundary").astype("U10")

    if boundary_weight == "auto":
        # Each row's squares are added in turn, component by component, so
        # the weight does not depend on how numpy blocks a reduction.
        squares = np.square(values[interior]).T.reshape(size, -1)
        norms = np.sqrt(functools.reduce(np.add, squares))
        boundary_weight = float(norms.mean()) if len(inner) else 1.0
    values[~interior] *= boundary_weight
    b[~interior] *= boundary_weight

    # Point constraints replace the matching component row of the nearest
    # point, whose support block is the one the pin needs; ties go to
    # interior points first.
    pcs = problem.point_constraints
    if pcs:
        order = np.concatenate([inner, outer])
        targets = np.array([pc.theta for pc in pcs], dtype=float)
        dist = np.linalg.norm(lattice[order][None] - targets[:, None], axis=-1)
        nearest = order[np.argmin(dist, axis=1)]
        comps = np.array([pc.component for pc in pcs])
        rows = (np.cumsum(owned).reshape(owned.shape) - 1)[nearest, comps]
        unowned = np.flatnonzero(~owned[nearest, comps])
        if len(unowned):
            j = unowned[0]
            raise AssemblyError(
                f"point constraint at {pcs[j].theta} pins component {comps[j]} of the "
                f"collocation point {tuple(lattice[nearest[j]].tolist())}, which owns "
                f"{owned[nearest[j]].sum()} rows"
            )
        twins = np.argwhere(np.triu(rows[:, None] == rows, k=1))
        if len(twins):
            i, j = twins[0]
            raise AssemblyError(
                f"point constraints at {pcs[i].theta} and {pcs[j].theta} both "
                f"pin component {comps[i]} of the collocation point "
                f"{tuple(lattice[nearest[i]].tolist())} (row {rows[i]})"
            )
        _, val = field.row_table(lattice[nearest], np.full((1, len(pcs)), boundary_weight))
        values[rows] = 0.0
        values[rows, :, comps] = val
        for j, pc in enumerate(pcs):
            name = f"value of the point constraint at {pc.theta}"
            b[rows[j]] = boundary_weight * callback_values(
                pc.value, x[nearest[j : j + 1]], 1, name
            )[0, 0]
        row_kind[rows] = "constraint"
        row_face[rows] = -1

    bad = ~np.isfinite(values).all(axis=(1, 2)) | ~np.isfinite(b)
    if bad.any():
        row = int(np.argmax(bad))
        raise AssemblyError(
            f"non-finite entry in row {row} of the system: {row_kind[row]} row, "
            f"component {row_component[row]}, point "
            f"{tuple(lattice[row_point[row]].tolist())}, face {row_face[row]}"
        )

    indices = (support[row_point][:, :, None] * c + np.arange(c)).reshape(-1)
    indptr = np.arange(len(b) + 1) * size
    A = sp.csr_array(
        (values.reshape(-1), indices, indptr), shape=(len(b), field.n_coeffs * c)
    )
    A.eliminate_zeros()
    return CollocationSystem(
        csr=A, rhs=b, row_point=row_point, row_kind=row_kind,
        row_component=row_component, row_face=row_face,
    )
