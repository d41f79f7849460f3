"""Collocation point generation and system assembly."""

import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_basis, point_assemble, push_hessian, refined_geometry_space
from splinecol import collocation, splines
from splinecol.collocation import (
    CollocationScheme,
    CollocationSet,
    _uniform_knots,
    assemble,
    build_field,
    build_field_from_knots,
    collocation_knot_vector,
    empty_cells,
    generate_collocation_points,
)
from splinecol.errors import (
    AssemblyError,
    CallbackError,
    InvalidRefinementError,
    InvalidSchemeError,
    PreconditionError,
)
from splinecol.estimator import CollocationSolver
from splinecol.geometry import (
    GeometryMap,
    boundary_normals,
    lattice_pullbacks,
    lattice_push_gradient,
)
from splinecol.metrics import error_report
from splinecol.problems import (
    STABILITY_KNOTS,
    PointConstraint,
    example_1d_dirichlet,
    example_1d_mixed,
    example_2d_annulus,
    example_3d_cube,
    example_beam,
    make_example,
)
from splinecol.splines import KnotVector, TensorSpline

CUBIC = KnotVector([0, 0, 0, 0, 1, 1, 1, 1], 3)


def describe(system, pts, row):
    """How an assembly error names ``row``: index, kind, component, point and face."""
    point = tuple(pts.lattice[system.row_point[row]].tolist())
    return (
        f"row {row} of the system: {system.row_kind[row]} row, "
        f"component {system.row_component[row]}, point {point}, "
        f"face {system.row_face[row]}"
    )


class TestPointGeneration:
    def test_1d_greville_16_of_10(self):
        field = build_field(example_1d_dirichlet().geometry, (10,))
        pts = generate_collocation_points(
            field.kvs, CollocationScheme("greville", (16,))
        )
        assert pts.n_points == 16
        assert np.count_nonzero(~pts.on_boundary) == 14
        assert pts.lattice[pts.on_boundary, 0].tolist() == [0.0, 1.0]

    def test_greville_equal_counts_is_interpolatory_set(self):
        pts = generate_collocation_points((CUBIC,), CollocationScheme("greville", (4,)))
        assert np.allclose(np.sort(pts.lattice[:, 0]), [0, 1 / 3, 2 / 3, 1])

    def test_2d_uniform_boundary_split(self):
        pts = generate_collocation_points(
            (CUBIC, CUBIC), CollocationScheme("uniform", (4, 4))
        )
        assert np.count_nonzero(pts.on_boundary) == 12
        assert np.count_nonzero(~pts.on_boundary) == 4

    def test_counts_below_basis_rejected(self):
        with pytest.raises(InvalidSchemeError):
            generate_collocation_points((CUBIC,), CollocationScheme("greville", (3,)))

    @pytest.mark.parametrize("counts", [(4.5,), 4.5, (4, "4"), (True,)])
    def test_fractional_counts_rejected(self, counts):
        with pytest.raises(PreconditionError, match="counts must be an integer"):
            CollocationScheme("greville", counts)

    def test_unknown_scheme_kind(self):
        with pytest.raises(InvalidSchemeError):
            CollocationScheme("chebyshev", (4,))

    def test_corner_faces_recorded(self):
        pts = generate_collocation_points(
            (CUBIC, CUBIC), CollocationScheme("uniform", (3, 3))
        )
        corner_idx = [i for i, p in enumerate(pts.lattice) if tuple(p) == (0.0, 0.0)]
        assert np.flatnonzero(pts.faces[corner_idx[0]]).tolist() == [0, 2]
        edge_idx = [i for i, p in enumerate(pts.lattice) if tuple(p) == (0.5, 1.0)]
        assert np.flatnonzero(pts.faces[edge_idx[0]]).tolist() == [3]
        centre_idx = [i for i, p in enumerate(pts.lattice) if tuple(p) == (0.5, 0.5)]
        assert not pts.faces[centre_idx[0]].any()

    @pytest.mark.parametrize(
        "kvs,scheme",
        [
            ((CUBIC,), CollocationScheme("greville", (7,))),
            ((CUBIC, CUBIC), CollocationScheme("uniform", (3, 5))),
            ((CUBIC, CUBIC, CUBIC), CollocationScheme("greville", (4, 5, 6))),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_set_from_axes_matches_lattice_and_faces_built_from_the_knots(self, kvs, scheme):
        # The lattice and faces as the generator built them before they
        # were computed from the axes: faces by equality with the knot
        # vectors' ends.
        axes = generate_collocation_points(kvs, scheme).axes
        lattice = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        faces = np.empty((len(lattice), 2 * len(kvs)), dtype=bool)
        faces[:, 0::2] = lattice == [kv.start for kv in kvs]
        faces[:, 1::2] = (lattice == [kv.end for kv in kvs]) & ~faces[:, 0::2]
        pts = CollocationSet(tuple(axes))
        assert np.array_equal(pts.lattice, lattice)
        assert np.array_equal(pts.faces, faces)

    def test_set_coerces_its_axes(self):
        pts = CollocationSet(([0, 1], [0, 0.5, 1]))
        assert all(a.dtype == float and a.ndim == 1 for a in pts.axes)
        assert pts.lattice.shape == (6, 2)
        with pytest.raises(PreconditionError, match=r"axes\[0\] must be 1-dimensional"):
            CollocationSet(([[0, 1]],))
        with pytest.raises(PreconditionError, match="needs at least one point"):
            CollocationSet(([0, 1], []))

    def test_collocation_knot_vector_uniform_interior(self):
        kv = collocation_knot_vector(CUBIC, 16)
        assert kv.n_basis == 16
        assert np.allclose(np.diff(kv.breakpoints), 1.0 / 13.0)

    def test_empty_cells_detects_gaps(self):
        field = build_field(example_1d_dirichlet().geometry, (10,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("uniform", (2,)))
        empty = empty_cells(pts, field.kvs)
        assert len(empty) == 5  # the endpoints cover only the outer cells

    def test_dense_set_covers_all_cells(self):
        field = build_field(example_2d_annulus().geometry, (8, 8))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (10, 10)))
        assert empty_cells(pts, field.kvs) == []

    def test_empty_cells_2d_match_brute_force(self):
        # A coarse uniform lattice on a finer field leaves cells empty in
        # both directions; the listed cells are exactly those no lattice
        # point touches, in C order.
        field = build_field(example_2d_annulus().geometry, (9, 7))
        pts = generate_collocation_points(field.kvs, CollocationScheme("uniform", (3, 4)))
        bps = [kv.breakpoints for kv in field.kvs]
        expected = [
            (i, j)
            for i in range(len(bps[0]) - 1)
            for j in range(len(bps[1]) - 1)
            if not any(
                bps[0][i] <= p[0] <= bps[0][i + 1] and bps[1][j] <= p[1] <= bps[1][j + 1]
                for p in pts.lattice
            )
        ]
        assert expected  # the configuration does leave gaps
        assert empty_cells(pts, field.kvs) == expected


def shifted_example_1(lo, hi):
    """Example I with its geometry parametrised over [lo, hi] instead of [0, 1]."""
    base = example_1d_dirichlet()
    kv = KnotVector([lo] * 4 + [hi] * 4, 3)
    curve = TensorSpline.polynomial((kv,), base.geometry.spline.coeffs)
    return replace(base, geometry=GeometryMap(curve))


class TestParameterRange:
    """A parametric range other than [0, 1] still gives every end point its condition."""

    def test_greville_end_sites_are_the_end_knots(self):
        # Averages of p copies of 0.1 and 0.7 round to 0.10000000000000002
        # and 0.6999999999999998.
        kv = collocation_knot_vector(KnotVector([0.1] * 4 + [0.7] * 4, 3), 16)
        sites = kv.greville_abscissae()
        assert (sites[0], sites[-1]) == (0.1, 0.7)

    def test_points_on_a_shifted_range_mark_both_ends(self):
        field = build_field(shifted_example_1(0.1, 0.7).geometry, 10)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (16,)))
        assert pts.on_boundary.sum() == 2
        assert pts.lattice[pts.on_boundary, 0].tolist() == [0.1, 0.7]

    @pytest.mark.parametrize(
        "params",
        [dict(method="igac", n_per_dir=10), dict(method="igal_fixed", n_per_dir=10, m_per_dir=16)],
        ids=["igac", "igal_fixed"],
    )
    def test_example_1_on_a_shifted_range_matches_the_unit_range(self, params):
        # An affine reparametrisation changes nothing but roundoff; without
        # boundary rows e_T read 552 (igac) and 697 (igal_fixed).
        errors = []
        for prob in (example_1d_dirichlet(), shifted_example_1(0.1, 0.7)):
            solver = CollocationSolver(**params).fit(prob)
            assert (solver.system_.row_kind == "boundary").sum() == 2
            errors.append(error_report(prob, solver.field_).e_T)
        np.testing.assert_allclose(errors[1], errors[0], rtol=1e-12)

    def test_reversed_curve_takes_the_outward_normal(self):
        # Example V on the unit interval traversed from x = 1 to x = 0: the
        # Neumann face theta = 1 sits at x = 0, where the outward derivative
        # of sin(2 pi x) is -2 pi. With a +1 normal e_T read 7.35.
        prob = example_1d_mixed()
        spline = prob.geometry.spline
        reversed_curve = GeometryMap(
            TensorSpline.polynomial(spline.kvs, 1 - spline.kvs[0].greville_abscissae())
        )
        dirichlet, neumann = prob.boundary_conditions
        flipped = replace(
            prob,
            geometry=reversed_curve,
            boundary_conditions=(
                dirichlet, replace(neumann, value=lambda x: np.full_like(x, -2 * np.pi))
            ),
        )
        solver = CollocationSolver(method="igal_fixed", n_per_dir=20, m_per_dir=30)
        errors = [error_report(p, solver.fit(p).field_).e_T for p in (prob, flipped)]
        assert errors[0] < 2e-3
        np.testing.assert_allclose(errors[1], errors[0], rtol=1e-9)


@dataclass(frozen=True)
class FirstOrder:
    """The first-order operator T + dT/dx_0."""

    def apply(self, value, grad, hess):
        return value + grad[..., 0, :]


class TestBuildField:
    def test_counts_from_benchmark_setups(self):
        assert build_field(example_1d_dirichlet().geometry, (10,)).n_coeffs == 10
        f2 = build_field(example_2d_annulus().geometry, (15, 15))
        assert f2.n_coeffs == 225
        from splinecol.problems import example_3d_cube

        f3 = build_field(example_3d_cube().geometry, (7, 7, 7))
        assert f3.n_coeffs == 343

    def test_weights_follow_refined_geometry(self):
        # The field copies knot vectors and weights from the refined
        # geometry, giving a rational solution space over rational patches.
        # Four uniform interior knots per direction take the annulus' 4 x 4
        # control net to 8 x 8.
        geo = example_2d_annulus().geometry
        field = build_field(geo, (8, 8))
        refined = geo.spline
        for axis in range(2):
            refined = refined.insert_knots(axis, np.arange(1, 5) / 5)
        assert np.array_equal(field.weights, refined.weights)
        assert field.kvs == refined.kvs

    def test_degree_precondition(self):
        # A quadratic field cannot carry a second-order operator; the fit
        # refines it and then stops at assembly.
        quadratic = KnotVector([0, 0, 0, 1, 1, 1], 2)
        geo = GeometryMap(TensorSpline.polynomial((quadratic,), quadratic.greville_abscissae()))
        prob = replace(example_1d_dirichlet(), geometry=geo)
        solver = CollocationSolver(method="igac", n_per_dir=10)
        with pytest.raises(PreconditionError, match="field degree must exceed the operator order"):
            solver.fit(prob)

    def test_degree_is_checked_against_the_probed_order(self):
        # The probe finds order 1 for T + dT/dx, which a quadratic field
        # carries, and order 2 for the screened Poisson operator, which it
        # does not. On the identity map an interior row is R_l + R_l'.
        quadratic = KnotVector([0, 0, 0, 1, 1, 1], 2)
        geo = GeometryMap(TensorSpline.polynomial((quadratic,), quadratic.greville_abscissae()))
        prob = replace(example_1d_dirichlet(), geometry=geo)
        field = build_field(geo, (8,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (10,)))
        system = assemble(replace(prob, operator=FirstOrder()), field, pts)
        interior = system.row_kind == "interior"
        assert system.shape == (10, 8) and interior.sum() == 8
        inner = system.row_point[interior]
        cols, want = field.row_table(pts.lattice[inner], np.ones((2, len(inner))))
        got = np.take_along_axis(system.csr[interior].toarray(), cols, axis=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        with pytest.raises(PreconditionError, match="field degree must exceed the operator order"):
            assemble(prob, field, pts)

    @pytest.mark.parametrize("knots", [[(0.5,), (0.5,), (0.5,)], [(0.5,)]], ids=["three", "one"])
    def test_one_knot_list_per_direction(self, knots):
        # A third list would name a direction the patch does not have; a
        # missing one would leave its direction unrefined.
        solver = CollocationSolver(method="igac", interior_knots=knots)
        with pytest.raises(PreconditionError, match=rf"per direction \(2\), got {len(knots)}"):
            solver.fit(make_example("II"))

    def test_counts_below_geometry_rejected(self):
        geo = example_2d_annulus().geometry
        with pytest.raises(PreconditionError):
            build_field(geo, (3, 3))

    @pytest.mark.parametrize(
        "example,knots",
        [("I", None), ("III", None), ("IV", None), ("V", None), ("V", STABILITY_KNOTS)],
    )
    def test_polynomial_geometry_gives_unit_weights(self, example, knots):
        # Over a B-spline geometry the field stays a B-spline, so evaluation
        # skips the rational quotient rule.
        prob = make_example(example)
        if knots is None:
            counts = [kv.n_basis + 5 for kv in prob.geometry.kvs]
            field = build_field(prob.geometry, counts, prob.field_components)
        else:
            field = build_field_from_knots(prob.geometry, knots)
        assert field.is_polynomial
        assert np.array_equal(field.weights, np.ones(field.shape))

    def test_explicit_knots(self):
        field = build_field_from_knots(
            example_1d_dirichlet().geometry, (0.25, 0.5, 0.75)
        )
        assert field.kvs[0].n_basis == 7


def count_refinements(monkeypatch):
    """Count the Oslo products of ``build_field_from_knots``; returns the refined arrays' shapes.

    Each call of ``splines._oslo_rows`` appends the shape of the array that
    ``build_field_from_knots`` passed to ``_refine`` last, or None before
    its first such call.
    """
    arrays, shapes, refine, oslo_rows = [], [], collocation._refine, splines._oslo_rows

    def counted_refine(x, *args):
        arrays.append(np.shape(x))
        return refine(x, *args)

    def counted_oslo_rows(*args):
        shapes.append(arrays[-1] if arrays else None)
        return oslo_rows(*args)

    monkeypatch.setattr(collocation, "_refine", counted_refine)
    monkeypatch.setattr(splines, "_oslo_rows", counted_oslo_rows)
    return shapes


class TestFieldSpace:
    """A field refines its knot vectors and a rational geometry's weights, never the geometry."""

    @pytest.mark.parametrize("example", ["I", "II", "III", "IV", "V"])
    @pytest.mark.parametrize("extra", [1, 5, 11])
    def test_uniform_counts_match_the_refined_geometry(self, example, extra):
        geo = make_example(example).geometry
        field = build_field(geo, [kv.n_basis + extra for kv in geo.kvs])
        kvs, weights = refined_geometry_space(geo, [_uniform_knots(kv, extra) for kv in geo.kvs])
        assert field.kvs == kvs
        assert np.array_equal(field.weights, weights)

    @pytest.mark.parametrize("example", ["I", "II", "III", "IV", "V"])
    def test_stability_knots_match_the_refined_geometry(self, example):
        geo = make_example(example).geometry
        knots = [STABILITY_KNOTS] * geo.dim
        field = build_field_from_knots(geo, knots)
        kvs, weights = refined_geometry_space(geo, knots)
        assert field.kvs == kvs
        assert np.array_equal(field.weights, weights)

    @settings(max_examples=40, deadline=None)
    @given(knots=st.lists(st.lists(st.floats(0.01, 0.99), max_size=12), min_size=2, max_size=2))
    def test_random_knots_on_a_rational_geometry(self, knots):
        # A cubic takes each interior knot at most three times.
        geo = example_2d_annulus().geometry
        knots = [[k for k in ks if ks.count(k) <= 3] for ks in knots]
        field = build_field_from_knots(geo, knots)
        kvs, weights = refined_geometry_space(geo, knots)
        assert field.kvs == kvs
        assert np.array_equal(field.weights, weights)

    @pytest.mark.parametrize("example", ["I", "III", "IV", "V"])
    def test_polynomial_geometry_makes_no_oslo_product(self, example, monkeypatch):
        shapes = count_refinements(monkeypatch)
        geo = make_example(example).geometry
        field = build_field(geo, [kv.n_basis + 6 for kv in geo.kvs])
        assert field.shape == tuple(kv.n_basis + 6 for kv in geo.kvs)
        assert shapes == []

    def test_rational_geometry_refines_its_weights_alone(self, monkeypatch):
        # One Oslo product per refined direction, each on the (n1, n2)
        # weights without a component axis.
        shapes = count_refinements(monkeypatch)
        geo = example_2d_annulus().geometry
        build_field(geo, (9, 7))
        assert shapes == [(4, 4), (9, 4)]

    def test_equal_directions_share_one_refinement(self, monkeypatch):
        # The annulus's two directions have equal knot vectors, so equal
        # counts insert equal knots: one Oslo product serves both.
        shapes = count_refinements(monkeypatch)
        inserts = []
        insert = KnotVector.insert

        def counted_insert(kv, knots):
            inserts.append(kv)
            return insert(kv, knots)

        monkeypatch.setattr(KnotVector, "insert", counted_insert)
        geo = example_2d_annulus().geometry
        field = build_field(geo, (15, 15))
        assert shapes == [(4, 4)]
        assert len(inserts) == 1
        assert field.kvs[0] is field.kvs[1]
        kvs, weights = refined_geometry_space(geo, [_uniform_knots(kv, 11) for kv in geo.kvs])
        assert field.kvs == kvs
        assert np.array_equal(field.weights, weights)

    @pytest.mark.parametrize("knots", [[(0.5,), ()], [(), (0.2, 0.7)], [(), ()]])
    def test_empty_knot_list_on_a_rational_geometry(self, knots, monkeypatch):
        shapes = count_refinements(monkeypatch)
        geo = example_2d_annulus().geometry
        field = build_field_from_knots(geo, knots)
        assert len(shapes) == sum(len(k) > 0 for k in knots)
        kvs, weights = refined_geometry_space(geo, knots)
        assert field.kvs == kvs
        assert np.array_equal(field.weights, weights)

    @pytest.mark.parametrize(
        "knots,message",
        [
            ([(0.5,), (1.0,)], "direction 1: insertion parameter 1.0 must lie strictly"),
            ([(0.3,) * 4, ()], "direction 0: inserting 0.3 would raise its multiplicity"),
            ([(), (0.4, np.nan)], "direction 1: insertion parameter nan must lie strictly"),
        ],
    )
    @pytest.mark.parametrize("example", ["II", "IV"])
    def test_bad_knot_names_its_direction(self, example, knots, message):
        geo = make_example(example).geometry
        with pytest.raises(InvalidRefinementError, match=f"^{message}"):
            build_field_from_knots(geo, knots)
        with pytest.raises(InvalidRefinementError, match=f"^{message}"):
            refined_geometry_space(geo, knots)


class TestAssembly:
    def test_shape_16x10(self):
        prob = example_1d_dirichlet()
        field = build_field(prob.geometry, (10,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (16,)))
        system = assemble(prob, field, pts)
        assert system.shape == (16, 10)
        kinds = system.row_kind.tolist()
        assert kinds.count("interior") == 14
        assert kinds.count("boundary") == 2

    def test_square_when_counts_match(self):
        prob = example_2d_annulus()
        field = build_field(prob.geometry, (6, 6))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (6, 6)))
        system = assemble(prob, field, pts)
        assert system.shape == (36, 36)

    def test_beam_square_with_pins(self):
        prob = example_beam()
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (7, 7)))
        system = assemble(prob, field, pts)
        assert system.shape == (98, 98)
        assert np.count_nonzero(system.row_kind == "constraint") == 3

    @pytest.mark.parametrize(
        "factory,n",
        [
            (example_2d_annulus, 7),
            (example_beam, 7),
            (lambda: example_beam(end_condition="dirichlet"), 7),
            (example_1d_mixed, 8),
        ],
        ids=["II", "IV-pinned", "IV-dirichlet", "V"],
    )
    def test_rows_encode_the_operator(self, factory, n):
        # A row dotted with coefficients equals the operator, the owning
        # face's condition times the boundary weight, or the pinned
        # component times the weight, applied to the corresponding field at
        # that row's point: vector operators, traction and Neumann rows
        # included. The rows come from pulled-back coefficients; the field's
        # Hessian here comes from the oracle push.
        rng = np.random.default_rng(0)
        prob = factory()
        c, weight = prob.field_components, 2.5
        field = build_field(prob.geometry, (n,) * prob.dim, components=c)
        pts = generate_collocation_points(
            field.kvs, CollocationScheme("greville", (n + 2,) * prob.dim)
        )
        system = assemble(prob, field, pts, boundary_weight=weight)
        coeffs = rng.normal(size=system.shape[1])
        trial = field.with_coefficients(coeffs)
        _, _, inv, _, second = lattice_pullbacks(prob.geometry, pts.axes)
        jet = trial.evaluate_lattice(pts.axes, 2)
        d = prob.dim
        value = jet.value.reshape(-1, c)
        grad = lattice_push_gradient(inv, jet.grad.reshape(-1, d, c))
        hess = push_hessian(inv, second, grad, jet.hess.reshape(-1, d, d, c))
        kinds = set()
        provenance = zip(
            system.row_point, system.row_kind, system.row_component, system.row_face
        )
        for row, (i, kind, comp, face) in enumerate(provenance):
            at = slice(i, i + 1)
            if kind == "interior":
                applied = prob.operator.apply(value[at], grad[at], hess[at])
            elif kind == "boundary":
                bc = prob.condition_for_face(face)
                normal = boundary_normals(inv[at], bc.axis, bc.side)
                applied = weight * bc.apply(normal, value[at], grad[at])
                kinds.add(bc.kind)
            else:
                applied = weight * value[at]
            expected = applied[0, comp]
            got = system.matrix[row] @ coeffs
            assert np.isclose(got, expected, atol=1e-10 * max(1.0, abs(expected)))
        assert kinds == {bc.kind for bc in prob.boundary_conditions}

    def test_row_linearity(self):
        rng = np.random.default_rng(1)
        prob = example_1d_dirichlet()
        field = build_field(prob.geometry, (8,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (12,)))
        system = assemble(prob, field, pts)
        x1, x2 = rng.normal(size=(2, 8))
        a, b = 0.7, -2.3
        assert np.allclose(
            system.matrix @ (a * x1 + b * x2),
            a * (system.matrix @ x1) + b * (system.matrix @ x2),
            atol=1e-10,
        )

    def test_interior_row_support_blocks(self):
        # Nonzeros of each interior row sit exactly on the span's local
        # support block (the discrete counterpart of operator and field
        # sharing knot intervals).
        prob = example_1d_dirichlet()
        field = build_field(prob.geometry, (10,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (16,)))
        system = assemble(prob, field, pts)
        kv = field.kvs[0]
        for row in np.flatnonzero(system.row_kind == "interior"):
            span = kv.find_span(pts.lattice[system.row_point[row], 0])
            block = set(range(span - kv.degree, span + 1))
            nz = set(np.nonzero(system.matrix[row])[0])
            assert nz <= block

    def test_boundary_coverage(self):
        prob = example_2d_annulus()
        field = build_field(prob.geometry, (6, 6))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (8, 8)))
        system = assemble(prob, field, pts)
        faces = set(system.row_face[system.row_kind == "boundary"].tolist())
        assert faces == {0, 1, 2, 3}

    def test_neumann_row_is_the_end_derivative(self):
        prob = example_1d_mixed()
        field = build_field(prob.geometry, (8,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("uniform", (10,)))
        system = assemble(prob, field, pts, boundary_weight=1.0)
        row = next(
            i for i in np.flatnonzero(system.row_kind == "boundary")
            if pts.lattice[system.row_point[i]].tolist() == [1.0]
        )
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=8)
        trial = field.with_coefficients(coeffs)
        deriv = trial.evaluate_lattice([[1.0]], 1).grad[0, 0, 0]
        assert np.isclose(system.matrix[row] @ coeffs, deriv, atol=1e-12)
        assert np.isclose(system.rhs[row], 2 * np.pi)

    def test_interpolated_analytic_solution_nearly_solves_the_system(self):
        # Interpolate sin(2 pi x) at the Greville sites through a basis
        # matrix built with the naive recursion (independent oracle), then
        # check the assembled equations are nearly satisfied.
        prob = example_1d_dirichlet()
        n = 80
        field = build_field(prob.geometry, (n,))
        kv = field.kvs[0]
        sites = kv.greville_abscissae()
        B = np.zeros((n, n))
        for r, u in enumerate(sites):
            uu = min(u, 1.0 - 1e-12)  # naive recursion is half-open at 1
            B[r] = [naive_basis(kv.knots, 3, i, uu) for i in range(n)]
        coeffs = np.linalg.solve(B, np.sin(2 * np.pi * sites))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (n,)))
        system = assemble(prob, field, pts, boundary_weight=1.0)
        residual = system.matrix @ coeffs - system.rhs
        assert np.linalg.norm(residual) < 1e-3 * np.linalg.norm(system.rhs)

    def test_singular_geometry_names_the_point(self):
        from dataclasses import replace

        collapsed = GeometryMap(
            TensorSpline.polynomial((CUBIC,), np.zeros(4))
        )
        prob = replace(example_1d_dirichlet(), geometry=collapsed)
        field = build_field_from_knots(collapsed, ())
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (4,)))
        with pytest.raises(AssemblyError, match="point"):
            assemble(prob, field, pts)

    def test_component_interleaving(self):
        prob = example_beam()
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (9, 9)))
        system = assemble(prob, field, pts)
        n_interior = np.count_nonzero(~pts.on_boundary)
        comps = system.row_component[: 2 * n_interior].tolist()
        assert comps[:6] == [0, 1, 0, 1, 0, 1]

    def test_lattice_without_interior_points(self):
        prob = example_2d_annulus()
        field = build_field(prob.geometry, (4, 4))
        pts = generate_collocation_points(field.kvs, CollocationScheme("uniform", (2, 2)))
        system = assemble(prob, field, pts)
        assert system.shape == (4, 16)
        assert system.row_kind.tolist() == ["boundary"] * 4
        assert np.allclose(system.matrix[:, [0, 3, 12, 15]], np.eye(4))

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
    def test_boundary_weight_must_be_positive_and_finite(self, weight):
        # A zero weight drops every boundary condition; nan and inf poison
        # every boundary row.
        prob = example_2d_annulus()
        field = build_field(prob.geometry, (6, 6))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (8, 8)))
        with pytest.raises(PreconditionError, match=f"boundary_weight.*got {weight!r}"):
            assemble(prob, field, pts, boundary_weight=weight)

    def test_duplicate_point_constraints_rejected(self):
        # Two constraints that pin the same component of the same point
        # would silently overwrite each other.
        from dataclasses import replace

        prob = example_beam()
        pin = prob.point_constraints[0]
        twin = PointConstraint(theta=(0.01, 0.49), component=pin.component, value=pin.value)
        prob = replace(prob, point_constraints=prob.point_constraints + (twin,))
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (7, 7)))
        with pytest.raises(AssemblyError, match=r"\(0\.0, 0\.5\) and \(0\.01, 0\.49\)"):
            assemble(prob, field, pts)

    def test_row_blocks_ask_for_the_orders_they_read(self, monkeypatch):
        # Interior and boundary rows share one row table at the highest
        # order any of them reads, the operator's second derivatives; point
        # constraints then read values only, in a call of their own. The
        # row builder's order is set by how many jet entries it is given.
        assert self.row_table_orders(monkeypatch, example_beam()) == [2, 0]

    def test_rows_without_pins_take_one_row_table(self, monkeypatch):
        prob = example_beam(end_condition="dirichlet")
        assert self.row_table_orders(monkeypatch, prob) == [2]

    @staticmethod
    def row_table_orders(monkeypatch, prob):
        """The order of each ``row_table`` call that assembling the 7 x 7 beam makes."""
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (7, 7)))
        orders = []
        rows = TensorSpline.row_table

        def recording(spline, theta, coeffs):
            orders.append({1: 0, 3: 1, 7: 2}[len(coeffs)])
            return rows(spline, theta, coeffs)

        monkeypatch.setattr(TensorSpline, "row_table", recording)
        assemble(prob, field, pts)
        return orders

    def test_non_finite_rhs_names_its_row(self):
        from dataclasses import replace

        base = example_2d_annulus()

        def source(x):
            out = base.source(x)
            out[x[:, 0] > 2.0] = np.nan
            return out

        prob = replace(base, source=source)
        field = build_field(prob.geometry, (6, 6))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (8, 8)))
        system = assemble(base, field, pts)
        x = lattice_pullbacks(prob.geometry, pts.axes)[0]
        hot = (x[system.row_point, 0] > 2.0) & (system.row_kind == "interior")
        assert hot.any()
        first = int(np.argmax(hot))
        with pytest.raises(AssemblyError, match=re.escape(describe(system, pts, first))):
            assemble(prob, field, pts)

    def test_non_finite_matrix_entry_names_its_row(self, monkeypatch):
        prob = example_1d_dirichlet()
        field = build_field(prob.geometry, (8,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (10,)))
        system = assemble(prob, field, pts, boundary_weight=1.0)
        row = int(np.flatnonzero(system.row_kind == "interior")[3])
        point = system.row_point[row]
        rows = TensorSpline.row_table

        def broken(spline, theta, coeffs):
            cols, table = rows(spline, theta, coeffs)
            if len(coeffs) == 3:  # the table of every lattice point, to order 2
                table[..., point, 1] = np.inf  # basis function 1 at that row's point
            return cols, table

        monkeypatch.setattr(TensorSpline, "row_table", broken)
        with pytest.raises(AssemblyError, match=re.escape(describe(system, pts, row))):
            assemble(prob, field, pts, boundary_weight=1.0)

    @pytest.mark.parametrize(
        "callback", ["source", "boundary", "constraint"],
    )
    def test_callback_of_wrong_shape_is_named(self, callback):
        from dataclasses import replace

        prob = example_beam()
        if callback == "source":
            prob = replace(prob, source=lambda x: np.zeros(2))
            match = "source"
        elif callback == "boundary":
            bcs = list(prob.boundary_conditions)
            bcs[0] = replace(bcs[0], value=lambda x: np.zeros((len(x), 3)))
            prob = replace(prob, boundary_conditions=tuple(bcs))
            match = "boundary condition on face 2"
        else:
            pcs = list(prob.point_constraints)
            pcs[1] = replace(pcs[1], value=lambda x: 0.0)
            prob = replace(prob, point_constraints=tuple(pcs))
            match = r"point constraint at \(1\.0, 0\.5\)"
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (7, 7)))
        with pytest.raises(CallbackError, match=match):
            assemble(prob, field, pts)


class NonlinearOperator:
    """The screened Poisson operator with its value term replaced by ``value_term(value)``."""

    def __init__(self, value_term):
        self.value_term = value_term

    def apply(self, value, grad, hess):
        return self.value_term(value) - np.trace(hess, axis1=-3, axis2=-2)


class TestLinearityGuard:
    # Rows and the operator error apply the coefficients probed from
    # ``apply``, which is right only for a linear ``apply`` with no
    # constant term; anything else is refused by name.
    @pytest.mark.parametrize("term", [np.square, lambda value: value + 1.0], ids=["square", "affine"])
    def test_operator_that_is_not_linear_is_named(self, term):
        from dataclasses import replace

        prob = replace(example_2d_annulus(), operator=NonlinearOperator(term))
        field = build_field(prob.geometry, (6, 6))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (8, 8)))
        message = "operator NonlinearOperator must be linear"
        with pytest.raises(PreconditionError, match=message):
            assemble(prob, field, pts)
        with pytest.raises(PreconditionError, match=message):
            error_report(prob, field)

    @pytest.mark.parametrize("term", [np.square, lambda value: value + 1.0], ids=["square", "affine"])
    def test_boundary_condition_that_is_not_linear_names_its_face(self, term):
        from dataclasses import replace

        from splinecol.problems import NormalDerivativeBC

        class Nonlinear(NormalDerivativeBC):
            def apply(self, normal, value, grad):
                return term(super().apply(normal, value, grad))

        base = example_1d_mixed()
        bcs = (base.boundary_conditions[0], Nonlinear(axis=0, side=1, value=lambda x: x))
        prob = replace(base, boundary_conditions=bcs)
        field = build_field(prob.geometry, (8,))
        pts = generate_collocation_points(field.kvs, CollocationScheme("uniform", (10,)))
        with pytest.raises(PreconditionError, match="boundary condition on face 1 must be linear"):
            assemble(prob, field, pts)


@dataclass(frozen=True)
class RepeatedLaplacian:
    """An interior operator giving ``count`` rows, each the Laplacian of component 0."""

    count: int

    def apply(self, value, grad, hess):
        return np.stack([np.einsum("...aa->...", hess[..., 0])] * self.count, axis=-1)


@dataclass(frozen=True)
class Roller:
    """Zero normal displacement u . n = 0 on one face: one row at each of its points."""

    axis: int
    side: int
    kind: str = "dirichlet"

    @property
    def face(self):
        return 2 * self.axis + self.side

    def value(self, x):
        return np.zeros((len(x), 1))

    def apply(self, normal, value, grad):
        return np.einsum("...a,...a->...", normal, value)[..., None]


class TestRowCounts:
    # A point's rows are read off a table padded to the most rows any point
    # owns. The operator must give c rows; a condition gives as many rows as
    # its probe finds, and its value must have that many columns.
    def test_operator_with_too_few_rows_is_named(self):
        prob = replace(example_beam(), operator=RepeatedLaplacian(1))
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (9, 9)))
        message = "operator RepeatedLaplacian gives 1 rows per point, expected 2"
        with pytest.raises(PreconditionError, match=message):
            assemble(prob, field, pts)

    def test_operator_with_too_many_rows_is_named(self):
        prob = replace(example_2d_annulus(), operator=RepeatedLaplacian(2))
        field = build_field(prob.geometry, (6, 6))
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (8, 8)))
        message = "operator RepeatedLaplacian gives 2 rows per point, expected 1"
        with pytest.raises(PreconditionError, match=message):
            assemble(prob, field, pts)

    def test_operator_error_checks_the_row_count(self):
        # e_DT compares the operator's rows with the source's c columns.
        prob = replace(example_2d_annulus(), operator=RepeatedLaplacian(2))
        field = build_field(prob.geometry, (6, 6))
        field = field.with_coefficients(np.random.default_rng(3).normal(size=field.n_coeffs))
        message = "operator RepeatedLaplacian gives 2 rows per point, expected 1"
        with pytest.raises(PreconditionError, match=message):
            error_report(prob, field)

    def test_condition_with_other_than_its_rows_names_its_face(self):
        # A Dirichlet condition on the two-component beam gives two rows
        # per point, so a one-column value is refused by its face.
        base = example_beam(end_condition="dirichlet")
        one_column = lambda x: np.zeros((len(x), 1))
        bcs = tuple(
            replace(bc, value=one_column) if bc.kind == "dirichlet" else bc
            for bc in base.boundary_conditions
        )
        prob = replace(base, boundary_conditions=bcs)
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (9, 9)))
        message = r"boundary condition on face 0 must map .* values of shape \(\d+, 2\), got shape"
        with pytest.raises(CallbackError, match=message):
            assemble(prob, field, pts)

    def test_points_may_own_different_numbers_of_rows(self):
        # A one-row roller on the beam's bottom face, among two-row
        # interior and traction points: each of its 7 points (it wins the
        # corners, being of Dirichlet kind) owns one row, n . R_l, which
        # touches only component 1 (the normal is (0, -1) to roundoff).
        base = example_beam()
        bcs = tuple(
            Roller(axis=1, side=0) if bc.face == 2 else bc for bc in base.boundary_conditions
        )
        prob = replace(base, boundary_conditions=bcs, point_constraints=())
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (7, 7)))
        system = assemble(prob, field, pts, boundary_weight=1.0)
        bottom = np.flatnonzero(pts.lattice[:, 1] == 0.0)
        assert len(bottom) == 7
        owned = np.bincount(system.row_point, minlength=pts.n_points)
        assert (owned[bottom] == 1).all()
        assert (np.delete(owned, bottom) == 2).all()
        rows = np.flatnonzero(system.row_face == 2)
        np.testing.assert_array_equal(system.row_point[rows], bottom)
        np.testing.assert_array_equal(system.row_component[rows], 0)
        block = system.csr[rows].toarray().reshape(len(rows), -1, 2)
        inv = lattice_pullbacks(prob.geometry, pts.axes)[2]
        normal = boundary_normals(inv[bottom], 1, 0)
        cols, basis = field.row_table(pts.lattice[bottom], np.ones((1, len(bottom))))
        want = np.zeros(block.shape)
        np.put_along_axis(want, cols[..., None], basis[..., None] * normal[:, None], axis=1)
        np.testing.assert_allclose(block, want, rtol=0, atol=1e-16)
        assert np.abs(block[..., 0]).max() < 1e-16
        np.testing.assert_allclose(block.sum(axis=(1, 2)), -1.0, rtol=0, atol=1e-14)

    def test_pin_of_a_component_its_point_has_no_row_for_is_named(self):
        base = example_beam()
        bcs = tuple(
            Roller(axis=1, side=0) if bc.face == 2 else bc for bc in base.boundary_conditions
        )
        pin = PointConstraint(theta=(0.5, 0.0), component=1, value=lambda x: np.zeros((len(x), 1)))
        prob = replace(base, boundary_conditions=bcs, point_constraints=(pin,))
        field = build_field(prob.geometry, (7, 7), components=2)
        pts = generate_collocation_points(field.kvs, CollocationScheme("greville", (7, 7)))
        message = r"at \(0\.5, 0\.0\) pins component 1 .* owns 1 rows"
        with pytest.raises(AssemblyError, match=message):
            assemble(prob, field, pts)


ORACLE_CASES = [
    ("I", example_1d_dirichlet, 10, "greville", 16, False),
    ("II", example_2d_annulus, 6, "greville", 9, False),
    ("III", example_3d_cube, 5, "uniform", 6, False),
    ("IV-pinned", example_beam, 7, "greville", 9, False),
    ("IV-dirichlet", lambda: example_beam(end_condition="dirichlet"), 7, "uniform", 8, False),
    ("V", example_1d_mixed, 8, "uniform", 10, False),
    ("II-square", example_2d_annulus, 6, "uniform", 6, False),
    ("II-own-weights", example_2d_annulus, 6, "greville", 9, True),
]


def oracle_field(prob, n, own_weights):
    """The field of an oracle case; with ``own_weights`` its weights are not the geometry's."""
    field = build_field(prob.geometry, (n,) * prob.dim, components=prob.field_components)
    if not own_weights:
        return field
    scale = np.random.default_rng(14).uniform(0.7, 1.3, field.shape)
    return TensorSpline(field.kvs, field.coeffs, field.weights * scale)


@pytest.mark.parametrize(
    "factory,n,scheme,m,own_weights", [case[1:] for case in ORACLE_CASES],
    ids=[case[0] for case in ORACLE_CASES],
)
@pytest.mark.parametrize("weight", ["auto", 1.0])
def test_assembly_matches_per_point_oracle(factory, n, scheme, m, own_weights, weight):
    # The batched assembly against a per-point one built from independent
    # spline, pullback and boundary-row code, on every shipped example and
    # on a rational field whose weights are not the geometry's.
    prob = factory()
    field = oracle_field(prob, n, own_weights)
    pts = generate_collocation_points(field.kvs, CollocationScheme(scheme, (m,) * prob.dim))
    system = assemble(prob, field, pts, boundary_weight=weight)
    A, b, meta = point_assemble(prob, field, pts, boundary_weight=weight)
    assert system.shape == A.shape
    assert np.abs(system.matrix - A).max() <= 1e-12 * np.abs(A).max()
    assert system.csr.nnz == np.count_nonzero(system.matrix)  # no stored zeros
    assert system.csr.has_canonical_format
    assert np.abs(system.rhs - b).max() <= 1e-12 * max(np.abs(A).max(), np.abs(b).max())
    points = map(tuple, pts.lattice[system.row_point].tolist())
    faces = [None if face < 0 else face for face in system.row_face.tolist()]
    assert list(zip(
        points, system.row_kind.tolist(), system.row_component.tolist(), faces
    )) == meta


@pytest.mark.parametrize(
    "factory,n,scheme,m,own_weights", [case[1:] for case in ORACLE_CASES],
    ids=[case[0] for case in ORACLE_CASES],
)
def test_rows_come_in_lattice_order(factory, n, scheme, m, own_weights):
    # Each collocation point owns one run of consecutive rows, and the
    # runs follow the C order of the lattice.
    prob = factory()
    field = oracle_field(prob, n, own_weights)
    pts = generate_collocation_points(field.kvs, CollocationScheme(scheme, (m,) * prob.dim))
    system = assemble(prob, field, pts)
    assert np.all(np.diff(system.row_point) >= 0)
    assert np.array_equal(np.unique(system.row_point), np.arange(pts.n_points))


@pytest.mark.parametrize("scheme", ["greville", "uniform"])
@pytest.mark.parametrize("example", ["I", "II", "III", "IV", "V", "V-knots"])
def test_square_system_has_zero_free_diagonal(example, scheme):
    # Row i belongs to point i, which pairs with basis function i: the
    # symmetric ordering of the square factor relies on this diagonal.
    prob = make_example(example.split("-")[0])
    if example == "V-knots":
        field = build_field_from_knots(prob.geometry, STABILITY_KNOTS)
    else:
        field = build_field(prob.geometry, (7,) * prob.dim, components=prob.field_components)
    pts = generate_collocation_points(field.kvs, CollocationScheme(scheme, field.shape))
    A = assemble(prob, field, pts).csr.tocoo()
    assert A.shape[0] == A.shape[1]
    on_diagonal = (A.row == A.col) & (A.data != 0)
    assert np.array_equal(np.unique(A.row[on_diagonal]), np.arange(A.shape[0]))
