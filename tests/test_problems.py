"""The shipped benchmark problems: data, sources, analytic solutions.

Each manufactured solution is differentiated symbolically (sympy) as an
independent oracle and substituted into its own operator and boundary
conditions.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import sympy as sp

from batched import values_at
from oracles import condition_row_count
from splinecol.problems import (
    STABILITY_KNOTS,
    BvpDefinition,
    DirichletBC,
    MaterialParams,
    NormalDerivativeBC,
    PointConstraint,
    ScreenedPoissonOperator,
    TractionBC,
    beam_displacements,
    beam_stresses,
    curve_unit_interval,
    example_1d_dirichlet,
    example_1d_mixed,
    example_2d_annulus,
    example_3d_cube,
    example_beam,
    linear_coefficients,
    make_example,
    row_coefficients,
)
from splinecol.collocation import build_field_from_knots
from splinecol.errors import ConfigError, PreconditionError
from splinecol.geometry import boundary_normals, lattice_pullbacks

RNG = np.random.default_rng(42)


def sympy_jets(expr, symbols):
    """Lambdified value/gradient/hessian oracles for a scalar expression."""
    grad = [sp.diff(expr, s) for s in symbols]
    hess = [[sp.diff(expr, a, b) for b in symbols] for a in symbols]
    f = sp.lambdify(symbols, expr, "numpy")
    gf = [sp.lambdify(symbols, g, "numpy") for g in grad]
    hf = [[sp.lambdify(symbols, h, "numpy") for h in row] for row in hess]
    return f, gf, hf


def operator_residual(problem, expr_list, symbols, points):
    """|D T - f| at physical points, with T differentiated by sympy."""
    n = len(points)
    c = len(expr_list)
    d = len(symbols)
    value = np.zeros((n, c))
    grad = np.zeros((n, d, c))
    hess = np.zeros((n, d, d, c))
    for k, expr in enumerate(expr_list):
        f, gf, hf = sympy_jets(expr, symbols)
        coords = [points[:, a] for a in range(d)]
        value[:, k] = f(*coords)
        for a in range(d):
            grad[:, a, k] = gf[a](*coords)
            for b in range(d):
                hess[:, a, b, k] = hf[a][b](*coords)
    applied = problem.operator.apply(value, grad, hess)
    return np.abs(applied - problem.source(points)), value, grad


class TestExample1D:
    def test_analytic_and_source_values(self):
        prob = example_1d_dirichlet()
        assert np.isclose(prob.analytic_solution(np.array([0.25]))[0], 1.0)
        assert np.isclose(
            prob.source(np.array([0.25]))[0], 1.0 + 4.0 * np.pi**2
        )

    def test_operator_residual(self):
        prob = example_1d_dirichlet()
        x = sp.symbols("x")
        pts = RNG.uniform(0, 1, size=(50, 1))
        res, _, _ = operator_residual(prob, [sp.sin(2 * sp.pi * x)], (x,), pts)
        assert res.max() < 1e-9


class TestExample2D:
    def test_solution_vanishes_on_boundary(self):
        prob = example_2d_annulus()
        geo = prob.geometry
        arcs = lattice_pullbacks(geo, [[0.0, 1.0], RNG.uniform(0, 1, 20)])[0]
        assert np.abs(prob.analytic_solution(arcs)).max() < 1e-10
        edges = lattice_pullbacks(geo, [RNG.uniform(0, 1, 20), [0.0, 1.0]])[0]
        assert np.abs(prob.analytic_solution(edges)).max() < 1e-12

    def test_source_matches_operator_of_analytic(self):
        prob = example_2d_annulus()
        x, y = sp.symbols("x y")
        T = (x**2 + y**2 - 1) * (x**2 + y**2 - 16) * sp.sin(x) * sp.sin(y)
        theta = RNG.uniform(0.02, 0.98, size=(100, 2))
        pts = values_at(prob.geometry.spline, theta)
        res, _, _ = operator_residual(prob, [T], (x, y), pts)
        scale = np.abs(prob.source(pts)).max()
        assert res.max() < 1e-6 * scale


class TestExample3D:
    def test_source_value(self):
        prob = example_3d_cube()
        assert np.isclose(
            prob.source(np.array([0.25, 0.25, 0.25]))[0], 1.0 + 12.0 * np.pi**2
        )

    def test_faces_are_zero(self):
        prob = example_3d_cube()
        for axis in range(3):
            for side in (0.0, 1.0):
                p = RNG.uniform(0, 1, 3)
                p[axis] = side
                assert abs(prob.analytic_solution(p)[0]) < 1e-12

    def test_operator_residual(self):
        prob = example_3d_cube()
        x, y, z = sp.symbols("x y z")
        T = sp.sin(2 * sp.pi * x) * sp.sin(2 * sp.pi * y) * sp.sin(2 * sp.pi * z)
        pts = RNG.uniform(0, 1, size=(100, 3))
        res, _, _ = operator_residual(prob, [T], (x, y, z), pts)
        assert res.max() < 1e-9 * (1 + 12 * np.pi**2)


class TestBeam:
    def setup_method(self):
        self.params = MaterialParams()
        self.q = self.params.load
        self.h = self.params.depth
        self.l = self.params.half_length

    def test_load_sits_on_lower_face(self):
        # Resolves the depth convention: with faces at y = +-h/2 the
        # reference vertical stress puts the full load on y = -h/2, none on top.
        sigma_x, sigma_y, tau_xy = beam_stresses(self.params)
        y_bot = np.array([[0.0, -self.h / 2]])
        y_top = np.array([[0.0, self.h / 2]])
        assert np.isclose(sigma_y(y_bot)[0], -self.q)
        assert np.isclose(sigma_y(y_top)[0], 0.0)

    def test_shear_is_odd_in_x(self):
        _, _, tau_xy = beam_stresses(self.params)
        ys = RNG.uniform(-1, 1, 20)
        pts = np.stack([np.zeros(20), ys], axis=-1)
        assert np.all(np.abs(tau_xy(pts)) < 1e-14)

    def test_equilibrium(self):
        x, y = sp.symbols("x y")
        q, h, l = self.q, self.h, self.l
        sx = 6 * q / h**3 * (l**2 - x**2) * y + q * (y / h) * (
            4 * y**2 / h**2 - sp.Rational(3, 5)
        )
        sy = -(q / 2) * (1 + y / h) * (1 - 2 * y / h) ** 2
        txy = -6 * q / h**3 * x * (h**2 / 4 - y**2)
        r1 = sp.lambdify((x, y), sp.diff(sx, x) + sp.diff(txy, y), "numpy")
        r2 = sp.lambdify((x, y), sp.diff(txy, x) + sp.diff(sy, y), "numpy")
        xs = RNG.uniform(-5, 5, 100)
        ys = RNG.uniform(-1, 1, 100)
        assert np.max(np.abs(r1(xs, ys))) < 1e-9
        assert np.max(np.abs(r2(xs, ys))) < 1e-9

    def _sympy_displacements(self):
        x, y = sp.symbols("x y")
        u_x, u_y = beam_displacements(self.params)
        # Rebuild symbolically by evaluating the callables on sympy symbols.
        pt = np.empty((), dtype=object)

        def as_expr(fn):
            arr = np.empty(2, dtype=object)
            arr[0], arr[1] = x, y
            return sp.sympify(fn(arr[None, :])[0])

        return (x, y), as_expr(u_x), as_expr(u_y)

    def test_displacements_reproduce_stresses(self):
        (x, y), ux, uy = self._sympy_displacements()
        E = self.params.youngs_modulus
        nu = self.params.poisson_ratio
        c1 = E / (1 - nu**2)
        mu = E / (2 * (1 + nu))
        sx_u = c1 * (sp.diff(ux, x) + nu * sp.diff(uy, y))
        sy_u = c1 * (sp.diff(uy, y) + nu * sp.diff(ux, x))
        txy_u = mu * (sp.diff(ux, y) + sp.diff(uy, x))
        sigma_x, sigma_y, tau_xy = beam_stresses(self.params)
        pts = np.stack(
            [RNG.uniform(-5, 5, 50), RNG.uniform(-1, 1, 50)], axis=-1
        )
        for expr, ref in ((sx_u, sigma_x), (sy_u, sigma_y), (txy_u, tau_xy)):
            f = sp.lambdify((x, y), expr, "numpy")
            got = f(pts[:, 0], pts[:, 1])
            want = ref(pts)
            assert np.allclose(got, want, atol=1e-9 * max(1, np.abs(want).max()))

    def test_navier_residual_of_displacement(self):
        prob = example_beam()
        (x, y), ux, uy = self._sympy_displacements()
        pts = np.stack([RNG.uniform(-5, 5, 80), RNG.uniform(-1, 1, 80)], axis=-1)
        res, _, _ = operator_residual(prob, [ux, uy], (x, y), pts)
        assert res.max() < 1e-8

    def test_gauge_conditions(self):
        u_x, u_y = beam_displacements(self.params)
        ends = np.array([[-self.l, 0.0], [self.l, 0.0]])
        assert np.all(np.abs(u_y(ends)) < 1e-12)
        ys = np.stack([np.zeros(10), RNG.uniform(-1, 1, 10)], axis=-1)
        assert np.all(np.abs(u_x(ys)) < 1e-12)

    def test_material_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(youngs_modulus=-1.0)
        with pytest.raises(ValueError):
            MaterialParams(poisson_ratio=0.5)
        with pytest.raises(ValueError):
            example_beam(end_condition="clamped")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"youngs_modulus": -1.0}, r"youngs_modulus must be positive, got -1\.0"),
            ({"poisson_ratio": 0.5}, r"poisson_ratio .* got 0\.5"),
            ({"depth": 0.0}, r"depth must be positive, got 0\.0"),
            ({"half_length": -5.0}, r"half_length must be positive, got -5\.0"),
        ],
    )
    def test_material_error_names_the_value(self, kwargs, match):
        with pytest.raises(PreconditionError, match=match):
            MaterialParams(**kwargs)

    def test_unknown_end_condition_is_named(self):
        with pytest.raises(PreconditionError, match="'clamped'"):
            example_beam(end_condition="clamped")

    def test_traction_values_on_faces(self):
        prob = example_beam()
        sigma_x, sigma_y, tau_xy = beam_stresses(self.params)
        top = prob.condition_for_face(3)  # axis 1, side 1
        bottom = prob.condition_for_face(2)
        x = np.array([[1.3, 1.0], [-0.4, 1.0]])
        assert np.allclose(top.value(x), np.stack([tau_xy(x), sigma_y(x)], axis=-1))
        xb = np.array([[1.3, -1.0], [4.2, -1.0]])
        assert np.allclose(bottom.value(xb), -np.stack([tau_xy(xb), sigma_y(xb)], axis=-1))


class TestExampleV:
    def test_boundary_values(self):
        prob = example_1d_mixed()
        left = prob.condition_for_face(0)
        right = prob.condition_for_face(1)
        assert left.kind == "dirichlet"
        assert right.kind == "neumann"
        assert np.array_equal(right.value(np.array([[1.0]])), [[2.0 * np.pi]])
        assert np.array_equal(left.value(np.array([[0.0]])), [[0.0]])

    def test_stability_knots_give_ten_basis_functions(self):
        field = build_field_from_knots(curve_unit_interval(), STABILITY_KNOTS)
        assert field.kvs[0].n_basis == 10


def closure_expressions(example_id):
    """Sympy symbols and analytic-solution expressions per benchmark."""
    x, y, z = sp.symbols("x y z")
    if example_id in ("I", "V"):
        return (x,), [sp.sin(2 * sp.pi * x)]
    if example_id == "II":
        return (x, y), [
            (x**2 + y**2 - 1) * (x**2 + y**2 - 16) * sp.sin(x) * sp.sin(y)
        ]
    if example_id == "III":
        return (x, y, z), [
            sp.sin(2 * sp.pi * x) * sp.sin(2 * sp.pi * y) * sp.sin(2 * sp.pi * z)
        ]
    params = MaterialParams()
    ux_f, uy_f = beam_displacements(params)
    arr = np.empty(2, dtype=object)
    arr[0], arr[1] = x, y
    return (x, y), [sp.sympify(ux_f(arr[None, :])[0]), sp.sympify(uy_f(arr[None, :])[0])]


class TestManufacturedClosure:
    """Every analytic solution satisfies its operator and all its BCs."""

    @pytest.mark.parametrize("example_id", ["I", "II", "III", "IV", "V"])
    def test_closure(self, example_id):
        prob = make_example(example_id)
        symbols, exprs = closure_expressions(example_id)
        geo = prob.geometry
        d = geo.dim

        theta = RNG.uniform(0.01, 0.99, size=(200, d))
        pts = values_at(geo.spline, theta)
        res, _, _ = operator_residual(prob, exprs, symbols, pts)
        scale = max(1.0, np.abs(prob.source(pts)).max())
        assert res.max() < 1e-8 * scale

        # Boundary conditions, face by face.
        for bc in prob.boundary_conditions:
            axes = [RNG.uniform(0, 1, 40 if d == 2 else 7) for _ in range(d)]
            axes[bc.axis] = [float(bc.side)]
            bpts, _, inv, _, _ = lattice_pullbacks(geo, axes)
            _, value, grad = operator_residual(prob, exprs, symbols, bpts)
            normals = boundary_normals(inv, bc.axis, bc.side)
            values = bc.value(bpts)
            assert values.shape[0] == len(bpts)
            applied = bc.apply(normals, value, grad)
            assert np.allclose(applied, values, atol=1e-8 * max(1.0, np.abs(values).max()))
            for i, (normal, g) in enumerate(zip(normals, values)):
                if bc.kind == "dirichlet":
                    got = value[i]
                elif bc.kind == "neumann":
                    got = np.atleast_1d(normal @ grad[i, :, 0])
                else:  # traction
                    got = _traction_of(prob.operator.material, grad[i], normal)
                assert np.allclose(got, g, atol=1e-8 * max(1.0, np.abs(g).max()))

    def test_every_face_covered_exactly_once(self):
        for example_id in ("I", "II", "III", "IV", "V"):
            prob = make_example(example_id)
            faces = sorted(bc.face for bc in prob.boundary_conditions)
            assert faces == list(range(2 * prob.dim))

    def test_unknown_example_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown example 'VI'"):
            make_example("VI")

    def test_duplicate_face_rejected(self):
        base = example_1d_dirichlet()
        zero = lambda x: np.zeros(1)
        with pytest.raises(PreconditionError, match="exactly one boundary condition"):
            BvpDefinition(
                example_id="bad",
                geometry=base.geometry,
                operator=ScreenedPoissonOperator(),
                source=base.source,
                boundary_conditions=(
                    DirichletBC(axis=0, side=0, value=zero),
                    DirichletBC(axis=0, side=0, value=zero),
                ),
                analytic_solution=base.analytic_solution,
                quantities=base.quantities,
            )


    @pytest.mark.parametrize("component", [1, -1])
    def test_point_constraint_component_out_of_range(self, component):
        # Example I has one field component; any other pin would index past
        # its row or into a neighbouring point's row.
        zero = lambda x: np.zeros((len(x), 1))
        pin = PointConstraint(theta=(0.5,), component=component, value=zero)
        match = rf"theta=\(0\.5,\) pins component {component}, outside 0\.\.0"
        with pytest.raises(PreconditionError, match=match):
            replace(example_1d_dirichlet(), point_constraints=(pin,))


def _traction_of(material, grad, normal):
    c1 = material.stiffness
    nu = material.poisson_ratio
    mu = material.shear_modulus
    ex, ey = grad[0, 0], grad[1, 1]
    gxy = grad[1, 0] + grad[0, 1]
    sx = c1 * (ex + nu * ey)
    sy = c1 * (ey + nu * ex)
    tau = mu * gxy
    return np.array(
        [sx * normal[0] + tau * normal[1], tau * normal[0] + sy * normal[1]]
    )


class TestGeometryRoundTrips:
    def test_corner_interpolation(self):
        geo1 = curve_unit_interval()
        assert values_at(geo1.spline, [0.0, 1.0]).tolist() == [[0.0], [1.0]]

        geo3 = example_3d_cube().geometry
        assert np.allclose(values_at(geo3.spline, [[0, 0, 0.0], [1, 1, 1]]), [[0, 0, 0], [1, 1, 1]])

        geo4 = example_beam().geometry
        assert np.allclose(values_at(geo4.spline, [[0, 0.0], [1, 1]]), [[-5, -1], [5, 1]])

    def test_greville_images_reproduce_control_net_for_identity(self):
        geo = curve_unit_interval()
        g = geo.kvs[0].greville_abscissae()
        assert np.abs(values_at(geo.spline, g) - geo.spline.coeffs).max() < 1e-13


def random_jets(rng, n, d, c):
    """Random value (n, c), gradient (n, d, c) and symmetric Hessian (n, d, d, c)."""
    hess = rng.normal(size=(n, d, d, c))
    return rng.normal(size=(n, c)), rng.normal(size=(n, d, c)), hess + np.swapaxes(hess, 1, 2)


def contract(coeffs, *jets):
    """Rows (n, rows) of coefficients (E, rows, c[, n]) applied to jets with n points."""
    n, c = jets[0].shape
    entries = np.concatenate([j.reshape(n, -1, c) for j in jets], axis=1)  # (n, E, c)
    coeffs = np.broadcast_to(coeffs.reshape(coeffs.shape[:3] + (-1,)), coeffs.shape[:3] + (n,))
    return np.einsum("erkn,nek->nr", coeffs, entries)


class TestProbedCoefficients:
    """``linear_coefficients`` reproduces ``apply`` on jets it was not probed with."""

    @pytest.mark.parametrize("example_id", ["I", "II", "III", "IV", "V"])
    def test_operators_of_the_examples(self, example_id):
        prob = make_example(example_id)
        d, c = prob.dim, prob.field_components
        coeffs = linear_coefficients(prob.operator.apply, d, c, 2, "operator")
        assert coeffs.shape == (1 + d + d * d, c, c)
        jets = random_jets(np.random.default_rng(50), 20, d, c)
        want = prob.operator.apply(*jets)
        assert np.allclose(contract(coeffs, *jets), want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize(
        "bc,c",
        [
            (DirichletBC(axis=0, side=1, value=None), 1),
            (DirichletBC(axis=1, side=0, value=None), 2),
            (NormalDerivativeBC(axis=1, side=1, value=None), 1),
            (TractionBC(axis=0, side=0, material=MaterialParams(poisson_ratio=0.2), value=None), 2),
        ],
        ids=["dirichlet", "dirichlet-2", "neumann", "traction"],
    )
    def test_boundary_conditions_at_random_unit_normals(self, bc, c):
        rng = np.random.default_rng(51)
        d = 2
        normals = rng.normal(size=(20, d))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        coeffs = linear_coefficients(partial(bc.apply, normals[:, None]), d, c, 1, "condition")
        value, grad, _ = random_jets(rng, 20, d, c)
        want = np.asarray(bc.apply(normals, value, grad))
        got = contract(coeffs, value, grad)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize(
        "example_id,kwargs",
        [("I", {}), ("II", {}), ("III", {}), ("IV", {}), ("IV", {"end_condition": "dirichlet"}),
         ("V", {})],
        ids=["I", "II", "III", "IV-pinned", "IV-dirichlet", "V"],
    )
    def test_probed_row_counts_are_the_textbook_ones(self, example_id, kwargs):
        # No condition declares its rows: the probe reads them off ``apply``.
        prob = make_example(example_id, **kwargs)
        c = prob.field_components
        normals = np.random.default_rng(52).normal(size=(5, prob.dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        for bc in prob.boundary_conditions:
            coeffs = row_coefficients(prob, bc, normals[:, None])
            assert coeffs.shape[:3] == (1 + prob.dim, condition_row_count(bc, c), c)
