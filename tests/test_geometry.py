"""Geometry pullbacks and the physical-derivative chain rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batched import basis_jets, value_at
from oracles import fd_gradient, lapack_det_inv, push_gradient, push_hessian, uniform_refine
from splinecol.collocation import CollocationScheme, build_field, generate_collocation_points
from splinecol.errors import SingularGeometryError, UnsupportedDerivativeError
from splinecol.geometry import (
    DET_TOL,
    GeometryMap,
    boundary_normals,
    lattice_pullbacks,
    lattice_push_gradient,
    pull_back_coefficients,
)
from splinecol.metrics import quadrature_rule
from splinecol.problems import (
    EXAMPLES,
    curve_unit_interval,
    linear_coefficients,
    patch_beam,
    patch_quarter_annulus,
    solid_unit_cube,
)
from splinecol.splines import KnotVector, TensorSpline

CUBIC = KnotVector([0, 0, 0, 0, 1, 1, 1, 1], 3)


def random_scalar_field_2d(rng, kvs):
    shape = tuple(kv.n_basis for kv in kvs)
    return TensorSpline.polynomial(kvs, rng.normal(size=shape + (1,)))


def random_axes(rng, dim, count, lo=0.0, hi=1.0):
    return [np.sort(rng.uniform(lo, hi, count)) for _ in range(dim)]


def lattice_points(axes):
    """Parameter points (N, d) of a lattice in C order."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def pullback_at(geo, theta):
    """Physical point (d,), Jacobian, inverse Jacobian and S (d, d, d) at one point."""
    pts, jac, inv, _, second = lattice_pullbacks(geo, [[u] for u in theta])
    return pts[0], jac[0], inv[0], second[0]


def pulled_back_jets(inv, second, grad_t, hess_t):
    """Physical gradients (N, d, c) and Hessians (N, d, d, c) from pulled-back coefficients.

    The coefficients are those of the unit operators u -> du/dx_k and
    u -> d2u/dx_i dx_j, pulled back per point and applied to the parametric
    jet ``grad_t`` (N, d, c), ``hess_t`` (N, d, d, c). The pullback reads
    the symmetric part of a Hessian only, as every physical operator does.
    """
    n, d = grad_t.shape[:2]
    physical = np.eye(1 + d + d * d)[:, 1:, None]  # operator s weighs jet entry s + 1
    coeffs = pull_back_coefficients(physical, inv, second)
    entries = np.concatenate([grad_t, hess_t.reshape(n, d * d, -1)], axis=1)
    out = np.einsum("esn,nec->nsc", coeffs[1:], entries)
    return out[:, :d], out[:, d:].reshape((n, d, d) + out.shape[2:])


def physical_jets(geo, field, axes):
    """Physical gradients (N, d, c) and Hessians (N, d, d, c) of a field on a lattice."""
    _, _, inv, _, second = lattice_pullbacks(geo, axes)
    jet = field.evaluate_lattice(axes, max_deriv=2)
    d, c = field.dim, field.ncomp
    return pulled_back_jets(inv, second, jet.grad.reshape(-1, d, c), jet.hess.reshape(-1, d, d, c))


class TestPullback:
    def test_identity_curve(self):
        geo = curve_unit_interval()
        pts, jac, _, _, _ = lattice_pullbacks(geo, [[0.0, 0.31, 1.0]])
        assert np.allclose(jac, 1.0, atol=1e-13)
        assert np.allclose(pts[:, 0], [0.0, 0.31, 1.0], atol=1e-13)

    def test_unit_cube_identity(self):
        geo = solid_unit_cube()
        axes = random_axes(np.random.default_rng(0), 3, 3)
        pts, jac, _, _, _ = lattice_pullbacks(geo, axes)
        assert np.allclose(jac, np.eye(3), atol=1e-12)
        assert np.allclose(pts, lattice_points(axes), atol=1e-12)

    def test_annulus_jacobian_vs_fd(self):
        geo = patch_quarter_annulus()
        rng = np.random.default_rng(1)
        for theta in rng.uniform(0.05, 0.95, size=(8, 2)):
            _, jac, _, _ = pullback_at(geo, theta)
            fd = fd_gradient(lambda t: value_at(geo.spline, t), theta).T
            scale = max(1.0, np.abs(fd).max())
            assert np.allclose(jac, fd, atol=1e-6 * scale)

    def test_annulus_corners(self):
        geo = patch_quarter_annulus()
        pts = lattice_pullbacks(geo, [[0.0, 1.0], [0.0, 1.0]])[0]
        assert np.allclose(pts, [(1.0, 0.0), (0.0, 1.0), (4.0, 0.0), (0.0, 4.0)], atol=1e-13)

    @pytest.mark.parametrize(
        "factory", [curve_unit_interval, solid_unit_cube, patch_beam]
    )
    def test_affine_geometries_have_zero_second_derivatives(self, factory):
        geo = factory()
        axes = random_axes(np.random.default_rng(2), geo.dim, 10 if geo.dim == 1 else 4)
        second = lattice_pullbacks(geo, axes)[4]
        assert np.all(np.abs(second) < 1e-12)

    def test_inverse_jacobian(self):
        geo = patch_quarter_annulus()
        axes = random_axes(np.random.default_rng(3), 2, 5)
        _, jac, inv, _, _ = lattice_pullbacks(geo, axes)
        assert np.allclose(jac @ inv, np.eye(2), atol=1e-10)

    def test_singular_geometry_raises(self):
        collapsed = TensorSpline.polynomial(
            (CUBIC, CUBIC), np.zeros((4, 4, 2))
        )
        geo = GeometryMap(collapsed)
        with pytest.raises(SingularGeometryError, match=r"theta=\(0.5, 0.25\)"):
            lattice_pullbacks(geo, [[0.5], [0.25, 0.5]])


class TestPhysicalDerivatives:
    def test_identity_geometry_gradient(self):
        geo = solid_unit_cube()
        rng = np.random.default_rng(4)
        field = TensorSpline.polynomial(
            (CUBIC,) * 3, rng.normal(size=(4, 4, 4, 1))
        )
        axes = [[0.3], [0.7], [0.2]]
        grad, _ = physical_jets(geo, field, axes)
        assert np.allclose(grad[0], field.evaluate_lattice(axes, 1).grad[0, 0, 0], atol=1e-12)

    def test_constant_field_gradient_vanishes(self):
        geo = patch_quarter_annulus()
        field = TensorSpline.polynomial((CUBIC, CUBIC), np.full((4, 4, 1), 3.7))
        grad, _ = physical_jets(geo, field, [[0.4], [0.6]])
        assert np.all(np.abs(grad) < 1e-12)

    def test_annulus_gradient_vs_fd_through_map(self):
        # Differentiate T(x(theta)) in physical space by sampling the field
        # at physically perturbed points through a local parametric solve.
        geo = patch_quarter_annulus()
        rng = np.random.default_rng(5)
        kvs = (uniform_refine(CUBIC, 2), uniform_refine(CUBIC, 1))
        field = random_scalar_field_2d(rng, kvs)
        for theta in rng.uniform(0.1, 0.9, size=(5, 2)):
            x0, _, inv0, _ = pullback_at(geo, theta)
            grad, _ = physical_jets(geo, field, [[u] for u in theta])

            def field_at_physical(x, theta=theta, x0=x0, inv0=inv0):
                # First-order parametric correction, refined by Newton.
                t = theta + inv0 @ (x - x0)
                for _ in range(4):
                    xt, _, inv, _ = pullback_at(geo, t)
                    t = t - inv @ (xt - x)
                return value_at(field, t)

            fd = fd_gradient(field_at_physical, x0, step=1e-5)
            scale = max(1.0, np.abs(fd).max())
            assert np.allclose(grad[0], fd, atol=1e-5 * scale)

    def test_identity_geometry_hessian(self):
        geo = solid_unit_cube()
        rng = np.random.default_rng(6)
        field = TensorSpline.polynomial((CUBIC,) * 3, rng.normal(size=(4, 4, 4, 1)))
        axes = [[0.25], [0.5], [0.75]]
        _, hess = physical_jets(geo, field, axes)
        assert np.allclose(hess[0], field.evaluate_lattice(axes, 2).hess[0, 0, 0], atol=1e-11)

    def test_affine_geometry_hessian(self):
        geo = patch_beam()
        rng = np.random.default_rng(7)
        field = random_scalar_field_2d(rng, (CUBIC, CUBIC))
        axes = [[0.4], [0.3]]
        _, _, inv, _ = pullback_at(geo, [0.4, 0.3])
        jet = field.evaluate_lattice(axes, 2)
        expected = np.einsum("ai,abc,bj->ijc", inv, jet.hess[0, 0], inv)
        assert np.allclose(physical_jets(geo, field, axes)[1][0], expected, atol=1e-12)

    def test_hessian_symmetry(self):
        geo = patch_quarter_annulus()
        rng = np.random.default_rng(8)
        kvs = (uniform_refine(CUBIC, 1), uniform_refine(CUBIC, 2))
        field = random_scalar_field_2d(rng, kvs)
        _, hess = physical_jets(geo, field, random_axes(rng, 2, 4))
        assert np.allclose(hess, np.swapaxes(hess, 1, 2), atol=1e-9)

    def test_squared_radius_through_annulus(self):
        # The exact parametric jet of G = |F|^2 pushed through the inverse
        # chain rule must produce the physical Hessian of x^2 + y^2, i.e. 2I.
        geo = patch_quarter_annulus()
        axes = random_axes(np.random.default_rng(9), 2, 4)
        pts, _, inv, _, second = lattice_pullbacks(geo, axes)
        jet = geo.spline.evaluate_lattice(axes, max_deriv=2)
        value = jet.value.reshape(-1, 2)
        grad = jet.grad.reshape(-1, 2, 2)
        hess = jet.hess.reshape(-1, 2, 2, 2)
        g_theta = 2.0 * np.einsum("nk,nak->na", value, grad)[..., None]
        h_theta = 2.0 * (
            np.einsum("nak,nbk->nab", grad, grad)
            + np.einsum("nk,nabk->nab", value, hess)
        )[..., None]
        grad_x, hess_x = pulled_back_jets(inv, second, g_theta, h_theta)
        assert np.allclose(hess_x[..., 0], 2.0 * np.eye(2), atol=1e-6)
        assert np.allclose(grad_x[..., 0], 2.0 * pts, atol=1e-8)

    def test_annulus_operator_plumbing_reproduces_source(self):
        # Compose the 2D benchmark's analytic solution with the map: the
        # operator's pulled-back coefficients applied to its exact
        # parametric jet must reproduce the source term of the problem.
        import sympy as sp

        from splinecol.problems import example_2d_annulus

        prob = example_2d_annulus()
        geo = prob.geometry
        x, y = sp.symbols("x y")
        T = (x**2 + y**2 - 1) * (x**2 + y**2 - 16) * sp.sin(x) * sp.sin(y)
        tf = sp.lambdify((x, y), T, "numpy")
        gf = [sp.lambdify((x, y), sp.diff(T, s), "numpy") for s in (x, y)]
        hf = [
            [sp.lambdify((x, y), sp.diff(T, a, b), "numpy") for b in (x, y)]
            for a in (x, y)
        ]
        axes = random_axes(np.random.default_rng(12), 2, 10, 0.02, 0.98)
        pts, jac, inv, _, second = lattice_pullbacks(geo, axes)
        px, py = pts[:, 0], pts[:, 1]
        gx_exact = np.stack([g(px, py) for g in gf], axis=-1)
        hx_exact = np.stack(
            [np.stack([hf[a][b](px, py) for b in (0, 1)], axis=-1) for a in (0, 1)],
            axis=-2,
        )
        # Forward chain rule to the parametric jet, then back again.
        g_theta = np.einsum("nka,nk->na", jac, gx_exact)[..., None]
        h_theta = (
            np.einsum("nka,nkl,nlb->nab", jac, hx_exact, jac)
            + np.einsum("nk,nabk->nab", gx_exact, second)
        )[..., None]
        coeffs = linear_coefficients(prob.operator.apply, 2, 1, 2, "operator")
        coeffs = pull_back_coefficients(coeffs.reshape(7, 1, 1), inv, second)[:, 0]
        entries = np.concatenate([tf(px, py)[:, None], g_theta[..., 0], h_theta.reshape(-1, 4)], 1)
        applied = np.einsum("en,ne->n", coeffs, entries)
        f = prob.source(pts)[:, 0]
        assert np.all(np.abs(applied - f) <= 1e-6 * np.maximum(1.0, np.abs(f)))

    def test_linearity_in_the_field(self):
        geo = patch_quarter_annulus()
        rng = np.random.default_rng(10)
        kvs = (CUBIC, CUBIC)
        f1 = random_scalar_field_2d(rng, kvs)
        f2 = random_scalar_field_2d(rng, kvs)
        alpha, beta = 1.7, -0.45
        combo = f1.with_coefficients(alpha * f1.coeffs + beta * f2.coeffs)
        axes = [[0.35], [0.65]]
        g, h = physical_jets(geo, combo, axes)
        g1, h1 = physical_jets(geo, f1, axes)
        g2, h2 = physical_jets(geo, f2, axes)
        assert np.allclose(g, alpha * g1 + beta * g2, atol=1e-10)
        assert np.allclose(h, alpha * h1 + beta * h2, atol=1e-10)

    def test_boundary_normals_on_beam(self):
        geo = patch_beam()
        inv = lattice_pullbacks(geo, [[0.5], [1.0]])[2]
        assert np.allclose(boundary_normals(inv, 1, 1), [[0, 1]], atol=1e-13)
        assert np.allclose(boundary_normals(inv, 1, 0), [[0, -1]], atol=1e-13)
        inv = lattice_pullbacks(geo, [[0.0], [0.5]])[2]
        assert np.allclose(boundary_normals(inv, 0, 0), [[-1, 0]], atol=1e-13)

    def test_boundary_normals_on_annulus_are_unit_and_outward(self):
        # On the outer arc (u = 1) the outward normal is the radial direction.
        geo = patch_quarter_annulus()
        pts, _, inv, _, _ = lattice_pullbacks(geo, [[1.0], np.linspace(0, 1, 7)])
        normals = boundary_normals(inv, 0, 1)
        assert np.allclose(normals, pts / np.linalg.norm(pts, axis=1, keepdims=True))


def near_linear_map(rng, dim, kvs, rational=True):
    """A map close to a random linear one with singular values in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    linear = q * rng.uniform(0.5, 2.0, dim)
    greville = np.meshgrid(*(kv.greville_abscissae() for kv in kvs), indexing="ij")
    coeffs = np.stack(greville, axis=-1) @ linear.T
    coeffs += 0.01 * rng.normal(size=coeffs.shape)
    weights = rng.uniform(0.9, 1.1, coeffs.shape[:-1]) if rational else np.ones(coeffs.shape[:-1])
    return GeometryMap(TensorSpline(kvs, coeffs, weights))


def assert_matches_oracles(geo, axes, rng, c):
    """Closed-form det and inverse, the gradient push and the pulled-back
    coefficients against LAPACK and the einsum pushes, to 1e-12.

    Two jets are compared: a random one, and the lattice jet of a random
    field on the map's basis, whose entries are strided views.
    """
    _, jac, inv, det, second = lattice_pullbacks(geo, axes)
    det_ref, inv_ref = lapack_det_inv(jac)
    assert np.all(np.abs(det - det_ref) <= 1e-12 * np.abs(det_ref))
    scale = np.abs(inv_ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(inv - inv_ref) <= 1e-12 * scale)

    d, spline = geo.dim, geo.spline
    field = TensorSpline(spline.kvs, rng.normal(size=spline.shape + (c,)), spline.weights)
    jet = field.evaluate_lattice(axes, max_deriv=2)
    # Parametric Hessians are symmetric, and the pullback reads only the
    # symmetric part of one, so the random Hessian is symmetrised.
    hess = rng.normal(size=(len(jac), d, d, c))
    jets = [
        (rng.normal(size=(len(jac), d, c)), hess + np.swapaxes(hess, 1, 2)),
        (jet.grad.reshape(-1, d, c), jet.hess.reshape(-1, d, d, c)),
    ]
    for grad_t, hess_t in jets:
        grad_ref = push_gradient(inv_ref, grad_t)
        grad_x = lattice_push_gradient(inv, grad_t)
        assert np.abs(grad_x - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        hess_ref = push_hessian(inv_ref, second, grad_ref, hess_t)
        grad_k, hess_k = pulled_back_jets(inv, second, grad_t, hess_t)
        assert np.abs(grad_k - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        assert np.abs(hess_k - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()


class TestClosedFormAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        interior=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        c=st.sampled_from([1, 2, 16, 64]),
        rational=st.booleans(),
    )
    def test_random_maps_match_lapack_and_einsum(self, dim, interior, seed, count, c, rational):
        rng = np.random.default_rng(seed)
        kvs = (uniform_refine(CUBIC, interior),) * dim
        geo = near_linear_map(rng, dim, kvs, rational)
        assert_matches_oracles(geo, random_axes(rng, dim, count), rng, c)

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_example_geometries_match_lapack_and_einsum(self, example):
        # The lattices error_report and assemble use: the quadrature rule
        # and the Greville points of a refined field.
        geo = EXAMPLES[example]().geometry
        field = build_field(geo, (6,) * geo.dim)
        rng = np.random.default_rng(11)
        lattices = [quadrature_rule(field)[0], [kv.greville_abscissae() for kv in field.kvs]]
        for axes in lattices:
            for c in (1, 2, 64):
                assert_matches_oracles(geo, axes, rng, c)

    @pytest.mark.parametrize("example, width", [("II", 16), ("III", 64), ("curved cube", 64)])
    def test_basis_jets_at_interior_collocation_points(self, example, width):
        # The pulled-back coefficients at the points assemble gathers them
        # for, applied to the basis jets (N, d, d, L) that the row table of
        # unit coefficients gives, against the oracle push of those jets.
        # III's cube is affine (S = 0, diagonal J), so a rational near-linear
        # cube map exercises L = 64 with curvature.
        if example in EXAMPLES:
            geo = EXAMPLES[example]().geometry
        else:
            geo = near_linear_map(np.random.default_rng(13), 3, (CUBIC,) * 3)
        field = build_field(geo, (6,) * geo.dim)
        counts = tuple(kv.n_basis for kv in field.kvs)
        points = generate_collocation_points(field.kvs, CollocationScheme("greville", counts))
        _, jac, inv, _, second = lattice_pullbacks(geo, points.axes)
        inner = np.flatnonzero(~points.on_boundary)
        _, inv_ref = lapack_det_inv(jac[inner])
        _, _, grad_t, hess_t = basis_jets(field, points.lattice[inner])
        assert hess_t.shape == (len(inner), geo.dim, geo.dim, width)
        _, hess_x = pulled_back_jets(inv[inner], second[inner], grad_t, hess_t)
        hess_ref = push_hessian(inv_ref, second[inner], push_gradient(inv_ref, grad_t), hess_t)
        assert np.abs(hess_x - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tiny_determinant_names_its_point(self, dim):
        # x_0 = theta_0^3 and x_k = theta_k: det J = 3 theta_0^2, which is
        # positive but below DET_TOL at theta_0 = 2e-7 and only there.
        g = CUBIC.greville_abscissae()
        coeffs = np.stack(np.meshgrid(*(g,) * dim, indexing="ij"), axis=-1)
        coeffs[..., 0] = np.array([0.0, 0.0, 0.0, 1.0]).reshape((4,) + (1,) * (dim - 1))
        geo = GeometryMap(TensorSpline.polynomial((CUBIC,) * dim, coeffs))
        axes = [[0.5, 2e-7, 0.7]] + [[0.3, 0.6]] * (dim - 1)
        assert 0.0 < 3 * 2e-7**2 < DET_TOL
        named = ", ".join(["2e-07"] + ["0.3"] * (dim - 1))
        message = rf"theta=\({named},?\) \(det=1\.200e-13\)"
        with pytest.raises(SingularGeometryError, match=message):
            lattice_pullbacks(geo, axes)


class TestPullbackOrders:
    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_first_order_matches_second(self, example):
        geo = EXAMPLES[example]().geometry
        rng = np.random.default_rng(12)
        axes = [
            np.concatenate([[kv.start, kv.end], rng.uniform(kv.start, kv.end, 5)])
            for kv in geo.kvs
        ]
        full = lattice_pullbacks(geo, axes)
        first = lattice_pullbacks(geo, axes, max_deriv=1)
        for got, want in zip(first[:4], full[:4]):
            assert np.array_equal(got, want)
        assert first[4] is None and full[4] is not None

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_order_zero_gives_points_only(self, example):
        geo = EXAMPLES[example]().geometry
        rng = np.random.default_rng(13)
        axes = [
            np.concatenate([[kv.start, kv.end], rng.uniform(kv.start, kv.end, 5)])
            for kv in geo.kvs
        ]
        points = lattice_pullbacks(geo, axes, max_deriv=0)
        assert points[1:] == (None, None, None, None)
        for order in (1, 2):
            assert np.array_equal(points[0], lattice_pullbacks(geo, axes, max_deriv=order)[0])

    @pytest.mark.parametrize("example", ["I", "II", "III"])
    def test_constant_first_order_table_pulls_back_at_every_point(self, example):
        # An order-1 table of constants (1 + d, s, 1) has a point axis of
        # size 1; it pulls back to A0 and J^-1 A1 at each point.
        geo = EXAMPLES[example]().geometry
        rng = np.random.default_rng(14)
        axes = [rng.uniform(kv.start, kv.end, 4) for kv in geo.kvs]
        inv = lattice_pullbacks(geo, axes, max_deriv=1)[2]
        d, s = geo.dim, 3
        coeffs = rng.normal(size=(1 + d, s, 1))
        out = pull_back_coefficients(coeffs, inv)
        assert out.shape == (1 + d, s, len(inv))
        assert np.array_equal(out[0], np.broadcast_to(coeffs[0], (s, len(inv))))
        expected = np.einsum("nak,ks->asn", inv, coeffs[1:, :, 0])
        assert np.allclose(out[1:], expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())

    @staticmethod
    def _cubic_map():
        # x_0 = theta_0^3, x_1 = theta_1: det J = 3 theta_0^2 vanishes at 0.
        g = CUBIC.greville_abscissae()
        coeffs = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
        coeffs[..., 0] = np.array([0.0, 0.0, 0.0, 1.0])[:, None]
        return GeometryMap(TensorSpline.polynomial((CUBIC, CUBIC), coeffs))

    def test_first_order_still_checks_singular_points(self):
        with pytest.raises(SingularGeometryError, match=r"theta=\(0\.0, 0\.25\)"):
            lattice_pullbacks(self._cubic_map(), [[0.5, 0.0], [0.25]], max_deriv=1)

    def test_order_zero_does_not_check_singular_points(self):
        points = lattice_pullbacks(self._cubic_map(), [[0.5, 0.0], [0.25]], max_deriv=0)[0]
        assert np.allclose(points, [[0.125, 0.25], [0.0, 0.25]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", [-1, 3])
    def test_order_outside_0_to_2_rejected(self, order):
        with pytest.raises(UnsupportedDerivativeError, match=f"got {order}"):
            lattice_pullbacks(curve_unit_interval(), [[0.5]], max_deriv=order)
