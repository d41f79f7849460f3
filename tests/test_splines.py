"""Knot vectors, basis evaluation, refinement and tensor splines."""

import numpy as np
import pytest

from batched import jets_at, value_at, values_at
from oracles import (
    all_basis_derivs,
    fd_gradient,
    fd_hessian,
    point_basis_jets,
    point_jet,
    uniform_refine,
)
from splinecol.errors import (
    DomainError,
    InvalidRefinementError,
    UnsupportedDerivativeError,
)
from splinecol.splines import KnotVector, TensorSpline

CUBIC = KnotVector([0, 0, 0, 0, 1, 1, 1, 1], 3)
CUBIC5 = KnotVector([0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3)


def random_knot_vector(rng, max_interior=6):
    p = int(rng.integers(1, 5))
    interior = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, max_interior))))
    return KnotVector(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p)


class TestKnotVector:
    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            KnotVector([0, 0, 0, 1, 0.5, 1, 1, 1], 3)
        with pytest.raises(ValueError, match="repeated exactly"):
            KnotVector([0, 0, 0, 0.2, 1, 1, 1, 1], 3)
        with pytest.raises(ValueError, match="multiplicity"):
            KnotVector([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], 2)
        with pytest.raises(ValueError):
            KnotVector([0, 0, 1, 1], 3)

    @pytest.mark.parametrize(
        "u,expected",
        [(0.5, 3), (1.0, 3), (0.0, 3)],
    )
    def test_find_span_single_interval(self, u, expected):
        assert CUBIC.find_span(u) == expected

    def test_find_span_interior_knot(self):
        assert CUBIC5.find_span(0.7) == 4

    def test_find_span_domain_error(self):
        with pytest.raises(DomainError):
            CUBIC.find_span(1.5)
        with pytest.raises(DomainError):
            CUBIC.find_span(-0.1)

    def test_spans_and_breakpoints(self):
        assert CUBIC5.spans == [(0.0, 0.5), (0.5, 1.0)]
        assert list(CUBIC5.breakpoints) == [0.0, 0.5, 1.0]


class TestBasisValues:
    def test_bernstein_midpoint(self):
        vals = CUBIC.basis_values(0.5)[0]
        assert np.allclose(vals, [0.125, 0.375, 0.375, 0.125], atol=1e-15)

    def test_against_recursive_oracle(self):
        # Frozen from the naive Cox-de Boor recursion at u = 0.25.
        expected = {
            0: [0.125, 0.59375, 0.25, 0.03125],
            1: [-1.5, -0.375, 1.5, 0.375],
            2: [12.0, -15.0, 0.0, 3.0],
        }
        ders = CUBIC5.basis_values(0.25, 2)
        for k, row in expected.items():
            assert np.allclose(ders[k], row, atol=1e-12)

    def test_random_vectors_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            kv = random_knot_vector(rng)
            for u in rng.uniform(0.01, 0.99, 5):
                span = kv.find_span(u)
                kmax = min(2, kv.degree)
                ders = kv.basis_values(u, kmax)
                for k in range(kmax + 1):
                    full = np.zeros(kv.n_basis)
                    full[span - kv.degree : span + 1] = ders[k]
                    oracle = all_basis_derivs(kv.knots, kv.degree, u, k)
                    scale = max(1.0, np.abs(oracle).max())
                    assert np.allclose(full, oracle, atol=1e-9 * scale)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        kv = random_knot_vector(rng)
        for u in rng.uniform(0, 1, 1000):
            ders = kv.basis_values(u, min(2, kv.degree))
            assert abs(ders[0].sum() - 1.0) < 1e-12
            for k in range(1, ders.shape[0]):
                assert abs(ders[k].sum()) < 1e-9

    def test_derivative_order_above_degree(self):
        with pytest.raises(UnsupportedDerivativeError):
            CUBIC.basis_values(0.5, 4)

    def test_local_support_exact_zero(self):
        # A basis function evaluated outside its support block is exactly 0.
        kv = uniform_refine(CUBIC, 4)
        us = np.linspace(0.01, 0.99, 23)
        spans = kv.find_span(us)
        for i in range(kv.n_basis):
            coeffs = np.zeros(kv.n_basis)
            coeffs[i] = 1.0
            spline = TensorSpline.polynomial((kv,), coeffs)
            outside = ~((spans - kv.degree <= i) & (i <= spans))
            assert np.all(spline.evaluate_lattice([us]).value[outside, 0] == 0.0)
            assert np.all(values_at(spline, us)[outside, 0] == 0.0)

    def test_vectorised_matches_scalar_calls(self):
        # An array of parameters gives, entry by entry, the scalar results.
        rng = np.random.default_rng(17)
        kv = random_knot_vector(rng)
        us = rng.uniform(0, 1, 40)
        spans = kv.find_span(us)
        ders = kv.basis_values(us, min(2, kv.degree))
        assert ders.shape == (40, min(2, kv.degree) + 1, kv.degree + 1)
        for j, u in enumerate(us):
            assert spans[j] == kv.find_span(u)
            assert np.array_equal(ders[j], kv.basis_values(u, min(2, kv.degree)))

    def test_domain_error_names_first_bad_parameter(self):
        with pytest.raises(DomainError, match="parameter 1.5 outside"):
            CUBIC.basis_values(np.array([0.2, 1.5, -2.0, 0.7]))
        with pytest.raises(DomainError, match="parameter nan outside"):
            CUBIC.find_span(np.array([0.2, np.nan]))


class TestGreville:
    def test_single_interval_cubic(self):
        # These averages equal the control points of the embedded identity
        # curve, so Greville coefficients reproduce the identity map.
        assert np.allclose(CUBIC.greville_abscissae(), [0, 1 / 3, 2 / 3, 1])

    def test_linear(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        assert np.allclose(kv.greville_abscissae(), [0, 1])

    def test_with_interior_knot(self):
        assert np.allclose(
            CUBIC5.greville_abscissae(), [0, 1 / 6, 0.5, 5 / 6, 1]
        )

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kv = random_knot_vector(rng)
            g = kv.greville_abscissae()
            assert g[0] == kv.start and g[-1] == kv.end
            assert np.all(np.diff(g) >= 0)

    def test_linear_precision(self):
        # Greville coefficients reproduce the identity parameter function.
        rng = np.random.default_rng(5)
        for _ in range(10):
            kv = random_knot_vector(rng)
            spline = TensorSpline.polynomial((kv,), kv.greville_abscissae())
            us = rng.uniform(0, 1, 50)
            assert np.abs(values_at(spline, us)[:, 0] - us).max() < 1e-12


class TestRefinement:
    @pytest.mark.parametrize(
        "count,interior",
        [(1, [0.5]), (3, [0.25, 0.5, 0.75])],
    )
    def test_uniform_refine(self, count, interior):
        kv = uniform_refine(CUBIC, count)
        assert np.allclose(kv.knots[4:-4], interior)

    def test_uniform_refine_to_patch_size(self):
        assert uniform_refine(CUBIC, 11).n_basis == 15

    def test_uniform_refine_collision(self):
        kv = uniform_refine(CUBIC, 1)
        for _ in range(2):  # multiplicity reaches the degree, still legal
            kv = kv.insert(0.5)
        with pytest.raises(InvalidRefinementError):
            kv.insert(0.5)

    def test_insert_outside_range(self):
        with pytest.raises(InvalidRefinementError):
            CUBIC.insert(0.0)


class TestTensorSpline:
    def test_identity_curve(self):
        curve = TensorSpline.polynomial((CUBIC,), CUBIC.greville_abscissae())
        value, grad, _ = jets_at(curve, [0.4])
        assert abs(value[0, 0] - 0.4) < 1e-14
        assert abs(grad[0, 0, 0] - 1.0) < 1e-12

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TensorSpline((CUBIC,), np.zeros(4), np.array([1.0, 1.0, 0.0, 1.0]))

    def test_out_of_domain(self):
        curve = TensorSpline.polynomial((CUBIC,), CUBIC.greville_abscissae())
        with pytest.raises(DomainError, match="1.2"):
            curve.basis_jets([0.5, 1.2])
        with pytest.raises(DomainError, match="1.2"):
            curve.evaluate_lattice([[0.5, 1.2]])

    def test_rational_derivative_cap(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        arc = TensorSpline(
            (kv,), np.array([[1, 0], [1, 1], [0, 1.0]]),
            np.array([1.0, np.sqrt(2) / 2, 1.0]),
        )
        with pytest.raises(UnsupportedDerivativeError):
            arc.evaluate_lattice([[0.5]], max_deriv=3)

    def test_polynomial_higher_partials(self):
        # x^3 has third derivative 6 everywhere; unit weights allow order 3.
        g = CUBIC.greville_abscissae()
        curve = TensorSpline.polynomial((CUBIC,), g**3 * 0 + np.array([0, 0, 0, 1.0]))
        # Bezier cubic with coefficients (0,0,0,1) is exactly u^3.
        assert abs(value_at(curve, [0.3])[0] - 0.027) < 1e-14
        assert abs(curve.evaluate_lattice([[0.3]], max_deriv=3).value[0, 0] - 0.027) < 1e-14
        third = CUBIC.basis_values(0.3, 3)[3] @ curve.coeffs[:, 0]
        assert abs(third - 6.0) < 1e-11

    def test_rational_derivatives_vs_fd(self):
        rng = np.random.default_rng(2)
        kvu = uniform_refine(CUBIC, 2)
        coeffs = rng.normal(size=(kvu.n_basis, 4, 2))
        weights = rng.uniform(0.5, 2.0, size=(kvu.n_basis, 4))
        surf = TensorSpline((kvu, CUBIC), coeffs, weights)
        thetas = rng.uniform(0.05, 0.95, size=(10, 2))
        _, grads, hessians = jets_at(surf, thetas)
        for theta, grad, hess in zip(thetas, grads, hessians):
            g = fd_gradient(lambda t: value_at(surf, t), theta)
            h = fd_hessian(lambda t: value_at(surf, t), theta, step=2e-4)
            scale = max(1.0, np.abs(g).max())
            assert np.allclose(grad, g, atol=1e-6 * scale)
            hscale = max(1.0, np.abs(h).max())
            assert np.allclose(hess, h, atol=5e-5 * hscale)

    def test_lattice_matches_pointwise(self):
        rng = np.random.default_rng(4)
        kvu = uniform_refine(CUBIC, 2)
        coeffs = rng.normal(size=(kvu.n_basis, 4, 2))
        weights = rng.uniform(0.5, 2.0, size=(kvu.n_basis, 4))
        surf = TensorSpline((kvu, CUBIC), coeffs, weights)
        axes = [np.linspace(0, 1, 6), np.linspace(0, 1, 5)]
        lat = surf.evaluate_lattice(axes, max_deriv=2)
        for i, u in enumerate(axes[0]):
            for j, v in enumerate(axes[1]):
                value, grad, hess, _ = point_jet(surf, [u, v], max_deriv=2)
                assert np.allclose(lat.value[i, j], value, atol=1e-13)
                assert np.allclose(lat.grad[i, j], grad, atol=1e-11)
                assert np.allclose(lat.hess[i, j], hess, atol=1e-9)

    def test_basis_jets_reconstruct_field(self):
        rng = np.random.default_rng(9)
        kvu = uniform_refine(CUBIC, 3)
        coeffs = rng.normal(size=(kvu.n_basis, 4, 2))
        weights = rng.uniform(0.5, 2.0, size=(kvu.n_basis, 4))
        surf = TensorSpline((kvu, CUBIC), coeffs, weights)
        thetas = np.array([[0.37, 0.81], [0.0, 1.0], [0.5, 0.25], [1.0, 0.6]])
        cols, val, grad, hess = surf.basis_jets(thetas)
        assert cols.shape == val.shape == (4, 16)
        assert grad.shape == (4, 2, 16) and hess.shape == (4, 2, 2, 16)
        flat = surf.coeffs.reshape(-1, 2)
        for n, theta in enumerate(thetas):
            value, g, h, _ = point_jet(surf, theta, max_deriv=2)
            local = flat[cols[n]]
            assert np.allclose(val[n] @ local, value)
            assert np.allclose(grad[n] @ local, g, atol=1e-11)
            assert np.allclose(hess[n] @ local, h, atol=1e-9)
            ref_cols, ref_val, ref_grad, ref_hess = point_basis_jets(surf, theta)
            assert np.array_equal(cols[n], ref_cols)
            assert np.allclose(val[n], ref_val, atol=1e-14)
            assert np.allclose(grad[n], ref_grad.T, atol=1e-12)
            assert np.allclose(hess[n], np.moveaxis(ref_hess, 0, -1), atol=1e-10)

    def test_basis_jets_of_linear_spline(self):
        # Degree 1 has no second derivatives: its Hessian jets are zero.
        kv = KnotVector([0, 0, 0.5, 1, 1], 1)
        line = TensorSpline.polynomial((kv,), np.array([0.0, 2.0, 3.0]))
        _, val, grad, hess = line.basis_jets([0.25, 0.75])
        assert np.allclose(np.sum(val * [[0, 2], [2, 3]], axis=1), [1.0, 2.5])
        assert np.allclose(np.sum(grad[:, 0] * [[0, 2], [2, 3]], axis=1), [4.0, 2.0])
        assert np.all(hess == 0.0)


class TestKnotInsertion:
    def test_boehm_golden_coefficients(self):
        curve = TensorSpline.polynomial((CUBIC,), np.array([0, 1 / 3, 2 / 3, 1.0]))
        inserted = curve.insert_knot(0, 0.5)
        assert np.allclose(
            inserted.coeffs.ravel(), [0, 1 / 6, 0.5, 5 / 6, 1], atol=1e-15
        )

    def test_curve_values_preserved(self):
        curve = TensorSpline.polynomial((CUBIC,), np.array([0, 1 / 3, 2 / 3, 1.0]))
        inserted = curve.insert_knot(0, 0.5)
        us = [0.1, 0.5, 0.9]
        assert np.abs(values_at(inserted, us) - values_at(curve, us)).max() < 1e-12

    def test_straight_line_stays_collinear(self):
        g = CUBIC.greville_abscissae()
        line = TensorSpline.polynomial(
            (CUBIC,), np.stack([1 + 2 * g, -3 + 5 * g], axis=-1)
        )
        refined = line.insert_knot(0, 0.3).insert_knot(0, 0.7)
        pts = refined.coeffs
        d = pts[1:] - pts[:-1]
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.all(np.abs(cross) < 1e-13)

    def test_random_rational_splines_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            kv = random_knot_vector(rng, max_interior=4)
            coeffs = rng.normal(size=(kv.n_basis, 2))
            weights = rng.uniform(0.5, 2.0, kv.n_basis)
            spline = TensorSpline((kv,), coeffs, weights)
            u_new = float(rng.uniform(0.1, 0.9))
            if np.count_nonzero(kv.knots == u_new) >= kv.degree:
                continue
            inserted = spline.insert_knot(0, u_new)
            us = rng.uniform(0, 1, 100)
            assert np.allclose(values_at(spline, us), values_at(inserted, us), atol=1e-10)

    def test_2d_insertion_preserves_surface(self):
        rng = np.random.default_rng(13)
        coeffs = rng.normal(size=(4, 4, 3))
        weights = rng.uniform(0.5, 2.0, (4, 4))
        surf = TensorSpline((CUBIC, CUBIC), coeffs, weights)
        refined = surf.insert_knot(1, 0.25).insert_knot(0, 0.6)
        thetas = rng.uniform(0, 1, size=(50, 2))
        assert np.allclose(values_at(surf, thetas), values_at(refined, thetas), atol=1e-10)

    def test_multiplicity_overflow(self):
        curve = TensorSpline.polynomial((CUBIC,), np.zeros(4))
        s = curve
        for _ in range(3):
            s = s.insert_knot(0, 0.5)
        with pytest.raises(InvalidRefinementError):
            s.insert_knot(0, 0.5)

    @pytest.mark.parametrize(
        "knots,named",
        [([0.2, 0.5, 0.5, 0.5, 0.5], "0.5"), ([0.2, 1.0], "1.0"), ([0.3, np.nan], "nan")],
    )
    def test_several_knots_checked_at_once(self, knots, named):
        curve = TensorSpline.polynomial((CUBIC,), np.zeros(4))
        with pytest.raises(InvalidRefinementError, match=named):
            curve.insert_knots(0, knots)
