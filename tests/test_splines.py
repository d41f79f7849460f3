"""Knot vectors, basis evaluation, refinement and tensor splines."""

import numpy as np
import pytest

from batched import basis_jets, jets_at, value_at, values_at
from oracles import (
    all_basis_derivs,
    basis_values,
    fd_gradient,
    fd_hessian,
    point_basis_jets,
    point_jet,
    uniform_refine,
)
from splinecol import splines
from splinecol.collocation import build_field
from splinecol.errors import (
    DomainError,
    InvalidRefinementError,
    PreconditionError,
    UnsupportedDerivativeError,
)
from splinecol.problems import EXAMPLES, make_example
from splinecol.splines import KnotVector, TensorSpline

CUBIC = KnotVector([0, 0, 0, 0, 1, 1, 1, 1], 3)
CUBIC5 = KnotVector([0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3)


def wide_knot_vector(n, p=3):
    """Uniform clamped knot vector on [0, 1] with n basis functions of degree p."""
    interior = np.linspace(0.0, 1.0, n - p + 1)[1:-1]
    return KnotVector(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p)


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

    def test_breakpoints(self):
        assert list(CUBIC5.breakpoints) == [0.0, 0.5, 1.0]


class TestBasisValues:
    def test_bernstein_midpoint(self):
        vals = basis_values(CUBIC, 0.5)[0]
        assert np.allclose(vals, [0.125, 0.375, 0.375, 0.125], atol=1e-15)

    def test_against_recursive_oracle(self):
        # Frozen from the naive Cox-de Boor recursion at u = 0.25.
        expected = {
            0: [0.125, 0.59375, 0.25, 0.03125],
            1: [-1.5, -0.375, 1.5, 0.375],
            2: [12.0, -15.0, 0.0, 3.0],
        }
        ders = basis_values(CUBIC5, 0.25, 2)
        for k, row in expected.items():
            assert np.allclose(ders[k], row, atol=1e-12)

    def test_random_vectors_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            kv = random_knot_vector(rng)
            for u in rng.uniform(0.01, 0.99, 5):
                span = kv.find_span(u)
                kmax = min(2, kv.degree)
                ders = basis_values(kv, u, kmax)
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
            ders = basis_values(kv, u, min(2, kv.degree))
            assert abs(ders[0].sum() - 1.0) < 1e-12
            for k in range(1, ders.shape[0]):
                assert abs(ders[k].sum()) < 1e-9

    def test_derivative_order_above_degree(self):
        with pytest.raises(UnsupportedDerivativeError):
            basis_values(CUBIC, 0.5, 4)

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
        ders = basis_values(kv, us, min(2, kv.degree))
        assert ders.shape == (40, min(2, kv.degree) + 1, kv.degree + 1)
        for j, u in enumerate(us):
            assert spans[j] == kv.find_span(u)
            assert np.array_equal(ders[j], basis_values(kv, u, min(2, kv.degree)))

    def test_domain_error_names_first_bad_parameter(self):
        with pytest.raises(DomainError, match="parameter 1.5 outside"):
            basis_values(CUBIC, np.array([0.2, 1.5, -2.0, 0.7]))
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
            curve.row_table([0.5, 1.2], np.ones((1, 2)))
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
        third = basis_values(CUBIC, 0.3, 3)[3] @ curve.coeffs[:, 0]
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

    def test_jets_are_views_of_one_buffer(self):
        # A 3D rational jet is built in one buffer, partials first and then
        # components, so each entry is contiguous over the lattice and no
        # interleaving copy is made.
        rng = np.random.default_rng(5)
        kvs = (uniform_refine(CUBIC, 1), CUBIC, uniform_refine(CUBIC, 2))
        shape = tuple(kv.n_basis for kv in kvs)
        solid = TensorSpline(kvs, rng.normal(size=shape + (3,)), rng.uniform(0.5, 2.0, shape))
        jet = solid.evaluate_lattice([np.linspace(0, 1, k) for k in (5, 4, 6)], max_deriv=2)
        buf = jet.grad.base
        assert all(np.shares_memory(buf, x) for x in (jet.value, jet.grad, jet.hess))
        assert jet.grad[..., 1, 2].flags.c_contiguous
        assert jet.hess[..., 2, 0, 1].flags.c_contiguous

    def test_basis_jets_reconstruct_field(self):
        rng = np.random.default_rng(9)
        kvu = uniform_refine(CUBIC, 3)
        coeffs = rng.normal(size=(kvu.n_basis, 4, 2))
        weights = rng.uniform(0.5, 2.0, size=(kvu.n_basis, 4))
        surf = TensorSpline((kvu, CUBIC), coeffs, weights)
        thetas = np.array([[0.37, 0.81], [0.0, 1.0], [0.5, 0.25], [1.0, 0.6]])
        cols, val, grad, hess = basis_jets(surf, thetas)
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
        _, val, grad, hess = basis_jets(line, [0.25, 0.75])
        assert np.allclose(np.sum(val * [[0, 2], [2, 3]], axis=1), [1.0, 2.5])
        assert np.allclose(np.sum(grad[:, 0] * [[0, 2], [2, 3]], axis=1), [4.0, 2.0])
        assert np.all(hess == 0.0)


def off_knot_axis(rng, kv, count):
    """``count`` sorted random parameters (off the knots) between both ends of ``kv``."""
    return np.concatenate([[kv.start], np.sort(rng.uniform(kv.start, kv.end, count)), [kv.end]])


def banded(kv, axis, max_deriv):
    """Whether ``evaluate_lattice`` contracts this direction through its band."""
    return (max_deriv + 1) * len(axis) * kv.n_basis > splines.DENSE_TABLE_LIMIT


class TestLatticeTableForms:
    """Dense and banded direction tables against the per-point oracle."""

    @staticmethod
    def assert_matches_point_oracle(spline, axes):
        index = list(np.ndindex(*(len(a) for a in axes)))
        oracle = [point_jet(spline, [a[i] for a, i in zip(axes, idx)], 2) for idx in index]
        shape = tuple(len(a) for a in axes)
        for max_deriv in range(3):
            jet = spline.evaluate_lattice(axes, max_deriv)
            got = [jet.value, jet.grad, jet.hess][: max_deriv + 1]
            for order, part in enumerate(got):
                want = np.array([o[order] for o in oracle]).reshape(shape + part.shape[len(shape):])
                scale = max(1.0, np.abs(want).max())
                assert np.abs(part - want).max() <= 1e-12 * scale, (max_deriv, order)

    def test_wide_curve_in_band_form(self):
        rng = np.random.default_rng(31)
        kv = wide_knot_vector(1000)
        curve = TensorSpline.polynomial((kv,), rng.normal(size=(1000, 2)))
        axis = off_knot_axis(rng, kv, 300)
        assert banded(kv, axis, 0)
        self.assert_matches_point_oracle(curve, [axis])

    def test_rational_surface_in_dense_form(self):
        rng = np.random.default_rng(32)
        kvs = (uniform_refine(CUBIC, 4), CUBIC5)
        shape = tuple(kv.n_basis for kv in kvs)
        surf = TensorSpline(kvs, rng.normal(size=shape + (2,)), rng.uniform(0.5, 2.0, shape))
        axes = [off_knot_axis(rng, kv, 9) for kv in kvs]
        assert not any(banded(kv, a, 2) for kv, a in zip(kvs, axes))
        self.assert_matches_point_oracle(surf, axes)

    def test_rational_surface_with_one_wide_direction(self):
        # Direction 0 is banded at second order only; direction 1 stays dense.
        rng = np.random.default_rng(33)
        kvs = (wide_knot_vector(300), CUBIC5)
        shape = tuple(kv.n_basis for kv in kvs)
        surf = TensorSpline(kvs, rng.normal(size=shape + (2,)), rng.uniform(0.5, 2.0, shape))
        axes = [off_knot_axis(rng, kvs[0], 80), off_knot_axis(rng, kvs[1], 5)]
        assert banded(kvs[0], axes[0], 2) and not banded(kvs[0], axes[0], 1)
        assert not banded(kvs[1], axes[1], 2)
        self.assert_matches_point_oracle(surf, axes)

    def test_anisotropic_rational_solid_in_dense_form(self):
        # The three basis counts and three point counts are six different
        # sizes, so a step that mixes up two axes' sizes or orders cannot pass.
        rng = np.random.default_rng(35)
        quadratic = KnotVector([0, 0, 0, 1, 1, 1], 2)
        kvs = (uniform_refine(CUBIC, 2), uniform_refine(quadratic, 1), CUBIC5)
        shape = tuple(kv.n_basis for kv in kvs)
        solid = TensorSpline(kvs, rng.normal(size=shape + (3,)), rng.uniform(0.5, 2.0, shape))
        axes = [off_knot_axis(rng, kv, count) for kv, count in zip(kvs, (5, 1, 6))]
        assert len(set(shape) | {len(a) for a in axes}) == 6
        assert not any(banded(kv, a, 2) for kv, a in zip(kvs, axes))
        self.assert_matches_point_oracle(solid, axes)

    def test_solid_with_only_the_middle_direction_banded(self):
        rng = np.random.default_rng(36)
        kvs = (CUBIC5, wide_knot_vector(300), CUBIC)
        shape = tuple(kv.n_basis for kv in kvs)
        solid = TensorSpline(kvs, rng.normal(size=shape + (2,)), rng.uniform(0.5, 2.0, shape))
        axes = [off_knot_axis(rng, kv, count) for kv, count in zip(kvs, (0, 220, 1))]
        assert banded(kvs[1], axes[1], 0)
        assert not banded(kvs[0], axes[0], 2) and not banded(kvs[2], axes[2], 2)
        self.assert_matches_point_oracle(solid, axes)

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_empty_axis_gives_empty_jets(self, empty):
        rng = np.random.default_rng(37)
        kvs = (CUBIC5, CUBIC, uniform_refine(CUBIC, 2))
        shape = tuple(kv.n_basis for kv in kvs)
        solid = TensorSpline(kvs, rng.normal(size=shape + (2,)), rng.uniform(0.5, 2.0, shape))
        axes = [np.array([]) if a == empty else np.array([0.25, 0.5, 0.75]) for a in range(3)]
        jet = solid.evaluate_lattice(axes, 2)
        lattice = tuple(len(a) for a in axes)
        assert jet.value.shape == lattice + (2,)
        assert jet.grad.shape == lattice + (3, 2) and jet.hess.shape == lattice + (3, 3, 2)

    def test_every_direction_banded_in_3d(self, monkeypatch):
        monkeypatch.setattr(splines, "DENSE_TABLE_LIMIT", 0)
        rng = np.random.default_rng(34)
        kvs = (CUBIC5, uniform_refine(KnotVector([0, 0, 0, 1, 1, 1], 2), 2), CUBIC)
        shape = tuple(kv.n_basis for kv in kvs)
        solid = TensorSpline(kvs, rng.normal(size=shape + (3,)), rng.uniform(0.5, 2.0, shape))
        axes = [off_knot_axis(rng, kv, count) for kv, count in zip(kvs, (3, 2, 4))]
        self.assert_matches_point_oracle(solid, axes)

    def test_local_support_exact_zero_in_band_form(self):
        # As test_local_support_exact_zero, on a field wide enough to be banded.
        kv = wide_knot_vector(1000)
        us = np.concatenate([np.linspace(0.0003, 0.9997, 997), [1.0]])
        assert banded(kv, us, 0)
        spans = kv.find_span(us)
        for i in (0, 1, 2, 3, 500, 996, 997, 998, 999):
            coeffs = np.zeros(kv.n_basis)
            coeffs[i] = 1.0
            value = TensorSpline.polynomial((kv,), coeffs).evaluate_lattice([us]).value[:, 0]
            outside = ~((spans - kv.degree <= i) & (i <= spans))
            assert np.all(value[outside] == 0.0)
            assert np.all(value[~outside] >= 0.0) and value[~outside].max() > 0.0

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_dense_tables_hold_the_local_tables_bit_for_bit(self, example):
        # Each order's dense (points x basis) table holds the local table
        # at columns first .. first + p of each point's row, and zeros.
        rng = np.random.default_rng(39)
        prob = EXAMPLES[example]()
        field = build_field(prob.geometry, [kv.n_basis + 5 for kv in prob.geometry.kvs])
        for kv in field.kvs:
            u = off_knot_axis(rng, kv, 40)
            first, local = splines._direction_tables(kv, u, 2)
            want = np.zeros((3, len(u), kv.n_basis))
            np.put_along_axis(want, (first[:, None] + np.arange(kv.degree + 1))[None], local, 2)
            assert np.array_equal(np.stack(splines._direction_operators(kv, u, 2)), want)

    def test_repeated_direction_tables_are_built_once(self, monkeypatch):
        rng = np.random.default_rng(38)
        kv = uniform_refine(CUBIC, 3)
        shape = (kv.n_basis, kv.n_basis)
        # Direction 1's knot vector and axis are equal copies, not the same objects.
        kvs = (kv, KnotVector(kv.knots.copy(), kv.degree))
        surf = TensorSpline(kvs, rng.normal(size=shape + (2,)), rng.uniform(0.5, 2.0, shape))
        axis = off_knot_axis(rng, kv, 6)
        build, calls = splines._direction_operators, []
        monkeypatch.setattr(
            splines, "_direction_operators", lambda *args: calls.append(args) or build(*args)
        )
        self.assert_matches_point_oracle(surf, [axis, axis.copy()])
        assert len(calls) == 3  # one per max_deriv
        surf.evaluate_lattice([axis, axis[1:]], 2)
        assert len(calls) == 5


class TestRowTable:
    @staticmethod
    def splines_of_the_examples():
        """Geometries and refined fields of examples I-V, and II's field with its own weights."""
        out = []
        for example in sorted(EXAMPLES):
            prob = EXAMPLES[example]()
            counts = [kv.n_basis + 3 for kv in prob.geometry.kvs]
            field = build_field(prob.geometry, counts, prob.field_components, prob.operator.order)
            out += [prob.geometry.spline, field]
        weights = field.weights * np.random.default_rng(40).uniform(0.7, 1.3, field.shape)
        return out + [TensorSpline(field.kvs, field.coeffs, weights)]

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_unit_coefficients_give_the_basis_jets(self, order):
        # Each jet entry's unit coefficients select that entry of the basis
        # jet, rational ones included; a mixed partial appears at (a, b)
        # and at (b, a).
        rng = np.random.default_rng(41)
        for spline in self.splines_of_the_examples():
            d = spline.dim
            lo = [kv.start for kv in spline.kvs]
            hi = [kv.end for kv in spline.kvs]
            theta = np.concatenate([[lo, hi], rng.uniform(lo, hi, (25, d))])
            entries = sum(d**k for k in range(order + 1))
            coeffs = np.broadcast_to(np.eye(entries)[:, :, None], (entries, entries, len(theta)))
            cols, table = spline.row_table(theta, coeffs)
            oracle = [point_basis_jets(spline, point) for point in theta]
            assert np.array_equal(cols, [ref[0] for ref in oracle])
            want = np.stack([
                np.concatenate([val[None], grad.T, hess.reshape(len(val), -1).T])
                for _, val, grad, hess in oracle
            ], axis=1)[:entries]
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(table - want) <= 1e-13 * np.maximum(scale, 1.0))

    def test_coefficients_of_other_entry_counts_rejected(self):
        surf = make_example("II").geometry.spline
        with pytest.raises(UnsupportedDerivativeError, match="got 4"):
            surf.row_table([[0.5, 0.5]], np.ones((4, 1)))


class TestBasisJetOrders:
    @pytest.mark.parametrize("part", ["geometry", "field"])
    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_lower_orders_match_the_full_jet(self, example, part):
        # The geometries and refined fields of examples I-V: d = 1..3,
        # rational (II) and polynomial, scalar and two-component. Row tables
        # of unit coefficients up to order 0 or 1 are the leading entries of
        # the order-2 table.
        prob = EXAMPLES[example]()
        spline = prob.geometry.spline
        if part == "field":
            counts = [kv.n_basis + 3 for kv in spline.kvs]
            spline = build_field(
                prob.geometry, counts, prob.field_components, prob.operator.order
            )
        rng = np.random.default_rng(8)
        lo = [kv.start for kv in spline.kvs]
        hi = [kv.end for kv in spline.kvs]
        theta = np.concatenate([[lo, hi], rng.uniform(lo, hi, (30, spline.dim))])
        d = spline.dim

        def units(entries):
            return np.broadcast_to(np.eye(entries)[:, :, None], (entries, entries, len(theta)))

        cols, table = spline.row_table(theta, units(1 + d + d * d))
        for entries in (1, 1 + d):
            lower_cols, lower = spline.row_table(theta, units(entries))
            assert np.array_equal(lower_cols, cols)
            assert np.array_equal(lower, table[:entries])

    @pytest.mark.parametrize("counts", [None, (15, 15), (60, 60)])
    def test_rational_values_are_normalised_weighted_products(self, counts):
        # The basis values predict reads: the weight times the tensor
        # product of the direction values, over their sum.
        prob = make_example("II")
        spline = prob.geometry.spline if counts is None else build_field(prob.geometry, counts)
        theta = np.random.default_rng(10).uniform(0.0, 1.0, (500, 2))
        cols, value = spline.row_table(theta, np.ones((1, 500)))
        u, v = (splines._direction_tables(kv, x, 0)[1][0] for kv, x in zip(spline.kvs, theta.T))
        num = spline.weights.reshape(-1)[cols] * (u[:, :, None] * v[:, None, :]).reshape(500, -1)
        assert np.allclose(value, num / num.sum(axis=1, keepdims=True), rtol=0, atol=1e-15)
        assert np.allclose(value.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("example, counts", [("I", 1000), ("III", 12), ("IV", (11, 18))])
    def test_polynomial_path_matches_the_quotient_rule(self, example, counts, order):
        # Weights all 2.0 make a rational spline equal to its unit-weight
        # twin: the Leibniz system must give what the B-spline writes
        # directly, in the row tables and in the lattice jets.
        prob = EXAMPLES[example]()
        field = build_field(prob.geometry, counts, prob.field_components, prob.operator.order)
        rng = np.random.default_rng(9)
        field = field.with_coefficients(rng.normal(size=field.coeffs.shape))
        twin = TensorSpline(field.kvs, field.coeffs, np.full(field.shape, 2.0))
        assert field.is_polynomial and not twin.is_polynomial
        lo = [kv.start for kv in field.kvs]
        hi = [kv.end for kv in field.kvs]
        theta = np.concatenate([[lo, hi], rng.uniform(lo, hi, (200, field.dim))])
        direct = basis_jets(field, theta, order)
        quotient = basis_jets(twin, theta, order)
        assert np.array_equal(direct[0], quotient[0])
        axes = [np.concatenate([[a, b], rng.uniform(a, b, 40)]) for a, b in zip(lo, hi)]
        jet, twin_jet = field.evaluate_lattice(axes, order), twin.evaluate_lattice(axes, order)
        pairs = list(zip(direct[1:], quotient[1:]))
        pairs += [(jet.value, twin_jet.value), (jet.grad, twin_jet.grad), (jet.hess, twin_jet.hess)]
        for got, want in pairs:
            if want is None:
                assert got is None
            else:
                scale = max(1.0, np.abs(want).max())
                assert np.allclose(got, want, rtol=0, atol=1e-13 * scale)
        assert np.allclose(direct[1].sum(axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", [-1, 3])
    def test_order_outside_0_to_2_rejected(self, order):
        # A curve's jet up to order k has k + 1 entries.
        curve = TensorSpline.polynomial((CUBIC,), CUBIC.greville_abscissae())
        with pytest.raises(UnsupportedDerivativeError, match=f"got {order + 1}"):
            curve.row_table([0.5], np.ones((order + 1, 1)))


class TestKnotInsertion:
    def test_boehm_golden_coefficients(self):
        curve = TensorSpline.polynomial((CUBIC,), np.array([0, 1 / 3, 2 / 3, 1.0]))
        inserted = curve.insert_knots(0, [0.5])
        assert np.allclose(
            inserted.coeffs.ravel(), [0, 1 / 6, 0.5, 5 / 6, 1], atol=1e-15
        )

    def test_curve_values_preserved(self):
        curve = TensorSpline.polynomial((CUBIC,), np.array([0, 1 / 3, 2 / 3, 1.0]))
        inserted = curve.insert_knots(0, [0.5])
        us = [0.1, 0.5, 0.9]
        assert np.abs(values_at(inserted, us) - values_at(curve, us)).max() < 1e-12

    def test_straight_line_stays_collinear(self):
        g = CUBIC.greville_abscissae()
        line = TensorSpline.polynomial(
            (CUBIC,), np.stack([1 + 2 * g, -3 + 5 * g], axis=-1)
        )
        refined = line.insert_knots(0, [0.3]).insert_knots(0, [0.7])
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
            inserted = spline.insert_knots(0, [u_new])
            us = rng.uniform(0, 1, 100)
            assert np.allclose(values_at(spline, us), values_at(inserted, us), atol=1e-10)

    def test_2d_insertion_preserves_surface(self):
        rng = np.random.default_rng(13)
        coeffs = rng.normal(size=(4, 4, 3))
        weights = rng.uniform(0.5, 2.0, (4, 4))
        surf = TensorSpline((CUBIC, CUBIC), coeffs, weights)
        refined = surf.insert_knots(1, [0.25]).insert_knots(0, [0.6])
        thetas = rng.uniform(0, 1, size=(50, 2))
        assert np.allclose(values_at(surf, thetas), values_at(refined, thetas), atol=1e-10)

    def test_multiplicity_overflow(self):
        curve = TensorSpline.polynomial((CUBIC,), np.zeros(4))
        s = curve
        for _ in range(3):
            s = s.insert_knots(0, [0.5])
        with pytest.raises(InvalidRefinementError):
            s.insert_knots(0, [0.5])

    def test_polynomial_spline_keeps_unit_weights(self):
        # Refinement rows sum to 1 only to roundoff, so a B-spline's weights
        # must not pass through them.
        rng = np.random.default_rng(5)
        surf = TensorSpline.polynomial((CUBIC5, CUBIC), rng.normal(size=(5, 4, 2)))
        refined = surf.insert_knots(0, rng.uniform(0, 1, 40)).refine_uniform((3, 50))
        assert refined.shape == (48, 54)
        assert np.array_equal(refined.weights, np.ones(refined.shape))
        thetas = rng.uniform(0, 1, size=(50, 2))
        assert np.allclose(values_at(surf, thetas), values_at(refined, thetas), atol=1e-12)

    def test_negative_uniform_count_rejected(self):
        surf = make_example("II").geometry.spline
        with pytest.raises(PreconditionError, match=">= 0, got -3"):
            surf.refine_uniform((-3, 2))

    @pytest.mark.parametrize(
        "knots,named",
        [([0.2, 0.5, 0.5, 0.5, 0.5], "0.5"), ([0.2, 1.0], "1.0"), ([0.3, np.nan], "nan")],
    )
    def test_several_knots_checked_at_once(self, knots, named):
        curve = TensorSpline.polynomial((CUBIC,), np.zeros(4))
        with pytest.raises(InvalidRefinementError, match=named):
            curve.insert_knots(0, knots)
