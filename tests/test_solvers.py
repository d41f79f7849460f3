"""Sparse solvers, their dense LAPACK oracles, and the closed-form flop model."""

import pickle
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_lu_solve, dense_normal_cholesky_solve, householder_qr_solve
from splinecol import CollocationSolver, make_example
from splinecol.errors import PreconditionError, RankDeficientError, SingularSystemError
from splinecol.solvers import flop_cost_model, solve_normal_equations, solve_square


class TestSolveSquare:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        report = solve_square(np.eye(3), b)
        assert np.allclose(report.coefficients, b)
        assert report.method == "gauss"

    def test_diagonal(self):
        report = solve_square(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        assert np.allclose(report.coefficients, [1.0, 2.0])

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(50, 50)) + 10 * np.eye(50)
        b = rng.normal(size=50)
        report = solve_square(A, b)
        assert report.residual_norm < 1e-10 * np.linalg.norm(b)
        assert report.flop_estimate == pytest.approx(2 * 50**3 / 3)
        assert report.condition_estimate is not None

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystemError):
            solve_square(A, np.array([1.0, 2.0]))

    def test_exactly_singular_names_what_it_can(self):
        # Dependent rows and columns but no empty one: SuperLU reports no step.
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularSystemError, match="zero pivot"):
            solve_square(sp.csr_array(A), np.ones(3))
        A[2, 2] = 0.0
        A[2, 0] = 1.0
        with pytest.raises(SingularSystemError, match="unknown 2 appears in no row"):
            solve_square(sp.csr_array(A), np.ones(3))

    def test_tiny_pivot_names_its_unknown(self):
        A = np.diag([1.0, 1e-17, 1.0])
        with pytest.raises(SingularSystemError, match=r"unknown 1\)"):
            solve_square(A, np.ones(3))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            solve_square(np.ones((3, 2)), np.ones(3))

    def test_tolerance_uses_the_one_norm(self):
        # ||A||_1 = |-4| + |2| = 6 is the sum of column 2, set off the
        # diagonal; the diagonal alone would give 3.
        A = np.array([[1.0, 0.0, -4.0], [0.0, 1e-17, 0.0], [3.0, 0.0, 2.0]])
        with pytest.raises(SingularSystemError, match=re.escape("||A|| = 6.000e-14")):
            solve_square(sp.csr_array(A), np.ones(3))


@pytest.mark.parametrize("solve", [solve_square, solve_normal_equations])
class TestMalformedInput:
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_right_hand_side_of_wrong_shape(self, solve, shape):
        with pytest.raises(PreconditionError, match=re.escape(f"shape {shape}")):
            solve(sp.csr_array(self.A), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_names_its_row(self, solve, bad):
        b = np.array([1.0, bad, bad])
        with pytest.raises(PreconditionError, match="right-hand side .* in row 1$"):
            solve(sp.csr_array(self.A), b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_entry_names_the_first(self, solve, bad):
        # Column-major storage meets (2, 1) first; the message names the
        # first bad entry in row-major order.
        A = self.A.copy()
        A[2, 1] = A[1, 2] = bad
        for stored in (sp.csr_array(A), sp.csc_array(A), A):
            with pytest.raises(PreconditionError, match="entry in row 1, column 2$"):
                solve(stored, np.ones(3))


class TestNormalEquations:
    def test_square_consistent_matches_gauss(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(20, 20)) + 5 * np.eye(20)
        b = rng.normal(size=20)
        x_gauss = solve_square(A, b).coefficients
        x_ls = solve_normal_equations(A, b).coefficients
        assert np.linalg.norm(x_ls - x_gauss) < 1e-8 * np.linalg.norm(x_gauss)

    def test_mean_of_observations(self):
        report = solve_normal_equations(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert np.isclose(report.coefficients[0], 1.0)
        assert np.isclose(report.residual_norm, np.sqrt(2.0))

    def test_against_householder_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(60, 20))
        b = rng.normal(size=60)
        x = solve_normal_equations(A, b).coefficients
        x_qr = householder_qr_solve(A, b)
        assert np.linalg.norm(x - x_qr) < 1e-8 * np.linalg.norm(x_qr)

    def test_flop_estimate(self):
        rng = np.random.default_rng(3)
        report = solve_normal_equations(rng.normal(size=(16, 10)), rng.normal(size=16))
        assert report.flop_estimate == pytest.approx(16 * 100 + 1000 / 3)

    def test_normal_residual_optimality(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(80, 25))
        b = rng.normal(size=80)
        report = solve_normal_equations(A, b)
        assert report.normal_residual_norm <= 1e-8 * np.linalg.norm(A.T @ b)

    def test_least_squares_optimality_under_perturbation(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(40, 12))
        b = rng.normal(size=40)
        x = solve_normal_equations(A, b).coefficients
        base = np.linalg.norm(A @ x - b) ** 2
        for _ in range(20):
            d = rng.normal(size=12)
            d *= 1e-4 / np.linalg.norm(d)
            assert np.linalg.norm(A @ (x + d) - b) ** 2 >= base - 1e-12

    def test_consistent_rows_keep_the_solution(self):
        rng = np.random.default_rng(6)
        x_star = rng.normal(size=15)
        A1 = rng.normal(size=(40, 15))
        sol1 = solve_normal_equations(A1, A1 @ x_star).coefficients
        A2 = np.vstack([A1, rng.normal(size=(20, 15))])
        sol2 = solve_normal_equations(A2, A2 @ x_star).coefficients
        assert np.linalg.norm(sol1 - x_star) < 1e-8 * np.linalg.norm(x_star)
        assert np.linalg.norm(sol2 - x_star) < 1e-8 * np.linalg.norm(x_star)

    def test_rank_deficient_reports_pivot(self):
        A = np.ones((6, 3))
        A[:, 2] = A[:, 0]  # duplicate column
        with pytest.raises(RankDeficientError) as err:
            solve_normal_equations(A, np.ones(6))
        assert err.value.pivot_index in range(3)
        assert f"(unknown {err.value.pivot_index})" in str(err.value)

    def test_duplicate_column_is_named(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(30, 8))
        A[:, 5] = A[:, 2]
        with pytest.raises(RankDeficientError) as err:
            solve_normal_equations(sp.csr_array(A), rng.normal(size=30))
        assert err.value.pivot_index in (2, 5)

    def test_zero_column_names_the_unknown(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(12, 5))
        A[:, 3] = 0.0
        with pytest.raises(RankDeficientError, match="unknown 3 appears in no row") as err:
            solve_normal_equations(sp.csr_array(A), np.ones(12))
        assert err.value.pivot_index == 3
        assert pickle.loads(pickle.dumps(err.value)).pivot_index == 3

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            solve_normal_equations(np.ones((2, 3)), np.ones(2))

    def test_near_dependent_column_is_named(self):
        # The computed pivot of unknown 5 is roundoff, positive or not; both
        # the tolerance and the breakdown branch name the same unknown.
        rng = np.random.default_rng(9)
        A = rng.normal(size=(30, 8))
        A[:, 5] = A[:, 2] + 1e-10 * rng.normal(size=30)
        with pytest.raises(RankDeficientError, match=r"\(unknown 5\)") as err:
            solve_normal_equations(sp.csr_array(A), rng.normal(size=30))
        assert err.value.pivot_index == 5
        assert pickle.loads(pickle.dumps(err.value)).pivot_index == 5

    def test_pivot_below_tolerance_is_named(self):
        # G is the identity but for G[2, 5] = G[5, 2] = 1 and G[5, 5] = 1 + 2**-48,
        # all exact, so step 6 meets the positive pivot 2**-48 < 1e-14 G[5, 5].
        A = np.eye(9, 8)
        A[:, 5] = 0.0
        A[2, 5], A[8, 5] = 1.0, 2.0**-24
        message = r"at step 6 \(unknown 5\) below tolerance"
        with pytest.raises(RankDeficientError, match=message) as err:
            solve_normal_equations(sp.csr_array(A), np.ones(9))
        assert err.value.pivot_index == 5
        restored = pickle.loads(pickle.dumps(err.value))
        assert (str(restored), restored.pivot_index) == (str(err.value), 5)

    def test_breakdown_in_leading_block_is_named(self):
        # Columns 0 and 1 are equal with G[0, 0] = 4: the second pivot is 4 - 2**2 = 0.
        A = np.zeros((5, 4))
        A[:4, :2] = 1.0
        A[1:, 2] = A[[1, 2, 4], 3] = 1.0
        message = r"not positive definite at step 2 \(unknown 1\)"
        with pytest.raises(RankDeficientError, match=message) as err:
            solve_normal_equations(sp.csr_array(A), np.ones(5))
        assert err.value.pivot_index == 1
        assert pickle.loads(pickle.dumps(err.value)).pivot_index == 1


@st.composite
def square_sparse_systems(draw):
    """Diagonally dominant sparse square systems with a random pattern."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = sp.random_array((n, n), density=draw(st.floats(0.05, 0.5)), rng=rng)
    A = sp.csr_array(A + sp.diags_array(np.abs(A).sum(axis=1) + 1.0))
    return A, rng.normal(size=n)


@settings(max_examples=40, deadline=None)
@given(case=square_sparse_systems())
def test_square_least_squares_matches_lu(case):
    A, b = case
    x_lu = solve_square(A, b).coefficients
    x_ls = solve_normal_equations(A, b).coefficients
    assert np.linalg.norm(x_ls - x_lu) <= 1e-10 * np.linalg.norm(x_lu)


# Collocation systems of the examples, from a square 3D one to the beam
# whose normal equations have cond(A^T A) of about 6e9.
ORACLE_CASES = [
    ("II", "igal_variable", 30, None),
    ("III", "igac", 8, None),
    ("III", "igal_variable", 8, None),
    ("IV", "igal_fixed", 11, 18),
    ("I", "igal_variable", 1000, None),
]


@pytest.mark.parametrize("example,method,n,m", ORACLE_CASES)
def test_sparse_solvers_match_dense_lapack(example, method, n, m):
    fit = CollocationSolver(method=method, n_per_dir=n, m_per_dir=m).fit(make_example(example))
    system, report = fit.system_, fit.solve_report_
    oracle = dense_lu_solve if method == "igac" else dense_normal_cholesky_solve
    x, cond = oracle(system.matrix, system.rhs)
    assert np.linalg.norm(report.coefficients - x) <= 1e-10 * np.linalg.norm(x)
    assert cond / 3 <= report.condition_estimate <= 3 * cond


def half_bandwidth(A):
    """Largest j - i over the nonzeros G[i, j] of G = A^T A."""
    G = sp.coo_array(A.T @ A)
    return int((G.col - G.row).max())


# Half-bandwidths of G that the band factor's cost rests on; a reordering
# of the unknowns that widened them would slow every least-squares fit.
BAND_CASES = [
    ("II", "igal_variable", 60, None, 183),
    ("III", "igal_variable", 12, None, 471),
    ("IV", "igal_fixed", 11, 18, 73),
]


@pytest.mark.parametrize("example,method,n,m,kd", BAND_CASES)
def test_normal_equations_half_bandwidth(example, method, n, m, kd):
    fit = CollocationSolver(method=method, n_per_dir=n, m_per_dir=m).fit(make_example(example))
    field = fit.field_
    c, p, counts = field.ncomp, field.degrees[0], field.shape
    # Lexicographic coefficients with interleaved components.
    strides = [int(np.prod(counts[a + 1 :])) for a in range(len(counts))]
    assert half_bandwidth(fit.system_.csr) == kd == c * p * sum(strides) + c - 1


@pytest.mark.parametrize("example,n", [("II", 12), ("III", 5)])
def test_permuted_unknowns_match_qr(example, n):
    # A random column order widens G's band to nearly full; the answer must not change.
    fit = CollocationSolver(method="igal_variable", n_per_dir=n).fit(make_example(example))
    A, b = fit.system_.csr, fit.system_.rhs
    perm = np.random.default_rng(10).permutation(A.shape[1])
    assert half_bandwidth(A[:, perm]) > 0.9 * A.shape[1]
    x = solve_normal_equations(A[:, perm], b).coefficients
    x_qr = householder_qr_solve(A.toarray()[:, perm], b)
    assert np.linalg.norm(x - x_qr) <= 1e-10 * np.linalg.norm(x_qr)


class TestCostModel:
    """Golden values for the closed-form operation counts."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_scalar_tables(self, p):
        s = p + 1
        for d, first, second, basis, total in [
            (1, s, 3 * s, 35 * s + 1, 35 * s + 1),
            (2, 5 * s**2 + 4, 24 * s**2 + 16, 124 * s**2 + 33, 125 * s**2 + 33),
            (3, 12 * s**3 + 16, 87 * s**3 + 140, 302 * s**3 + 219, 304 * s**3 + 219),
        ]:
            model = flop_cost_model(d, p, 10, 12, "scalar")
            assert model.first_derivs == first
            assert model.second_derivs == second
            assert model.basis_total == basis
            assert model.point_total == total
            assert model.navier_global is None

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_vector_tables(self, p):
        s = p + 1
        for d, navier, total in [
            (1, s, 36 * s + 1),
            (2, 12 * s**2, 134 * s**2 + 33),
            (3, 21 * s**3, 323 * s**3 + 219),
        ]:
            model = flop_cost_model(d, p, 10, 12, "vector")
            assert model.navier_global == navier
            assert model.point_total == total

    def test_bracketed_variants(self):
        s = 4
        m1 = flop_cost_model(1, 3, 10, 12, "scalar", bracketed=True)
        assert m1.basis_total == 35 * s + 2
        m2 = flop_cost_model(2, 3, 10, 12, "vector", bracketed=True)
        assert m2.point_total == 136 * s**2 + 37
        assert m2.second_derivs == 24 * s**2 + 20
        m3 = flop_cost_model(3, 3, 10, 12, "scalar", bracketed=True)
        assert m3.first_derivs == 12 * s**3 + 20
        assert m3.basis_total == 302 * s**3 + 223

    def test_reference_examples(self):
        assert flop_cost_model(1, 3, 10, 16, "scalar").point_total == 141
        assert flop_cost_model(2, 3, 10, 16, "vector").point_total == 2177
        model = flop_cost_model(1, 3, 10, 16, "scalar")
        assert model.solve_igal == pytest.approx(16 * 100 + 1000 / 3)
        assert model.solve_igac == pytest.approx(2 * 1000 / 3)

    def test_solve_costs_scale_with_dimension(self):
        model = flop_cost_model(2, 3, 5, 7, "scalar")
        assert model.solve_igac == pytest.approx(2 * 5**6 / 3)
        assert model.solve_igal == pytest.approx(7**2 * 5**4 + 5**6 / 3)
        model = flop_cost_model(3, 3, 5, 7, "scalar")
        assert model.solve_igac == pytest.approx(2 * 5**9 / 3)
        assert model.solve_igal == pytest.approx(7**3 * 5**6 + 5**9 / 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            flop_cost_model(4, 3, 5, 7)
        with pytest.raises(ValueError):
            flop_cost_model(2, 3, 5, 7, "tensor")
