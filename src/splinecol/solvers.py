"""Sparse direct solvers and the flop cost model.

Both solvers take the collocation matrix as a sparse array (a dense one
is converted). Square interpolatory systems get a SuperLU factor with
partial pivoting in SuperLU's symmetric mode, ordered by minimum degree
on the pattern of A + A^T, which suits their lattice row order.
Overdetermined least-squares systems form G = A^T A, which the lattice
order of the unknowns keeps banded, and factor it by LAPACK's band
Cholesky (``dpbtrf``); two refinement sweeps against A then make this
Björck's corrected semi-normal equations. Both report a flop estimate
from the closed-form cost model and a Hager-Higham 1-norm condition
estimate of the factored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .errors import PreconditionError, RankDeficientError, SingularSystemError

PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class SolveReport:
    """Result of one sparse direct solve."""

    coefficients: np.ndarray
    residual_norm: float
    method: str  # "gauss" | "normal_cholesky"
    flop_estimate: float  # dense count of the closed-form cost model
    condition_estimate: float | None = None
    normal_residual_norm: float | None = None


def solve_square(A, b) -> SolveReport:
    """Solve a square system by sparse LU with partial pivoting.

    SuperLU runs in its symmetric mode, with a minimum-degree ordering of
    the pattern of A + A^T applied to rows and columns alike. That suits
    collocation systems, whose rows come in lattice order so that point i
    pairs with basis function i and the diagonal is zero-free; the pivot
    threshold stays at 1, so the factor still pivots fully by rows.

    Raises :class:`PreconditionError` for a non-square A, a right-hand side
    that is not a vector with one entry per row and a non-finite entry of A
    or b, and :class:`SingularSystemError` when SuperLU meets an exactly zero
    pivot or a pivot falls below 1e-14 * ||A||_1; ill-conditioned but
    factorizable systems solve and are left to downstream error metrics to
    flag.
    """
    A = sp.csc_array(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {A.shape}")
    b = _checked_system(A, b)
    n = A.shape[0]
    column = np.repeat(np.arange(n), np.diff(A.indptr))
    anorm = float(np.bincount(column, np.abs(A.data), minlength=n).max())
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(_exactly_singular(A)) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() < PIVOT_TOL * anorm:
        k = int(np.argmin(pivots))
        raise SingularSystemError(
            f"pivot {pivots[k]:.3e} at step {k + 1} (unknown {_elimination_order(lu)[k]}) "
            f"below tolerance {PIVOT_TOL:.0e} * ||A|| = {PIVOT_TOL * anorm:.3e}"
        )
    x = lu.solve(b)
    residual = float(np.linalg.norm(A @ x - b))
    return SolveReport(
        coefficients=x,
        residual_norm=residual,
        method="gauss",
        flop_estimate=2.0 * n**3 / 3.0,
        condition_estimate=_condition_estimate(
            n, lu.solve, lambda y: lu.solve(y, trans="T"), anorm
        ),
    )


def solve_normal_equations(A, b) -> SolveReport:
    """Least-squares solve of an m >= n system via the normal equations.

    Forms G = A^T A and c = A^T b and factors G by band Cholesky in the
    natural order. Fewer rows than unknowns, a right-hand side that is not
    a vector with one entry per row, or a non-finite entry of A or b, raises
    :class:`PreconditionError`. An unknown that no row touches, a pivot
    below 1e-14 times its diagonal entry or a non-positive pivot raises
    :class:`RankDeficientError` naming its unknown. The reported condition
    estimate refers to G, whose condition number is the square of A's.
    """
    A = sp.csr_array(A, dtype=float)
    m, n = A.shape
    if m < n:
        raise PreconditionError(f"need at least as many rows as unknowns, got {A.shape}")
    b = _checked_system(A, b)
    G = sp.coo_array(A.T @ A)
    gnorm = float(np.bincount(G.col, np.abs(G.data), minlength=n).max())
    # LAPACK upper band storage: G[i, j] with i <= j goes to ab[kd + i - j, j].
    upper = G.row <= G.col
    row, col = G.row[upper], G.col[upper]
    kd = int(np.max(col - row, initial=0))
    ab = np.zeros((kd + 1, n), order="F")
    ab[kd + row - col, col] = G.data[upper]
    diag = ab[kd].copy()
    if not diag.all():
        j = int(np.argmin(diag != 0))
        raise RankDeficientError(f"unknown {j} appears in no row of the system", pivot_index=j)
    factor, info = lapack.dpbtrf(ab, lower=0, overwrite_ab=1)
    # Only the pivots before a breakdown at step info are factored.
    steps = info - 1 if info > 0 else n
    pivots = factor[kd, :steps] ** 2
    small = pivots < PIVOT_TOL * diag[:steps]
    if small.any():
        k = int(np.argmax(small))
        raise RankDeficientError(
            f"pivot {pivots[k]:.3e} at step {k + 1} (unknown {k}) below tolerance "
            f"{PIVOT_TOL:.0e} * G[{k}, {k}] = {PIVOT_TOL * diag[k]:.3e}",
            pivot_index=k,
        )
    if info > 0:
        raise RankDeficientError(
            f"normal equations not positive definite at step {info} (unknown {info - 1})",
            pivot_index=info - 1,
        )

    def solve(y):
        return lapack.dpbtrs(factor, y)[0]

    x = solve(A.T @ b)
    # Two sweeps of iterative refinement against A claw back accuracy lost
    # to the squared condition number of the normal equations.
    for _ in range(2):
        x = x + solve(A.T @ (b - A @ x))
    residual = A @ x - b
    return SolveReport(
        coefficients=x,
        residual_norm=float(np.linalg.norm(residual)),
        method="normal_cholesky",
        flop_estimate=float(m) * n**2 + n**3 / 3.0,
        # G is symmetric, so the band solve is its own transpose.
        condition_estimate=_condition_estimate(n, solve, solve, gnorm),
        normal_residual_norm=float(np.linalg.norm(A.T @ residual)),
    )


def _checked_system(A, b):
    """``b`` as a float vector, once it and the stored entries of sparse ``A`` are usable.

    Raises :class:`PreconditionError` for a ``b`` that is not a vector with
    one entry per row of ``A``, and otherwise names the first non-finite
    entry of A (in row-major order) or of b.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],):
        raise PreconditionError(
            f"right-hand side of shape {b.shape} for a system with {A.shape[0]} rows; "
            f"expected shape ({A.shape[0]},)"
        )
    if not np.isfinite(A.data).all():
        coo = A.tocoo()
        bad = ~np.isfinite(coo.data)
        i, j = min(zip(coo.row[bad].tolist(), coo.col[bad].tolist()))
        raise PreconditionError(f"non-finite matrix entry in row {i}, column {j}")
    finite = np.isfinite(b)
    if not finite.all():
        i = int(np.argmin(finite))
        raise PreconditionError(f"non-finite right-hand side {b[i]} in row {i}")
    return b


def _elimination_order(lu):
    """Unknowns (columns of the factored matrix) in the order the factor eliminates them."""
    return np.argsort(lu.perm_c)


def _exactly_singular(A):
    """Message for a square CSC matrix that SuperLU found exactly singular.

    Names an unknown that no row touches, else a row without entries;
    otherwise SuperLU does not report the step of the zero pivot.
    """
    nonzero = A.data != 0
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))[nonzero]
    untouched = np.setdiff1d(np.arange(A.shape[1]), cols)
    if untouched.size:
        return f"unknown {untouched[0]} appears in no row of the system"
    empty = np.setdiff1d(np.arange(A.shape[0]), A.indices[nonzero])
    if empty.size:
        return f"row {empty[0]} of the system is zero"
    return "exactly zero pivot; SuperLU does not report its step"


def _condition_estimate(n, solve, solve_transposed, matrix_norm):
    """1-norm condition estimate ||M||_1 ||M^-1||_1 of a factored n x n matrix M.

    ``onenormest`` with one probe vector (Hager and Higham's estimator, as
    in LAPACK's xGECON) applies the factor's solves with M and M^T and
    draws no random numbers, so the estimate is deterministic.
    """
    inverse = LinearOperator((n, n), matvec=solve, rmatvec=solve_transposed, dtype=float)
    return float(matrix_norm * onenormest(inverse, t=1))


# ---------------------------------------------------------------------------
# closed-form flop counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Closed-form flop counts for one collocation point and for the solves.

    Per-point counts cover forming the local rows, which costs the same
    for interpolatory and least-squares collocation; ``bracketed`` selects
    the alternate constants quoted from earlier flop-count studies instead
    of the primary ones.
    """

    dimension: int
    degree: int
    n_per_dir: int
    m_per_dir: int
    problem_kind: str
    first_derivs: float
    second_derivs: float
    basis_total: float
    navier_global: float | None
    point_total: float
    solve_igac: float
    solve_igal: float


def flop_cost_model(
    dimension: int,
    degree: int,
    n: int,
    m: int,
    problem_kind: str = "scalar",
    bracketed: bool = False,
) -> CostModel:
    """Evaluate the cost model for a d-dimensional scalar or vector problem.

    ``n`` and ``m`` are per-direction control-point and collocation-point
    counts. The square solve costs 2 n^{3d} / 3 flops (Gaussian
    elimination); the least-squares solve costs m^d n^{2d} + n^{3d} / 3
    (normal equations plus Cholesky). These are dense counts, kept as the
    reference model; the factors of :func:`solve_square` and
    :func:`solve_normal_equations` do far less work.
    """
    if dimension not in (1, 2, 3):
        raise PreconditionError("dimension must be 1, 2 or 3")
    if problem_kind not in ("scalar", "vector"):
        raise PreconditionError("problem_kind must be 'scalar' or 'vector'")
    s = degree + 1

    if dimension == 1:
        first = s
        second = 3 * s
        basis = 35 * s + (2 if bracketed else 1)
        navier = s
        point_scalar = 35 * s + (2 if bracketed else 1)
        point_vector = 36 * s + (2 if bracketed else 1)
    elif dimension == 2:
        first = 5 * s**2 + 4
        second = 24 * s**2 + (20 if bracketed else 16)
        basis = 124 * s**2 + (37 if bracketed else 33)
        navier = 12 * s**2
        point_scalar = 125 * s**2 + (37 if bracketed else 33)
        point_vector = (136 if bracketed else 134) * s**2 + (37 if bracketed else 33)
    else:
        first = 12 * s**3 + (20 if bracketed else 16)
        second = 87 * s**3 + 140
        basis = 302 * s**3 + (223 if bracketed else 219)
        navier = 21 * s**3
        point_scalar = 304 * s**3 + (223 if bracketed else 219)
        point_vector = 323 * s**3 + (223 if bracketed else 219)

    vector = problem_kind == "vector"
    nd = float(n) ** dimension
    md = float(m) ** dimension
    return CostModel(
        dimension=dimension,
        degree=degree,
        n_per_dir=n,
        m_per_dir=m,
        problem_kind=problem_kind,
        first_derivs=float(first),
        second_derivs=float(second),
        basis_total=float(basis),
        navier_global=float(navier) if vector else None,
        point_total=float(point_vector if vector else point_scalar),
        solve_igac=2.0 * nd**3 / 3.0,
        solve_igal=md * nd**2 + nd**3 / 3.0,
    )
