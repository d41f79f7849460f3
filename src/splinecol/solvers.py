"""Dense direct solvers and the flop cost model.

Square interpolatory systems are solved by Gaussian elimination with
partial pivoting; overdetermined least-squares systems by forming the
normal equations and Cholesky-factorizing them. Both report a flop
estimate from the closed-form cost model and a cheap 1-norm condition
estimate of the factorized matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import RankDeficientError, SingularSystemError

PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class SolveReport:
    """Result of one dense solve."""

    coefficients: np.ndarray
    residual_norm: float
    method: str  # "gauss" | "normal_cholesky"
    flop_estimate: float
    condition_estimate: float | None = None
    normal_residual_norm: float | None = None


def solve_square(A, b) -> SolveReport:
    """Solve a square system by LU with partial pivoting.

    Raises :class:`SingularSystemError` when a pivot falls below
    1e-14 * ||A||_1; ill-conditioned but factorizable systems solve and are
    left to downstream error metrics to flag.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    anorm = np.linalg.norm(A, 1)
    lu, piv, info = lapack.dgetrf(A)
    if info > 0:
        raise SingularSystemError(f"exact zero pivot at elimination step {info}")
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_TOL * anorm:
        k = int(np.argmin(pivots))
        raise SingularSystemError(
            f"pivot {pivots[k]:.3e} at step {k + 1} below tolerance "
            f"{PIVOT_TOL:.0e} * ||A|| = {PIVOT_TOL * anorm:.3e}"
        )
    x, info = lapack.dgetrs(lu, piv, b)
    if info != 0:
        raise SingularSystemError(f"triangular solve failed (info={info})")
    rcond, _ = lapack.dgecon(lu, anorm)
    residual = float(np.linalg.norm(A @ x - b))
    return SolveReport(
        coefficients=x,
        residual_norm=residual,
        method="gauss",
        flop_estimate=2.0 * n**3 / 3.0,
        condition_estimate=float(1.0 / rcond) if rcond > 0 else np.inf,
    )


def solve_normal_equations(A, b) -> SolveReport:
    """Least-squares solve of an m >= n system via the normal equations.

    Forms G = A^T A and c = A^T b and Cholesky-factorizes G. A breakdown
    (non-positive pivot) raises :class:`RankDeficientError` carrying the
    pivot index. The reported condition estimate refers to G, whose
    condition number is the square of A's.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if m < n:
        raise ValueError(f"need at least as many rows as unknowns, got {A.shape}")
    G = A.T @ A
    rhs = A.T @ b
    gnorm = np.linalg.norm(G, 1)
    chol, info = lapack.dpotrf(G, lower=1)
    if info > 0:
        raise RankDeficientError(
            f"normal equations not positive definite at pivot {info}",
            pivot_index=int(info),
        )
    if info < 0:
        raise ValueError(f"invalid argument {-info} to Cholesky factorization")
    x, info = lapack.dpotrs(chol, rhs, lower=1)
    if info != 0:
        raise RankDeficientError(f"Cholesky solve failed (info={info})")
    # Two sweeps of iterative refinement claw back accuracy lost to the
    # squared condition number of the normal equations.
    for _ in range(2):
        r = A.T @ (b - A @ x)
        dx, info = lapack.dpotrs(chol, r, lower=1)
        if info != 0:
            break
        x = x + dx
    rcond, _ = lapack.dpocon(chol, gnorm, uplo=b"L")
    residual = A @ x - b
    return SolveReport(
        coefficients=x,
        residual_norm=float(np.linalg.norm(residual)),
        method="normal_cholesky",
        flop_estimate=float(m) * n**2 + n**3 / 3.0,
        condition_estimate=float(1.0 / rcond) if rcond > 0 else np.inf,
        normal_residual_norm=float(np.linalg.norm(A.T @ residual)),
    )


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
    (normal equations plus Cholesky).
    """
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if problem_kind not in ("scalar", "vector"):
        raise ValueError("problem_kind must be 'scalar' or 'vector'")
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
