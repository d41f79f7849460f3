"""Independent reference implementations used only by the test suite.

These are deliberately naive: the recursive Cox-de Boor definition, the
textbook derivative recursion, finite differences, a hand-rolled
Householder QR, dense LAPACK LU and Cholesky solves, scipy's ``onenormest``
condition estimate, a best-approximation
fit, per-point spline, pullback and assembly code, LAPACK Jacobian
determinants and inverses with einsum chain-rule pushes, single-knot
insertion, and the package's earlier vectorised basis kernel. They share no code with the package so they can serve as
oracles for it. The last section holds four small
helpers that are built on the package instead: the local basis table of a
knot vector, a knot-vector fixture builder, the L2 norm under the
quadrature of ``error_report`` and the knot vectors and weights of a
whole refined geometry.
"""

import itertools
from functools import reduce

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, onenormest

from splinecol.errors import UnsupportedDerivativeError
from splinecol.geometry import lattice_pullbacks
from splinecol.metrics import quadrature_rule
from splinecol.splines import _direction_tables


def naive_basis(knots, p, i, u):
    """Recursive B-spline basis N_{i,p}(u) straight from the definition.

    Uses half-open intervals, so it is exact only for u strictly below the
    last knot; tests sample interior parameters.
    """
    knots = np.asarray(knots, dtype=float)
    if p == 0:
        return 1.0 if knots[i] <= u < knots[i + 1] else 0.0
    left = 0.0
    den = knots[i + p] - knots[i]
    if den > 0:
        left = (u - knots[i]) / den * naive_basis(knots, p - 1, i, u)
    right = 0.0
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0:
        right = (knots[i + p + 1] - u) / den * naive_basis(knots, p - 1, i + 1, u)
    return left + right


def naive_basis_deriv(knots, p, i, u, order):
    """k-th derivative of N_{i,p} via the classical derivative recursion."""
    if order == 0:
        return naive_basis(knots, p, i, u)
    knots = np.asarray(knots, dtype=float)
    left = 0.0
    den = knots[i + p] - knots[i]
    if den > 0:
        left = p / den * naive_basis_deriv(knots, p - 1, i, u, order - 1)
    right = 0.0
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0:
        right = p / den * naive_basis_deriv(knots, p - 1, i + 1, u, order - 1)
    return left - right


def all_basis_derivs(knots, p, u, order):
    """Row of all n basis-function derivatives of a given order at u."""
    n = len(knots) - p - 1
    return np.array([naive_basis_deriv(knots, p, i, u, order) for i in range(n)])


def fd_gradient(f, x, step=1e-6):
    """Central-difference gradient of a scalar or vector function of x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step))
    return np.stack(cols, axis=0)


def fd_hessian(f, x, step=1e-4):
    """Central-difference Hessian (per component) of f at x."""
    x = np.asarray(x, dtype=float)
    d = x.size
    f0 = np.asarray(f(x))
    hess = np.empty((d, d) + f0.shape)
    for a in range(d):
        for b in range(d):
            ea = np.zeros_like(x)
            eb = np.zeros_like(x)
            ea[a] = step
            eb[b] = step
            if a == b:
                hess[a, b] = (
                    np.asarray(f(x + ea)) - 2 * f0 + np.asarray(f(x - ea))
                ) / step**2
            else:
                hess[a, b] = (
                    np.asarray(f(x + ea + eb))
                    - np.asarray(f(x + ea - eb))
                    - np.asarray(f(x - ea + eb))
                    + np.asarray(f(x - ea - eb))
                ) / (4 * step**2)
    return hess


def householder_qr_solve(A, b):
    """Least-squares solve via Householder QR, written from scratch."""
    R = np.array(A, dtype=float)
    y = np.array(b, dtype=float)
    m, n = R.shape
    if m < n:
        raise ValueError("need m >= n")
    for k in range(n):
        x = R[k:, k]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            raise ValueError("rank deficient column")
        alpha = -np.sign(x[0]) * normx if x[0] != 0 else -normx
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        R[k:, k:] -= 2.0 * np.outer(v, v @ R[k:, k:])
        y[k:] -= 2.0 * v * (v @ y[k:])
    sol = np.zeros(n)
    for i in range(n - 1, -1, -1):
        sol[i] = (y[i] - R[i, i + 1 : n] @ sol[i + 1 :]) / R[i, i]
    return sol


def dense_lu_solve(A, b):
    """Dense LU with partial pivoting (LAPACK dgetrf) and its dgecon condition estimate.

    Returns ``(x, cond)`` with cond the 1-norm condition estimate of A.
    """
    A = np.array(A, dtype=float)
    anorm = np.linalg.norm(A, 1)
    lu, piv, info = lapack.dgetrf(A)
    if info != 0:
        raise ValueError(f"dgetrf failed (info={info})")
    x, info = lapack.dgetrs(lu, piv, np.asarray(b, dtype=float))
    rcond, _ = lapack.dgecon(lu, anorm)
    return x, 1.0 / rcond


def dense_normal_cholesky_solve(A, b):
    """Normal equations by dense Cholesky (dpotrf), two refinement sweeps against A.

    Returns ``(x, cond)`` with cond the dpocon 1-norm condition estimate of
    A^T A.
    """
    A = np.array(A, dtype=float)
    b = np.asarray(b, dtype=float)
    G = A.T @ A
    chol, info = lapack.dpotrf(G, lower=1)
    if info != 0:
        raise ValueError(f"dpotrf failed (info={info})")
    x, _ = lapack.dpotrs(chol, A.T @ b, lower=1)
    for _ in range(2):
        dx, _ = lapack.dpotrs(chol, A.T @ (b - A @ x), lower=1)
        x = x + dx
    rcond, _ = lapack.dpocon(chol, np.linalg.norm(G, 1), uplo=b"L")
    return x, 1.0 / rcond


def onenormest_condition(n, solve, solve_transposed, matrix_norm):
    """``matrix_norm`` times scipy's ``onenormest`` (one probe vector) of an inverse.

    ``solve`` and ``solve_transposed`` apply the inverse of a factored
    n x n matrix and of its transpose.
    """
    inverse = LinearOperator((n, n), matvec=solve, rmatvec=solve_transposed, dtype=float)
    return float(matrix_norm * onenormest(inverse, t=1))


def best_l2_relative_error(knot_vectors, weights, axes, target, measure):
    """Relative L2 error of the best approximation of ``target`` by a NURBS space.

    The space is spanned by the tensor rational basis
    R_I = w_I N_I / sum_J w_J N_J, built from :func:`naive_basis` on the
    ``(knots, degree)`` pair of each direction and the control ``weights``
    (shape (n1, ..., nd)). ``axes`` holds the per-direction parameters of a
    quadrature lattice (strictly inside the knot range), ``target`` the
    function's values at its points in C order and ``measure`` the matching
    quadrature weights, Jacobian included. The least-squares fit is solved
    with :func:`householder_qr_solve`.
    """
    tables = [
        np.array([[naive_basis(knots, p, i, u) for i in range(len(knots) - p - 1)]
                  for u in ax])
        for (knots, p), ax in zip(knot_vectors, axes)
    ]
    basis = reduce(np.kron, tables) * np.ravel(weights)
    basis /= basis.sum(axis=1, keepdims=True)
    target = np.asarray(target, dtype=float)
    root = np.sqrt(measure)
    coeffs = householder_qr_solve(basis * root[:, None], target * root)
    residual = target - basis @ coeffs
    return float(np.sqrt(np.sum(measure * residual**2) / np.sum(measure * target**2)))


# ---------------------------------------------------------------------------
# Per-point reference evaluation and assembly
#
# The package evaluates splines, geometry and collocation rows in batches.
# The functions below do the same one parametric point at a time, with
# their own scalar copy of the basis recursion. They read only the data of
# package objects (knots, degrees, coefficients, weights, callbacks,
# ``operator.apply``), never its evaluation code.
# ---------------------------------------------------------------------------


def point_find_span(knots, p, u):
    """Index i with knots[i] <= u < knots[i+1]; the right end maps to the last span."""
    knots = np.asarray(knots, dtype=float)
    if not (knots[0] <= u <= knots[-1]):
        raise ValueError(f"parameter {u!r} outside the knot range")
    span = int(np.searchsorted(knots, u, side="right")) - 1
    return min(max(span, p), len(knots) - p - 2)


def point_basis_ders(knots, p, span, u, n_ders):
    """Scalar The NURBS Book A2.3: (n_ders+1, p+1) derivatives at one parameter.

    Orders above the degree are zero.
    """
    ndu = np.empty((p + 1, p + 1))
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((n_ders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, min(n_ders, p) + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    r = p
    for k in range(1, min(n_ders, p) + 1):
        ders[k, :] *= r
        r *= p - k
    return ders


def vectorised_basis_ders(knots, p, spans, u, n_ders):
    """The NURBS Book A2.3 over arrays of parameters: (m, n_ders+1, p+1), n_ders <= p.

    The package's basis kernel before its row-block recurrences, kept as
    the reference for that path. The loops run over r, k and j with one
    (m,) array per entry.
    """
    m = len(u)
    ndu = np.empty((p + 1, p + 1, m))
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - knots[spans + 1 - j]
        right[j] = knots[spans + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((n_ders + 1, p + 1, m))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, n_ders + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d += a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    r = p
    for k in range(1, n_ders + 1):
        ders[k] *= r
        r *= p - k
    return np.moveaxis(ders, -1, 0)


def _local_tables(spline, theta, n_ders):
    spans, tables = [], []
    for kv, u in zip(spline.kvs, theta):
        span = point_find_span(kv.knots, kv.degree, u)
        spans.append(span)
        tables.append(point_basis_ders(kv.knots, kv.degree, span, u, n_ders))
    return spans, tables


def _orders(dim, max_total):
    """Per-direction derivative orders with total order <= max_total."""
    out = []
    for total in range(max_total + 1):
        for alpha in itertools.product(range(total + 1), repeat=dim):
            if sum(alpha) == total:
                out.append(alpha)
    return out


def _unit(dim, axis, times=1):
    e = [0] * dim
    e[axis] += times
    return tuple(e)


def _pair(dim, a, b):
    e = [0] * dim
    e[a] += 1
    e[b] += 1
    return tuple(e)


def point_jet(spline, theta, max_deriv=0):
    """Value (c,), gradient (d, c) and Hessian (d, d, c) of a spline at one point.

    Rational splines go through the homogeneous form and the quotient rule
    (orders up to 2). Returns ``(value, grad, hess, partials)``; ``partials``
    maps per-direction orders to (c,) arrays.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = spline.dim
    spans, tables = _local_tables(spline, theta, max_deriv)
    block = tuple(slice(s - kv.degree, s + 1) for s, kv in zip(spans, spline.kvs))
    w = spline.weights[..., None]
    hom = np.concatenate([w * spline.coeffs, w], axis=-1)[block]
    sums = {}
    for alpha in _orders(d, max_deriv):
        x = hom
        for axis in reversed(range(d)):
            x = np.tensordot(tables[axis][alpha[axis]], x, axes=(0, axis))
        sums[alpha] = x
    c = spline.ncomp
    zero = (0,) * d
    w0 = sums[zero][c]
    q = {zero: sums[zero][:c] / w0}
    for alpha in _orders(d, max_deriv)[1:]:
        if sum(alpha) == 1:
            q[alpha] = (sums[alpha][:c] - sums[alpha][c] * q[zero]) / w0
        elif sum(alpha) == 2:
            a, b = [ax for ax in range(d) for _ in range(alpha[ax])]
            ea, eb = _unit(d, a), _unit(d, b)
            q[alpha] = (
                sums[alpha][:c]
                - sums[alpha][c] * q[zero]
                - sums[ea][c] * q[eb]
                - sums[eb][c] * q[ea]
            ) / w0
        elif not spline.is_polynomial:
            raise ValueError("rational derivatives are supported up to order 2")
        else:
            q[alpha] = sums[alpha][:c]
    grad = hess = None
    if max_deriv >= 1:
        grad = np.stack([q[_unit(d, a)] for a in range(d)])
    if max_deriv >= 2:
        hess = np.stack(
            [np.stack([q[_pair(d, a, b)] for b in range(d)]) for a in range(d)]
        )
    return q[zero], grad, hess, q


def point_basis_jets(spline, theta):
    """Rational basis jets at one point: cols (L,), value (L,), grad (L, d), hess (L, d, d)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = spline.dim
    spans, tables = _local_tables(spline, theta, 2)
    ranges = [np.arange(s - kv.degree, s + 1) for s, kv in zip(spans, spline.kvs)]
    mesh = np.meshgrid(*ranges, indexing="ij")
    cols = np.ravel_multi_index([m.ravel() for m in mesh], spline.shape)
    block = tuple(slice(s - kv.degree, s + 1) for s, kv in zip(spans, spline.kvs))
    w_loc = spline.weights[block].ravel()

    def local(alpha):
        x = tables[0][alpha[0]]
        for a in range(1, d):
            x = np.multiply.outer(x, tables[a][alpha[a]])
        return x.ravel()

    wn = {alpha: w_loc * local(alpha) for alpha in _orders(d, 2)}
    ws = {alpha: wn[alpha].sum() for alpha in wn}
    zero = (0,) * d
    val = wn[zero] / ws[zero]
    grad = np.stack(
        [(wn[_unit(d, a)] - ws[_unit(d, a)] * val) / ws[zero] for a in range(d)],
        axis=-1,
    )
    hess = np.empty((len(cols), d, d))
    for a in range(d):
        for b in range(d):
            ab = _pair(d, a, b)
            hess[:, a, b] = (
                wn[ab]
                - ws[ab] * val
                - ws[_unit(d, a)] * grad[:, b]
                - ws[_unit(d, b)] * grad[:, a]
            ) / ws[zero]
    return cols, val, grad, hess


def point_pullback(geometry, theta):
    """Geometry at one point: (x (d,), J (d, d), J^-1, det J, S (d, d, d))."""
    value, grad, hess, _ = point_jet(geometry.spline, theta, 2)
    jac = grad.T  # J[k, a] = dx_k / dtheta_a
    det, inv = lapack_det_inv(jac)
    if abs(det) < 1e-12:
        raise ValueError(f"singular geometry at {tuple(theta)}")
    return value, jac, inv, float(det), hess


def lapack_det_inv(jac):
    """Determinant(s) and inverse(s) of Jacobians (..., d, d) by LAPACK LU."""
    return np.linalg.det(jac), np.linalg.inv(jac)


def push_gradient(inv_jac, grad_theta):
    """Parametric gradients (..., d, c) to physical ones, as one einsum.

    ``inv_jac`` is (d, d) at one point or (N, d, d) with a point per row of
    ``grad_theta`` (N, d, c); the leading axes broadcast.
    """
    return np.einsum("...ak,...ac->...kc", inv_jac, grad_theta)


def push_hessian(inv_jac, second, grad_x, hess_theta):
    """Physical Hessians (..., d, d, c), as unoptimised einsums; axes as above."""
    inner = hess_theta - np.einsum("...abk,...kc->...abc", second, grad_x)
    return np.einsum("...ai,...abc,...bj->...ijc", inv_jac, inner, inv_jac)


def boundary_normal(inv_jac, axis, side):
    """Unit outward normal of the face theta_axis = side at one point."""
    if len(inv_jac) == 1:
        n = np.array([1.0])
    else:
        n = inv_jac[axis] / np.linalg.norm(inv_jac[axis])
    return n if side == 1 else -n


def _operator_rows(operator, val, hess_x, comp):
    """Interior rows (c, L) of an operator for basis functions in ``comp``.

    The textbook forms: -laplace(T) + T for the scalar operator, and the
    plane-stress Navier equations c1 u_x,xx + mu u_x,yy + (c1 nu + mu) u_y,xy
    = 0 (and the same with x and y swapped) for the elastic one.
    """
    material = getattr(operator, "material", None)
    if material is None:
        lap = sum(hess_x[:, a, a] for a in range(hess_x.shape[1]))
        return (val - lap)[None, :]
    E, nu = material.youngs_modulus, material.poisson_ratio
    c1, mu = E / (1 - nu**2), E / (2 * (1 + nu))
    hxx, hyy, hxy = hess_x[:, 0, 0], hess_x[:, 1, 1], hess_x[:, 0, 1]
    if comp == 0:
        return np.stack([c1 * hxx + mu * hyy, (c1 * nu + mu) * hxy])
    return np.stack([(c1 * nu + mu) * hxy, c1 * hyy + mu * hxx])


def condition_row_count(bc, c):
    """Rows per point of a condition on a c-component field: Dirichlet c, Neumann 1, traction 2."""
    return {"dirichlet": c, "neumann": 1, "traction": 2}[bc.kind]


def _condition_rows(bc, normal, val, grad_x, comp, c):
    """Rows (rows, L) of a boundary condition for basis functions in ``comp``."""
    if bc.kind == "dirichlet":
        rows = np.zeros((c, len(val)))
        rows[comp] = val
        return rows
    if bc.kind == "neumann":
        return (grad_x @ normal)[None, :]
    E, nu = bc.material.youngs_modulus, bc.material.poisson_ratio
    c1, mu = E / (1 - nu**2), E / (2 * (1 + nu))
    g = np.zeros((len(val), 2, 2))  # g[l, a, k] = d u_k / d x_a
    g[:, :, comp] = grad_x
    sx = c1 * (g[:, 0, 0] + nu * g[:, 1, 1])
    sy = c1 * (g[:, 1, 1] + nu * g[:, 0, 0])
    tau = mu * (g[:, 1, 0] + g[:, 0, 1])
    return np.stack([sx * normal[0] + tau * normal[1], tau * normal[0] + sy * normal[1]])


def point_assemble(problem, field, points, boundary_weight="auto"):
    """Collocation system assembled one point at a time.

    Returns ``(A, b, meta)`` with ``meta`` a list of (point, kind, component,
    face) tuples. Interior rows use the operators' and boundary rows the
    conditions' textbook formulas, written out here and not taken from the
    package.
    """
    c = problem.field_components
    geo = problem.geometry
    n_cols = field.n_coeffs * c

    def owner(faces):
        conds = [problem.condition_for_face(f) for f in faces]
        dirichlet = [bc for bc in conds if bc.kind == "dirichlet"]
        return min(dirichlet or conds, key=lambda bc: bc.face)

    def faces_of(theta):
        """Ids of the parametric faces ``theta`` lies on (2a lower, 2a + 1 upper)."""
        faces = []
        for a, kv in enumerate(field.kvs):
            if theta[a] == kv.start:
                faces.append(2 * a)
            elif theta[a] == kv.end:
                faces.append(2 * a + 1)
        return faces

    grid = [np.array(theta) for theta in itertools.product(*points.axes)]
    interior = [theta for theta in grid if not faces_of(theta)]
    boundary = [theta for theta in grid if faces_of(theta)]
    n_rows = len(interior) * c + sum(
        condition_row_count(owner(faces_of(t)), c) for t in boundary
    )
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    meta = []
    row = 0
    row_of_point = {}
    boundary_rows = []
    # One walk over the grid: each point writes its rows in turn, boundary
    # rows unweighted until every interior row is known.
    for theta in grid:
        x, _, inv, _, second = point_pullback(geo, theta)
        cols, val, grad_t, hess_t = point_basis_jets(field, theta)
        gx = push_gradient(inv, grad_t[:, :, None])[..., 0]
        row_of_point[tuple(theta)] = row
        if not faces_of(theta):
            hx = push_hessian(inv, second, gx[:, :, None], hess_t[:, :, :, None])[..., 0]
            f = np.asarray(problem.source(x[None]), dtype=float)[0]
            for comp in range(c):
                rows = _operator_rows(problem.operator, val, hx, comp)
                for i in range(c):
                    A[row + i, cols * c + comp] = rows[i]
            for i in range(c):
                b[row + i] = f[i]
                meta.append((tuple(theta), "interior", i, None))
            row += c
            continue
        bc = owner(faces_of(theta))
        count = condition_row_count(bc, c)
        normal = boundary_normal(inv, bc.axis, bc.side)
        g = np.asarray(bc.value(x[None]), dtype=float)[0]
        for comp in range(c):
            rows = _condition_rows(bc, normal, val, gx, comp, c)
            for i in range(count):
                A[row + i, cols * c + comp] = rows[i]
        for i in range(count):
            b[row + i] = g[i]
            meta.append((tuple(theta), "boundary", i, bc.face))
        boundary_rows.extend(range(row, row + count))
        row += count

    if boundary_weight == "auto":
        interior_rows = np.setdiff1d(np.arange(n_rows), boundary_rows)
        norms = np.linalg.norm(A[interior_rows], axis=1)
        boundary_weight = float(norms.mean()) if len(interior_rows) else 1.0
    A[boundary_rows] *= boundary_weight
    b[boundary_rows] *= boundary_weight

    all_points = np.array(interior + boundary)
    for pc in problem.point_constraints:
        dist = np.linalg.norm(all_points - np.asarray(pc.theta, dtype=float), axis=1)
        theta = tuple(all_points[int(np.argmin(dist))])
        r = row_of_point[theta] + pc.component
        x = point_pullback(geo, theta)[0]
        cols, val, _, _ = point_basis_jets(field, theta)
        A[r, :] = 0.0
        A[r, cols * c + pc.component] = boundary_weight * val
        b[r] = boundary_weight * float(np.asarray(pc.value(x[None]))[0, 0])
        meta[r] = (theta, "constraint", pc.component, None)
    return A, b, meta


# ---------------------------------------------------------------------------
# Single-knot insertion
# ---------------------------------------------------------------------------


def boehm_insert(knots, p, hom, u):
    """Insert ``u`` once into ``knots`` by Boehm's algorithm (The NURBS Book A5.1).

    ``hom`` (n, k) holds homogeneous coefficients (weighted values, then the
    weight) along the refined direction. Returns the new knots and
    coefficients; inserting knots one at a time with this is the reference
    for the package's knot-vector refinement.
    """
    knots = np.asarray(knots, dtype=float)
    k = int(np.searchsorted(knots, u, side="right")) - 1
    mult = int(np.count_nonzero(knots == u))
    out = np.empty((len(hom) + 1, hom.shape[1]))
    out[: k - p + 1] = hom[: k - p + 1]
    for i in range(k - p + 1, k - mult + 1):
        alpha = (u - knots[i]) / (knots[i + p] - knots[i])
        out[i] = alpha * hom[i] + (1.0 - alpha) * hom[i - 1]
    out[k - mult + 1 :] = hom[k - mult :]
    return np.insert(knots, k + 1, u), out


# ---------------------------------------------------------------------------
# Helpers built on the package
# ---------------------------------------------------------------------------


def basis_values(kv, u, max_deriv=0):
    """Nonzero basis functions and derivatives of ``kv`` at ``u`` (a scalar or an array).

    A scalar gives an array of shape (max_deriv+1, degree+1); an array of
    parameters prepends its shape. The columns correspond to basis indices
    span-degree .. span.
    """
    if max_deriv > kv.degree:
        raise UnsupportedDerivativeError(
            f"derivative order {max_deriv} exceeds degree {kv.degree}"
        )
    _, local = _direction_tables(kv, u, max_deriv)
    ders = np.moveaxis(local, 0, 1)
    return ders.reshape(np.shape(u) + ders.shape[1:])


def uniform_refine(kv, count):
    """``kv`` with ``count`` equally spaced interior knots inserted over its range."""
    lo, hi = kv.start, kv.end
    for i in range(1, count + 1):
        kv = kv.insert(lo + i * (hi - lo) / (count + 1))
    return kv


def field_l2_norm(problem, func, field, quad_order=None):
    """L2 norm over the physical domain of ``func`` (N, d) -> (N,) or (N, c).

    Uses the quadrature cells of ``field`` and the Jacobian weights of
    ``problem.geometry``, the rule ``error_report`` integrates with.
    """
    axes, w, _ = quadrature_rule(field, quad_order)
    pts, _, _, det, _ = lattice_pullbacks(problem.geometry, axes)
    vals = np.asarray(func(pts), dtype=float).reshape(len(pts), -1)
    return float(np.sqrt(np.sum((vals**2).sum(axis=1) * np.abs(det) * w)))


def refined_geometry_space(geometry, interior_knots):
    """Knot vectors and weights of ``geometry`` refined by ``insert_knots``, one list per direction.

    The whole geometry, coordinates and weights, passes through each
    insertion, so a rational one is refined in homogeneous coordinates:
    the reference for a field's space, which refines only its knot vectors
    and a rational geometry's weights.
    """
    refined = geometry.spline
    for axis, knots in enumerate(interior_knots):
        refined = refined.insert_knots(axis, knots)
    return refined.kvs, refined.weights
