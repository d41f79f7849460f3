"""Geometry mappings from the parametric to the physical domain.

A :class:`GeometryMap` wraps a point-valued tensor spline F mapping the
parametric box onto the physical domain. The functions below provide the
batched first- and second-order chain-rule machinery (pullbacks) needed to
express physical differential operators at parametric points. The
Jacobian determinant and inverse are computed in closed form, by
cofactors, for the d <= 3 directions a tensor spline has: on 1x1 to 3x3
matrices this is cheaper than batched LAPACK calls, whose per-matrix
overhead exceeds the arithmetic. The cofactors are formed entry by entry:
each Jacobian entry of a lattice jet is a contiguous array over the
lattice (see :class:`splinecol.splines.LatticeJet`), so every cofactor is
one ufunc expression in whole arrays, with no gathered (N, d, d) copies.

Second-order operators are never applied to pushed Hessians. Every
operator and boundary condition is linear with constant coefficients, so
:func:`pull_back_coefficients` moves its coefficients to the parameter
domain once per point instead (the pulled-back coefficient form of
Antolin, Buffa, Calabro, Martinelli and Sangalli, CMAME 2015), at a cost
that does not depend on what the operator is applied to: L basis
functions when assembling, the field's c components in the error report.
Its entries are sums of products of whole blocks with the (N,) geometry
columns, since a batched matmul on (d, d) blocks pays a per-point
overhead above the arithmetic.

Conventions: the Jacobian J has entries J[k, a] = dx_k / dtheta_a; the
second-derivative tensor S has S[a, b, k] = d^2 x_k / dtheta_a dtheta_b
(component axis last, matching spline jets). Batched arrays carry the
point index first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularGeometryError, UnsupportedDerivativeError
from .splines import TensorSpline

DET_TOL = 1e-12


@dataclass(frozen=True)
class GeometryMap:
    """NURBS mapping F from the parametric box to the physical domain."""

    spline: TensorSpline

    def __post_init__(self):
        if self.spline.ncomp != self.spline.dim:
            raise PreconditionError(
                "geometry splines must have as many value components as "
                f"parametric directions (got {self.spline.ncomp} vs {self.spline.dim})"
            )

    @property
    def dim(self) -> int:
        return self.spline.dim

    @property
    def kvs(self):
        return self.spline.kvs


def _adjugate(jac):
    """Adjugates adj J (d, d, N) of Jacobians ``jac`` (N, d, d) with d <= 3, entry by entry.

    Each entry is a ufunc expression in columns jac[:, k, a], which are
    contiguous (N,) arrays for the Jacobians of ``lattice_pullbacks``.
    """
    n, d, _ = jac.shape
    adj = np.empty((d, d, n))
    if d == 1:
        adj[0, 0] = 1.0
    elif d == 2:
        adj[0, 0], adj[1, 1] = jac[:, 1, 1], jac[:, 0, 0]
        np.negative(jac[:, 0, 1], out=adj[0, 1])
        np.negative(jac[:, 1, 0], out=adj[1, 0])
    else:
        # adj[a, k] is the cofactor of J[k, a]; indices run mod 3.
        for a, k in itertools.product(range(3), repeat=2):
            k1, k2, a1, a2 = (k + 1) % 3, (k + 2) % 3, (a + 1) % 3, (a + 2) % 3
            np.subtract(
                jac[:, k1, a1] * jac[:, k2, a2], jac[:, k1, a2] * jac[:, k2, a1], out=adj[a, k]
            )
    return adj


def lattice_pullbacks(geometry: GeometryMap, axes, max_deriv: int = 2):
    """Geometry data on a parameter lattice, flattened to N points in C order.

    Returns (points (N, d), jac (N, d, d), inv_jac (N, d, d), det (N,),
    second (N, d, d, d)). ``max_deriv`` (0 to 2) is the order the geometry
    is evaluated to, and the entries above it are None: order 0 gives the
    points alone, with no Jacobian and no singular check, since nothing is
    divided; order 1 omits ``second``. The determinant and inverse are
    closed form: det J is the cofactor expansion along row 0 and
    J^{-1} = adj(J) / det J. From order 1 on, raises
    :class:`SingularGeometryError` naming the first lattice point whose
    Jacobian is singular, before anything is divided by its determinant.
    ``points``, ``jac`` and ``second`` are views of the geometry's lattice
    jet and ``inv_jac`` a view of the adjugate buffer, divided in place;
    in general none is C-contiguous.
    """
    if max_deriv not in (0, 1, 2):
        raise UnsupportedDerivativeError(
            f"pullbacks are supported up to order 2, got {max_deriv!r}"
        )
    jet = geometry.spline.evaluate_lattice(axes, max_deriv=max_deriv)
    d = geometry.dim
    pts = jet.value.reshape(-1, d)
    if max_deriv == 0:
        return pts, None, None, None, None
    jac = np.swapaxes(jet.grad.reshape(-1, d, d), -1, -2)  # (N, k, a)
    adj = _adjugate(jac)
    det = sum(jac[:, 0, j] * adj[j, 0] for j in range(d))
    singular = np.abs(det) < DET_TOL
    if singular.any():
        i = int(np.argmax(singular))
        index = np.unravel_index(i, tuple(len(a) for a in axes))
        theta = tuple(float(a[j]) for a, j in zip(axes, index))
        raise SingularGeometryError(
            f"geometry Jacobian is singular at theta={theta} (det={det[i]:.3e})"
        )
    inv = np.moveaxis(np.divide(adj, det, out=adj), -1, 0)
    second = None if jet.hess is None else jet.hess.reshape(-1, d, d, d)
    return pts, jac, inv, det, second


def boundary_normals(inv_jac, axis: int, side: int) -> np.ndarray:
    """Unit outward physical normals (N, d) of the face theta_axis = const.

    ``inv_jac`` holds the inverse Jacobians (N, d, d) at points on the face;
    ``side`` is 0 for the lower face and 1 for the upper face.
    """
    if inv_jac.shape[-1] == 1:
        n = np.ones((len(inv_jac), 1))
    else:
        n = inv_jac[:, axis]  # row a of J^{-1} = grad_x theta_a
        n = n / np.linalg.norm(n, axis=1, keepdims=True)
    return n if side == 1 else -n


def lattice_push_gradient(inv_jac, grad_theta):
    """Batched physical gradients: inv_jac (N,d,d), grad_theta (N,d,c)."""
    # grad_x[k] = sum_a Jinv[a, k] grad_theta[a]
    return np.einsum("nak,nac->nkc", inv_jac, grad_theta)


def pull_back_coefficients(coeffs, inv_jac, second=None):
    """Parametric coefficients (E, s, N) of s linear rows given physical ones.

    ``coeffs`` (E, s, N), or (E, s, 1) for constants, weighs the physical
    jet entries in the order of a jet buffer: the value, the d first
    partials d/dx_k and, when E = 1 + d + d*d, the second partials
    d^2/dx_i dx_j in C order. ``inv_jac`` (N, d, d) and ``second``
    (N, d, d, d) hold the points' inverse Jacobians and geometry second
    derivatives; ``second`` is read at order 2 only. The result weighs the
    parametric jet entries in the same order: row r applied to a field u
    is sum_e K_e[r] d^e u / dtheta^e, with

        B2 = J^-1 A2 J^-T,  s_k = sum_ab B2_ab S_abk,  B1 = J^-1 (A1 - s),  B0 = A0.

    A2 is symmetrised first, so B2 is formed on a <= b and copied; the
    products of its zero entries are skipped. Every pass over the points
    costs about the same whether it multiplies, adds or does both, so the
    sums over a direction are ``einsum`` contractions of stacked (d, N)
    columns of ``inv_jac`` and ``second``. The cost does not depend on
    what the coefficients are later applied to.
    """
    n, d, _ = inv_jac.shape
    e, s = coeffs.shape[:2]
    inv = inv_jac.transpose(1, 2, 0)  # inv[a, k] is d theta_a / d x_k over the points
    out = np.empty((e, s, n))
    out[0] = coeffs[0]
    if e == 1:
        return out
    grad = coeffs[1 : 1 + d]
    if e > 1 + d:
        a2 = coeffs[1 + d :].reshape((d, d) + coeffs.shape[1:])
        a2 = 0.5 * (a2 + a2.transpose((1, 0) + tuple(range(2, a2.ndim))))
        nonzero = a2.reshape(d, d, -1).any(axis=2)
        rows = [i for i in range(d) if nonzero[i].any()]
        # One work buffer holds A2 J^-T by columns, then A1 - s.
        b2, work = out[1 + d :].reshape(d, d, s, n), np.empty((d, s, n))
        half, inv_rows = work[: len(rows)], inv if len(rows) == d else inv[:, rows]
        for b in range(d):
            # half[i] = (A2 J^-T)_ib, then B2_ab = sum_i (J^-1)_ai half[i] for a <= b.
            for h, i in zip(half, rows):
                terms = [j for j in range(d) if nonzero[i, j]]
                np.multiply(a2[i, terms[0]], inv[b, terms[0]], out=h)
                for j in terms[1:]:
                    h += a2[i, j] * inv[b, j]
            for a in range(b + 1):
                np.einsum("in,isn->sn", inv_rows[a], half, out=b2[a, b])
                b2[b, a] = b2[a, b]
        shift = np.einsum("absn,abkn->ksn", b2, second.transpose(1, 2, 3, 0), out=work)
        grad = np.subtract(grad, shift, out=shift)
    # B1 = J^-1 (A1 - s); a constant A1's point axis of size 1 broadcasts.
    for a in range(d):
        np.einsum("kn,ksn->sn", inv[a], grad, out=out[1 + a])
    return out
