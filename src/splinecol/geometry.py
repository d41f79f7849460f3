"""Geometry mappings from the parametric to the physical domain.

A :class:`GeometryMap` wraps a point-valued tensor spline F mapping the
parametric box onto the physical domain. The functions below provide the
batched first- and second-order chain-rule machinery (pullbacks) needed to
express physical differential operators at parametric points. The
Jacobian determinant and inverse are computed in closed form, by
cofactors, for the d <= 3 directions a tensor spline has: on 1x1 to 3x3
matrices this is cheaper than batched LAPACK calls, whose per-matrix
overhead exceeds the arithmetic.

Conventions: the Jacobian J has entries J[k, a] = dx_k / dtheta_a; the
second-derivative tensor S has S[a, b, k] = d^2 x_k / dtheta_a dtheta_b
(component axis last, matching spline jets). Batched arrays carry the
point index first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularGeometryError
from .splines import TensorSpline

DET_TOL = 1e-12


@dataclass(frozen=True)
class GeometryMap:
    """NURBS mapping F from the parametric box to the physical domain."""

    spline: TensorSpline

    def __post_init__(self):
        if self.spline.ncomp != self.spline.dim:
            raise ValueError(
                "geometry splines must have as many value components as "
                f"parametric directions (got {self.spline.ncomp} vs {self.spline.dim})"
            )

    @property
    def dim(self) -> int:
        return self.spline.dim

    @property
    def kvs(self):
        return self.spline.kvs


def _cofactors(jac):
    """Cofactor matrices C (N, d, d) of Jacobians (N, d, d) with d <= 3."""
    d = jac.shape[-1]
    if d == 1:
        return np.ones_like(jac)
    if d == 2:
        return jac[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    # C[i, j] = J[i+1, j+1] J[i+2, j+2] - J[i+1, j+2] J[i+2, j+1], indices mod 3
    nxt, far = [1, 2, 0], [2, 0, 1]
    a, b = jac[:, nxt], jac[:, far]
    return a[..., nxt] * b[..., far] - a[..., far] * b[..., nxt]


def lattice_pullbacks(geometry: GeometryMap, axes):
    """Geometry data on a parameter lattice, flattened to N points in C order.

    Returns (points (N, d), jac (N, d, d), inv_jac (N, d, d), det (N,),
    second (N, d, d, d)). The determinant and inverse are closed form:
    det J is the cofactor expansion along row 0 and J^{-1} = adj(J) / det J.
    Raises :class:`SingularGeometryError` naming the first lattice point
    whose Jacobian is singular, before anything is divided by its
    determinant.
    """
    jet = geometry.spline.evaluate_lattice(axes, max_deriv=2)
    d = geometry.dim
    pts = jet.value.reshape(-1, d)
    jac = np.swapaxes(jet.grad.reshape(-1, d, d), -1, -2)  # (N, k, a)
    cof = _cofactors(jac)
    det = np.einsum("nj,nj->n", jac[:, 0], cof[:, 0])
    singular = np.abs(det) < DET_TOL
    if singular.any():
        i = int(np.argmax(singular))
        index = np.unravel_index(i, tuple(len(a) for a in axes))
        theta = tuple(float(a[j]) for a, j in zip(axes, index))
        raise SingularGeometryError(
            f"geometry Jacobian is singular at theta={theta} (det={det[i]:.3e})"
        )
    inv = np.swapaxes(cof, -1, -2) / det[:, None, None]
    second = jet.hess.reshape(-1, d, d, d)
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


def lattice_push_hessian(inv_jac, second, grad_x, hess_theta):
    """Batched physical Hessians (N, d, d, c).

    Implements H_x = J^{-T} (H_theta - sum_k (grad_x)_k S_k) J^{-1} with
    S the geometry second-derivative tensor. Both products are a left
    product with J^{-T}, one batched matmul per point on a (d, d*c)
    block; swapping the two Hessian axes between them turns the right
    product with J^{-1} into a left one.
    """
    n, d, _, c = shape = hess_theta.shape
    corr = (second.reshape(n, d * d, d) @ grad_x).reshape(shape)
    inv_t = np.swapaxes(inv_jac, -1, -2)
    half = (inv_t @ (hess_theta - corr).reshape(n, d, d * c)).reshape(shape)  # [n, i, b, c]
    full = inv_t @ np.swapaxes(half, 1, 2).reshape(n, d, d * c)  # [n, j, i * c]
    return np.swapaxes(full.reshape(shape), 1, 2)
