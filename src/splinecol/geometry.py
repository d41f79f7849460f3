"""Geometry mappings from the parametric to the physical domain.

A :class:`GeometryMap` wraps a point-valued tensor spline F mapping the
parametric box onto the physical domain. The functions below provide the
batched first- and second-order chain-rule machinery (pullbacks) needed to
express physical differential operators at parametric points.

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


def lattice_pullbacks(geometry: GeometryMap, axes):
    """Geometry data on a parameter lattice, flattened to N points in C order.

    Returns (points (N, d), jac (N, d, d), inv_jac (N, d, d), det (N,),
    second (N, d, d, d)). Raises :class:`SingularGeometryError` naming the
    first lattice point whose Jacobian is singular.
    """
    jet = geometry.spline.evaluate_lattice(axes, max_deriv=2)
    d = geometry.dim
    pts = jet.value.reshape(-1, d)
    jac = np.swapaxes(jet.grad.reshape(-1, d, d), -1, -2)  # (N, k, a)
    det = np.linalg.det(jac)
    singular = np.abs(det) < DET_TOL
    if singular.any():
        i = int(np.argmax(singular))
        index = np.unravel_index(i, tuple(len(a) for a in axes))
        theta = tuple(float(a[j]) for a, j in zip(axes, index))
        raise SingularGeometryError(
            f"geometry Jacobian is singular at theta={theta} (det={det[i]:.3e})"
        )
    inv = np.linalg.inv(jac)
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
    S the geometry second-derivative tensor.
    """
    corr = np.einsum("nabk,nkc->nabc", second, grad_x)
    inner = hess_theta - corr
    return np.einsum("nai,nabc,nbj->nijc", inv_jac, inner, inv_jac)
