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
The Hessian push works the same way: each entry of each factor of the
chain rule is one sum of d products of whole (N, c) blocks with (N,)
geometry columns, since a batched matmul on (d, d) blocks also pays a
per-point overhead above the arithmetic.

Conventions: the Jacobian J has entries J[k, a] = dx_k / dtheta_a; the
second-derivative tensor S has S[a, b, k] = d^2 x_k / dtheta_a dtheta_b
(component axis last, matching spline jets). Batched arrays carry the
point index first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SingularGeometryError, UnsupportedDerivativeError
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
    second (N, d, d, d)). ``max_deriv`` is the order the geometry is
    evaluated to: 2, or 1 for callers that read no second derivatives, in
    which case ``second`` is None. The determinant and inverse are closed
    form: det J is the cofactor expansion along row 0 and
    J^{-1} = adj(J) / det J. Raises :class:`SingularGeometryError` naming
    the first lattice point whose Jacobian is singular, before anything is
    divided by its determinant. ``points``, ``jac`` and ``second`` are
    views of the geometry's lattice jet and ``inv_jac`` a view of the
    adjugate buffer, divided in place; in general none is C-contiguous.
    """
    if max_deriv not in (1, 2):
        raise UnsupportedDerivativeError(
            f"pullbacks need the Jacobian and go up to order 2, got {max_deriv!r}"
        )
    jet = geometry.spline.evaluate_lattice(axes, max_deriv=max_deriv)
    d = geometry.dim
    pts = jet.value.reshape(-1, d)
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


def lattice_push_hessian(inv_jac, second, grad_x, hess_theta):
    """Batched physical Hessians (N, d, d, c).

    Implements H_x = J^{-T} (H_theta - sum_k (grad_x)_k S_k) J^{-1} with
    S the geometry second-derivative tensor, entry by entry: every entry
    of T = H_theta - sum_k (grad_x)_k S_k, of U = J^{-T} T and of
    H_x = U J^{-1} is one ``einsum`` sum of d products of (N, c) blocks
    with the (N,) columns ``second[:, a, b, k]`` and ``inv_jac[:, a, i]``,
    written in place. All d^2 entries are computed; H_theta need not be
    symmetric. The result is a view of one (d, d, N, c) buffer, which
    holds T until U is formed.
    """
    n, d, _, c = hess_theta.shape
    out = np.empty((d, d, n, c))
    half = np.empty((d, d, n, c))
    grad = np.moveaxis(grad_x, 1, 0)  # (k, N, c)
    pairs = list(itertools.product(range(d), repeat=2))
    for a, b in pairs:
        np.einsum("nk,knc->nc", second[:, a, b], grad, out=out[a, b])
        np.subtract(hess_theta[:, a, b], out[a, b], out=out[a, b])
    for i, b in pairs:
        np.einsum("na,anc->nc", inv_jac[:, :, i], out[:, b], out=half[i, b])
    for i, j in pairs:
        np.einsum("bnc,nb->nc", half[i], inv_jac[:, :, j], out=out[i, j])
    return np.moveaxis(out, 2, 0)
