"""Package evaluation at scattered parametric points, shared by the tests.

The package evaluates splines at scattered points only through
``TensorSpline.row_table``; its rows for unit coefficients of each jet
entry are the basis jets. These helpers contract them with the
coefficients the way ``CollocationSolver.predict`` contracts the basis
values, and add the derivatives the tests compare against oracles.
"""

import numpy as np

from splinecol._validation import as_points
from splinecol.splines import jet_size


def basis_jets(spline, theta, order=2):
    """Support ``cols`` (N, L) and basis jets up to ``order`` at points (N, d).

    Returns ``(cols, value, grad, hess)`` with ``value`` (N, L), ``grad``
    (N, d, L) and ``hess`` (N, d, d, L); entries above ``order`` are None.
    """
    theta = as_points(theta, spline.dim)
    d, n, e = spline.dim, len(theta), jet_size(spline.dim, order)
    cols, table = spline.row_table(theta, np.broadcast_to(np.eye(e)[:, :, None], (e, e, n)))
    grad = hess = None
    if order >= 1:
        grad = np.moveaxis(table[1 : 1 + d], 0, 1)
    if order == 2:
        hess = np.moveaxis(table[1 + d :].reshape((d, d) + table.shape[1:]), (0, 1), (1, 2))
    return cols, table[0], grad, hess


def jets_at(spline, theta):
    """Value (N, c), gradient (N, d, c) and Hessian (N, d, d, c) at points (N, d)."""
    cols, val, grad, hess = basis_jets(spline, theta)
    coeffs = spline.coeffs.reshape(-1, spline.ncomp)[cols]  # (N, L, c)
    return (
        np.einsum("nl,nlc->nc", val, coeffs),
        np.einsum("nal,nlc->nac", grad, coeffs),
        np.einsum("nabl,nlc->nabc", hess, coeffs),
    )


def values_at(spline, theta):
    """Values (N, c) at points (N, d); a flat length-d array is one point."""
    return jets_at(spline, theta)[0]


def value_at(spline, theta):
    """Value (c,) at one point."""
    return values_at(spline, np.reshape(theta, (1, spline.dim)))[0]
