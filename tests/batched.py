"""Package evaluation at scattered parametric points, shared by the tests.

The package evaluates splines at scattered points only through
``TensorSpline.basis_jets``; these helpers contract its jets with the
coefficients the way ``CollocationSolver.predict`` does, and add the
derivatives the tests compare against oracles.
"""

import numpy as np


def jets_at(spline, theta):
    """Value (N, c), gradient (N, d, c) and Hessian (N, d, d, c) at points (N, d)."""
    cols, val, grad, hess = spline.basis_jets(theta)
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
