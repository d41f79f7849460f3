"""Small input-validation helpers shared across the package."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import PreconditionError


def as_float_array(values, name, ndim=None):
    """Coerce ``values`` to a float64 ndarray, optionally checking ndim."""
    arr = np.asarray(values, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise PreconditionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def as_points(theta, dim):
    """Coerce points to shape (n, dim); a 1-d input is treated per ``dim``.

    For dim == 1 a flat array of parameters is accepted; for dim > 1 a single
    point may be given as a flat length-``dim`` array.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None] if dim == 1 else arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise PreconditionError(f"expected points of shape (n, {dim}), got {np.shape(theta)}")
    return arr


def whole_number(value, name, minimum=None, error=PreconditionError):
    """``value`` as an int, if it is a whole number (and >= ``minimum``, if given)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and float(value).is_integer() and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def whole_counts(value, name, minimum=None, error=PreconditionError):
    """A count or a sequence of counts as a tuple of ints (see :func:`whole_number`)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(whole_number(v, name, minimum, error) for v in value)


def per_direction(value, dim, name, minimum=None):
    """One integer count per direction; a single count applies to every direction."""
    counts = whole_counts(value, name, minimum)
    if len(counts) == 1:
        counts *= dim
    if len(counts) != dim:
        raise PreconditionError(f"{name} must give one count per direction, got {value!r}")
    return counts

