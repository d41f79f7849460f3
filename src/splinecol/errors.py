"""Exception hierarchy for splinecol.

All library errors derive from :class:`SplineColError` so callers can catch
one base class; most also derive from ValueError for ergonomic use.
"""


class SplineColError(Exception):
    """Base class for all splinecol errors."""


class DomainError(SplineColError, ValueError):
    """A parameter lies outside the knot-vector / parametric domain."""


class UnsupportedDerivativeError(SplineColError, ValueError):
    """A derivative order beyond what the basis or weights support."""


class InvalidRefinementError(SplineColError, ValueError):
    """A knot insertion would exceed the allowed interior multiplicity."""


class SingularGeometryError(SplineColError, ValueError):
    """The geometry Jacobian is (numerically) singular at a point."""


class InvalidSchemeError(SplineColError, ValueError):
    """A collocation scheme is inconsistent with the discrete field."""


class PreconditionError(SplineColError, ValueError):
    """A discretization precondition (e.g. degree vs. operator order) fails."""


class CallbackError(SplineColError, ValueError):
    """A problem callback returned values of the wrong shape."""


class AssemblyError(SplineColError, RuntimeError):
    """System assembly failed; the message names the offending point or row."""


class SingularSystemError(SplineColError, RuntimeError):
    """The sparse LU factor of a square system is singular.

    For a pivot below the tolerance the message names its 1-based step in
    the factor's column order and the unknown (0-based column of A) that
    step eliminates. SuperLU reports an exactly zero pivot without its
    step; the message then names an unknown that no row touches or a row
    without entries, if there is one.
    """


class RankDeficientError(SplineColError, RuntimeError):
    """The band Cholesky factor of the normal equations A^T A broke down.

    ``pivot_index`` is the unknown (0-based column of A) at fault, never
    None: one that no row touches, else the first whose pivot falls below
    1e-14 times its diagonal entry of A^T A, else the one at which the
    factor met a non-positive pivot. The factor eliminates the unknowns in
    their natural order, so the message names the same unknown and its
    1-based step.
    """

    def __init__(self, message, pivot_index):
        super().__init__(message)
        self.pivot_index = pivot_index

    def __reduce__(self):  # pickles across process pools
        return type(self), (str(self), self.pivot_index)


class UndefinedMetricError(SplineColError, ValueError):
    """An error functional has a vanishing denominator."""


class ConfigError(SplineColError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
