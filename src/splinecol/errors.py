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
    """Gaussian elimination hit a pivot below the singularity tolerance."""


class RankDeficientError(SplineColError, RuntimeError):
    """Cholesky factorization of the normal equations broke down."""

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class UndefinedMetricError(SplineColError, ValueError):
    """An error functional has a vanishing denominator."""


class ConfigError(SplineColError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
