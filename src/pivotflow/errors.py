"""Exception types raised across the package."""


class PivotflowError(Exception):
    """Base class for all package errors."""


class NonFiniteState(PivotflowError):
    """A state, input, or forcing array contains NaN or infinity."""


class UnstableStep(PivotflowError):
    """An explicit sub-step produced non-finite values (sub-stepping too coarse)."""


class BadSensorIndex(PivotflowError, IndexError):
    """A sensor node index falls outside the grid."""


class DimensionMismatch(PivotflowError, ValueError):
    """Operand dimensions are inconsistent with the reduced model, the filter state or the grid."""


class JacobianFailure(PivotflowError):
    """A finite-difference Jacobian evaluation returned non-finite values."""


class SingularInnovation(PivotflowError):
    """The innovation covariance R + C P C^T is numerically singular."""


class ParseError(PivotflowError):
    """A scenario file could not be read or parsed."""


class ValidationError(PivotflowError, ValueError):
    """A scenario value violates the schema; the message names the key."""


class DegenerateReference(PivotflowError):
    """The reference state for a relative error metric is identically zero."""
