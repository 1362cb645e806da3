"""Exception and warning types shared across the toolkit."""


class UniTransformError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(UniTransformError):
    """An argument or data structure violates an operation's contract."""


class EvaluationError(UniTransformError):
    """A function produced a non-finite or out-of-domain value."""


class QuadratureError(UniTransformError):
    """A quadrature failed to converge or could not be carried out.

    ``frequency`` is the w of a whole-grid pass (``numerics.integrate_grid``) at which its
    unresolved defect or split budget failed, and None for any other failure.
    """

    def __init__(self, message: str, frequency: float | None = None):
        super().__init__(message)
        self.frequency = frequency


class DivergenceError(QuadratureError):
    """A half-line integrand does not decay toward the truncation point."""


class AliasingError(UniTransformError):
    """A spectrum grid is too coarse for the requested evaluation range."""


class InsufficientDataError(UniTransformError):
    """Too few usable samples for a fit."""


class ParseError(UniTransformError):
    """Expression text could not be parsed.

    Carries the character offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class TruncationWarning(UserWarning):
    """A truncated contour or interval is too short for full accuracy."""


class ExcludedSampleWarning(UserWarning):
    """Samples were dropped before a fit (for example zero magnitudes)."""
