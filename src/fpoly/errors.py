class FpolyError(Exception):
    """Base class for toolkit errors."""


class CostCapExceeded(FpolyError):
    """Raised when an enumeration would exceed the configured cost cap."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NonPolynomialCount(FpolyError):
    """Raised when point counts fail the extra-prime polynomiality check."""


class GenericityError(FpolyError):
    """Raised when a seeded recipe cannot be certified generic at some prime."""


class InvariantViolation(FpolyError):
    """Raised when an internal invariant breaks: a bug, not a failed check."""


class CheckFailed(FpolyError):
    """Raised when two computations of one object disagree: a theorem fails."""


class InvalidSubrepresentation(FpolyError):
    """Raised when subspaces are not stable under the arrow maps."""
