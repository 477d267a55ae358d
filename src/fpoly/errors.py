class FpolyError(Exception):
    """Base class for toolkit errors."""


class CostCapExceeded(FpolyError):
    """Raised when a dimension vector exceeds the fixed enumeration cap."""


class NonPolynomialCount(FpolyError):
    """Raised when point counts fail the extra-prime polynomiality check."""


class GenericityError(FpolyError):
    """Raised when a seeded recipe cannot be certified generic at some prime."""


class InvariantViolation(FpolyError):
    """Raised when an internal invariant breaks: a bug, not a failed check."""


class InvalidSubrepresentation(FpolyError):
    """Raised when subspaces are not stable under the arrow maps."""


class InvalidInput(FpolyError):
    """Raised at the command line for malformed or unusable input."""
