"""Exception types shared across the package."""


class LicError(Exception):
    """Base class for all package errors."""


class DomainError(LicError):
    """Operand outside the mathematical domain of an operation (sqrt/log/1/x)."""


class OrderError(LicError):
    """Requested derivative order exceeds what a jet carries."""


class AmbiguousError(LicError):
    """Quantity is not single-valued at the requested point (cone boundary)."""


class SingularError(LicError):
    """Map or field evaluated on its singular set."""


class SingularMetricError(LicError):
    """Metric matrix not invertible at a sample point."""


class FrameMismatchError(LicError):
    """Spinor operands expressed in different frames."""


class UnknownTransitionError(LicError):
    """No registered component-transition between the two frames."""


class NotInSpinGroupError(LicError):
    """Matrix does not conjugate the gamma basis back into itself."""


class CaViolationError(LicError):
    """Point outside the neighbourhood where the frame transition is defined."""


class DimensionError(LicError):
    """Operation requires a different dimension (e.g. duality split needs 4d)."""


class NonRealPairingError(LicError):
    """Spinor pairing expected to be real has a non-negligible imaginary part."""


class NonTransversalError(LicError):
    """Probe curve does not cross the interface transversally."""


class EmptyRegionError(LicError):
    """Rejection sampling produced no admissible points."""
