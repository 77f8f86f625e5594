"""Exception types raised by usdkit."""


class UsdKitError(Exception):
    """Base class for all usdkit errors."""


class NotHermitian(UsdKitError):
    """Operator is not Hermitian within tolerance."""


class NotPSD(UsdKitError):
    """Operator has an eigenvalue below the admissible negative floor."""


class DimensionMismatch(UsdKitError):
    """Operands live in different ambient dimensions."""


class InvalidInconclusive(UsdKitError):
    """Candidate inconclusive operator violates a feasibility condition."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NotReconstructible(UsdKitError):
    """Inner square-root argument left the PSD cone beyond the floor."""


class NotProper(UsdKitError):
    """Measurement support leaks outside the collective state support."""


class IncompatibleRecord(UsdKitError):
    """Reduction record does not match the measurement being lifted."""


class PreconditionViolated(UsdKitError):
    """Caller must reduce the pair before using this solver."""


class CertificateFailure(UsdKitError):
    """Constructed certificate operator violates an optimality condition."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class NoSolutionFound(UsdKitError):
    """No candidate family produced a verified optimal measurement."""


class NonConvergence(UsdKitError):
    """Iterative optimizer failed to reach the requested residual."""


class UsdNumericsWarning(UserWarning):
    """A numerically delicate situation was handled but deserves a look."""
