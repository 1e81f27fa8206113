"""Exception types shared across the package."""


class FlexJointError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FlexJointError):
    """A parameter, matrix, or scenario violates a structural requirement."""


class DegenerateModelError(FlexJointError):
    """A model matrix that must be invertible is singular at the evaluated state."""


class ShapingInfeasibleError(FlexJointError):
    """The requested closed-loop shaping violates an admissibility condition."""

    def __init__(self, message, matrix_name=None):
        super().__init__(message)
        self.matrix_name = matrix_name


class ParametrizationSingularError(FlexJointError):
    """The gain pair cannot be mapped back to shaped parameters."""


class TransformSingularError(FlexJointError):
    """The open/closed coordinate change is singular."""


class NotApplicableError(FlexJointError):
    """Operation is defined only for a restricted case (typically one joint)."""


class ConfigurationError(FlexJointError):
    """Inconsistent or malformed configuration input."""


class DivergenceError(FlexJointError):
    """Simulation produced a non-finite state."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class RootFindingError(FlexJointError):
    """Polynomial roots failed their certificate; ``residuals`` holds the
    backward error of every root."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class AssemblyError(FlexJointError):
    """State-space assembly failed or was refused."""
