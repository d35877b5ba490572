"""Exception and warning types shared across the package."""


class DimensionMismatchError(ValueError):
    """A matrix or vector does not have the required shape."""


class ConsistencyError(ValueError):
    """User-supplied callables disagree with each other beyond tolerance."""


class DecompositionMissingError(ValueError):
    """The exact coercivity check needs a polynomial coefficient table and the force has none."""


class ParameterError(ValueError):
    """A scalar parameter is outside its admissible range."""


class StabilityError(ValueError):
    """A matrix that must be (Hurwitz) stable is not, or is inside the tolerance band."""


class DivergenceError(RuntimeError):
    """A trajectory blew up.  Carries the last finite state reached."""

    def __init__(self, message, t=None, last_state=None):
        super().__init__(message)
        self.t = t
        self.last_state = last_state


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class MethodError(ValueError):
    """The requested evaluation method does not apply to the given inputs."""


class DegenerateModelError(RuntimeError):
    """A model-derived search failed even at its smallest admissible scale."""


class InternalCheckError(RuntimeError):
    """Two internal routes that must agree disagreed; indicates a bug, not bad input."""


class CertificationUnavailableWarning(UserWarning):
    """Positive-definiteness certification could not be established; the solution is still returned."""
