"""Exception types shared across the package."""


class MeshError(Exception):
    """Base class for mesh parsing and validation failures."""


class MeshSyntaxError(MeshError):
    """Raised when a mesh file cannot be tokenized or parsed."""


class MeshValidationError(MeshError):
    """Raised when a face list does not describe a closed triangulated surface."""


class DomainError(ValueError):
    """Raised when a numeric input is outside its admissible range."""


class DegenerateTriangleError(DomainError):
    """Raised when side lengths violate the strict triangle inequality."""


class InternalConsistencyError(RuntimeError):
    """Raised when a quantity that is positive or bounded by theory is not.

    This always indicates a bug (or catastrophic loss of precision), never
    bad user input, hence a RuntimeError rather than a ValueError.
    """


class StepCollapseError(RuntimeError):
    """Raised when step halving cannot produce an acceptable flow step."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


class NoConstantCurvatureMetric(RuntimeError):
    """Raised when the Newton solve for the constant-curvature metric ends
    without reaching it (as it does when no such metric exists)."""


class EnumerationSizeError(ValueError):
    """Raised when an exponential subset enumeration is refused as too large."""
