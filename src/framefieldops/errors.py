"""Exception types shared across the package."""


class FrameFieldOpsError(Exception):
    """Base class for all package-specific errors."""


class MeshFormatError(FrameFieldOpsError):
    """A mesh file could not be parsed."""


class GeometryError(FrameFieldOpsError):
    """A mesh is geometrically invalid (inverted, degenerate, non-manifold)."""


class FieldError(FrameFieldOpsError):
    """Frame field data violates its invariants."""


class ParameterError(FrameFieldOpsError, ValueError):
    """An argument or an input value is out of its allowed range or shape.

    It is also a ``ValueError``, so callers that catch the builtin still see
    it.
    """


class NumericalError(FrameFieldOpsError):
    """A solver failed to converge or a matrix violated its contract."""
