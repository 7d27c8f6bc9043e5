"""Exception types shared across the package, and the rules for arguments
where they enter it: ``check_integer`` for one integer in a range,
``check_indices`` for vertex indices, ``as_floats`` for a float array and
``check_values`` for a finite float array of a given shape."""

import numbers

import numpy as np


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


def check_integer(name, value, low=1, below=float("inf")):
    """``value`` as an int in [low, below), else ``ParameterError``; the
    defaults make it a count.  A bool or a float is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not low <= value < below:
        raise ParameterError(f"{name} must lie in [{low}, {below}), got {value}")
    return int(value)


def check_indices(name, indices, n):
    """``indices`` as an int64 array of vertices in [0, n), else
    ``ParameterError``; a negative index is rejected, not counted from the
    end."""
    indices = np.asarray(indices, dtype=np.int64)
    bad = indices[(indices < 0) | (indices >= n)]
    if bad.size:
        raise ParameterError(f"{name}: vertex {bad[0]} is not in 0..{n - 1}")
    return indices


def as_floats(name, values, error=ParameterError):
    """``values`` as a float array, else ``error`` naming ``name``; text and
    ragged lists fail."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} must be a float array, got a {type(values).__name__}") from None


def check_values(name, values, shape, error=ParameterError):
    """``values`` as a float array of ``shape``, every entry finite, else
    ``error`` naming ``name``; text and ragged lists fail too.

    An entry of ``shape`` is a length, ``None`` for any length, or a tuple of
    the lengths allowed; a last entry ``...`` allows one more axis of any
    length.  The shape is matched on the converted array, so a caller never
    reads the shape of raw input.
    """
    shape = tuple(shape)
    optional = shape[-1:] == (...,)
    shape = shape[:-1] if optional else shape
    array = as_floats(name, values, error)
    fits = all(w is None or g in np.atleast_1d(w) for w, g in zip(shape, array.shape))
    actual = f"shape {array.shape}"
    if fits and len(shape) <= array.ndim <= len(shape) + optional:
        if np.isfinite(array).all():
            return array
        actual = str(array[~np.isfinite(array)][0])
    expected = ", ".join(
        "*" if w is None else " or ".join(map(str, np.atleast_1d(w))) for w in shape
    )
    expected += ", ..." if optional else ""
    raise error(f"{name} must be finite with shape ({expected}), got {actual}")
