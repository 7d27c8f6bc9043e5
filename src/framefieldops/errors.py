"""Exception types shared across the package, and the three rules for
arguments where they enter it: ``check_integer`` for one integer in a range,
``check_indices`` for vertex indices and ``check_values`` for finite float
arrays of a given shape."""

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


def check_values(name, values, shape, error=ParameterError):
    """``values`` as a float array of ``shape`` (a ``None`` matches any
    length), every entry finite, else ``error`` naming ``name``; text and
    ragged lists fail too."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        actual = f"a {type(values).__name__} that is not a float array"
    else:
        actual = f"shape {array.shape}"
        fits = all(w in (None, g) for w, g in zip(shape, array.shape))
        if fits and array.ndim == len(shape):
            if np.isfinite(array).all():
                return array
            actual = str(array[~np.isfinite(array)][0])
    expected = str(tuple(shape)).replace("None", "*")
    raise error(f"{name} must be finite with shape {expected}, got {actual}")
