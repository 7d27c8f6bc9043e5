"""Legacy ASCII VTK output of per-vertex scalar and vector fields, and OBJ
polylines.  Each block of rows is formatted as one array, floats with 17
significant digits.  Bad input raises ``ParameterError`` before the file is
opened, so a refused call leaves no file behind."""

import numpy as np

from .errors import ParameterError, as_floats, check_values
from .geometry import _write_rows

_CELL_TYPES = {2: 5, 3: 10}  # VTK triangle / tetrahedron
_XYZ = "%.17g %.17g %.17g"


def _padded(points):
    """The float rows ``points`` zero-filled to 3 columns."""
    return np.pad(points, ((0, 0), (0, 3 - points.shape[1])))


def write_vtk(path, mesh, point_data):
    """Write a mesh with named per-vertex scalar or vector fields.

    Legacy ASCII unstructured-grid format, readable by standard scientific
    viewers.  2D meshes and 2-component vectors are embedded at z=0.  Each
    field needs a one-word name and one row per vertex, a scalar or a vector
    of at most 3 components; anything else raises ``ParameterError``.
    """
    n = mesh.num_vertices
    fields = {name: as_floats(f"point field {name!r}", values)
              for name, values in point_data.items()}
    for name, values in fields.items():
        one_word = str(name).split() == [str(name)]
        if not one_word or values.shape not in ((n,), (n, 1), (n, 2), (n, 3)):
            raise ParameterError(f"point field {name!r} needs a one-word name and shape "
                                 f"({n},) or ({n}, 1..3), got {values.shape}")
    k = mesh.dim + 1
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nframefieldops output\nASCII\n")
        fh.write(f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
        _write_rows(fh, _XYZ, _padded(mesh.vertices))
        fh.write(f"CELLS {mesh.num_elements} {mesh.num_elements * (k + 1)}\n")
        _write_rows(fh, f"{k}" + " %d" * k, mesh.elements)
        fh.write(f"CELL_TYPES {mesh.num_elements}\n")
        fh.write(f"{_CELL_TYPES[mesh.dim]}\n" * mesh.num_elements)
        if fields:
            fh.write(f"POINT_DATA {n}\n")
        for name, values in fields.items():
            if values.ndim == 1:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_rows(fh, "%.17g", values)
            else:
                fh.write(f"VECTORS {name} double\n")
                _write_rows(fh, _XYZ, _padded(values))


def write_polyline_obj(path, polylines):
    """Write a list of polylines, each an ``(n, 2)`` or ``(n, 3)`` array of
    finite points, as an OBJ file with one line element per polyline; any
    other polyline raises ``ParameterError``."""
    polylines = [check_values("polylines", p, (None, (2, 3))) for p in polylines]
    with open(path, "w") as fh:
        offset = 1
        for points in polylines:
            _write_rows(fh, "v " + _XYZ, _padded(points))
            fh.write(f"l {' '.join(map(str, range(offset, offset + len(points))))}\n")
            offset += len(points)
