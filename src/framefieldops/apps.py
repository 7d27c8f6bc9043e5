"""Downstream computations: nonzero spectra, spectral distances, descent
paths, coloring.

``nullity`` counts the operator's zero modes from the mesh (1 under Neumann
conditions, 5 on the natural square, 34 on the natural ``box(5, 5, 5)``),
``zero_modes`` flags eigenvalues under one floor on the operator's scale, and
``nonzero_eigenpairs`` skips them with one eigensolve sized by the nullity.

Distances are Euclidean between the coordinates ``phi_k / Lambda_k`` of the
nonzero modes, so ``d^2 = sum_k (phi_k(x) - phi_k(y))^2 / Lambda_k^2`` is a
metric: the Green's-function distance of ``A^2``.  At epsilon = 1, with
``Lambda = lambda^2`` for the Laplacian's eigenvalues, each mode weighs
``lambda^-4``; Lipman's biharmonic distance uses ``phi_k / sqrt(Lambda_k)``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, as_floats, check_integer, check_values
from .geometry import compute_measures
from .solve import EigenResult, eigs_generalized, solve_box_qp
from .symtensor import mandel_size

ROUNDOFF_RELTOL = 1e-12


@dataclass
class SpectralEmbedding:
    """Vertex coordinates phi_k(v) / Lambda_k over the kept nonzero modes,
    Lambda_k the operator's eigenvalue."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    n_modes: int


def zero_modes(op, values):
    """Mask of the zero modes among computed eigenvalues of ``op``.

    A value is a zero mode when it is at most ``ROUNDOFF_RELTOL`` times the
    largest diagonal entry of the operator over the vertex mass: a floor
    from the operator, so values that are all zero modes are seen as such.
    On the natural and Neumann squares 30 to 92, disk 36 and
    ``box(5, 5, 5)`` (axis field, epsilon 0.1), zero modes sit below
    1.8e-16 of that scale, 5700 times under the floor, and the first
    nonzero mode at or above 6.6e-9 (Neumann square 92), 6700 times over it.
    """
    floor = ROUNDOFF_RELTOL * np.max(op.matrix.diagonal() / op.vertex_mass)
    return values <= floor


def nullity(op):
    """Dimension of the nullspace of ``op``: the number of zero modes.

    Under Neumann conditions it is the constants alone.  Under natural
    conditions every boundary block of the projected middle matrix P is
    zero, so ``A = K' P K`` has ``A u = 0`` exactly when the interior rows
    ``K_I u`` vanish.  Those are ``m * n_interior`` rows (m the Mandel
    size), which bounds the nullity from below by ``n - m * n_interior``.
    The affine functions lie in the nullspace, and so does the hat function
    of every boundary vertex with no interior neighbour ("lone"), whose
    ``K u`` sits on zeroed blocks only.  The nullity is the larger of the
    two counts, and at most ``n`` (``A = 0`` on a mesh with no interior
    vertex).  It equals the dense nullity on every mesh in use: 5 on the
    structured square, 34 on ``box(5, 5, 5)``, 7 on the unrefined ball.
    """
    if op.bc_kind == "neumann":
        return 1
    mesh = op.mesh
    n = mesh.num_vertices
    interior = np.ones(n, dtype=bool)
    interior[op.boundary_vertices] = False
    interior_neighbors = mesh.vertex_graph() @ interior
    lone = int(np.count_nonzero(~interior & (interior_neighbors == 0)))
    rank_bound = n - mandel_size(mesh.dim) * int(np.count_nonzero(interior))
    return min(n, max(mesh.dim + 1 + lone, rank_bound))


def nonzero_eigenpairs(op, count):
    """The ``count`` smallest nonzero eigenpairs of ``op`` against its vertex mass.

    Asks ``eigs_generalized`` once for ``count + nullity(op)`` pairs and
    keeps the first ``count`` that ``zero_modes`` calls nonzero.  The
    nullity only sizes the request; ``zero_modes`` decides, because ARPACK
    may return fewer zero modes than the nullspace holds and nonzero ones
    in their place.

    Raises
    ------
    ParameterError
        If ``count`` is not an integer >= 1 (a bool is not one), or
        ``count + nullity(op)`` exceeds ``n - 1``.
    NumericalError
        If the request holds fewer than ``count`` nonzero pairs (more zero
        modes than predicted).
    """
    check_integer("count", count)
    n_zero = nullity(op)
    k = count + n_zero
    n = op.matrix.shape[0]
    if k > n - 1:
        raise ParameterError(
            f"count: {count} nonzero modes and {n_zero} zero modes need {k} eigenpairs; "
            f"the operator has {n} unknowns"
        )
    eig = eigs_generalized(op, op.vertex_mass, k)
    zero = zero_modes(op, eig.values)
    keep = np.flatnonzero(~zero)[:count]
    if len(keep) < count:
        raise NumericalError(
            f"predicted {n_zero} zero modes, found {int(zero.sum())} among {k} "
            f"eigenpairs; only {len(keep)} of {count} nonzero modes returned"
        )
    return EigenResult(
        values=eig.values[keep],
        vectors=eig.vectors[:, keep],
        residuals=eig.residuals[keep],
    )


def build_embedding(op, n_modes=64):
    """Spectral embedding of the operator's ``n_modes`` smallest nonzero modes.

    The modes come from ``nonzero_eigenpairs``: one request for
    ``n_modes + nullity(op)`` pairs.  The default of 64 modes matches the
    scale of the eigenfunction experiments.
    """
    eig = nonzero_eigenpairs(op, n_modes)
    return SpectralEmbedding(
        coordinates=eig.vectors / eig.values,
        eigenvalues=eig.values,
        n_modes=n_modes,
    )


def distance_field(embedding, source):
    """Distance from ``source`` to every vertex in the spectral embedding.

    ``source`` must be a vertex index in [0, nv); else ``ParameterError``.
    """
    coords = embedding.coordinates
    delta = coords - coords[check_integer("source", source, 0, len(coords))]
    return np.linalg.norm(delta, axis=1)


def trace_descent_path(mesh, dist, start):
    """Greedy vertex descent on a distance field.

    From the current vertex, move to the 1-ring neighbor with the steepest
    decrease per unit edge length; stop at a local minimum.  Returns the
    polyline of visited vertex positions.  The distance strictly decreases
    along the path by construction.  ``dist`` must hold one finite value per
    vertex and ``start`` must be a vertex index; else ``ParameterError``.
    """
    nv = mesh.num_vertices
    start = check_integer("start", start, 0, nv)
    dist = check_values("dist", dist, (nv,))
    neighbors = mesh.vertex_neighbors()
    path = [start]
    current = start
    while True:
        nbrs = neighbors[current]
        drops = dist[current] - dist[nbrs]
        lengths = np.linalg.norm(
            mesh.vertices[nbrs] - mesh.vertices[current], axis=1
        )
        rates = drops / lengths
        best = int(np.argmax(rates))
        if not rates[best] > 0.0:
            break
        current = int(nbrs[best])
        path.append(current)
    return mesh.vertices[np.asarray(path, dtype=np.int64)]


def color_by_boundary(op, boundary_colors):
    """Propagate boundary RGB into the interior along the frame field.

    Per channel, minimizes the operator energy subject to the prescribed
    boundary values, with box bounds pinning each channel's extrema to the
    boundary.  Expects the natural-condition operator (the epsilon = 0.01
    setting of the coloring experiments).

    Parameters
    ----------
    op : AssembledOperator
    boundary_colors : np.ndarray
        Shape ``(nb, 3)`` RGB in [0, 1], ordered like ``op.boundary_vertices``;
        anything else, NaN included, raises ``ParameterError``.

    Returns
    -------
    np.ndarray
        Shape ``(nv, 3)`` per-vertex colors.
    """
    boundary_colors = as_floats("boundary colors", boundary_colors)
    bv = op.boundary_vertices
    # the range check comes first, so a NaN is reported as out of range
    if not np.all((boundary_colors >= -1e-12) & (boundary_colors <= 1.0 + 1e-12)):
        raise ParameterError("colors must lie in [0, 1]")
    boundary_colors = check_values("boundary colors", boundary_colors, (len(bv), 3))
    nv = op.matrix.shape[0]
    out = np.empty((nv, 3))
    for c in range(3):
        vals = boundary_colors[:, c]
        lower = np.full(nv, vals.min())
        upper = np.full(nv, vals.max())
        out[:, c] = solve_box_qp(op, bv, vals, lower, upper)
    return out


# -- measurement helpers -------------------------------------------------------


def isoline_crossings(mesh, values, level):
    """Points where the piecewise-linear field crosses a level, on edges.

    ``values`` must hold one finite number per vertex and ``level`` be one
    finite number, else ``ParameterError``.
    """
    values = check_values("isoline values", values, (mesh.num_vertices,))
    level = check_values("isoline level", level, ())
    e = mesh.edges()
    va, vb = values[e[:, 0]], values[e[:, 1]]
    mask = (va - level) * (vb - level) < 0.0
    ea, eb = e[mask, 0], e[mask, 1]
    t = (level - values[ea]) / (values[eb] - values[ea])
    return mesh.vertices[ea] + t[:, None] * (mesh.vertices[eb] - mesh.vertices[ea])


def radial_ratio(points, center):
    """Max-over-min radius of a point set around a center.

    For a closed isoline this measures anisotropy as the major/minor axis
    ratio of the curve; 1 for a circle.  Second moments would miss 4-fold
    symmetric (star-shaped) curves, so radii are used directly.
    ``ParameterError`` is raised unless ``points`` are finite ``(n, d)``
    rows, n >= 1, and ``center`` a finite ``(d,)`` point that none of them
    lies on.
    """
    points = check_values("isoline points", points, (None, None))
    center = check_values("isoline center", center, (points.shape[1],))
    r = np.linalg.norm(points - center, axis=1)
    if len(r) == 0:
        raise ParameterError("no isoline points")
    if not r.min() > 0.0:
        raise ParameterError("an isoline point lies on the center")
    return float(np.max(r) / np.min(r))


def square_wave_boundary(mesh, measures, periods=4):
    """Square-wave boundary data, keyed to the polar angle about the centroid.

    Using the angle (rather than a per-mesh arc-length parametrization)
    keeps the data consistent across refinement levels of the same domain.
    ``measures`` must be ``compute_measures(mesh)``: another mesh's boundary
    raises ``ParameterError``.
    """
    if measures is not compute_measures(mesh):
        raise ParameterError("measures must be compute_measures(mesh) of the mesh given")
    boundary = mesh.vertices[measures.boundary_vertices]
    p = boundary - boundary.mean(axis=0)
    angle = np.arctan2(p[:, 1], p[:, 0])
    s = np.sin(periods * angle)
    # vertices sitting exactly on a jump get +1, with a tolerance wide enough
    # that centroid roundoff cannot flip them between refinement levels
    return np.where(np.abs(s) <= 1e-9, 1.0, np.sign(s))
