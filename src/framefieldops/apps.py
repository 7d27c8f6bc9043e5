"""Downstream computations: nonzero spectra, spectral distances, descent
paths, coloring.

``zero_modes`` is the one rule for the operator's nullspace (1 mode under
Neumann conditions, 5 on the natural square, 34 on the natural
``box(5, 5, 5)``), and ``nonzero_eigenpairs`` the one way to skip it.

The distance construction embeds vertices by eigenfunction values scaled by
inverse eigenvalues; distances are Euclidean in that embedding, so metric
properties hold exactly.  With epsilon = 1 the operator is the Bilaplacian
and the distances are the classical biharmonic ones.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .solve import EigenResult, eigs_generalized, solve_box_qp

logger = logging.getLogger(__name__)

ZERO_MODE_RELTOL = 1e-8
ROUNDOFF_RELTOL = 1e-12


@dataclass
class SpectralEmbedding:
    """Vertex coordinates phi_k(v) / lambda_k over the kept nonzero modes."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    n_modes: int
    fingerprint: str

    def truncated(self, n):
        if not 0 < n <= self.n_modes:
            raise ParameterError(f"mode count must lie in (0, {self.n_modes}]")
        return SpectralEmbedding(
            coordinates=self.coordinates[:, :n],
            eigenvalues=self.eigenvalues[:n],
            n_modes=n,
            fingerprint=self.fingerprint,
        )


def zero_modes(op, values):
    """Mask of the zero modes among computed eigenvalues of ``op``.

    A value is a zero mode when it is at most ``ZERO_MODE_RELTOL`` times the
    largest value in ``values``, or at most ``ROUNDOFF_RELTOL`` times the
    largest diagonal entry of the operator over the vertex mass.  That floor
    comes from the operator, so a set of values that holds only zero modes
    is seen as such.  On the meshes in use (squares up to 92, disk 36,
    ``box(5, 5, 5)``) zero modes sit below 1e-15 of that scale and the first
    nonzero mode above 6e-9.
    """
    floor = ROUNDOFF_RELTOL * np.max(op.matrix.diagonal() / op.vertex_mass)
    return (values <= ZERO_MODE_RELTOL * np.max(values)) | (values <= floor)


def nonzero_eigenpairs(op, count):
    """The ``count`` smallest nonzero eigenpairs of ``op`` against its vertex mass.

    Asks ``eigs_generalized`` once for ``count + dim + 3`` pairs, enough for
    the constant or affine nullspace plus a margin.  Only when more zero
    modes than that push nonzero pairs out (natural conditions on domains
    with corners) does it ask again, adding the zero count it found to the
    request, which ``zero_modes`` sees even when it holds only zero modes.

    Raises
    ------
    NumericalError
        If ``n - 1`` pairs hold fewer than ``count`` nonzero ones.
    """
    if count < 1:
        raise ParameterError(f"count must be positive, got {count}")
    limit = op.matrix.shape[0] - 1
    k = min(count + op.mesh.dim + 3, limit)
    while True:
        eig = eigs_generalized(op, op.vertex_mass, k)
        zero = zero_modes(op, eig.values)
        keep = np.flatnonzero(~zero)[:count]
        if len(keep) == count:
            return EigenResult(
                values=eig.values[keep],
                vectors=eig.vectors[:, keep],
                residuals=eig.residuals[keep],
            )
        if k == limit:
            raise NumericalError(
                f"only {len(keep)} nonzero modes available, requested {count}"
            )
        n_zero = int(zero.sum())
        k = min(k + n_zero, limit)
        logger.info("%d zero modes; asking again for %d eigenpairs", n_zero, k)


def build_embedding(op, n_modes=64):
    """Spectral embedding of the operator's ``n_modes`` smallest nonzero modes.

    The modes come from ``nonzero_eigenpairs``: one request for
    ``n_modes + dim + 3`` pairs, grown only when zero modes push nonzero
    ones out.  The default of 64 modes matches the scale of the
    eigenfunction experiments.
    """
    eig = nonzero_eigenpairs(op, n_modes)
    return SpectralEmbedding(
        coordinates=eig.vectors / eig.values,
        eigenvalues=eig.values,
        n_modes=n_modes,
        fingerprint=op.fingerprint,
    )


def distance_field(embedding, source):
    """Distance from ``source`` to every vertex in the spectral embedding."""
    delta = embedding.coordinates - embedding.coordinates[source]
    return np.linalg.norm(delta, axis=1)


def trace_descent_path(mesh, dist, start):
    """Greedy vertex descent on a distance field.

    From the current vertex, move to the 1-ring neighbor with the steepest
    decrease per unit edge length; stop at a local minimum.  Returns the
    polyline of visited vertex positions.  The distance strictly decreases
    along the path by construction.
    """
    neighbors = mesh.vertex_neighbors()
    if len(neighbors[start]) == 0:
        raise ParameterError(f"start vertex {start} is isolated")
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
        if rates[best] <= 0.0:
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
        Shape ``(nb, 3)`` RGB in [0, 1], ordered like ``op.boundary_vertices``.

    Returns
    -------
    np.ndarray
        Shape ``(nv, 3)`` per-vertex colors.
    """
    boundary_colors = np.asarray(boundary_colors, dtype=float)
    bv = op.boundary_vertices
    if boundary_colors.shape != (len(bv), 3):
        raise ParameterError(f"boundary colors must have shape {(len(bv), 3)}")
    if boundary_colors.min() < -1e-12 or boundary_colors.max() > 1.0 + 1e-12:
        raise ParameterError("colors must lie in [0, 1]")
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
    """Points where the piecewise-linear field crosses a level, on edges."""
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
    """
    r = np.linalg.norm(points - np.asarray(center, dtype=float), axis=1)
    if len(r) == 0:
        raise ParameterError("no isoline points")
    return float(np.max(r) / np.min(r))


def square_wave_boundary(mesh, measures, periods=4):
    """Square-wave boundary data, keyed to the polar angle about the centroid.

    Using the angle (rather than a per-mesh arc-length parametrization)
    keeps the data consistent across refinement levels of the same domain.
    """
    boundary = mesh.vertices[measures.boundary_vertices]
    p = boundary - boundary.mean(axis=0)
    angle = np.arctan2(p[:, 1], p[:, 0])
    s = np.sin(periods * angle)
    # vertices sitting exactly on a jump get +1, with a tolerance wide enough
    # that centroid roundoff cannot flip them between refinement levels
    return np.where(np.abs(s) <= 1e-9, 1.0, np.sign(s))
