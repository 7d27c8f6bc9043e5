"""Downstream computations: spectral distances, descent paths, coloring.

The distance construction embeds vertices by eigenfunction values scaled by
inverse eigenvalues; distances are Euclidean in that embedding, so metric
properties hold exactly.  With epsilon = 1 the operator is the Bilaplacian
and the distances are the classical biharmonic ones.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .solve import eigs_generalized, solve_box_qp

logger = logging.getLogger(__name__)

ZERO_MODE_RELTOL = 1e-8


@dataclass
class SpectralEmbedding:
    """Vertex coordinates phi_k(v) / lambda_k over the kept nonzero modes."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    n_modes: int
    fingerprint: str

    def truncated(self, n):
        if not 0 < n <= self.n_modes:
            raise ValueError(f"mode count must lie in (0, {self.n_modes}]")
        return SpectralEmbedding(
            coordinates=self.coordinates[:, :n],
            eigenvalues=self.eigenvalues[:n],
            n_modes=n,
            fingerprint=self.fingerprint,
        )


def build_embedding(op, n_modes=64):
    """Spectral embedding of the operator's nonzero modes.

    Zero modes (below 1e-8 of the largest computed eigenvalue) are
    discarded; under Neumann conditions that is the constant mode only.
    The default of 64 modes matches the scale of the eigenfunction
    experiments.
    """
    dim = op.mesh.dim
    request = min(n_modes + dim + 3, op.matrix.shape[0] - 1)
    eig = eigs_generalized(op, op.vertex_mass, request)
    lam_max = float(np.max(eig.values))
    keep = np.flatnonzero(eig.values > ZERO_MODE_RELTOL * lam_max)
    if len(keep) < n_modes:
        raise NumericalError(
            f"only {len(keep)} nonzero modes available, requested {n_modes}"
        )
    keep = keep[:n_modes]
    coords = eig.vectors[:, keep] / eig.values[keep]
    return SpectralEmbedding(
        coordinates=coords,
        eigenvalues=eig.values[keep],
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
        raise ValueError(f"start vertex {start} is isolated")
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
        raise ValueError(f"boundary colors must have shape {(len(bv), 3)}")
    if boundary_colors.min() < -1e-12 or boundary_colors.max() > 1.0 + 1e-12:
        raise ValueError("colors must lie in [0, 1]")
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
        raise ValueError("no isoline points")
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
