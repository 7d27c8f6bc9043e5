"""Programmatic mesh constructions used by the demos, tests, and experiments.

All generators produce consistently oriented meshes whose boundary is a
polygon/polyhedron preserved exactly by uniform midpoint refinement, which
is what the convergence studies rely on.
"""

import itertools

import numpy as np
from scipy.spatial import Delaunay

from .errors import ParameterError
from .geometry import SimplicialMesh, _edge_determinants, _orient_elements

# The 6 path-simplices of the unit cube as (6, 4, 3) corner offsets: from
# the origin, one unit step along each axis in the order of a permutation.
_KUHN_STEPS = np.eye(3, dtype=np.int64)[list(itertools.permutations(range(3)))]
_KUHN_OFFSETS = np.cumsum(np.pad(_KUHN_STEPS, ((0, 0), (1, 0), (0, 0))), axis=1)


def structured_square(n, lo=-1.0, hi=1.0):
    """Structured triangulation of the square [lo, hi]^2 with n x n cells."""
    xs = np.linspace(lo, hi, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) has lower-left corner i * (n + 1) + j and two triangles
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (i * (n + 1) + j).ravel().astype(np.int64)
    v10, v01 = v00 + (n + 1), v00 + 1
    v11 = v10 + 1
    tris = np.stack(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])], axis=1
    )
    return SimplicialMesh(vertices, tris.reshape(-1, 3))


def disk(rings, radius=1.0):
    """Polygonal disk built from concentric rings of 6k points.

    Ring k (1 <= k <= rings) carries 6k equally spaced points at radius
    k/rings; bands between consecutive rings are triangulated by an angular
    merge.  The center vertex has index 0 and the boundary is a regular
    6*rings-gon.
    """
    vertices = [np.zeros(2)]
    ring_start = [None, 1]
    for k in range(1, rings + 1):
        count = 6 * k
        t = 2.0 * np.pi * np.arange(count) / count
        r = radius * k / rings
        vertices.extend(np.column_stack([r * np.cos(t), r * np.sin(t)]))
        ring_start.append(ring_start[k] + count)
    vertices = np.asarray(vertices)

    # Innermost fan around the center.
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    for k in range(1, rings):
        tris += _ring_band(k, ring_start[k], ring_start[k + 1])
    elements = _orient_elements(vertices, np.array(tris, dtype=np.int64))
    return SimplicialMesh(vertices, elements)


def annulus(inner_rings, outer_rings, radius=1.0):
    """Polygonal annulus: the band of ring indices [inner, outer] of a disk.

    Ring k carries 6k points at radius ``k/outer_rings * radius``; both
    boundaries are regular polygons.
    """
    if not 1 <= inner_rings < outer_rings:
        raise ParameterError("need 1 <= inner_rings < outer_rings")
    vertices = []
    ring_start = {}
    for k in range(inner_rings, outer_rings + 1):
        ring_start[k] = len(vertices)
        count = 6 * k
        t = 2.0 * np.pi * np.arange(count) / count
        r = radius * k / outer_rings
        vertices.extend(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    vertices = np.asarray(vertices)
    tris = []
    for k in range(inner_rings, outer_rings):
        tris += _ring_band(k, ring_start[k], ring_start[k + 1])
    elements = _orient_elements(vertices, np.array(tris, dtype=np.int64))
    return SimplicialMesh(vertices, elements)


def _ring_band(k, s_in, s_out):
    # Triangulate the band between ring k (6k points from index s_in) and
    # ring k+1 (6k+6 points from s_out) by an angular merge: advance on
    # whichever ring reaches the next angle first.
    n_in, n_out = 6 * k, 6 * (k + 1)
    ang_in = 2.0 * np.pi * np.arange(n_in + 1) / n_in
    ang_out = 2.0 * np.pi * np.arange(n_out + 1) / n_out
    tris = []
    i = j = 0
    while i < n_in or j < n_out:
        vi = s_in + i % n_in
        vj = s_out + j % n_out
        advance_outer = j < n_out and (i == n_in or ang_out[j + 1] <= ang_in[i + 1])
        if advance_outer:
            tris.append((vi, vj, s_out + (j + 1) % n_out))
            j += 1
        else:
            tris.append((vi, vj, s_in + (i + 1) % n_in))
            i += 1
    return tris


def box(nx, ny, nz, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    """Kuhn (Freudenthal) tetrahedralization of an axis-aligned box.

    Each grid cube is split into 6 tetrahedra along the main diagonal; the
    split is identical in every cube, so faces between cubes conform.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    counts = (nx, ny, nz)
    axes = [np.linspace(lo[a], hi[a], counts[a] + 1) for a in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # each cell's 6 tetrahedra: its base grid index plus the Kuhn offsets
    cells = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    base = np.stack([c.ravel() for c in cells], axis=-1).astype(np.int64)
    corners = base[:, None, None, :] + _KUHN_OFFSETS
    tets = (corners[..., 0] * (ny + 1) + corners[..., 1]) * (nz + 1) + corners[..., 2]
    elements = _orient_elements(vertices, tets.reshape(-1, 4))
    return SimplicialMesh(vertices, elements)


def ball(radius=1.0):
    """Coarse ball: unit icosahedron vertices plus center, 20 tetrahedra.

    Refine with :func:`framefieldops.geometry.refine_uniform` to build
    hierarchies; the polyhedral boundary is preserved exactly.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    raw = []
    for a, b in [(1.0, phi)]:
        raw += [
            (0, +a, +b), (0, +a, -b), (0, -a, +b), (0, -a, -b),
            (+a, +b, 0), (+a, -b, 0), (-a, +b, 0), (-a, -b, 0),
            (+b, 0, +a), (-b, 0, +a), (+b, 0, -a), (-b, 0, -a),
        ]
    pts = np.asarray(raw, dtype=float)
    pts *= radius / np.linalg.norm(pts[0])
    # Faces by convex hull of the 12 sphere points.
    hull = Delaunay(pts).convex_hull
    vertices = np.vstack([np.zeros(3), pts])
    tets = np.column_stack([np.zeros(len(hull), dtype=np.int64), hull + 1])
    elements = _orient_elements(vertices, tets)
    return SimplicialMesh(vertices, elements)


def jittered_delaunay(dim, n_side, jitter=0.25, seed=0):
    """Delaunay mesh of a jittered grid in the unit square/cube.

    Each grid coordinate that is strictly interior along its axis is
    perturbed by ``jitter * h`` with a seeded RNG; coordinates pinned to the
    box faces stay put, so the domain is exactly the unit box while the
    regular-grid degeneracies that produce flat Delaunay simplices are
    broken.  Useful for randomized assembly tests.
    """
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0.0, 1.0, n_side + 1)] * dim
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grid])
    h = 1.0 / n_side
    for a in range(dim):
        free = (pts[:, a] > 1e-12) & (pts[:, a] < 1.0 - 1e-12)
        pts[free, a] += rng.uniform(-jitter * h, jitter * h, free.sum())
    tri = Delaunay(pts)
    elements = _orient_elements(pts, tri.simplices.astype(np.int64))
    dets = _edge_determinants(pts, elements)  # nonnegative once oriented
    return SimplicialMesh(pts, elements[dets > 1e-9 * h**dim])
