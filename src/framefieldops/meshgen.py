"""Programmatic mesh constructions used by the demos, tests, and experiments.

All generators produce consistently oriented meshes whose boundary is a
polygon/polyhedron preserved exactly by uniform midpoint refinement, which
is what the convergence studies rely on.  Each builds its arrays whole,
with no Python loop over vertices, cells or rings.
"""

import itertools

import numpy as np

from .errors import GeometryError, ParameterError, check_integer
from .geometry import SimplicialMesh, _edge_determinants, _orient_elements

# The 6 path-simplices of the unit cube as (6, 4, 3) corner offsets: from
# the origin, one unit step along each axis in the order of a permutation.
_KUHN_STEPS = np.eye(3, dtype=np.int64)[list(itertools.permutations(range(3)))]
_KUHN_OFFSETS = np.cumsum(np.pad(_KUHN_STEPS, ((0, 0), (1, 0), (0, 0))), axis=1)

# The ball's 20 positively oriented tetrahedra: the center, 0, and a face.
_BALL_TETS = np.array([
    [0, 3, 6, 9], [0, 7, 5, 2], [0, 12, 7, 2], [0, 11, 6, 4], [0, 11, 4, 2],
    [0, 12, 2, 4], [0, 11, 5, 9], [0, 11, 2, 5], [0, 11, 9, 6], [0, 8, 4, 6],
    [0, 12, 4, 8], [0, 8, 3, 10], [0, 12, 8, 10], [0, 8, 6, 3], [0, 1, 7, 10],
    [0, 12, 10, 7], [0, 1, 5, 7], [0, 1, 10, 3], [0, 1, 3, 9], [0, 1, 9, 5],
])


def structured_square(n):
    """Structured triangulation of the square [-1, 1]^2, the domain of
    :func:`framefieldops.analytic.square_spectrum`, with n x n cells.
    ``n`` must be an integer >= 1, else ``ParameterError``."""
    check_integer("n", n)
    xs = np.linspace(-1.0, 1.0, n + 1)
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


def disk(rings):
    """Polygonal disk of radius 1 built from concentric rings of 6k points.

    Ring k (1 <= k <= rings) carries 6k equally spaced points at radius
    k/rings; bands between consecutive rings are triangulated by
    ``_bands``.  The center vertex has index 0 and the boundary is a
    regular 6*rings-gon inscribed in the unit circle.  ``rings`` must be an
    integer >= 1, else ``ParameterError``.
    """
    check_integer("rings", rings)
    vertices = np.vstack([np.zeros((1, 2)), _rings(rings)])
    i = np.arange(6)  # the innermost fan around the center
    fan = np.column_stack([np.zeros_like(i), 1 + i, 1 + (i + 1) % 6])
    tris = np.vstack([fan, 1 + _bands(rings)])
    return SimplicialMesh(vertices, _orient_elements(vertices, tris))


def _segments(counts):
    # Segment index and position within it for each of sum(counts) items.
    seg = np.repeat(np.arange(len(counts)), counts)
    return seg, np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg]


def _rings(last):
    """Points of rings 1..last, ring after ring: ring k holds 6k points at
    angles 2 pi j / 6k, from the positive x axis, and at radius k / last."""
    k = np.arange(1, last + 1)
    ring, step = _segments(6 * k)
    t = 2.0 * np.pi * step / (6 * k)[ring]
    r = k[ring] / last
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def _bands(last):
    """Triangles joining consecutive rings of ``_rings(last)``, indexed from
    its first point.  Each band is an angular merge: a step advances on the
    ring whose next point comes first, the outer ring on ties, and emits the
    triangle of both current points and that next one.  A stable sort by
    band and angle, outer steps listed first, merges all."""
    k = np.arange(1, last)  # inner ring of each band
    counts = np.column_stack([6 * k + 6, 6 * k]).ravel()  # outer, inner steps
    seg, step = _segments(counts)
    order = np.lexsort((2.0 * np.pi * (step + 1) / counts[seg], seg // 2))
    seg, own = seg[order], step[order]
    other = _segments(12 * k + 6)[1] - own  # steps taken on the other ring
    outer = seg % 2 == 0
    i, j = np.where(outer, other, own), np.where(outer, own, other)
    k = k[seg // 2]
    n_in, s_in = 6 * k, 3 * k * (k - 1)  # ring k
    n_out, s_out = n_in + 6, s_in + n_in  # ring k + 1
    third = np.where(outer, s_out + (j + 1) % n_out, s_in + (i + 1) % n_in)
    return np.column_stack([s_in + i % n_in, s_out + j % n_out, third])


def box(nx, ny, nz):
    """Kuhn (Freudenthal) tetrahedralization of the unit cube [0, 1]^3 with
    nx x ny x nz cells.

    Each grid cube is split into 6 tetrahedra along the main diagonal; the
    split is identical in every cube, so faces between cubes conform.
    Each count must be an integer >= 1, else ``ParameterError``.
    """
    counts = (nx, ny, nz)
    for name, count in zip(("nx", "ny", "nz"), counts):
        check_integer(name, count)
    axes = [np.linspace(0.0, 1.0, count + 1) for count in counts]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # each cell's 6 tetrahedra: its base grid index plus the Kuhn offsets
    cells = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    base = np.stack([c.ravel() for c in cells], axis=-1).astype(np.int64)
    corners = base[:, None, None, :] + _KUHN_OFFSETS
    tets = (corners[..., 0] * (ny + 1) + corners[..., 1]) * (nz + 1) + corners[..., 2]
    elements = _orient_elements(vertices, tets.reshape(-1, 4))
    return SimplicialMesh(vertices, elements)


def ball():
    """Coarse unit ball: the center and the 12 icosahedron vertices on the
    unit sphere, joined by the 20 tetrahedra of ``_BALL_TETS``.

    Refine with :func:`framefieldops.geometry.refine_uniform` to build
    hierarchies; the polyhedral boundary is preserved exactly.
    """
    a, b = 1.0, (1.0 + np.sqrt(5.0)) / 2.0
    pts = np.array([
        (0, +a, +b), (0, +a, -b), (0, -a, +b), (0, -a, -b),
        (+a, +b, 0), (+a, -b, 0), (-a, +b, 0), (-a, -b, 0),
        (+b, 0, +a), (-b, 0, +a), (+b, 0, -a), (-b, 0, -a),
    ])
    pts *= 1.0 / np.linalg.norm(pts[0])
    return SimplicialMesh(np.vstack([np.zeros(3), pts]), _BALL_TETS)


def jittered_delaunay(dim, n_side, jitter=0.25, seed=0):
    """Delaunay mesh of a jittered grid in the unit square/cube.

    Each grid coordinate that is strictly interior along its axis is
    perturbed by ``jitter * h`` with a seeded RNG; coordinates pinned to the
    box faces stay put, so the domain is exactly the unit box while the
    regular-grid degeneracies that produce flat Delaunay simplices are
    broken.  Useful for randomized assembly tests.  ``dim`` must be 2 or 3
    and ``n_side`` an integer >= 1, else ``ParameterError``.  Flat Delaunay
    simplices, as of the 3D grid with ``jitter=0.0``, raise ``GeometryError``:
    the mesh would crack without them.  The operator does not converge on
    these meshes, which are not nested: in 2D with ``jitter=0.0`` its errors
    level off at 0.26-0.29 (see :mod:`framefieldops.fem`).
    """
    from scipy.spatial import Delaunay

    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim!r}")
    check_integer("n_side", n_side)
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
    flat = _edge_determinants(pts, elements) <= 1e-9 * h**dim  # nonnegative once oriented
    if np.any(flat):
        raise GeometryError(f"{np.count_nonzero(flat)} Delaunay simplices are flat")
    return SimplicialMesh(pts, elements)
