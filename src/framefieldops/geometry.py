"""Simplicial meshes: representation, file I/O, measures, and refinement.

A :class:`SimplicialMesh` holds a planar triangle mesh (dim=2) or a
tetrahedral mesh (dim=3) with consistently oriented elements of positive
signed volume.  Boundary facets are recovered by facet-incidence counting
and oriented outward.

Everything derived from the mesh alone is built once, with vectorized numpy,
and is read-only.  Element volumes and boundary facets are built at
construction, and in 2D the edge table too, as a triangle's facets are its
edges; every other mesh-only result is built on first use through
:func:`mesh_cached`: the edges with the element-edge incidence, the vertex
graph, 1-ring neighbors and order, shape gradients, the hash state,
``compute_measures``, ``gradient_matrix``, and ``fem.star_blocks``, which
holds the star blocks of the operator's mesh-only factor and the pattern
they are assembled into.  The mesh keeps read-only copies of its vertex and
element arrays and sets every attribute in its constructor, so no cached
result can go stale; meshes are immutable after construction and safe to
share across threads.  Only this module touches the cache.  A refined mesh
records nothing of the mesh it came from: ``prolong_linear`` reads the
coarse mesh, and ``framefield.resample_field`` its vertex prefix.

Every mesh pays these kernels on first use, so they run on long 1-D arrays:
volumes and shape gradients on per-coordinate ``(ne,)`` columns of the
element edges (``_edge_columns``), and row grouping on one ``np.sort`` per
int64 key that packs the columns with the row index (``_row_groups``).
Both give exactly the bits of the ``(ne, k, dim)`` and ``lexsort`` forms
they replaced.

Files: the extension picks the format from one table, OFF or OBJ for planar
triangle meshes and MEDIT (``.mesh``, ``.medit``) for tetrahedral ones.  Rows
are written as whole arrays with 17 significant digits, so a saved mesh loads
back bitwise, and a refused save leaves an existing file alone.
"""

import dataclasses
import functools
import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import GeometryError, MeshFormatError, check_values

_FACTORIAL = {2: 2.0, 3: 6.0}


def _freeze(value):
    """Mark read-only every array reachable from ``value``: ndarrays, the
    ``data``, ``indices`` and ``indptr`` of sparse matrices, and the members
    of tuples, lists and dataclasses.  Anything else is left as it is."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif sparse.issparse(value):
        _freeze((value.data, value.indices, value.indptr))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif dataclasses.is_dataclass(value):
        _freeze([getattr(value, field.name) for field in dataclasses.fields(value)])
    return value


def mesh_cached(build):
    """Run ``build(mesh)`` once per mesh and return that object on every call.

    The result is kept in ``mesh._cache`` under ``build``, with every array
    reachable from it marked read-only (see ``_freeze``).  ``build`` must
    depend on the mesh alone; as the mesh is read-only too, the result
    cannot go stale and all callers share it.  A new mesh, refined or not,
    builds its own.  Decorates ``SimplicialMesh`` methods and functions of
    a mesh alike.
    """

    @functools.wraps(build)
    def cached(mesh):
        if build not in mesh._cache:
            # threads racing on a first call all return the first result stored
            mesh._cache.setdefault(build, _freeze(build(mesh)))
        return mesh._cache[build]

    return cached


def _stable_order(key, bound):
    """``np.argsort(key, kind="stable")`` for integer keys in [0, bound).

    Each key is packed with its index into one int64, ``key << bits |
    index`` with ``bits`` the bit length of the largest index, so the
    packed keys are distinct and one ``np.sort`` of them orders the keys
    with ties in index order; the order is read back from the low bits.
    A packed key stays below 2**63 when ``bound << bits <= 2**63``;
    a larger ``bound`` raises ``ValueError``.
    """
    bits = (len(key) - 1).bit_length()
    if int(bound) << bits > 2**63:
        raise ValueError(f"keys below {bound} do not pack with {bits} index bits")
    packed = key.astype(np.int64) << bits
    packed |= np.arange(len(key))
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def _row_groups(rows, bound):
    """Group equal rows of an integer array whose entries lie in [0, bound).

    Returns the lexicographic sort order of the rows and the positions in
    that order where each run of equal rows starts.  The columns are packed,
    in base ``bound``, into int64 keys of m adjacent columns each, with m as
    large as leaves room for ``_stable_order``'s row index below 2**63
    (``bound**m << bits <= 2**63``, ``bits`` the bit length of the last row
    index): with up to 2**20 rows one key holds a whole row while
    ``bound`` is at most 2,965,820 for two columns, 20,642 for three and
    1,722 for four.  Stable orders of the keys, last to first, give exactly the
    order of a ``lexsort`` of the columns, ties in index order included,
    for a fraction of its cost.
    """
    bound = int(bound)
    bits = (len(rows) - 1).bit_length()
    width = 1
    while width < rows.shape[1] and bound ** (width + 1) << bits <= 2**63:
        width += 1
    keys = []
    for first in range(0, rows.shape[1], width):
        key = rows[:, first].astype(np.int64)
        for column in rows.T[first + 1 : first + width]:
            key *= bound
            key += column
        keys.append(key)
    order = _stable_order(keys[-1], bound**width)
    for key in keys[-2::-1]:
        order = order[_stable_order(key[order], bound**width)]
    new = np.zeros(len(rows), dtype=bool)
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    new[:1] = True
    return order, np.flatnonzero(new)


# Compare-exchange networks that sort 2, 3 and 4 values.
_SORTING_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
}


def _sorted_rows(rows, carried=None):
    """``np.sort(rows, axis=1)`` for rows of 2 to 4 integers, by min/max
    compare-exchanges of whole columns.  ``carried``, if given, holds one
    list of ``(n,)`` arrays per column, which each exchange swaps in place
    where it swaps the keys."""
    columns = list(rows.T)
    for i, j in _SORTING_NETWORKS[len(columns)]:
        if carried:
            swap = columns[j] < columns[i]
            for c, (a, b) in enumerate(zip(carried[i], carried[j])):
                carried[i][c], carried[j][c] = np.where(swap, b, a), np.where(swap, a, b)
        columns[i], columns[j] = (
            np.minimum(columns[i], columns[j]),
            np.maximum(columns[i], columns[j]),
        )
    return np.stack(columns, axis=1)


class SimplicialMesh:
    """Triangle or tetrahedral mesh with boundary structure.

    Parameters
    ----------
    vertices : array_like
        Shape ``(nv, dim)`` vertex coordinates, dim = 2 or 3.
    elements : array_like
        Shape ``(ne, dim + 1)`` vertex indices, integers or floats with
        integral values.  Every element must have positive signed volume
        (consistent orientation).

    Both arrays are copied and stored read-only, so later edits to the
    arrays passed in cannot reach the mesh, and writing to ``mesh.vertices``
    or ``mesh.elements`` raises ``ValueError``.  Every attribute is set
    here; see the module docstring for what is derived and how it is cached.

    Raises
    ------
    GeometryError
        On non-finite coordinates, inverted or degenerate elements, duplicate
        elements, non-integral or out-of-range indices, vertices that belong
        to no element, or a facet shared by more than two elements.
    """

    def __init__(self, vertices, elements):
        vertices = check_values("vertices", vertices, (None, (2, 3)), GeometryError)
        self.vertices = _freeze(np.array(vertices, order="C"))
        e = np.asarray(elements)
        if e.dtype.kind == "f" and not np.all((abs(e) < 2**53) & (e == np.round(e))):
            raise GeometryError("element vertex indices must be integral")
        self.elements = _freeze(np.array(e, dtype=np.int64, order="C"))
        self.dim = self.vertices.shape[1]
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise GeometryError(
                f"elements must have {self.dim + 1} vertices for dim {self.dim}"
            )
        if self.elements.size and (
            self.elements.min() < 0 or self.elements.max() >= len(self.vertices)
        ):
            raise GeometryError("element vertex index out of range")
        if len(self.elements) == 0:
            raise GeometryError("mesh has no elements")
        uses = np.bincount(self.elements.ravel(), minlength=len(self.vertices))
        unused = np.flatnonzero(uses == 0)
        if len(unused):
            raise GeometryError(
                f"{len(unused)} vertices belong to no element (first: {unused[0]})"
            )

        _, starts = _row_groups(_sorted_rows(self.elements), len(self.vertices))
        if len(starts) != len(self.elements):
            raise GeometryError("duplicate elements")

        vols = _edge_determinants(self.vertices, self.elements) / _FACTORIAL[self.dim]
        if np.any(vols <= 0.0):
            bad = int(np.argmin(vols))
            raise GeometryError(
                f"element {bad} has nonpositive volume {vols[bad]:.3e}; "
                "elements must be consistently oriented and nondegenerate"
            )
        self.element_volumes = _freeze(vols)
        self._cache = {}  # filled by mesh_cached, in 2D first by the boundary
        self.boundary_facets = _freeze(self._extract_boundary())

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    def _oriented_facets(self):
        # Facets of each element, element by element, oriented so that on
        # the boundary the facet normal (right-hand rule) points outward of
        # the element.
        return self.elements[:, _LOCAL_FACETS[self.dim]].reshape(-1, self.dim)

    def _extract_boundary(self):
        # Facets of one element each, in lexicographic order of their sorted
        # vertex tuples, which makes the boundary order deterministic.
        if self.dim == 2:
            # A triangle's facets are its local edges, in the order of the
            # incidence, so the edge table has grouped them already.
            ids = self._edge_table()[1].ravel()
            counts = np.bincount(ids)
            once = np.flatnonzero(counts[ids] == 1)
            once = once[np.argsort(ids[once])]
        else:
            facets = _sorted_rows(self._oriented_facets())
            order, starts = _row_groups(facets, len(self.vertices))
            counts = np.diff(starts, append=len(facets))
            once = order[starts[counts == 1]]
        if np.any(counts > 2):
            raise GeometryError("non-manifold facet shared by more than two elements")
        return self._oriented_facets()[once]

    @mesh_cached
    def _edge_table(self):
        # One grouping pass over the local edges yields both the unique
        # edges and the element-edge incidence.
        pairs = _sorted_rows(self.elements[:, _LOCAL_EDGES[self.dim]].reshape(-1, 2))
        order, starts = _row_groups(pairs, len(self.vertices))
        dtype = np.int32 if len(starts) < 2**31 else np.int64
        ids = np.empty(len(pairs), dtype=dtype)
        ids[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(pairs)))
        return pairs[order[starts]], ids.reshape(self.num_elements, -1)

    @mesh_cached
    def edges(self):
        """Unique undirected edges as a sorted ``(E, 2)`` index array."""
        return self._edge_table()[0]

    @mesh_cached
    def element_edges(self):
        """The element-edge incidence as an ``(ne, dim (dim + 1) / 2)`` array.

        Entry (e, l) is the row of ``edges()`` that joins the local vertices
        ``_LOCAL_EDGES[dim][l]`` of element e.  It is int32 unless the edges
        outnumber that type.
        """
        return self._edge_table()[1]

    @mesh_cached
    def vertex_graph(self):
        """The vertex adjacency as a canonical ``(nv, nv)`` CSR matrix.

        Entry (i, j) is 1 exactly when i and j share an edge, in both
        directions; the diagonal is empty and each row's columns ascend.
        """
        e = self.edges()
        rows, cols = np.concatenate([e, e[:, ::-1]]).T
        n = self.num_vertices
        graph = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.int32), (rows, cols)), shape=(n, n)
        )
        graph.sum_duplicates()  # sorts each row; edges() has no duplicates
        return graph

    @mesh_cached
    def vertex_neighbors(self):
        """List of sorted 1-ring neighbor index arrays, one per vertex: the
        rows of ``vertex_graph()``."""
        graph = self.vertex_graph()
        cols = graph.indices.astype(np.int64)
        bounds = graph.indptr.tolist()
        return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @mesh_cached
    def vertex_order(self):
        """Reverse Cuthill-McKee order of ``vertex_graph()``.

        ``solve`` factors every system on the vertices in this order.  The
        fourth-order operators couple 2-ring neighbors, and their band in
        this order is about twice the vertex graph's; reverse Cuthill-McKee
        on their own graph gives up to twice that again (on
        ``structured_square(n)``: 2n + 2 here, about 4n there).  Entry i
        is the vertex placed i-th.
        """
        order = reverse_cuthill_mckee(self.vertex_graph(), symmetric_mode=True)
        return order.astype(np.int64)

    @mesh_cached
    def shape_gradients(self):
        """Constant gradients of the linear shape functions.

        Returns
        -------
        np.ndarray
            Shape ``(ne, dim + 1, dim)``: gradient of the hat function of
            each local vertex on each element.  Rows sum to zero, which makes
            the gradient operator annihilate constants exactly.

        Row i >= 1 is row i of the inverse of the edge matrix with columns
        ``p_i - p_0``, taken in closed form: the adjugate over the
        determinant in 2D, and the cross products of the other two edges
        over the determinant in 3D.  Row 0 is minus the sum of rows 1 to
        dim, added in that order.
        """
        e = _edge_columns(self.vertices, self.elements)
        rows = [_adjugate_row(e, i) for i in range(self.dim)]
        det = _dot(e[0], rows[0])
        g = np.empty((self.num_elements, self.dim + 1, self.dim))
        for c in range(self.dim):
            column = [row[c] / det for row in rows]
            g[:, 0, c] = -functools.reduce(np.add, column)
            for i, gi in enumerate(column, 1):
                g[:, i, c] = gi
        return g

    @mesh_cached
    def _hashed(self):
        h = hashlib.sha256(np.int64(self.dim).tobytes())
        h.update(self.vertices.tobytes())
        h.update(self.elements.tobytes())
        return h

    def hash_state(self):
        """SHA-256 state after hashing the dimension, vertices and elements.

        Each call returns a fresh copy of the cached state that the caller
        may extend (``FrameField`` adds the field).
        """
        return self._hashed().copy()

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.num_vertices}, "
            f"elements={self.num_elements}, boundary_facets={len(self.boundary_facets)})"
        )


@dataclass(frozen=True)
class MeshMeasures:
    """Vertex volumes and boundary frames of a mesh, read-only.

    Attributes
    ----------
    dual_volumes : np.ndarray
        Barycentric vertex lumping: each element donates volume/(dim+1) to
        each of its vertices.  Sums to the total domain volume.
    boundary_vertices : np.ndarray
        Sorted indices of vertices on the boundary.  All per-boundary arrays
        below are indexed in this order.
    boundary_normals : np.ndarray
        Unit outward normal per boundary vertex (measure-weighted average of
        incident facet normals).
    boundary_tangents : np.ndarray
        Shape ``(nb, dim - 1, dim)`` orthonormal basis of the normal's
        complement at each boundary vertex.
    """

    dual_volumes: np.ndarray
    boundary_vertices: np.ndarray
    boundary_normals: np.ndarray
    boundary_tangents: np.ndarray


def _facet_normals_and_measures(mesh):
    f = mesh.boundary_facets
    p = mesh.vertices[f]
    if mesh.dim == 2:
        d = p[:, 1] - p[:, 0]
        length = np.linalg.norm(d, axis=1)
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
        return normals, length
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    norm = np.linalg.norm(n, axis=1)
    return n / norm[:, None], 0.5 * norm


def _tangent_bases(normals):
    """Orthonormal bases ``(n, 2, 3)`` of the planes normal to unit 3D
    ``normals``: t1 is the normal crossed with the coordinate axis least
    aligned with it, normalized, and t2 = normal x t1."""
    pick = np.argmin(np.abs(normals), axis=1)
    a = np.zeros_like(normals)
    a[np.arange(len(normals)), pick] = 1.0
    t1 = np.cross(normals, a)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(normals, t1)
    return np.stack([t1, t2], axis=1)


@mesh_cached
def compute_measures(mesh):
    """Dual vertex volumes and boundary normal frames.

    Boundary normals at a vertex average the outward normals of incident
    boundary facets weighted by facet measure, then normalize; the tangent
    basis is the normal turned a quarter counterclockwise in 2D and
    ``_tangent_bases`` in 3D.
    """
    dual = np.zeros(mesh.num_vertices)
    for k in range(mesh.dim + 1):
        np.add.at(dual, mesh.elements[:, k], mesh.element_volumes / (mesh.dim + 1))

    bverts = np.unique(mesh.boundary_facets)
    normals = np.zeros((mesh.num_vertices, mesh.dim))
    fnormals, fmeasure = _facet_normals_and_measures(mesh)
    for k in range(mesh.dim):
        np.add.at(normals, mesh.boundary_facets[:, k], fnormals * fmeasure[:, None])
    normals = normals[bverts]
    norm = np.linalg.norm(normals, axis=1)
    if np.any(norm < 1e-12):
        raise GeometryError("degenerate boundary normal (opposing facets cancel)")
    normals /= norm[:, None]

    if mesh.dim == 2:
        tangents = np.column_stack([-normals[:, 1], normals[:, 0]])[:, None, :]
    else:
        tangents = _tangent_bases(normals)

    return MeshMeasures(
        dual_volumes=dual,
        boundary_vertices=bverts,
        boundary_normals=normals,
        boundary_tangents=tangents,
    )


@mesh_cached
def gradient_matrix(mesh):
    """Sparse piecewise-linear gradient operator.

    Maps per-vertex scalars to per-element constant gradients; the result
    has ``ne * dim`` rows grouped per element.  Exact on affine functions.

    The CSR arrays are written directly: each row holds its element's
    vertices in ascending order, sorted by ``_sorted_rows`` with their
    gradient columns carried along, so the arrays, their dtypes and the
    canonical flag are those of the COO build ``gradient_matrix_by_coo`` in
    ``tests/oracles.py``.
    """
    g = mesh.shape_gradients()
    ne, k, dim = g.shape
    columns = [list(g[:, a].T) for a in range(k)]
    vertices = _sorted_rows(mesh.elements, columns)
    index = sparse.get_index_dtype(maxval=max(ne * dim * k, mesh.num_vertices))
    indices = np.repeat(vertices.astype(index), dim, axis=0)  # row (e, d): e's vertices
    data = np.empty((ne, dim, k))
    data.T[:] = columns  # entry (e, d, a): coordinate d of vertex a's gradient
    indptr = np.arange(0, ne * dim * k + 1, k, dtype=index)
    G = sparse.csr_matrix(
        (data.ravel(), indices.ravel(), indptr), shape=(ne * dim, mesh.num_vertices)
    )
    G.has_canonical_format = True  # each row's columns are distinct and sorted
    return G


def mean_edge_length(mesh):
    """Average length over unique mesh edges."""
    e = mesh.edges()
    d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
    return float(np.mean(np.linalg.norm(d, axis=1)))


def _edge_columns(vertices, elements):
    """The edges ``p_i - p_0``, i = 1 to dim, of every simplex as coordinate
    columns: ``e[i - 1][c]`` is the ``(ne,)`` array of their coordinate c.
    Kernels on these long columns run several times faster than on
    ``(ne, dim, dim)`` arrays, whose trailing axes hold 2 or 3 entries."""
    x = vertices.T
    first, *others = elements.T
    origin = [xc[first] for xc in x]
    return [[xc[i] - oc for xc, oc in zip(x, origin)] for i in others]


def _adjugate_row(e, i):
    """Row i of the adjugate of the edge matrix whose columns are the edge
    columns ``e``: orthogonal to every edge but ``e[i]``, whose dot product
    with it is the determinant."""
    if len(e) == 2:
        return (e[1][1], -e[1][0]) if i == 0 else (-e[0][1], e[0][0])
    a, b = e[(i + 1) % 3], e[(i + 2) % 3]
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    """The dot product of two vectors of columns, summed as
    ``einsum("ei,ei->e")`` sums rows of 2 and 3 entries on numpy 2.4:
    x0 + x1, and (x0 + x2) + x1, so volumes keep their bits."""
    x = [ac * bc for ac, bc in zip(a, b)]
    return x[0] + x[1] if len(x) == 2 else (x[0] + x[2]) + x[1]


def _edge_determinants(vertices, elements):
    """Determinant of each simplex's edge matrix (columns p_i - p_0): dim!
    times its signed volume, positive for counterclockwise triangles and
    right-handed tetrahedra."""
    e = _edge_columns(vertices, elements)
    return _dot(e[0], _adjugate_row(e, 0))


def _orient_elements(vertices, elements):
    # Swap the last two vertices of negatively oriented simplices.
    flip = _edge_determinants(vertices, elements) < 0
    out = elements.copy()
    out[flip, -2], out[flip, -1] = elements[flip, -1], elements[flip, -2]
    return out


# Child simplices of the midpoint refinement as rows of local node indices:
# the element's vertices come first, then its edge midpoints in the order of
# _LOCAL_EDGES.  The orientation of a child relative to its parent is fixed,
# so every row is listed in the order that makes the child of a positive
# parent positive.
_LOCAL_EDGES = {
    2: ((0, 1), (1, 2), (2, 0)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}
# A triangle's facets are its local edges; a tetrahedron's are the
# triangles opposite its vertices 0 to 3.
_LOCAL_FACETS = {2: _LOCAL_EDGES[2], 3: ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))}
_TRI_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
_TET_CORNERS = np.array([[0, 4, 5, 6], [1, 4, 8, 7], [2, 5, 7, 9], [3, 6, 9, 8]])
# Octahedron diagonals (m01, m23), (m02, m13), (m03, m12), and for each the
# four tets it spans with the ring midpoint pairs whose parent edges share
# an endpoint.
_OCTA_DIAGONALS = np.array([[4, 9], [5, 8], [6, 7]])
_OCTA_SPLITS = np.array(
    [
        [[4, 9, 5, 6], [4, 9, 7, 5], [4, 9, 6, 8], [4, 9, 8, 7]],
        [[5, 8, 6, 4], [5, 8, 4, 7], [5, 8, 9, 6], [5, 8, 7, 9]],
        [[6, 7, 4, 5], [6, 7, 8, 4], [6, 7, 5, 9], [6, 7, 9, 8]],
    ]
)


def refine_uniform(mesh):
    """Midpoint refinement: 1-to-4 for triangles, 1-to-8 for tetrahedra.

    Coarse vertices keep their indices and positions; one new vertex is
    appended per unique edge.  Total volume and the boundary polygon are
    preserved exactly, and mean edge length halves on triangle meshes.
    The central octahedron of each tetrahedron is split along its shortest
    diagonal to bound aspect-ratio degradation.  Children are listed parent
    by parent: for a tetrahedron its four corner tets, then the octahedron's.
    Their vertex order comes from fixed tables, which orient the children
    of a positive parent positively with no determinant evaluated.

    Vertex ``nv + i`` of the refined mesh is the midpoint of the coarse
    ``edges()[i]``, so the coarse mesh alone moves values up a level
    (``prolong_linear``).  Because the coarse vertices come first, a field
    moves back down by restriction to them (``framefield.resample_field``).
    """
    edges = mesh.edges()
    nv = mesh.num_vertices
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    t = mesh.elements
    nodes = np.hstack([t, mesh.element_edges() + np.int64(nv)])  # midpoints last

    if mesh.dim == 2:
        children = nodes[:, _TRI_CHILDREN]
    else:
        ends = vertices[nodes[:, _OCTA_DIAGONALS]]  # (ne, 3, 2, 3)
        d = ends[:, :, 0] - ends[:, :, 1]
        # sqrt(d . d) rounds like np.linalg.norm of one vector, which keeps
        # the choice among exactly tied diagonals (symmetric meshes) stable.
        lengths = np.sqrt(np.vecdot(d, d))
        split = _OCTA_SPLITS[np.argmin(lengths, axis=1)]  # (ne, 4, 4)
        octa = np.take_along_axis(nodes, split.reshape(len(t), 16), axis=1)
        children = np.hstack([nodes[:, _TET_CORNERS.ravel()], octa])

    return SimplicialMesh(vertices, children.reshape(-1, mesh.dim + 1))


def prolong_linear(coarse, coarse_values):
    """Interpolate values at the vertices of ``coarse``, one finite row per
    vertex, onto ``refine_uniform(coarse)``: the coarse rows, then the mean
    of the two ends of each coarse edge, in ``edges()`` order.  Values of
    another length raise ``ParameterError``."""
    coarse_values = check_values("coarse values", coarse_values, (coarse.num_vertices, ...))
    a, b = coarse.edges().T
    return np.concatenate([coarse_values, 0.5 * (coarse_values[a] + coarse_values[b])])


# -- file I/O --------------------------------------------------------------


def _write_rows(fh, fmt, rows):
    """Write ``fmt % row`` and a newline for each row of the array ``rows``,
    as one string; ``%.17g`` and ``%d`` give the text of ``f"{x:.17g}"`` and
    ``str(i)``."""
    fh.write((fmt + "\n") * len(rows) % tuple(rows.ravel().tolist()))


def _save_csv(path, rows):
    """Write the float array ``rows``, 1-D or 2-D, as comma-separated lines
    of ``%.17e`` values: the text ``np.savetxt`` gives with that format."""
    rows = np.asarray(rows, dtype=float)
    width = rows.shape[1] if rows.ndim == 2 else 1
    with open(path, "w") as fh:
        _write_rows(fh, ",".join(["%.17e"] * width), rows)


def _data_lines(path):
    """The fields of each line of ``path`` that holds data after ``#``
    comments are cut."""
    with open(path) as fh:
        for line in fh:
            fields = line.split("#", 1)[0].split()
            if fields:
                yield fields


def _rows(lines, count, width, dtype):
    """The first ``width`` fields of each of the next ``count`` lines as one
    ``(count, width)`` array; a line with fewer fields is a ``ValueError``."""
    rows = [next(lines)[:width] for _ in range(count)]
    return np.array(rows, dtype=dtype).reshape(count, width)


def _read_off(lines):
    header = next(lines)
    if header[0].upper() != "OFF":
        raise ValueError("missing OFF header")
    nv, nf = (int(count) for count in (header[1:] or next(lines))[:2])
    if nv < 1 or nf < 1:
        raise ValueError("the header needs positive counts")
    vertices = _rows(lines, nv, 3, float)
    faces = _rows(lines, nf, 4, np.int64)
    if np.any(faces[:, 0] != 3):
        raise ValueError("only triangle faces are supported")
    return vertices, faces[:, 1:]


def _read_obj(lines):
    vertices, faces = [], []
    for key, *fields in lines:
        if key == "v":
            vertices.append(fields)
        elif key == "f":
            faces.append([field.split("/")[0] for field in fields])
    if not vertices or not faces:
        raise ValueError("no vertices or faces found")
    if any(len(face) != 3 for face in faces):
        raise ValueError("only triangle faces are supported")
    return _rows(iter(vertices), len(vertices), 3, float), np.array(faces, dtype=np.int64) - 1


# MEDIT sections read, with fields per row and type.  Rows of the others,
# such as the boundary triangles recomputed from the tetrahedra, start with
# a number, not a keyword, and are passed over line by line.
_MEDIT_SECTIONS = {"vertices": (3, float), "tetrahedra": (4, np.int64)}


def _read_medit(lines):
    sections = {}
    for key, *rest in lines:
        key = key.lower()
        if key == "dimension":
            if int((rest or next(lines))[0]) != 3:
                raise ValueError("MEDIT meshes must be 3D")
        elif key in _MEDIT_SECTIONS:
            (count,) = next(lines)
            sections[key] = _rows(lines, int(count), *_MEDIT_SECTIONS[key])
        elif key == "end":
            break
    if "vertices" not in sections or "tetrahedra" not in sections:
        raise ValueError("missing Vertices or Tetrahedra section")
    return sections["vertices"], sections["tetrahedra"] - 1


def _write_off(fh, mesh):
    fh.write(f"OFF\n{mesh.num_vertices} {mesh.num_elements} 0\n")
    _write_rows(fh, "%.17g %.17g 0", mesh.vertices)
    _write_rows(fh, "3 %d %d %d", mesh.elements)


def _write_obj(fh, mesh):
    _write_rows(fh, "v %.17g %.17g 0", mesh.vertices)
    _write_rows(fh, "f %d %d %d", mesh.elements + 1)


def _write_medit(fh, mesh):
    fh.write(f"MeshVersionFormatted 2\nDimension 3\nVertices\n{mesh.num_vertices}\n")
    _write_rows(fh, "%.17g %.17g %.17g 0", mesh.vertices)
    fh.write(f"Tetrahedra\n{mesh.num_elements}\n")
    _write_rows(fh, "%d %d %d %d 0", mesh.elements + 1)
    fh.write(f"Triangles\n{len(mesh.boundary_facets)}\n")
    _write_rows(fh, "%d %d %d 1", mesh.boundary_facets + 1)
    fh.write("End\n")


# The file extension picks the format: (name, mesh dimension, reader, writer).
_FORMATS = {
    "off": ("OFF", 2, _read_off, _write_off),
    "obj": ("OBJ", 2, _read_obj, _write_obj),
    "mesh": ("MEDIT", 3, _read_medit, _write_medit),
    "medit": ("MEDIT", 3, _read_medit, _write_medit),
}


def _format(path):
    extension = str(path).rsplit(".", 1)[-1].lower()
    if extension not in _FORMATS:
        raise MeshFormatError(f"{path}: unknown mesh format {extension!r}")
    return _FORMATS[extension]


def load_mesh(path):
    """Load a planar triangle mesh from OFF or OBJ, or a tetrahedral mesh
    from MEDIT; the extension (``.off``, ``.obj``, ``.mesh``, ``.medit``)
    picks the format.  A file that does not parse raises ``MeshFormatError``
    naming the path, a nonplanar or invalid mesh ``GeometryError``."""
    name, dim, read, _ = _format(path)
    try:
        vertices, elements = read(_data_lines(path))
    except (StopIteration, ValueError, IndexError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: malformed {name} file ({exc})") from exc
    if dim == 2 and np.max(np.abs(vertices[:, 2])) > 1e-9:
        raise GeometryError(
            "triangle mesh is not planar (|z| > 1e-9); only planar 2D domains are supported"
        )
    return SimplicialMesh(vertices[:, :dim], elements)


def save_mesh(mesh, path):
    """Write ``mesh`` in the format its extension picks, as :func:`load_mesh`
    reads it, with 17 significant digits.  An unknown extension or a mesh of
    the wrong dimension raises ``MeshFormatError`` before the file is
    opened, so a refused call leaves an existing file alone."""
    name, dim, _, write = _format(path)
    if mesh.dim != dim:
        raise MeshFormatError(f"{path}: {name} holds {dim}D meshes, not {mesh.dim}D")
    with open(path, "w") as fh:
        write(fh, mesh)
