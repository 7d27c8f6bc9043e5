"""Simplicial meshes: representation, file I/O, measures, and refinement.

A :class:`SimplicialMesh` holds a planar triangle mesh (dim=2) or a
tetrahedral mesh (dim=3) with consistently oriented elements of positive
signed volume.  Boundary facets are recovered by facet-incidence counting
and oriented outward.

Everything derived from the mesh alone is built once, with vectorized numpy,
and is read-only.  Element volumes and boundary facets are built at
construction, every other mesh-only result on first use through
:func:`mesh_cached`: the edges with the element-edge incidence, the vertex
graph, 1-ring neighbors and order, shape gradients, the hash state, the
centroid KD-tree, ``compute_measures``, ``gradient_matrix``, and
``fem.star_blocks``, which holds the star blocks of the operator's
mesh-only factor and the pattern they are assembled into.  The mesh keeps
read-only copies of its vertex and element arrays, so no cached result can
go stale; meshes are immutable after construction and safe to share across
threads.  Only this module touches the cache.
"""

import dataclasses
import functools
import hashlib
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial import cKDTree

from .errors import GeometryError, MeshFormatError, ParameterError

logger = logging.getLogger(__name__)

_FACTORIAL = {2: 2.0, 3: 6.0}


def _freeze(value):
    """Mark read-only every array reachable from ``value``: ndarrays, the
    ``data``, ``indices`` and ``indptr`` of sparse matrices, the points of a
    KD-tree, and the members of tuples, lists and dataclasses.  Anything
    else is left as it is."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif sparse.issparse(value):
        _freeze((value.data, value.indices, value.indptr))
    elif isinstance(value, cKDTree):
        value.data.setflags(write=False)
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


def _row_groups(rows):
    """Group equal rows of an integer array.

    Returns the lexicographic sort order of the rows and the positions in
    that order where each run of equal rows starts.  One ``lexsort`` and an
    adjacent-row comparison replace ``np.unique(axis=0)``, whose row-wise
    sort is several times slower.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return order, np.flatnonzero(new)


class SimplicialMesh:
    """Triangle or tetrahedral mesh with boundary structure.

    Parameters
    ----------
    vertices : array_like
        Shape ``(nv, dim)`` vertex coordinates, dim = 2 or 3.
    elements : array_like
        Shape ``(ne, dim + 1)`` vertex indices.  Every element must have
        positive signed volume (consistent orientation).

    Both arrays are copied and stored read-only, so later edits to the
    arrays passed in cannot reach the mesh, and writing to ``mesh.vertices``
    or ``mesh.elements`` raises ``ValueError``; see the module docstring for
    what is derived from them and how it is cached.

    Raises
    ------
    GeometryError
        On non-finite coordinates, inverted or degenerate elements, duplicate
        elements, indices out of range, vertices that belong to no element,
        or a facet shared by more than two elements.
    """

    def __init__(self, vertices, elements):
        self.vertices = _freeze(np.array(vertices, dtype=float, order="C"))
        self.elements = _freeze(np.array(elements, dtype=np.int64, order="C"))
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise GeometryError("vertices must be an (nv, 2) or (nv, 3) array")
        if not np.all(np.isfinite(self.vertices)):
            raise GeometryError("vertex coordinates must be finite")
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

        _, starts = _row_groups(np.sort(self.elements, axis=1))
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
        self.boundary_facets = _freeze(self._extract_boundary())
        # Optional refinement provenance: (n_new, 2) coarse edge endpoints for
        # vertices appended by refine_uniform; None for meshes built directly.
        self.parent_edges = None
        self._cache = {}  # filled by mesh_cached

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    def _oriented_facets(self):
        # Facets of each element, oriented so that on the boundary the facet
        # normal (right-hand rule) points outward of the element.
        t = self.elements
        if self.dim == 2:
            return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        return np.concatenate(
            [t[:, [1, 2, 3]], t[:, [0, 3, 2]], t[:, [0, 1, 3]], t[:, [0, 2, 1]]]
        )

    def _extract_boundary(self):
        facets = self._oriented_facets()
        order, starts = _row_groups(np.sort(facets, axis=1))
        counts = np.diff(starts, append=len(facets))
        if np.any(counts > 2):
            raise GeometryError("non-manifold facet shared by more than two elements")
        # Groups come in lexicographic order of the sorted vertex tuple, which
        # makes the boundary order deterministic.
        return facets[order[starts[counts == 1]]]

    @mesh_cached
    def _edge_table(self):
        # One grouping pass over the local edges yields both the unique
        # edges and the element-edge incidence.
        local = np.asarray(_LOCAL_EDGES[self.dim])
        a, b = self.elements[:, local[:, 0]], self.elements[:, local[:, 1]]
        pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1).reshape(-1, 2)
        order, starts = _row_groups(pairs)
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
        over the determinant in 3D.
        """
        p = self.vertices[self.elements]
        e = p[:, 1:, :] - p[:, :1, :]  # rows p_i - p_0
        g = np.empty((self.num_elements, self.dim + 1, self.dim))
        if self.dim == 2:
            g[:, 1, 0], g[:, 1, 1] = e[:, 1, 1], -e[:, 1, 0]
            g[:, 2, 0], g[:, 2, 1] = -e[:, 0, 1], e[:, 0, 0]
        else:
            g[:, 1] = np.cross(e[:, 1], e[:, 2])
            g[:, 2] = np.cross(e[:, 2], e[:, 0])
            g[:, 3] = np.cross(e[:, 0], e[:, 1])
        det = np.einsum("ei,ei->e", e[:, 0], g[:, 1])
        g[:, 1:] /= det[:, None, None]
        g[:, 0] = -np.sum(g[:, 1:], axis=1)
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
        may extend (``FrameField.fingerprint`` adds the field).
        """
        return self._hashed().copy()

    @mesh_cached
    def centroid_tree(self):
        """KD-tree over the element centroids, indexed like the elements."""
        return cKDTree(self.vertices[self.elements].mean(axis=1))

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.num_vertices}, "
            f"elements={self.num_elements}, boundary_facets={len(self.boundary_facets)})"
        )


@dataclass(frozen=True)
class MeshMeasures:
    """Volumes and boundary frames of a mesh, read-only.

    Attributes
    ----------
    element_volumes : np.ndarray
        Area (2D) or volume (3D) per element.
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

    element_volumes: np.ndarray
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


@mesh_cached
def compute_measures(mesh):
    """Element volumes, dual vertex volumes, and boundary normal frames.

    Boundary normals at a vertex average the outward normals of incident
    boundary facets weighted by facet measure, then normalize; the tangent
    basis is a deterministic orthonormal completion.
    """
    vols = mesh.element_volumes  # positive: SimplicialMesh checks it
    dual = np.zeros(mesh.num_vertices)
    for k in range(mesh.dim + 1):
        np.add.at(dual, mesh.elements[:, k], vols / (mesh.dim + 1))

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

    nb = len(bverts)
    tangents = np.empty((nb, mesh.dim - 1, mesh.dim))
    if mesh.dim == 2:
        tangents[:, 0, 0] = -normals[:, 1]
        tangents[:, 0, 1] = normals[:, 0]
    else:
        # Cross against the coordinate axis least aligned with the normal.
        pick = np.argmin(np.abs(normals), axis=1)
        a = np.zeros_like(normals)
        a[np.arange(nb), pick] = 1.0
        t1 = np.cross(normals, a)
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(normals, t1)
        tangents[:, 0, :] = t1
        tangents[:, 1, :] = t2

    return MeshMeasures(
        element_volumes=vols,
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
    """
    g = mesh.shape_gradients()
    ne, k, dim = g.shape
    rows = np.arange(ne)[:, None, None] * dim + np.arange(dim)[None, None, :]
    rows = np.broadcast_to(rows, (ne, k, dim)).ravel()
    cols = np.broadcast_to(mesh.elements[:, :, None], (ne, k, dim)).ravel()
    return sparse.coo_matrix(
        (g.ravel(), (rows, cols)), shape=(ne * dim, mesh.num_vertices)
    ).tocsr()  # canonical: each row's columns are distinct


def mean_edge_length(mesh):
    """Average length over unique mesh edges."""
    e = mesh.edges()
    d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
    return float(np.mean(np.linalg.norm(d, axis=1)))


def _edge_determinants(vertices, elements):
    """Determinant of each simplex's edge matrix (columns p_i - p_0): dim!
    times its signed volume, positive for counterclockwise triangles and
    right-handed tetrahedra."""
    p = vertices[elements]
    edges = p[:, 1:, :] - p[:, :1, :]
    if vertices.shape[1] == 2:
        return edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    return np.einsum("ei,ei->e", edges[:, 0], np.cross(edges[:, 1], edges[:, 2]))


def _orient_elements(vertices, elements):
    # Swap the last two vertices of negatively oriented simplices.
    flip = _edge_determinants(vertices, elements) < 0
    out = elements.copy()
    out[flip, -2], out[flip, -1] = elements[flip, -1], elements[flip, -2]
    return out


# Child simplices of the midpoint refinement as rows of local node indices:
# the element's vertices come first, then its edge midpoints in the order of
# _LOCAL_EDGES.
_LOCAL_EDGES = {
    2: ((0, 1), (1, 2), (2, 0)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}
_TRI_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
_TET_CORNERS = np.array([[0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9]])
# Octahedron diagonals (m01, m23), (m02, m13), (m03, m12), and for each the
# four tets it spans with the ring midpoint pairs whose parent edges share
# an endpoint.
_OCTA_DIAGONALS = np.array([[4, 9], [5, 8], [6, 7]])
_OCTA_SPLITS = np.array(
    [
        [[4, 9, 5, 6], [4, 9, 5, 7], [4, 9, 6, 8], [4, 9, 7, 8]],
        [[5, 8, 4, 6], [5, 8, 4, 7], [5, 8, 6, 9], [5, 8, 7, 9]],
        [[6, 7, 4, 5], [6, 7, 4, 8], [6, 7, 5, 9], [6, 7, 8, 9]],
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

    The refined mesh records the coarse edge behind each appended vertex in
    ``parent_edges``, which supports exact linear prolongation.
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

    new_elements = children.reshape(-1, mesh.dim + 1)
    new_elements = _orient_elements(vertices, new_elements)
    fine = SimplicialMesh(vertices, new_elements)
    fine.parent_edges = edges  # read-only, so it can be shared
    return fine


def prolong_linear(fine_mesh, coarse_values):
    """Interpolate coarse vertex values onto a mesh built by refine_uniform."""
    if fine_mesh.parent_edges is None:
        raise ParameterError("mesh does not carry refinement provenance")
    coarse_values = np.asarray(coarse_values, dtype=float)
    nc = fine_mesh.num_vertices - len(fine_mesh.parent_edges)
    if coarse_values.shape[0] != nc:
        raise ParameterError("coarse value count does not match parent mesh")
    mids = 0.5 * (
        coarse_values[fine_mesh.parent_edges[:, 0]]
        + coarse_values[fine_mesh.parent_edges[:, 1]]
    )
    return np.concatenate([coarse_values, mids], axis=0)


# -- file I/O --------------------------------------------------------------


def _data_lines(path):
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                yield line


def _to_planar(vertices):
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[1] == 3:
        if np.max(np.abs(vertices[:, 2])) > 1e-9:
            raise GeometryError(
                "triangle mesh is not planar (|z| > 1e-9); only planar 2D "
                "domains are supported"
            )
        vertices = vertices[:, :2]
    return vertices


def _read_off(path):
    lines = _data_lines(path)
    try:
        header = next(lines)
        if not header.upper().startswith("OFF"):
            raise MeshFormatError(f"{path}: missing OFF header")
        counts = header[3:].split() or next(lines).split()
        nv, nf = int(counts[0]), int(counts[1])
        if nv < 1 or nf < 1:
            raise MeshFormatError(f"{path}: OFF header needs positive counts")
        vertices = np.array(
            [[float(x) for x in next(lines).split()[:3]] for _ in range(nv)]
        )
        faces = []
        for _ in range(nf):
            parts = next(lines).split()
            if int(parts[0]) != 3:
                raise MeshFormatError(f"{path}: only triangle faces are supported")
            faces.append([int(x) for x in parts[1:4]])
        faces = np.array(faces, dtype=np.int64)
    except (StopIteration, ValueError, IndexError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: malformed OFF file") from exc
    return SimplicialMesh(_to_planar(vertices), faces)


def _read_obj(path):
    vertices, faces = [], []
    try:
        for line in _data_lines(path):
            parts = line.split()
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                if len(idx) != 3:
                    raise MeshFormatError(f"{path}: only triangle faces are supported")
                faces.append(idx)
        if not vertices or not faces:
            raise MeshFormatError(f"{path}: no vertices or faces found")
        vertices = np.array(vertices)
        faces = np.array(faces, dtype=np.int64)
    except (ValueError, IndexError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: malformed OBJ file") from exc
    return SimplicialMesh(_to_planar(vertices), faces)


def _read_medit(path):
    vertices, tets = None, None
    lines = _data_lines(path)
    try:
        for line in lines:
            key = line.split()[0].lower()
            if key == "dimension":
                rest = line.split()[1:]
                dim = int(rest[0]) if rest else int(next(lines))
                if dim != 3:
                    raise MeshFormatError(f"{path}: MEDIT meshes must be 3D")
            elif key == "vertices":
                n = int(next(lines))
                vertices = np.array(
                    [[float(x) for x in next(lines).split()[:3]] for _ in range(n)]
                )
            elif key == "tetrahedra":
                n = int(next(lines))
                tets = np.array(
                    [[int(x) for x in next(lines).split()[:4]] for _ in range(n)],
                    dtype=np.int64,
                )
            elif key == "triangles":
                n = int(next(lines))
                for _ in range(n):
                    next(lines)  # boundary facets are recomputed from tets
            elif key == "end":
                break
    except (StopIteration, ValueError, IndexError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: malformed MEDIT file") from exc
    if vertices is None or tets is None:
        raise MeshFormatError(f"{path}: missing Vertices or Tetrahedra section")
    return SimplicialMesh(vertices, tets - 1)


_READERS = {"off": _read_off, "obj": _read_obj, "medit": _read_medit, "mesh": _read_medit}


def load_mesh(path, fmt=None):
    """Load a mesh from OFF or OBJ (planar triangles) or MEDIT (tetrahedra).

    Parameters
    ----------
    path : str or pathlib.Path
        Input file.
    fmt : {"off", "obj", "medit"}, optional
        Defaults to the file extension (``.mesh`` selects MEDIT).
    """
    fmt = (fmt or str(path).rsplit(".", 1)[-1]).lower()
    if fmt not in _READERS:
        raise MeshFormatError(f"unknown mesh format {fmt!r}")
    return _READERS[fmt](str(path))


def save_mesh(mesh, path, fmt=None):
    """Write a mesh in OFF, OBJ, or MEDIT format (echoing the load formats)."""
    fmt = (fmt or str(path).rsplit(".", 1)[-1]).lower()
    if fmt in ("off", "obj") and mesh.dim != 2:
        raise MeshFormatError("OFF/OBJ output is for planar triangle meshes")
    if fmt in ("medit", "mesh") and mesh.dim != 3:
        raise MeshFormatError("MEDIT output is for tetrahedral meshes")
    with open(path, "w") as fh:
        if fmt == "off":
            fh.write("OFF\n")
            fh.write(f"{mesh.num_vertices} {mesh.num_elements} 0\n")
            for v in mesh.vertices:
                fh.write(f"{v[0]:.17g} {v[1]:.17g} 0\n")
            for t in mesh.elements:
                fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
        elif fmt == "obj":
            for v in mesh.vertices:
                fh.write(f"v {v[0]:.17g} {v[1]:.17g} 0\n")
            for t in mesh.elements:
                fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
        elif fmt in ("medit", "mesh"):
            fh.write("MeshVersionFormatted 2\nDimension 3\n")
            fh.write(f"Vertices\n{mesh.num_vertices}\n")
            for v in mesh.vertices:
                fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g} 0\n")
            fh.write(f"Tetrahedra\n{mesh.num_elements}\n")
            for t in mesh.elements:
                fh.write(f"{t[0] + 1} {t[1] + 1} {t[2] + 1} {t[3] + 1} 0\n")
            fh.write(f"Triangles\n{len(mesh.boundary_facets)}\n")
            for t in mesh.boundary_facets:
                fh.write(f"{t[0] + 1} {t[1] + 1} {t[2] + 1} 1\n")
            fh.write("End\n")
        else:
            raise MeshFormatError(f"unknown mesh format {fmt!r}")
