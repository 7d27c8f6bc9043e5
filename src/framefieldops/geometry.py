"""Simplicial meshes: representation, file I/O, measures, and refinement.

A :class:`SimplicialMesh` holds a planar triangle mesh (dim=2) or a
tetrahedral mesh (dim=3) with consistently oriented elements of positive
signed volume.  Boundary facets are recovered by facet-incidence counting
and oriented outward.

All derived quantities (volumes, shape-function gradients, boundary data)
are cached on the mesh and computed with vectorized numpy.  Meshes are
immutable after construction and safe to share across threads.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import GeometryError, MeshFormatError

logger = logging.getLogger(__name__)

_FACTORIAL = {2: 2.0, 3: 6.0}


class SimplicialMesh:
    """Triangle or tetrahedral mesh with boundary structure.

    Parameters
    ----------
    vertices : array_like
        Shape ``(nv, dim)`` vertex coordinates, dim = 2 or 3.
    elements : array_like
        Shape ``(ne, dim + 1)`` vertex indices.  Every element must have
        positive signed volume (consistent orientation).

    Raises
    ------
    GeometryError
        On non-finite coordinates, inverted or degenerate elements, duplicate
        elements, indices out of range, vertices that belong to no element,
        or a facet shared by more than two elements.
    """

    def __init__(self, vertices, elements):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
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

        sorted_elems = np.sort(self.elements, axis=1)
        if len(np.unique(sorted_elems, axis=0)) != len(sorted_elems):
            raise GeometryError("duplicate elements")

        vols = self._signed_volumes()
        if np.any(vols <= 0.0):
            bad = int(np.argmin(vols))
            raise GeometryError(
                f"element {bad} has nonpositive volume {vols[bad]:.3e}; "
                "elements must be consistently oriented and nondegenerate"
            )
        self.element_volumes = vols
        self.boundary_facets = self._extract_boundary()
        # Optional refinement provenance: (n_new, 2) coarse edge endpoints for
        # vertices appended by refine_uniform; None for meshes built directly.
        self.parent_edges = None
        self._shape_gradients = None
        self._edges = None
        self._vertex_neighbors = None

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    def _signed_volumes(self):
        p = self.vertices[self.elements]
        edges = p[:, 1:, :] - p[:, :1, :]
        if self.dim == 2:
            det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        else:
            det = np.einsum(
                "ei,ei->e", edges[:, 0], np.cross(edges[:, 1], edges[:, 2])
            )
        return det / _FACTORIAL[self.dim]

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
        key = np.sort(facets, axis=1)
        _, first, counts = np.unique(
            key, axis=0, return_index=True, return_counts=True
        )
        if np.any(counts > 2):
            raise GeometryError("non-manifold facet shared by more than two elements")
        boundary = facets[first[counts == 1]]
        # Deterministic order: sort by the sorted vertex tuple.
        order = np.lexsort(np.sort(boundary, axis=1).T[::-1])
        return boundary[order]

    def edges(self):
        """Unique undirected edges as a sorted ``(E, 2)`` index array."""
        if self._edges is None:
            t = self.elements
            k = self.dim + 1
            pairs = [t[:, [i, j]] for i in range(k) for j in range(i + 1, k)]
            e = np.sort(np.concatenate(pairs), axis=1)
            self._edges = np.unique(e, axis=0)
        return self._edges

    def vertex_neighbors(self):
        """List of sorted 1-ring neighbor index arrays, one per vertex."""
        if self._vertex_neighbors is None:
            e = self.edges()
            both = np.concatenate([e, e[:, ::-1]])
            order = np.lexsort((both[:, 1], both[:, 0]))
            both = both[order]
            splits = np.searchsorted(both[:, 0], np.arange(self.num_vertices + 1))
            self._vertex_neighbors = [
                both[splits[v] : splits[v + 1], 1] for v in range(self.num_vertices)
            ]
        return self._vertex_neighbors

    def shape_gradients(self):
        """Constant gradients of the linear shape functions.

        Returns
        -------
        np.ndarray
            Shape ``(ne, dim + 1, dim)``: gradient of the hat function of
            each local vertex on each element.  Rows sum to zero, which makes
            the gradient operator annihilate constants exactly.
        """
        if self._shape_gradients is None:
            p = self.vertices[self.elements]
            E = np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)  # columns p_i - p_0
            Einv = np.linalg.inv(E)
            g = np.empty((self.num_elements, self.dim + 1, self.dim))
            g[:, 1:, :] = Einv  # row i of E^-1 is grad of barycentric coord i
            g[:, 0, :] = -np.sum(Einv, axis=1)
            self._shape_gradients = g
        return self._shape_gradients

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.num_vertices}, "
            f"elements={self.num_elements}, boundary_facets={len(self.boundary_facets)})"
        )


@dataclass
class MeshMeasures:
    """Volumes and boundary frames of a mesh.

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
    boundary_areas : np.ndarray
        Lumped facet measure per boundary vertex.
    """

    element_volumes: np.ndarray
    dual_volumes: np.ndarray
    boundary_vertices: np.ndarray
    boundary_normals: np.ndarray
    boundary_tangents: np.ndarray
    boundary_areas: np.ndarray


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


def compute_measures(mesh):
    """Element volumes, dual vertex volumes, and boundary normal frames.

    Boundary normals at a vertex average the outward normals of incident
    boundary facets weighted by facet measure, then normalize; the tangent
    basis is a deterministic orthonormal completion.
    """
    vols = mesh.element_volumes
    if np.any(vols <= 0.0):
        raise GeometryError("zero-measure element")
    dual = np.zeros(mesh.num_vertices)
    for k in range(mesh.dim + 1):
        np.add.at(dual, mesh.elements[:, k], vols / (mesh.dim + 1))

    bverts = np.unique(mesh.boundary_facets)
    normals = np.zeros((mesh.num_vertices, mesh.dim))
    areas = np.zeros(mesh.num_vertices)
    fnormals, fmeasure = _facet_normals_and_measures(mesh)
    for k in range(mesh.dim):
        np.add.at(normals, mesh.boundary_facets[:, k], fnormals * fmeasure[:, None])
        np.add.at(areas, mesh.boundary_facets[:, k], fmeasure / mesh.dim)
    normals = normals[bverts]
    areas = areas[bverts]
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
        boundary_areas=areas,
    )


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
    G = sparse.coo_matrix(
        (g.ravel(), (rows, cols)), shape=(ne * dim, mesh.num_vertices)
    )
    return G.tocsr()


def mean_edge_length(mesh):
    """Average length over unique mesh edges."""
    e = mesh.edges()
    d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
    return float(np.mean(np.linalg.norm(d, axis=1)))


def _orient_elements(vertices, elements, dim):
    # Swap the last two vertices of negatively oriented simplices.
    p = vertices[elements]
    edges = p[:, 1:, :] - p[:, :1, :]
    if dim == 2:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    else:
        det = np.einsum("ei,ei->e", edges[:, 0], np.cross(edges[:, 1], edges[:, 2]))
    flip = det < 0
    out = elements.copy()
    out[flip, -2], out[flip, -1] = elements[flip, -1], elements[flip, -2]
    return out


def refine_uniform(mesh):
    """Midpoint refinement: 1-to-4 for triangles, 1-to-8 for tetrahedra.

    Coarse vertices keep their indices and positions; one new vertex is
    appended per unique edge.  Total volume and the boundary polygon are
    preserved exactly, and mean edge length halves on triangle meshes.
    The central octahedron of each tetrahedron is split along its shortest
    diagonal to bound aspect-ratio degradation.

    The refined mesh records the coarse edge behind each appended vertex in
    ``parent_edges``, which supports exact linear prolongation.
    """
    edges = mesh.edges()
    nv = mesh.num_vertices
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    # Edge (a, b) with a < b -> index of its midpoint vertex.
    edge_id = {(int(a), int(b)): nv + i for i, (a, b) in enumerate(edges)}

    def mid(a, b):
        return edge_id[(a, b) if a < b else (b, a)]

    new_elements = []
    if mesh.dim == 2:
        for tri in mesh.elements:
            a, b, c = (int(v) for v in tri)
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_elements += [
                (a, ab, ca),
                (b, bc, ab),
                (c, ca, bc),
                (ab, bc, ca),
            ]
    else:
        for tet in mesh.elements:
            v0, v1, v2, v3 = (int(v) for v in tet)
            m01, m02, m03 = mid(v0, v1), mid(v0, v2), mid(v0, v3)
            m12, m13, m23 = mid(v1, v2), mid(v1, v3), mid(v2, v3)
            new_elements += [
                (v0, m01, m02, m03),
                (v1, m01, m12, m13),
                (v2, m02, m12, m23),
                (v3, m03, m13, m23),
            ]
            # Interior octahedron: split along its shortest diagonal.
            parent = {
                m01: (v0, v1), m02: (v0, v2), m03: (v0, v3),
                m12: (v1, v2), m13: (v1, v3), m23: (v2, v3),
            }
            diags = [(m01, m23), (m02, m13), (m03, m12)]
            lengths = [
                np.linalg.norm(vertices[d0] - vertices[d1]) for d0, d1 in diags
            ]
            d0, d1 = diags[int(np.argmin(lengths))]
            ring = [p for p in (m01, m02, m03, m12, m13, m23) if p not in (d0, d1)]
            # Two ring midpoints are octahedron-adjacent iff their parent
            # edges share an endpoint; each such pair spans a tet with the
            # diagonal.
            for i in range(4):
                for j in range(i + 1, 4):
                    a, b = ring[i], ring[j]
                    if len(set(parent[a]) & set(parent[b])) == 1:
                        new_elements.append((d0, d1, a, b))

    new_elements = np.asarray(new_elements, dtype=np.int64)
    new_elements = _orient_elements(vertices, new_elements, mesh.dim)
    fine = SimplicialMesh(vertices, new_elements)
    fine.parent_edges = edges.copy()
    return fine


def prolong_linear(fine_mesh, coarse_values):
    """Interpolate coarse vertex values onto a mesh built by refine_uniform."""
    if fine_mesh.parent_edges is None:
        raise ValueError("mesh does not carry refinement provenance")
    coarse_values = np.asarray(coarse_values, dtype=float)
    nc = fine_mesh.num_vertices - len(fine_mesh.parent_edges)
    if coarse_values.shape[0] != nc:
        raise ValueError("coarse value count does not match parent mesh")
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
        vertices = np.array(
            [[float(x) for x in next(lines).split()[:3]] for _ in range(nv)]
        )
        faces = []
        for _ in range(nf):
            parts = next(lines).split()
            if int(parts[0]) != 3:
                raise MeshFormatError(f"{path}: only triangle faces are supported")
            faces.append([int(x) for x in parts[1:4]])
    except (StopIteration, ValueError, IndexError) as exc:
        raise MeshFormatError(f"{path}: malformed OFF file") from exc
    return SimplicialMesh(_to_planar(vertices), np.array(faces, dtype=np.int64))


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
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"{path}: malformed OBJ file") from exc
    if not vertices or not faces:
        raise MeshFormatError(f"{path}: no vertices or faces found")
    return SimplicialMesh(
        _to_planar(np.array(vertices)), np.array(faces, dtype=np.int64)
    )


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
    except (StopIteration, ValueError, IndexError) as exc:
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
