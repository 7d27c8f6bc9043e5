"""Frame fields over meshes: generators, storage, alignment, resampling.

A :class:`FrameField` assigns an odeco frame (orthonormal component vectors
with nonnegative weights) to every mesh vertex.  Each field's kind is
classified from its weights: ``octahedral`` (all weights one),
``conformal_octahedral`` (per-vertex equal weights), or general ``odeco``.

Planar crosses are represented by one angle via the 4-fold symmetric
(cos 4t, sin 4t) vector; volumetric frames by unit quaternions.  Moving a
3D field between meshes therefore never leaves the space of rotations, so
octahedrality is preserved by construction.
"""

import logging

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .errors import FieldError, GeometryError
from .geometry import compute_measures, gradient_matrix
from .solve import solve_pinned
from .symtensor import OdecoFrame, contract, modify_epsilon, odeco_form

logger = logging.getLogger(__name__)


class FrameField:
    """Per-vertex odeco frames over a mesh.

    Parameters
    ----------
    mesh : SimplicialMesh
    components : np.ndarray
        Shape ``(nv, dim, dim)``; ``components[v, a]`` is the a-th unit
        component vector at vertex v.  Rows must be orthonormal per vertex.
    weights : np.ndarray
        Shape ``(nv, dim)`` finite nonnegative weights.

    Non-finite components or weights raise ``FieldError``.

    ``kind`` is ``octahedral``, ``conformal_octahedral`` or ``odeco``,
    classified from the weights.
    """

    def __init__(self, mesh, components, weights):
        self.mesh = mesh
        self.components = np.ascontiguousarray(components, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        nv, dim = mesh.num_vertices, mesh.dim
        if self.components.shape != (nv, dim, dim):
            raise FieldError(
                f"components must have shape {(nv, dim, dim)}, "
                f"got {self.components.shape}"
            )
        if self.weights.shape != (nv, dim):
            raise FieldError(f"weights must have shape {(nv, dim)}")
        # Each check passes only when its bound holds, so NaN fails it.
        if not np.all(np.isfinite(self.components)):
            raise FieldError("frame components must be finite")
        if not np.all((self.weights >= 0) & np.isfinite(self.weights)):
            raise FieldError("frame weights must be finite and nonnegative")
        gram = np.einsum("vad,vbd->vab", self.components, self.components)
        if not np.max(np.abs(gram - np.eye(dim))) <= 1e-8:
            raise FieldError("frame components are not orthonormal per vertex")

        self.kind = self._classify()
        self.norms = self.weights.max(axis=1)
        self._forms = None
        # Generator metadata (harmonic fields): magnitude of the interpolated
        # symmetry vector, and vertices where it vanished.
        self.rep_magnitude = None
        self.singular_vertices = None

    def _classify(self):
        w = self.weights
        scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
        if np.max(np.abs(w - 1.0)) <= 1e-9:
            return "octahedral"
        spread = np.max(w, axis=1) - np.min(w, axis=1)
        if np.max(spread) <= 1e-9 * scale:
            return "conformal_octahedral"
        return "odeco"

    def forms(self):
        """Stacked Mandel quadratic forms, shape ``(nv, m, m)``."""
        if self._forms is None:
            self._forms = odeco_form(self.components, self.weights)
        return self._forms

    def epsilon_forms(self, epsilon):
        """Per-vertex forms of the modified tensor norm*Id - (1-eps)*T."""
        return modify_epsilon(self.forms(), self.norms, epsilon)

    def fingerprint(self):
        """Stable content hash of the field and its mesh (dimension, vertices,
        elements, components, weights).

        Continues from the mesh's cached hash state, so the mesh arrays are
        hashed once per mesh, not once per call.
        """
        h = self.mesh.hash_state()
        h.update(self.components.tobytes())
        h.update(self.weights.tobytes())
        return h.hexdigest()

    def __repr__(self):
        return (
            f"FrameField(kind={self.kind!r}, vertices={self.mesh.num_vertices}, "
            f"dim={self.mesh.dim})"
        )


# -- basic frames -----------------------------------------------------------


def axis_frame(dim, weights=None):
    """The axis-aligned frame e_1, ..., e_dim with given weights (default 1)."""
    if weights is None:
        weights = np.ones(dim)
    return OdecoFrame(np.eye(dim), np.asarray(weights, dtype=float))


def angles_to_components(theta):
    """2D cross components for angles: (cos t, sin t) and its quarter turn."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    comps = np.empty(theta.shape + (2, 2))
    comps[..., 0, 0], comps[..., 0, 1] = c, s
    comps[..., 1, 0], comps[..., 1, 1] = -s, c
    return comps


def components_to_angles(components):
    """First-component angle of 2D crosses."""
    return np.arctan2(components[..., 0, 1], components[..., 0, 0])


def quaternions_to_components(quats_wxyz):
    """Rotation-matrix columns for unit quaternions in (w, x, y, z) order."""
    q = np.asarray(quats_wxyz, dtype=float)
    rot = Rotation.from_quat(q[:, [1, 2, 3, 0]])  # scipy uses (x, y, z, w)
    mats = rot.as_matrix()
    return np.swapaxes(mats, 1, 2)  # component a = column a of the matrix


def components_to_quaternions(components):
    """Unit quaternions (w, x, y, z) for 3D frames, flipping a component
    sign where needed to reach determinant +1 (the frame is unchanged)."""
    mats = np.swapaxes(np.ascontiguousarray(components), 1, 2).copy()
    dets = np.linalg.det(mats)
    flip = dets < 0
    mats[flip, :, 2] *= -1.0
    q = Rotation.from_matrix(mats).as_quat()
    return q[:, [3, 0, 1, 2]]


# -- generators --------------------------------------------------------------


def constant_field(mesh, frame):
    """The same odeco frame at every vertex."""
    if frame.dim != mesh.dim:
        raise FieldError(
            f"frame dimension {frame.dim} does not match mesh dimension {mesh.dim}"
        )
    nv = mesh.num_vertices
    comps = np.broadcast_to(frame.components, (nv, mesh.dim, mesh.dim)).copy()
    weights = np.broadcast_to(frame.weights, (nv, mesh.dim)).copy()
    return FrameField(mesh, comps, weights)


def harmonic_cross_field_2d(mesh):
    """Boundary-aligned planar cross field by harmonic 4-angle interpolation.

    Boundary vertices take the angle of the (averaged) boundary tangent;
    the 4-fold representation vector (cos 4t, sin 4t) is interpolated
    harmonically into the interior with the piecewise-linear Laplacian and
    renormalized.  Vertices where the interpolated vector vanishes (field
    singularities) are flagged in ``singular_vertices`` and assigned an
    arbitrary direction with unit weight.
    """
    if mesh.dim != 2:
        raise FieldError("harmonic cross fields are planar (dim=2)")
    measures = compute_measures(mesh)
    bverts = measures.boundary_vertices
    if len(bverts) == 0:
        raise GeometryError("mesh has no boundary")
    # Per-vertex boundary data: average incident facet tangents in the
    # 4-fold representation (weighted by facet length), so that e.g. the two
    # sides meeting at a right-angle corner agree instead of cancelling.
    facets = mesh.boundary_facets
    d = mesh.vertices[facets[:, 1]] - mesh.vertices[facets[:, 0]]
    length = np.linalg.norm(d, axis=1)
    theta_f = np.arctan2(d[:, 1], d[:, 0])
    rep_f = np.column_stack([np.cos(4.0 * theta_f), np.sin(4.0 * theta_f)])
    acc = np.zeros((mesh.num_vertices, 2))
    for k in range(2):
        np.add.at(acc, facets[:, k], rep_f * (0.5 * length)[:, None])
    data = acc[bverts]
    data_norm = np.linalg.norm(data, axis=1)
    degenerate = data_norm < 1e-8
    data[~degenerate] /= data_norm[~degenerate, None]
    data[degenerate] = (1.0, 0.0)  # corner with 45-degree sides: arbitrary

    G = gradient_matrix(mesh)
    A = sparse.diags(np.repeat(measures.element_volumes, 2))
    L = (G.T @ A @ G).tocsr()

    nv = mesh.num_vertices
    rep = solve_pinned(L, bverts, data)

    mag = np.linalg.norm(rep, axis=1)
    singular = np.flatnonzero(mag < 1e-8)
    theta = np.zeros(nv)
    ok = mag >= 1e-8
    theta[ok] = np.arctan2(rep[ok, 1], rep[ok, 0]) / 4.0
    if len(singular):
        logger.warning(
            "harmonic cross field: %d singular vertices (zero symmetry vector)",
            len(singular),
        )
    field = FrameField(mesh, angles_to_components(theta), np.ones((nv, 2)))
    field.rep_magnitude = mag
    field.singular_vertices = singular
    return field


def _orthonormal_complement(axis):
    pick = int(np.argmin(np.abs(axis)))
    a = np.zeros(3)
    a[pick] = 1.0
    t1 = np.cross(axis, a)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(axis, t1)
    return t1, t2


def helical_field_3d(mesh, axis, pitch):
    """Frames twisting about ``axis`` at ``pitch`` radians per unit length.

    Each frame contains the axis.  At a vertex ``x`` the transverse pair is
    turned right-handed about ``axis`` (counterclockwise seen from its tip)
    by the angle ``pitch * (x . axis)``, so a positive pitch twists the
    frames counterclockwise as the axial coordinate grows.  ``pitch=0``
    reproduces the constant axis-aligned field.
    """
    if mesh.dim != 3:
        raise FieldError("helical fields are volumetric (dim=3)")
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise FieldError(f"axis must have 3 components, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise FieldError("axis must be nonzero")
    axis = axis / norm
    t1, t2 = _orthonormal_complement(axis)
    height = mesh.vertices @ axis
    angle = pitch * height
    rot = Rotation.from_rotvec(angle[:, None] * axis)
    nv = mesh.num_vertices
    comps = np.empty((nv, 3, 3))
    comps[:, 0, :] = axis
    # Rotation.apply needs writable input, so tile rather than broadcast
    comps[:, 1, :] = rot.apply(np.tile(t1, (nv, 1)))
    comps[:, 2, :] = rot.apply(np.tile(t2, (nv, 1)))
    return FrameField(mesh, comps, np.ones((nv, 3)))


def map_coframe_field(mesh_warped, inverse_jacobian):
    """Pullback of the constant axis frame through a map, per vertex.

    Parameters
    ----------
    mesh_warped : SimplicialMesh
        The image mesh (vertices are the mapped positions).
    inverse_jacobian : np.ndarray
        ``(nv, dim, dim)`` stack of inverse Jacobians df^-1, one per vertex
        (evaluated at the preimage of that vertex).  Non-finite entries
        raise ``FieldError``.

    Components are the normalized columns of df^-1 with weights
    ``|column|^4``.  Columns must be orthogonal within 1e-6.
    """
    Jinv = np.asarray(inverse_jacobian, dtype=float)
    nv, dim = mesh_warped.num_vertices, mesh_warped.dim
    if Jinv.shape != (nv, dim, dim) or not np.all(np.isfinite(Jinv)):
        raise FieldError(
            f"inverse Jacobians must be finite with shape {(nv, dim, dim)}"
        )
    dets = np.linalg.det(Jinv)
    if np.any(np.abs(dets) < 1e-12):
        raise FieldError("singular Jacobian at some vertex")

    cols = np.swapaxes(Jinv, 1, 2)  # (nv, col index, dim)
    norms = np.linalg.norm(cols, axis=2)
    unit = cols / norms[:, :, None]
    gram = np.einsum("vad,vbd->vab", unit, unit)
    off = np.max(np.abs(gram - np.eye(dim)))
    if off > 1e-6:
        raise FieldError(
            f"inverse Jacobian columns deviate from orthogonal by {off:.2e} "
            "(map is not conformal/orthogonal)"
        )
    # Snap to the nearest exactly-orthonormal frame (polar decomposition).
    U, _, Vt = np.linalg.svd(np.swapaxes(unit, 1, 2))
    ortho = np.swapaxes(U @ Vt, 1, 2)
    return FrameField(mesh_warped, ortho, norms**4)


# -- alignment ----------------------------------------------------------------


def check_boundary_alignment(field, measures, tol=1e-6):
    """Per-boundary-vertex residual of the generalized-eigenvector condition.

    The boundary normal n is a generalized eigenvector of the frame tensor
    when contracting the rank-one projector n n^T reproduces a multiple of
    itself.  The residual is that mismatch in Frobenius norm, relative to
    the tensor norm.

    Returns
    -------
    residuals : np.ndarray
        One value per boundary vertex (in ``measures.boundary_vertices``
        order).
    aligned : np.ndarray
        Boolean mask ``residuals <= tol``.
    """
    bv = measures.boundary_vertices
    n = measures.boundary_normals
    Q = field.forms()[bv]
    nnT = n[:, :, None] * n[:, None, :]
    C = contract(nnT, Q)
    w = np.einsum("bi,bij,bj->b", n, C, n)
    R = C - w[:, None, None] * nnT
    residual = np.linalg.norm(R, axis=(1, 2)) / np.maximum(field.norms[bv], 1e-12)
    return residual, residual <= tol


# -- resampling ----------------------------------------------------------------


def _locate_barycentric(points, mesh, k_candidates=32):
    """Containing element and barycentric coordinates per query point.

    Candidate elements come from the mesh's cached centroid KD-tree; the
    element with the largest minimum barycentric coordinate wins, which also
    serves as the nearest-element fallback for points outside the mesh.  All
    candidates of all points are evaluated in one batch, with the element
    inverses taken from the mesh's cached shape gradients.
    """
    k = min(k_candidates, mesh.num_elements)
    _, cand = mesh.centroid_tree().query(points, k=k)
    cand = cand.reshape(len(points), k)
    Einv = mesh.shape_gradients()[cand, 1:, :]  # (n, k, dim, dim)
    p0 = mesh.vertices[mesh.elements[cand, 0]]  # (n, k, dim)
    lam = np.einsum("nkij,nkj->nki", Einv, points[:, None, :] - p0)
    bary = np.concatenate([1.0 - lam.sum(axis=2, keepdims=True), lam], axis=2)
    best = np.argmax(bary.min(axis=2), axis=1)
    rows = np.arange(len(points))
    return cand[rows, best], bary[rows, best]


_OCTAHEDRAL_ROTATIONS = None


def octahedral_rotations():
    """The 24 rotational symmetries of a frame, as scipy Rotations."""
    global _OCTAHEDRAL_ROTATIONS
    if _OCTAHEDRAL_ROTATIONS is None:
        import itertools

        mats = []
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                M = np.zeros((3, 3))
                for r, (c, s) in enumerate(zip(perm, signs)):
                    M[r, c] = s
                if np.linalg.det(M) > 0:
                    mats.append(M)
        _OCTAHEDRAL_ROTATIONS = Rotation.from_matrix(np.array(mats))
    return _OCTAHEDRAL_ROTATIONS


def match_quaternion(q_ref, q):
    """Representative of the frame of ``q`` closest to ``q_ref``.

    Both quaternions are in scipy (x, y, z, w) order.  Searches the 24
    octahedral symmetries and both double-cover signs.
    """
    variants = (Rotation.from_quat(q) * octahedral_rotations()).as_quat()
    dots = variants @ q_ref
    best = int(np.argmax(np.abs(dots)))
    return np.sign(dots[best]) * variants[best]


def resample_field(field, coarse):
    """Transfer a frame field from a fine mesh onto a coarse mesh.

    2D: the 4-fold symmetry vector is interpolated barycentrically at the
    coarse vertex positions, renormalized, and converted back to a cross.
    3D: each coarse vertex takes the frame of the nearest fine vertex,
    followed by one pass of frame-symmetry-aware quaternion averaging over
    the coarse 1-ring.  The output is octahedral in both cases.
    """
    fine_mesh = field.mesh
    if coarse.dim != fine_mesh.dim:
        raise FieldError("mesh dimensions do not match")
    nv = coarse.num_vertices

    if fine_mesh.dim == 2:
        theta_f = components_to_angles(field.components)
        rep = np.column_stack([np.cos(4 * theta_f), np.sin(4 * theta_f)])
        elems, barys = _locate_barycentric(coarse.vertices, fine_mesh)
        vals = np.einsum("vk,vkc->vc", barys, rep[fine_mesh.elements[elems]])
        mag = np.linalg.norm(vals, axis=1)
        theta = np.where(mag < 1e-12, 0.0, np.arctan2(vals[:, 1], vals[:, 0]) / 4.0)
        out = FrameField(coarse, angles_to_components(theta), np.ones((nv, 2)))
        out.rep_magnitude = mag
        out.singular_vertices = np.flatnonzero(mag < 1e-8)
        return out

    tree = cKDTree(fine_mesh.vertices)
    _, nearest = tree.query(coarse.vertices)
    q0 = components_to_quaternions(field.components[nearest])[:, [1, 2, 3, 0]]
    neighbors = coarse.vertex_neighbors()
    averaged = np.empty_like(q0)
    for v in range(nv):
        acc = q0[v].copy()
        for u in neighbors[v]:
            acc += match_quaternion(q0[v], q0[u])
        averaged[v] = acc / np.linalg.norm(acc)
    comps = quaternions_to_components(averaged[:, [3, 0, 1, 2]])
    return FrameField(coarse, comps, np.ones((nv, 3)))


# -- serialization -------------------------------------------------------------


def save_field(field, path):
    """Write a field as CSV: ``theta,w1,w2`` (2D) or ``qw,qx,qy,qz,w1,w2,w3``."""
    if field.mesh.dim == 2:
        theta = components_to_angles(field.components)
        rows = np.column_stack([theta, field.weights])
    else:
        q = components_to_quaternions(field.components)
        rows = np.column_stack([q, field.weights])
    np.savetxt(path, rows, delimiter=",", fmt="%.17e")


def load_field(mesh, path):
    """Load a field saved by :func:`save_field` onto ``mesh``.

    Raises ``FieldError`` when the file does not parse as numeric CSV rows.
    """
    try:
        rows = np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#"))
    except ValueError as exc:
        raise FieldError(f"{path}: malformed field file ({exc})") from exc
    if rows.shape[0] != mesh.num_vertices:
        raise FieldError(
            f"field file has {rows.shape[0]} rows for {mesh.num_vertices} vertices"
        )
    if mesh.dim == 2:
        if rows.shape[1] != 3:
            raise FieldError("2D field rows must be theta,w1,w2")
        comps = angles_to_components(rows[:, 0])
        weights = rows[:, 1:3]
    else:
        if rows.shape[1] != 7:
            raise FieldError("3D field rows must be qw,qx,qy,qz,w1,w2,w3")
        q = rows[:, :4] / np.linalg.norm(rows[:, :4], axis=1)[:, None]
        comps = quaternions_to_components(q)
        weights = rows[:, 4:7]
    return FrameField(mesh, comps, weights)
