"""Frame fields over meshes: generators, storage, alignment, restriction.

A :class:`FrameField` assigns an odeco frame (orthonormal component vectors
with nonnegative weights) to every mesh vertex.  Each field's kind is
classified from its weights: ``octahedral`` (all weights one),
``conformal_octahedral`` (per-vertex equal weights), or general ``odeco``.
A field's constructor computes its Mandel forms and fingerprint once; only a
harmonic field's ``rep_magnitude`` is written later.

Planar crosses are interpolated through the 4-fold symmetric
(cos 4t, sin 4t) vector; volumetric frames are stored in files as unit
quaternions.  A field moves down a refinement hierarchy by restriction:
``refine_uniform`` keeps the coarse vertices first, at unchanged positions,
so a coarser level takes the fine frames and weights at those vertices.
"""

import logging

import numpy as np
from scipy import sparse

from .errors import FieldError, GeometryError, as_floats, check_values
from .geometry import (
    _freeze,
    _save_csv,
    _tangent_bases,
    compute_measures,
    gradient_matrix,
)
from .solve import _System, solve_pinned
from .symtensor import OdecoFrame, modify_epsilon, odeco_form, sym_to_mandel

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

    Components or weights of another shape, or not finite, raise
    ``FieldError``.  Both arrays are copied and stored read-only, as are
    ``norms`` and ``forms()``, so no edit to an array passed in or handed
    out can reach the field or its fingerprint, both built here, once.

    ``kind`` is ``octahedral``, ``conformal_octahedral`` or ``odeco``,
    classified from the weights.
    """

    def __init__(self, mesh, components, weights):
        self.mesh = mesh
        nv, dim = mesh.num_vertices, mesh.dim
        components = check_values(
            "frame components", components, (nv, dim, dim), FieldError
        )
        weights = check_values("frame weights", weights, (nv, dim), FieldError)
        self.components = _freeze(np.array(components))
        self.weights = _freeze(np.array(weights))
        if not np.all(self.weights >= 0):
            raise FieldError("frame weights must be nonnegative")
        # every Gram entry within 1e-8 of the identity's, one pair of
        # components at a time over contiguous per-vertex columns
        columns = np.ascontiguousarray(np.moveaxis(self.components, 0, -1))
        worst = max(
            np.abs((columns[a] * columns[b]).sum(axis=0) - (a == b)).max(initial=0.0)
            for a in range(dim)
            for b in range(a + 1)
        )
        if not worst <= 1e-8:
            raise FieldError("frame components are not orthonormal per vertex")

        self.kind = self._classify()
        self.norms = _freeze(self.weights.max(axis=1))
        self._forms = _freeze(odeco_form(self.components, self.weights))
        h = mesh.hash_state()  # the mesh arrays are hashed once per mesh
        h.update(self.components.tobytes())
        h.update(self.weights.tobytes())
        self._fingerprint = h.hexdigest()
        # |rep| of a harmonic field, written by harmonic_cross_field_2d
        self.rep_magnitude = None

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
        return self._forms

    def epsilon_forms(self, epsilon):
        """Per-vertex forms of the modified tensor norm*Id - (1-eps)*T."""
        return modify_epsilon(self.forms(), self.norms, epsilon)

    def fingerprint(self):
        """Stable content hash of the field and its mesh (dimension, vertices,
        elements, components, weights), taken at construction; the arrays
        are read-only, so it cannot go stale."""
        return self._fingerprint

    def __repr__(self):
        return (
            f"FrameField(kind={self.kind!r}, vertices={self.mesh.num_vertices}, "
            f"dim={self.mesh.dim})"
        )


# -- basic frames -----------------------------------------------------------


def axis_frame(dim):
    """The axis-aligned frame e_1, ..., e_dim with unit weights."""
    return OdecoFrame(np.eye(dim), np.ones(dim))


def angles_to_components(theta):
    """2D cross components for angles: (cos t, sin t) and its quarter turn.
    A non-finite angle raises ``FieldError``."""
    theta = as_floats("angle", theta, FieldError)
    theta = check_values("angle", theta, theta.shape, FieldError)
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
    from scipy.spatial.transform import Rotation

    q = np.asarray(quats_wxyz, dtype=float)
    rot = Rotation.from_quat(q[:, [1, 2, 3, 0]])  # scipy uses (x, y, z, w)
    mats = rot.as_matrix()
    return np.swapaxes(mats, 1, 2)  # component a = column a of the matrix


def components_to_quaternions(components):
    """Unit quaternions (w, x, y, z) for 3D frames, flipping a component
    sign where needed to reach determinant +1 (the frame is unchanged)."""
    from scipy.spatial.transform import Rotation

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
    comps = np.broadcast_to(frame.components, (nv, mesh.dim, mesh.dim))
    weights = np.broadcast_to(frame.weights, (nv, mesh.dim))
    return FrameField(mesh, comps, weights)


def harmonic_cross_field_2d(mesh):
    """Boundary-aligned planar cross field by harmonic 4-angle interpolation.

    Boundary vertices take the angle of the (averaged) boundary tangent;
    the 4-fold representation vector (cos 4t, sin 4t) is interpolated
    harmonically into the interior with the piecewise-linear Laplacian
    (symmetric as built, so ``solve_pinned`` takes it unchecked, in the
    mesh's ``vertex_order``), and each vertex takes the cross of angle
    ``arg(rep) / 4``; ``|rep|`` is kept in ``rep_magnitude``.  Vertices
    where the interpolated vector vanishes (``rep_magnitude < 1e-8``, field
    singularities) get angle 0 and are counted in a warning.
    """
    if mesh.dim != 2:
        raise FieldError("harmonic cross fields are planar (dim=2)")
    bverts = compute_measures(mesh).boundary_vertices
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
    A = sparse.diags(np.repeat(mesh.element_volumes, 2))
    L = (G.T @ A @ G).tocsr()

    rep = solve_pinned(_System(L, mesh.vertex_order()), bverts, data)
    mag = np.linalg.norm(rep, axis=1)
    singular = mag < 1e-8
    theta = np.where(singular, 0.0, np.arctan2(rep[:, 1], rep[:, 0]) / 4.0)
    field = FrameField(mesh, angles_to_components(theta), np.ones((len(rep), 2)))
    field.rep_magnitude = mag
    if singular.any():
        logger.warning(
            "harmonic cross field: %d singular vertices (zero symmetry vector)",
            np.count_nonzero(singular),
        )
    return field


def helical_field_3d(mesh, axis, pitch):
    """Frames twisting about ``axis`` at ``pitch`` radians per unit length.

    Each frame contains the axis.  At a vertex ``x`` the transverse pair is
    turned right-handed about ``axis`` (counterclockwise seen from its tip)
    by the angle ``pitch * (x . axis)``, so a positive pitch twists the
    frames counterclockwise as the axial coordinate grows: the pair
    ``t1, t2 = _tangent_bases(axis)`` turns to ``cos a t1 + sin a t2`` and
    ``cos a t2 - sin a t1``.  ``pitch=0`` reproduces the constant
    axis-aligned field.  A non-finite pitch, or an axis that is not three
    finite components, not all zero, raises ``FieldError``.
    """
    if mesh.dim != 3:
        raise FieldError("helical fields are volumetric (dim=3)")
    pitch = check_values("pitch", pitch, (), FieldError)
    axis = check_values("axis (3 components)", axis, (3,), FieldError)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise FieldError("axis must be nonzero")
    axis = axis / norm
    t1, t2 = _tangent_bases(axis[None])[0]
    angle = pitch * (mesh.vertices @ axis)
    cos, sin = np.cos(angle)[:, None], np.sin(angle)[:, None]
    nv = mesh.num_vertices
    comps = np.empty((nv, 3, 3))
    comps[:, 0, :] = axis
    comps[:, 1, :] = cos * t1 + sin * t2
    comps[:, 2, :] = cos * t2 - sin * t1
    return FrameField(mesh, comps, np.ones((nv, 3)))


def map_coframe_field(mesh_warped, inverse_jacobian):
    """Pullback of the constant axis frame through a map, per vertex.

    Parameters
    ----------
    mesh_warped : SimplicialMesh
        The image mesh (vertices are the mapped positions).
    inverse_jacobian : np.ndarray
        ``(nv, dim, dim)`` stack of inverse Jacobians df^-1, one per vertex
        (evaluated at the preimage of that vertex).  Another shape or a
        non-finite entry raises ``FieldError``.

    Components are the normalized columns of df^-1 with weights
    ``|column|^4``.  Columns must be orthogonal within 1e-6.
    """
    nv, dim = mesh_warped.num_vertices, mesh_warped.dim
    Jinv = check_values(
        "inverse Jacobians", inverse_jacobian, (nv, dim, dim), FieldError
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


def check_boundary_alignment(field):
    """Per-boundary-vertex residual of the generalized-eigenvector condition.

    The boundary normal n is a generalized eigenvector of the frame tensor
    when contracting the rank-one projector n n^T reproduces a multiple of
    itself.  With v the Mandel vector of n n^T and Q the vertex's form, the
    residual is ``|Q v - (v' Q v) v|`` relative to the tensor norm; the
    Mandel map is an isometry, so this is the mismatch in Frobenius norm.

    The boundary and its normals are the field mesh's own, from
    ``compute_measures(field.mesh)``.

    Returns
    -------
    residuals : np.ndarray
        One value per boundary vertex (in ``boundary_vertices`` order of the
        field mesh's measures).
    aligned : np.ndarray
        Boolean mask ``residuals <= 1e-6``.
    """
    measures = compute_measures(field.mesh)
    bv = measures.boundary_vertices
    n = measures.boundary_normals
    v = sym_to_mandel(n[:, :, None] * n[:, None, :])
    Qv = np.einsum("bpq,bq->bp", field.forms()[bv], v)
    w = np.einsum("bp,bp->b", v, Qv)
    R = Qv - w[:, None] * v
    residual = np.linalg.norm(R, axis=1) / np.maximum(field.norms[bv], 1e-12)
    return residual, residual <= 1e-6


# -- restriction ---------------------------------------------------------------


def resample_field(field, coarse):
    """Restrict a frame field to a coarser level of its mesh's hierarchy.

    ``coarse`` must have the field mesh's dimension, and its vertices must
    equal, exactly, the first ``coarse.num_vertices`` vertices of the field's
    mesh, as they do for any mesh that ``refine_uniform`` (once or repeatedly)
    refined into the field's mesh.  The result holds the field's frames and
    weights at those vertices.  A mesh that breaks this rule raises
    ``FieldError``.
    """
    nc = coarse.num_vertices
    if not np.array_equal(coarse.vertices, field.mesh.vertices[:nc]):
        raise FieldError(
            f"cannot restrict a field on {field.mesh.num_vertices} vertices "
            f"(dim {field.mesh.dim}) to a mesh of {nc} vertices (dim {coarse.dim}): "
            "the coarse vertices must equal the first vertices of the field's "
            "mesh, as refine_uniform keeps them"
        )
    return FrameField(coarse, field.components[:nc], field.weights[:nc])


# -- serialization -------------------------------------------------------------


def save_field(field, path):
    """Write a field as CSV: ``theta,w1,w2`` (2D) or ``qw,qx,qy,qz,w1,w2,w3``."""
    if field.mesh.dim == 2:
        theta = components_to_angles(field.components)
        rows = np.column_stack([theta, field.weights])
    else:
        q = components_to_quaternions(field.components)
        rows = np.column_stack([q, field.weights])
    _save_csv(path, rows)


def load_field(mesh, path):
    """Load a field saved by :func:`save_field` onto ``mesh``.

    Raises ``FieldError`` when the file does not parse as numeric CSV rows,
    does not hold one finite row per vertex (``theta,w1,w2`` in 2D,
    ``qw,qx,qy,qz,w1,w2,w3`` in 3D), or a 3D row's quaternion is zero.
    """
    try:
        rows = np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#"))
    except ValueError as exc:
        raise FieldError(f"{path}: malformed field file ({exc})") from exc
    shape = (mesh.num_vertices, 3 if mesh.dim == 2 else 7)
    rows = check_values(f"{path}: field rows", rows, shape, FieldError)
    if mesh.dim == 2:
        return FrameField(mesh, angles_to_components(rows[:, 0]), rows[:, 1:])
    norm = np.linalg.norm(rows[:, :4], axis=1)
    if not np.all(norm > 0):
        raise FieldError(f"{path}: quaternion rows must be nonzero")
    comps = quaternions_to_components(rows[:, :4] / norm[:, None])
    return FrameField(mesh, comps, rows[:, 4:])
