"""Mixed finite element assembly of the discrete frame field operator.

The fourth-order variational problem is reformulated with an auxiliary
per-vertex symmetric tensor V standing in for the Hessian, enforced by a
Lagrange multiplier field.  Stationarity of the discrete Lagrangian gives a
saddle system in (V, Lambda, mu, u); eliminating everything but u yields

    A = G' A D (Mbar - Mbar B' (B Mbar B')^+ B Mbar) D' A G,

with Mbar = M^{-1} M_T M^{-1} block-diagonal over vertices: M is the
dual-vertex volume diagonal and M_T the energy matrix with blocks
dual(v) Q_eps(v), so the block of Mbar at vertex v is Q_eps(v) / dual(v).
Assembly keeps only these ``(nv, m, m)`` blocks; M and M_T are never
formed.  The boundary
constraint matrix B realizes either weak Neumann conditions (tangential
components of Lambda n vanish) or natural conditions (Lambda zero on the
boundary).  Every B row touches a single vertex block, so the projected
middle matrix is block-diagonal too.  One rule gives its boundary blocks:
under natural conditions B_v is the identity and the projected block is
exactly zero; under weak Neumann conditions every B_v has dim - 1 rows and
the boundary blocks are projected with one batched eigenvalue pseudoinverse,
which also covers the singular blocks of zero-weight frame tensors.

Everything that depends on the mesh alone is built once per mesh and cached
on it: the measures (``compute_measures``), the shape gradients, G, and
the outer factor K = D' A G with its CSR transpose (``weak_hessian``).  The
caches cannot go stale because every mesh array, and every array of these
results, is read-only.  Each assembly forms only the middle blocks, places
them as a block-diagonal CSR matrix P, and takes the product K' P K.

Assembly is vectorized and deterministic: identical inputs produce
bitwise-identical matrices.
"""

import hashlib
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import FieldError, NumericalError, ParameterError
from .geometry import compute_measures, gradient_matrix
from .solve import check_symmetric, solve_pinned
from .symtensor import _SQRT2, mandel_pairs, mandel_size, sym_to_mandel

logger = logging.getLogger(__name__)

BC_KINDS = ("natural", "neumann")


@dataclass
class MixedSystem:
    """The configuration-dependent blocks of the discrete saddle problem.

    ``mbar`` is the ``(nv, m, m)`` stack of the blocks Q_eps(v) / dual(v)
    of Mbar = M^{-1} M_T M^{-1}.  ``constraint_rows`` is the
    ``(nb, r, m)`` array of boundary constraint rows, one ``r x m`` block
    per vertex of ``compute_measures(mesh).boundary_vertices`` in that
    order; B is their block-diagonal placement and is not stored.  The
    gradient G, the divergence D and the element volumes A enter only
    through the mesh-only product K = D' A G, which ``weak_hessian`` builds
    once per mesh, so they are not stored here either; nor are the
    measures, which are cached on the mesh.
    """

    mbar: np.ndarray
    constraint_rows: np.ndarray
    bc_kind: str
    mesh: object


@dataclass
class AssembledOperator:
    """Sparse symmetric PSD frame field operator with its lumped mass.

    ``matrix`` acts on per-vertex scalars; ``vertex_mass`` is the diagonal
    of the barycentric lumped mass matrix.  ``fingerprint`` hashes the
    field, epsilon, and boundary-condition kind for provenance checks.
    """

    matrix: sparse.csr_matrix
    vertex_mass: np.ndarray
    bc_kind: str
    epsilon: float
    fingerprint: str
    mesh: object
    boundary_vertices: np.ndarray

    def validate(self, seed=0):
        """Check symmetry, positive semidefiniteness, and the constant-mode
        nullspace (plus the affine nullspace under natural conditions).
        Each test passes only if its bound holds, so NaN fails all of them."""
        A = check_symmetric(self.matrix)
        n = A.shape[0]
        norm_a = spla.norm(A, np.inf)
        # Five random probes, then the constant and (natural) coordinate
        # functions, each set applied in one sparse-times-dense product.
        X = np.random.default_rng(seed).standard_normal((5, n))
        for x, Ax in zip(X, (A @ X.T).T):
            q = x @ Ax
            if not q >= -1e-10 * norm_a * (x @ x):
                raise NumericalError(f"operator not PSD: x'Ax = {q:.3e}")
        Y = np.ones((n, 1))
        if self.bc_kind == "natural":
            Y = np.column_stack([Y, self.mesh.vertices])
        AY = A @ Y
        if not np.linalg.norm(AY[:, 0]) <= 1e-10 * norm_a * np.sqrt(n):
            raise NumericalError("constants are not in the nullspace")
        for x, Ax in zip(Y.T[1:], AY.T[1:]):
            if not np.linalg.norm(Ax) <= 1e-8 * norm_a * np.linalg.norm(x):
                raise NumericalError("affine functions not annihilated")
        return True


def divergence_matrix(mesh):
    """Piecewise-linear symmetric tensor divergence operator.

    Maps per-vertex Mandel tensors (vertex-major layout, m components per
    vertex) to the constant divergence vector per element (element-major,
    dim rows each).  Off-diagonal Mandel components carry 1/sqrt(2) so the
    result is the divergence of the physical tensor.

    Built straight into CSR: row (e, i) holds, for each vertex of element e
    in ascending index order, the dim Mandel components that involve
    direction i, so every row has (dim + 1) * dim distinct sorted columns.
    """
    g = mesh.shape_gradients()  # (ne, k, dim)
    ne, k, dim = g.shape
    m = mandel_size(dim)
    pairs = mandel_pairs(dim)
    # comp[i]: the components (a, b) with i in {a, b}, ascending; component
    # (a, b) puts d_b of the hat function into row a and d_a into row b.
    comp = np.array(
        [[c for c, pair in enumerate(pairs) if i in pair] for i in range(dim)]
    )
    other = np.array([[sum(pairs[c]) - i for c in row] for i, row in enumerate(comp)])
    divisor = np.where(comp < dim, 1.0, _SQRT2)  # diagonal components come first
    order = np.argsort(mesh.elements, axis=1)
    verts = np.take_along_axis(mesh.elements, order, axis=1)
    grads = np.take_along_axis(g, order[:, :, None], axis=1)
    # Both arrays are indexed (element, row direction i, vertex, component).
    indices = verts[:, None, :, None] * m + comp[None, :, None, :]
    data = np.swapaxes(grads[:, :, other], 1, 2) / divisor[None, :, None, :]
    indptr = np.arange(ne * dim + 1) * (k * dim)
    return sparse.csr_matrix(
        (data.ravel(), indices.ravel(), indptr),
        shape=(ne * dim, mesh.num_vertices * m),
    )


def weak_hessian(mesh):
    """The mesh-only factor K = D' A G of the operator, cached on the mesh.

    G maps vertex scalars to element gradients, A weights the rows of each
    element by its volume, and D' tests them against the divergence of
    every vertex's tensor hat functions, so K u is, up to sign, the weak
    Hessian of u tested against the multiplier basis.  K depends on the mesh alone: the
    frame field, epsilon and the boundary condition only enter the middle
    blocks of K' P K.  It is therefore built on first use and reused by
    every assembly on the mesh, which is safe because a mesh's arrays are
    read-only.  A uses ``mesh.element_volumes``, the array
    ``compute_measures`` reports.  K' is built and cached in CSR next to K,
    for the left factor of every product K' P K.  Both are in canonical
    format (sorted indices, no duplicates), and their ``data``,
    ``indices`` and ``indptr`` are read-only.
    """
    if mesh._weak_hessian is None:
        G = gradient_matrix(mesh)
        D = divergence_matrix(mesh)
        A = sparse.diags(np.repeat(mesh.element_volumes, mesh.dim))
        K = (D.T @ A @ G).tocsr()
        Kt = K.T.tocsr()
        for M in (K, Kt):
            M.sum_duplicates()
            for array in (M.data, M.indices, M.indptr):
                array.flags.writeable = False
        mesh._weak_hessian, mesh._weak_hessian_t = K, Kt
    return mesh._weak_hessian


def constraint_blocks(measures, bc_kind, dim):
    """Boundary constraint rows as one ``(nb, r, m)`` array.

    ``neumann``: r = dim - 1 rows per vertex, the Mandel vectors of
    sym(t n^T) over its tangents t, forcing the tangential-normal tensor
    components to vanish.
    ``natural``: the m x m identity, pinning the whole multiplier to zero.

    Blocks follow ``measures.boundary_vertices``.
    """
    if bc_kind not in BC_KINDS:
        raise ParameterError(f"bc_kind must be one of {BC_KINDS}, got {bc_kind!r}")
    m = mandel_size(dim)
    nb = len(measures.boundary_vertices)
    if bc_kind == "natural":
        return np.broadcast_to(np.eye(m), (nb, m, m))
    t = measures.boundary_tangents  # (nb, dim - 1, dim)
    n = measures.boundary_normals[:, None, :]  # (nb, 1, dim)
    tn = t[..., :, None] * n[..., None, :]
    return sym_to_mandel(0.5 * (tn + np.swapaxes(tn, -1, -2)))


def build_mixed_system(mesh, field, epsilon, bc_kind):
    """The middle blocks and constraint rows of one configuration."""
    if field.mesh is not mesh:
        raise FieldError("field was built on a different mesh")
    measures = compute_measures(mesh)
    return MixedSystem(
        mbar=field.epsilon_forms(epsilon) / measures.dual_volumes[:, None, None],
        constraint_rows=constraint_blocks(measures, bc_kind, mesh.dim),
        bc_kind=bc_kind,
        mesh=mesh,
    )


def projected_middle_blocks(system):
    """Per-vertex blocks of P = Mbar - Mbar B' (B Mbar B')^+ B Mbar.

    The result starts as a copy of ``system.mbar``, whose block at v is
    Q_eps(v) / dual_volume(v).  Interior vertices keep their Mbar block.
    Under natural conditions B_v is the identity, so boundary blocks are
    exactly zero.  Under weak Neumann conditions the boundary
    blocks are projected onto the kernel of their constraint rows with one
    batched eigenvalue pseudoinverse of the ``(nb, r, r)`` Gram blocks
    B_v Mbar_v B_v'; eigenvalues at or below 1e-12 times the block's
    largest are dropped.  Blocks that lose an eigenvalue (zero-weight
    conformal vertices) are counted in a warning.
    """
    bv = compute_measures(system.mesh).boundary_vertices
    P = system.mbar.copy()
    if system.bc_kind == "natural":
        P[bv] = 0.0
        return P
    B = system.constraint_rows
    Bt = np.swapaxes(B, -1, -2)
    Mb = P[bv]
    MB = Mb @ Bt
    w, V = np.linalg.eigh((B @ Mb) @ Bt)
    keep = w > 1e-12 * w.max(axis=-1, initial=0.0)[:, None]
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    S_pinv = (V * winv[:, None, :]) @ np.swapaxes(V, -1, -2)
    P[bv] = Mb - (MB @ S_pinv) @ np.swapaxes(MB, -1, -2)
    n_singular = int(np.count_nonzero(~keep.all(axis=-1)))
    if n_singular:
        warnings.warn(
            f"{n_singular} singular boundary constraint blocks; used pseudoinverse"
        )
    return P


def _operator_fingerprint(field, epsilon, bc_kind):
    h = hashlib.sha256()
    h.update(field.fingerprint().encode())
    h.update(np.float64(epsilon).tobytes())
    h.update(bc_kind.encode())
    return h.hexdigest()


def assemble_operator(mesh, field, epsilon, bc_kind):
    """Assemble the sparse discrete frame field operator.

    Parameters
    ----------
    mesh : SimplicialMesh
    field : FrameField
        Frame field on ``mesh``.
    epsilon : float
        Ellipticity parameter in (0, 1]; 1 reproduces the Bilaplacian.
    bc_kind : {"natural", "neumann"}

    Returns
    -------
    AssembledOperator
    """
    system = build_mixed_system(mesh, field, epsilon, bc_kind)
    P_blocks = projected_middle_blocks(system)
    measures = compute_measures(mesh)
    nv = mesh.num_vertices
    m = mandel_size(mesh.dim)
    # Block-diagonal P straight in CSR: row (v, a) holds block v's row a in
    # columns v*m .. v*m + m - 1.
    columns = np.arange(nv * m).reshape(nv, 1, m)
    P = sparse.csr_matrix(
        (P_blocks.ravel(), np.broadcast_to(columns, (nv, m, m)).ravel(),
         np.arange(nv * m + 1) * m),
        shape=(nv * m, nv * m),
    )
    K = weak_hessian(mesh)
    X = mesh._weak_hessian_t @ (P @ K)
    op = X + X.T
    op.data *= 0.5
    op.eliminate_zeros()
    op.sort_indices()
    return AssembledOperator(
        matrix=op,
        vertex_mass=measures.dual_volumes.copy(),
        bc_kind=bc_kind,
        epsilon=epsilon,
        fingerprint=_operator_fingerprint(field, epsilon, bc_kind),
        mesh=mesh,
        boundary_vertices=measures.boundary_vertices.copy(),
    )


def apply_dirichlet_partition(op, boundary_values):
    """Solve the clamped Dirichlet problem by boundary partition elimination.

    The weak Neumann multiplier constraint already encodes a vanishing
    normal derivative, so prescribing boundary values of u on the
    Neumann-constrained operator realizes the boundary-value problem with
    both u and its normal derivative controlled.  ``solve_pinned`` solves
    the interior block A_II u_I = -A_IB u0.

    Parameters
    ----------
    op : AssembledOperator
        Must carry ``bc_kind == "neumann"``.
    boundary_values : np.ndarray
        One value per boundary vertex, in ``op.boundary_vertices`` order.
    """
    if op.bc_kind != "neumann":
        raise ParameterError("Dirichlet partition requires the weak-Neumann operator")
    boundary_values = np.asarray(boundary_values, dtype=float)
    bv = op.boundary_vertices
    if boundary_values.shape != bv.shape:
        raise ParameterError("boundary value count does not match boundary vertices")
    try:
        return solve_pinned(op, bv, boundary_values)
    except NumericalError as exc:
        raise NumericalError(f"interior Dirichlet block solve failed: {exc}") from exc
