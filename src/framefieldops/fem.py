"""Mixed finite element assembly of the discrete frame field operator.

The fourth-order variational problem is reformulated with an auxiliary
per-vertex symmetric tensor V standing in for the Hessian, enforced by a
Lagrange multiplier field.  Stationarity of the discrete Lagrangian gives a
saddle system in (V, Lambda, mu, u); eliminating everything but u yields

    A = G' A D (Mbar - Mbar B' (B Mbar B')^{-1} B Mbar) D' A G,

with Mbar = M^{-1} M_T M^{-1} block-diagonal over vertices.  The boundary
constraint matrix B realizes either weak Neumann conditions (tangential
components of Lambda n vanish) or natural conditions (Lambda zero on the
boundary).  Since every B row touches a single vertex block, the projected
middle matrix is assembled blockwise; each boundary block is inverted
densely with a pseudoinverse fallback for singular frame tensors.

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

from .errors import FieldError, NumericalError
from .geometry import compute_measures, gradient_matrix
from .symtensor import _SQRT2, mandel_pairs, mandel_size, sym_to_mandel

logger = logging.getLogger(__name__)

BC_KINDS = ("natural", "neumann")


@dataclass
class MixedSystem:
    """All matrices of the discrete saddle problem.

    G maps vertex scalars to element gradients; D maps vertex Mandel
    tensors to element divergence vectors; A and M are the diagonal element
    and dual-vertex volume matrices (replicated per component); M_T is the
    block-diagonal energy matrix; B stacks the per-boundary-vertex
    constraint rows.
    """

    G: sparse.csr_matrix
    D: sparse.csr_matrix
    A: np.ndarray
    M: np.ndarray
    M_T: sparse.bsr_matrix
    B: sparse.csr_matrix
    constraint_blocks: list
    bc_kind: str
    epsilon: float
    mesh: object
    measures: object

    def kkt_matrix(self):
        """Dense first-order optimality matrix over (V, Lambda, mu).

        The u-row and u-column (G' A D and its transpose) are kept out; this
        is the subsystem one solves to evaluate the reduced operator on a
        given u.  Intended for small verification problems.
        """
        Mt = self.M_T.toarray()
        M = np.diag(self.M)
        B = self.B.toarray()
        nvm, nb = Mt.shape[0], B.shape[0]
        Z = np.zeros
        return np.block(
            [
                [Mt, M, Z((nvm, nb))],
                [M, Z((nvm, nvm)), B.T],
                [Z((nb, nvm)), B, Z((nb, nb))],
            ]
        )


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
        nullspace (plus the affine nullspace under natural conditions)."""
        A = self.matrix
        scale = abs(A).max()
        if abs(A - A.T).max() > 1e-12 * scale:
            raise NumericalError("assembled operator is not symmetric")
        norm_a = spla.norm(A, np.inf)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = rng.standard_normal(A.shape[0])
            q = x @ (A @ x)
            if q < -1e-10 * norm_a * (x @ x):
                raise NumericalError(f"operator not PSD: x'Ax = {q:.3e}")
        ones = np.ones(A.shape[0])
        if np.linalg.norm(A @ ones) > 1e-10 * norm_a * np.sqrt(A.shape[0]):
            raise NumericalError("constants are not in the nullspace")
        if self.bc_kind == "natural":
            for d in range(self.mesh.dim):
                x = self.mesh.vertices[:, d]
                if np.linalg.norm(A @ x) > 1e-8 * norm_a * np.linalg.norm(x):
                    raise NumericalError("affine functions not annihilated")
        return True


def divergence_matrix(mesh):
    """Piecewise-linear symmetric tensor divergence operator.

    Maps per-vertex Mandel tensors (vertex-major layout, m components per
    vertex) to the constant divergence vector per element (element-major,
    dim rows each).  Off-diagonal Mandel components carry 1/sqrt(2) so the
    result is the divergence of the physical tensor.
    """
    g = mesh.shape_gradients()  # (ne, k, dim)
    ne, k, dim = g.shape
    m = mandel_size(dim)
    pairs = mandel_pairs(dim)
    rows, cols, vals = [], [], []
    elem_rows = np.arange(ne) * dim
    for local in range(k):
        vcols = mesh.elements[:, local] * m
        for c, (i, j) in enumerate(pairs):
            if i == j:
                rows.append(elem_rows + i)
                cols.append(vcols + c)
                vals.append(g[:, local, i])
            else:
                rows.append(elem_rows + j)
                cols.append(vcols + c)
                vals.append(g[:, local, i] / _SQRT2)
                rows.append(elem_rows + i)
                cols.append(vcols + c)
                vals.append(g[:, local, j] / _SQRT2)
    D = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ne * dim, mesh.num_vertices * m),
    )
    D.sum_duplicates()
    return D.tocsr()


def energy_block_matrix(field, measures, epsilon):
    """Block-diagonal energy matrix: dual volume times the per-vertex
    epsilon-modified tensor form."""
    blocks = field.epsilon_forms(epsilon) * measures.dual_volumes[:, None, None]
    nv = len(measures.dual_volumes)
    m = blocks.shape[-1]
    indptr = np.arange(nv + 1)
    return sparse.bsr_matrix(
        (blocks, np.arange(nv), indptr), shape=(nv * m, nv * m)
    )


def constraint_blocks(measures, bc_kind, dim):
    """Per-boundary-vertex constraint rows.

    ``neumann``: one row per tangent t, the Mandel vector of sym(t n^T),
    forcing the tangential-normal tensor components to vanish.
    ``natural``: the identity block, pinning the whole multiplier to zero.

    Returns a list of (vertex index, rows) pairs in boundary order.
    """
    if bc_kind not in BC_KINDS:
        raise ValueError(f"bc_kind must be one of {BC_KINDS}, got {bc_kind!r}")
    m = mandel_size(dim)
    out = []
    for b, v in enumerate(measures.boundary_vertices):
        if bc_kind == "natural":
            out.append((int(v), np.eye(m)))
        else:
            n = measures.boundary_normals[b]
            rows = np.empty((dim - 1, m))
            for t_i in range(dim - 1):
                t = measures.boundary_tangents[b, t_i]
                rows[t_i] = sym_to_mandel(0.5 * (np.outer(t, n) + np.outer(n, t)))
            out.append((int(v), rows))
    return out


def boundary_constraint_matrix(measures, bc_kind, dim, num_vertices):
    """Assemble the sparse constraint matrix from the per-vertex blocks."""
    blocks = constraint_blocks(measures, bc_kind, dim)
    return _blocks_to_matrix(blocks, mandel_size(dim), num_vertices)


def build_mixed_system(
    mesh, field, epsilon, bc_kind, measures=None, blocks_override=None
):
    """Assemble every matrix of the saddle problem for one configuration."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if field.mesh is not mesh:
        raise FieldError("field was built on a different mesh")
    if measures is None:
        measures = compute_measures(mesh)
    m = mandel_size(mesh.dim)
    G = gradient_matrix(mesh)
    D = divergence_matrix(mesh)
    A = np.repeat(measures.element_volumes, mesh.dim)
    M = np.repeat(measures.dual_volumes, m)
    M_T = energy_block_matrix(field, measures, epsilon)
    blocks = (
        blocks_override
        if blocks_override is not None
        else constraint_blocks(measures, bc_kind, mesh.dim)
    )
    B = _blocks_to_matrix(blocks, m, mesh.num_vertices)
    return MixedSystem(
        G=G,
        D=D,
        A=A,
        M=M,
        M_T=M_T,
        B=B,
        constraint_blocks=blocks,
        bc_kind=bc_kind,
        epsilon=epsilon,
        mesh=mesh,
        measures=measures,
    )


def _blocks_to_matrix(blocks, m, num_vertices):
    rows, cols, vals = [], [], []
    r0 = 0
    for v, block in blocks:
        r = block.shape[0]
        rr, cc = np.meshgrid(np.arange(r), np.arange(m), indexing="ij")
        rows.append((r0 + rr).ravel())
        cols.append((v * m + cc).ravel())
        vals.append(np.asarray(block, dtype=float).ravel())
        r0 += r
    if not blocks:
        return sparse.csr_matrix((0, num_vertices * m))
    B = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r0, num_vertices * m),
    )
    return B.tocsr()


def _pinv_psd(S, cutoff=1e-12):
    # Dense Cholesky when safely positive definite, else eigenvalue
    # pseudoinverse with a relative cutoff; tolerates zero-weight vertices
    # of conformal fields.
    try:
        np.linalg.cholesky(S)  # positive-definiteness probe
        return np.linalg.solve(S, np.eye(S.shape[0])), False
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(S)
        keep = w > cutoff * max(w.max(), 0.0) if w.size else w > 0
        winv = np.zeros_like(w)
        winv[keep] = 1.0 / w[keep]
        return (V * winv) @ V.T, True


def projected_middle_blocks(system):
    """Per-vertex blocks of P = Mbar - Mbar B' (B Mbar B')^{-1} B Mbar.

    Mbar has block Q_eps(v) / dual_volume(v); interior vertices keep their
    Mbar block, boundary vertices are projected onto the kernel of their
    constraint rows.  Singular boundary blocks (zero-weight conformal
    vertices) fall back to a pseudoinverse with a warning.
    """
    mesh, measures = system.mesh, system.measures
    m = mandel_size(mesh.dim)
    nv = mesh.num_vertices
    dual = measures.dual_volumes
    mt_blocks = np.asarray(system.M_T.data)  # dual_v * Q_eps(v), vertex order
    mbar = mt_blocks / (dual**2)[:, None, None]
    P = mbar.copy()
    n_singular = 0
    for v, Brows in system.constraint_blocks:
        Mb = mbar[v]
        S = Brows @ Mb @ Brows.T
        Sinv, used_pinv = _pinv_psd(S)
        n_singular += used_pinv
        MB = Mb @ Brows.T
        P[v] = Mb - MB @ Sinv @ MB.T
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


def assemble_operator(
    mesh, field, epsilon, bc_kind, measures=None, blocks_override=None
):
    """Assemble the sparse discrete frame field operator.

    Parameters
    ----------
    mesh : SimplicialMesh
    field : FrameField
        Frame field on ``mesh``.
    epsilon : float
        Ellipticity parameter in (0, 1]; 1 reproduces the Bilaplacian.
    bc_kind : {"natural", "neumann"}
    blocks_override : list, optional
        Replacement constraint blocks (testing hook; the projector is
        invariant under invertible per-block rescaling).

    Returns
    -------
    AssembledOperator
    """
    system = build_mixed_system(
        mesh, field, epsilon, bc_kind, measures=measures, blocks_override=blocks_override
    )
    P_blocks = projected_middle_blocks(system)
    nv = mesh.num_vertices
    m = mandel_size(mesh.dim)
    P = sparse.bsr_matrix(
        (P_blocks, np.arange(nv), np.arange(nv + 1)), shape=(nv * m, nv * m)
    )
    K = (system.D.T @ sparse.diags(system.A) @ system.G).tocsr()
    op = (K.T @ (P @ K)).tocsr()
    op = 0.5 * (op + op.T)
    op.sum_duplicates()
    op.eliminate_zeros()
    return AssembledOperator(
        matrix=op.tocsr(),
        vertex_mass=system.measures.dual_volumes.copy(),
        bc_kind=bc_kind,
        epsilon=epsilon,
        fingerprint=_operator_fingerprint(field, epsilon, bc_kind),
        mesh=mesh,
        boundary_vertices=system.measures.boundary_vertices.copy(),
    )


def assemble_natural_shortcut(mesh, field, epsilon, measures=None):
    """Natural-condition operator by deleting boundary multiplier blocks.

    Setting the multiplier to zero on the boundary removes its columns
    outright: A = G' A D* Mbar* (D*)' A G with starred boundary blocks
    deleted.  Cross-validated against the general Schur path in the tests.
    """
    if measures is None:
        measures = compute_measures(mesh)
    system = build_mixed_system(mesh, field, epsilon, "natural", measures=measures)
    m = mandel_size(mesh.dim)
    nv = mesh.num_vertices
    keep_vertices = np.setdiff1d(np.arange(nv), measures.boundary_vertices)
    keep = (keep_vertices[:, None] * m + np.arange(m)[None, :]).ravel()
    K = (system.D.T @ sparse.diags(system.A) @ system.G).tocsr()[keep]
    mbar = np.asarray(system.M_T.data) / (measures.dual_volumes**2)[:, None, None]
    Mbar = sparse.bsr_matrix(
        (mbar[keep_vertices], np.arange(len(keep_vertices)),
         np.arange(len(keep_vertices) + 1)),
        shape=(len(keep), len(keep)),
    )
    op = (K.T @ (Mbar @ K)).tocsr()
    op = 0.5 * (op + op.T)
    return op


def bilaplacian_mixed_natural(mesh, measures=None):
    """Stein-style mixed Bilaplacian with natural boundary conditions.

    Reference operator: G' A D* (M*)^{-1} (D*)' A G with boundary Mandel
    blocks deleted and M the dual-volume diagonal.  The frame field operator
    must reproduce this exactly at epsilon = 1.
    """
    if measures is None:
        measures = compute_measures(mesh)
    m = mandel_size(mesh.dim)
    nv = mesh.num_vertices
    G = gradient_matrix(mesh)
    D = divergence_matrix(mesh)
    A = sparse.diags(np.repeat(measures.element_volumes, mesh.dim))
    keep_vertices = np.setdiff1d(np.arange(nv), np.unique(mesh.boundary_facets))
    keep = (keep_vertices[:, None] * m + np.arange(m)[None, :]).ravel()
    K = (D.T @ A @ G).tocsr()[keep]
    Minv = sparse.diags(1.0 / np.repeat(measures.dual_volumes[keep_vertices], m))
    op = (K.T @ (Minv @ K)).tocsr()
    return 0.5 * (op + op.T)


def apply_dirichlet_partition(op, boundary_values):
    """Solve the clamped Dirichlet problem by boundary partition elimination.

    The weak Neumann multiplier constraint already encodes a vanishing
    normal derivative, so prescribing boundary values of u on the
    Neumann-constrained operator realizes the boundary-value problem with
    both u and its normal derivative controlled.  Solves the interior block
    A_II u_I = -A_IB u0 and reassembles the full vertex vector.

    Parameters
    ----------
    op : AssembledOperator
        Must carry ``bc_kind == "neumann"``.
    boundary_values : np.ndarray
        One value per boundary vertex, in ``op.boundary_vertices`` order.
    """
    if op.bc_kind != "neumann":
        raise ValueError("Dirichlet partition requires the weak-Neumann operator")
    boundary_values = np.asarray(boundary_values, dtype=float)
    bv = op.boundary_vertices
    if boundary_values.shape != bv.shape:
        raise ValueError("boundary value count does not match boundary vertices")
    from .solve import solve_spd

    nv = op.matrix.shape[0]
    interior = np.setdiff1d(np.arange(nv), bv)
    u = np.zeros(nv)
    u[bv] = boundary_values
    if len(interior) == 0:
        return u
    A_ii = op.matrix[interior][:, interior]
    A_ib = op.matrix[interior][:, bv]
    try:
        u[interior] = solve_spd(A_ii, -(A_ib @ boundary_values))
    except NumericalError as exc:
        raise NumericalError(f"interior Dirichlet block solve failed: {exc}") from exc
    return u
