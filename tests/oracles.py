"""Independent reference computations the production code is tested against.

Each oracle takes the brute-force route on purpose: the dense KKT solve
works straight from the first-order optimality matrix with the sparse
constraint matrix B placed explicitly, the natural-condition shortcut
deletes the boundary multiplier blocks outright, the eigen oracle
diagonalizes the full dense pencil, the QP oracle enumerates every active
set, and the random frame helpers build tensors from their definition.
The mixed factor K = D' A G is rebuilt here from its parts, never read
from the mesh cache, and the divergence reference places one COO triplet
per (vertex, component, row) and lets ``sum_duplicates`` order them.  The
mesh-cache references take the slow general route the closed forms
replaced: a LAPACK inverse per element, ``np.unique`` over edge rows, a
BSR middle matrix times the transpose view of K, one sequential hash over
every array, and a centroid KD-tree built per call.
"""

import hashlib
import itertools

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag, eigh, lu_factor, lu_solve
from scipy.spatial import cKDTree

from framefieldops import OdecoFrame, compute_measures, divergence_matrix, weak_hessian
from framefieldops.fem import build_mixed_system, projected_middle_blocks
from framefieldops.geometry import gradient_matrix
from framefieldops.symtensor import _SQRT2, mandel_pairs, mandel_size


def random_rotation(rng, dim):
    """Haar-ish random rotation via QR with positive diagonal."""
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q *= np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, -1] *= -1
    return Q


def random_octahedral_frame(rng, dim, weight=1.0):
    return OdecoFrame(random_rotation(rng, dim).T, np.full(dim, weight))


def random_symmetric(rng, dim):
    S = rng.standard_normal((dim, dim))
    return 0.5 * (S + S.T)


def divergence_by_coo(mesh):
    """Tensor divergence matrix from COO triplets, one array per local
    vertex and Mandel component, merged by ``sum_duplicates``."""
    g = mesh.shape_gradients()  # (ne, k, dim)
    ne, k, dim = g.shape
    m = mandel_size(dim)
    rows, cols, vals = [], [], []
    elem_rows = np.arange(ne) * dim
    for local in range(k):
        vcols = mesh.elements[:, local] * m
        for c, (i, j) in enumerate(mandel_pairs(dim)):
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


def gradient_dense(mesh):
    """Dense gradient matrix: row ``e * dim + i`` holds the i-th component
    of each vertex's shape gradient on element e."""
    g = mesh.shape_gradients()  # (ne, k, dim)
    ne, k, dim = g.shape
    G = np.zeros((ne * dim, mesh.num_vertices))
    rows = np.arange(ne)[:, None] * dim + np.arange(dim)
    for local in range(k):
        G[rows, mesh.elements[:, local, None]] = g[:, local, :]
    return G


def mixed_factor(mesh):
    """K = D' A G from the gradient, the divergence and the element volumes,
    bypassing the cache of ``fem.weak_hessian``."""
    A = sparse.diags(np.repeat(mesh.element_volumes, mesh.dim))
    return (divergence_matrix(mesh).T @ A @ gradient_matrix(mesh)).tocsr()


def operator_from_blocks(mesh, P_blocks):
    """Dense K' P K with the per-vertex middle blocks on the diagonal of P
    and K from ``mixed_factor``."""
    K = mixed_factor(mesh).toarray()
    return K.T @ block_diag(*P_blocks) @ K


def constraint_matrix(system):
    """Sparse constraint matrix B with the blocks of ``system.constraint_rows``
    placed at their boundary vertices' Mandel columns."""
    rows = system.constraint_rows
    nb, r, m = rows.shape
    bv = compute_measures(system.mesh).boundary_vertices
    ri = np.broadcast_to(np.arange(nb * r).reshape(nb, r, 1), rows.shape)
    ci = np.broadcast_to(bv[:, None, None] * m + np.arange(m), rows.shape)
    return sparse.csr_matrix(
        (rows.ravel(), (ri.ravel(), ci.ravel())),
        shape=(nb * r, system.mesh.num_vertices * m),
    )


def dense_kkt_matrix(system):
    """Dense first-order optimality matrix over (V, Lambda, mu).

    The u-row and u-column (G' A D and its transpose) are kept out; this
    is the subsystem one solves to evaluate the reduced operator on a
    given u.
    """
    Mt = system.M_T.toarray()
    M = np.diag(system.M)
    B = constraint_matrix(system).toarray()
    nvm, nb = Mt.shape[0], B.shape[0]
    Z = np.zeros
    return np.block(
        [
            [Mt, M, Z((nvm, nb))],
            [M, Z((nvm, nvm)), B.T],
            [Z((nb, nvm)), B, Z((nb, nb))],
        ]
    )


def dense_kkt_factor(system):
    """LU factorization of the (V, Lambda, mu) optimality block."""
    return lu_factor(dense_kkt_matrix(system))


def dense_kkt_apply(system, factor, u):
    """A u computed through the full dense saddle system.

    Given u, solves the first-order conditions for (V, Lambda, mu) with
    -D'AGu as the Lambda-row right-hand side, then evaluates G'AD Lambda.
    """
    K = mixed_factor(system.mesh).toarray()
    nvm = system.M_T.shape[0]
    nb = constraint_matrix(system).shape[0]
    rhs = np.concatenate([np.zeros(nvm), -(K @ u), np.zeros(nb)])
    sol = lu_solve(factor, rhs)
    lam = sol[nvm : 2 * nvm]
    return K.T @ lam


def natural_shortcut(mesh, field, epsilon):
    """Natural-condition operator by deleting boundary multiplier blocks.

    Setting the multiplier to zero on the boundary removes its columns
    outright: A = G' A D* Mbar* (D*)' A G with starred boundary blocks
    deleted.
    """
    measures = compute_measures(mesh)
    system = build_mixed_system(mesh, field, epsilon, "natural")
    m = mandel_size(mesh.dim)
    nv = mesh.num_vertices
    keep_vertices = np.setdiff1d(np.arange(nv), measures.boundary_vertices)
    keep = (keep_vertices[:, None] * m + np.arange(m)[None, :]).ravel()
    K = mixed_factor(mesh)[keep]
    mbar = np.asarray(system.M_T.data) / (measures.dual_volumes**2)[:, None, None]
    Mbar = sparse.bsr_matrix(
        (mbar[keep_vertices], np.arange(len(keep_vertices)),
         np.arange(len(keep_vertices) + 1)),
        shape=(len(keep), len(keep)),
    )
    op = (K.T @ (Mbar @ K)).tocsr()
    return 0.5 * (op + op.T)


def dense_eigs(A, M_diag, k):
    """k smallest eigenpairs of ``A phi = lambda M phi`` by dense ``eigh``."""
    dense = A.toarray() if sparse.issparse(A) else np.asarray(A, dtype=float)
    vals, vecs = eigh(dense, np.diag(M_diag))
    return vals[:k], vecs[:, :k]


def box_qp_active_set(A, lower, upper, fixed_indices=(), fixed_values=()):
    """Global minimum of 0.5 x'Ax over the box by active-set enumeration.

    Every assignment of each variable to {lower, upper, free} is tried; the
    free block is solved exactly and feasibility checked.  Exponential in
    the variable count, so keep instances small.
    """
    n = A.shape[0]
    fixed_indices = list(fixed_indices)
    x_base = np.zeros(n)
    for i, v in zip(fixed_indices, fixed_values):
        x_base[i] = v
    variables = [i for i in range(n) if i not in fixed_indices]
    best = np.inf
    best_x = None
    for assign in itertools.product((0, 1, 2), repeat=len(variables)):
        x = x_base.copy()
        free = []
        for i, a in zip(variables, assign):
            if a == 0:
                x[i] = lower[i]
            elif a == 1:
                x[i] = upper[i]
            else:
                free.append(i)
        pinned = [i for i in range(n) if i not in free]
        if free:
            rhs = -A[np.ix_(free, pinned)] @ x[pinned] if pinned else np.zeros(len(free))
            try:
                x[np.asarray(free)] = np.linalg.solve(A[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[free] < lower[free] - 1e-12) or np.any(
                x[free] > upper[free] + 1e-12
            ):
                continue
        obj = 0.5 * x @ A @ x
        if obj < best:
            best, best_x = obj, x
    return best, best_x


def boundary_facets_by_unique(mesh):
    """Outward boundary facets by ``np.unique`` over the sorted facet rows,
    in lexicographic order of their sorted vertex tuples."""
    facets = mesh._oriented_facets()
    _, first, counts = np.unique(
        np.sort(facets, axis=1), axis=0, return_index=True, return_counts=True
    )
    boundary = facets[first[counts == 1]]
    return boundary[np.lexsort(np.sort(boundary, axis=1).T[::-1])]


def shape_gradients_by_inv(mesh):
    """Shape gradients from the batched LAPACK inverse of each element's
    edge matrix (columns p_i - p_0)."""
    p = mesh.vertices[mesh.elements]
    Einv = np.linalg.inv(np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2))
    g = np.empty((mesh.num_elements, mesh.dim + 1, mesh.dim))
    g[:, 1:, :] = Einv  # row i of E^-1 is grad of barycentric coord i
    g[:, 0, :] = -np.sum(Einv, axis=1)
    return g


def edges_by_unique(mesh):
    """Sorted unique edges by ``np.unique(axis=0)`` over every element's
    vertex pairs."""
    t = mesh.elements
    k = mesh.dim + 1
    pairs = [t[:, [i, j]] for i in range(k) for j in range(i + 1, k)]
    return np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0)


def operator_by_bsr(mesh, field, epsilon, bc_kind):
    """K' P K with P a BSR matrix, K' the transpose view of the cached K,
    and the result symmetrized as 0.5 (op + op') in canonical CSR."""
    system = build_mixed_system(mesh, field, epsilon, bc_kind)
    P_blocks = projected_middle_blocks(system)
    nv = mesh.num_vertices
    m = P_blocks.shape[-1]
    P = sparse.bsr_matrix(
        (P_blocks, np.arange(nv), np.arange(nv + 1)), shape=(nv * m, nv * m)
    )
    K = weak_hessian(mesh)
    op = (K.T @ (P @ K)).tocsr()
    op = 0.5 * (op + op.T)
    op.sum_duplicates()
    op.eliminate_zeros()
    return op.tocsr()


def fingerprint_sequential(field):
    """SHA-256 over the mesh dimension, vertices, elements and the field's
    components and weights, in one pass."""
    h = hashlib.sha256()
    for array in (
        np.int64(field.mesh.dim),
        field.mesh.vertices,
        field.mesh.elements,
        field.components,
        field.weights,
    ):
        h.update(array.tobytes())
    return h.hexdigest()


def locate_by_fresh_tree(points, mesh, k_candidates=32):
    """Containing element and barycentric coordinates per point, with the
    centroid KD-tree built for this call (the shape gradients are the
    mesh's, so results compare bitwise with ``_locate_barycentric``)."""
    tree = cKDTree(mesh.vertices[mesh.elements].mean(axis=1))
    k = min(k_candidates, mesh.num_elements)
    cand = tree.query(points, k=k)[1].reshape(len(points), k)
    Einv = mesh.shape_gradients()[cand, 1:, :]
    p0 = mesh.vertices[mesh.elements[cand, 0]]
    lam = np.einsum("nkij,nkj->nki", Einv, points[:, None, :] - p0)
    bary = np.concatenate([1.0 - lam.sum(axis=2, keepdims=True), lam], axis=2)
    best = np.argmax(bary.min(axis=2), axis=1)
    rows = np.arange(len(points))
    return cand[rows, best], bary[rows, best]
