"""Independent reference computations the production code is tested against.

Each oracle takes the brute-force route on purpose: the dense KKT solve
works straight from the first-order optimality matrix with the sparse
constraint matrix B placed explicitly, the natural-condition shortcut
deletes the boundary multiplier blocks outright, the eigen oracle
diagonalizes the full dense pencil, the QP oracle enumerates every active
set, and the random frame helpers build tensors from their definition.
The mixed factor K = D' A G is rebuilt here from its parts, never read
from the mesh cache, with the divergence D placed as one COO triplet per
(vertex, component, row) and ordered by ``sum_duplicates``; the package
never forms D and sums K's blocks from their element closed form instead.
The epsilon = 1 reference, the mixed-FEM Bilaplacian with natural
conditions, is built on it.  The mesh-cache references take the slow
general route the closed forms replaced: a LAPACK inverse per element,
``np.unique`` over edge rows, a BSR middle matrix times the transpose view
of K, one sequential hash over every array, and a centroid KD-tree built
per call.  The tensor checks (the spectral norm of an odeco frame and the
full-symmetry violation of a form) and the forward Jacobian of a conformal
map have no caller in the package, and the
structured mesh generators at the end loop over cells one at a time.
"""

import hashlib
import itertools

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag, eigh, lu_factor, lu_solve
from scipy.spatial import cKDTree

from framefieldops import OdecoFrame, compute_measures
from framefieldops.errors import FieldError
from framefieldops.fem import build_mixed_system, projected_middle_blocks
from framefieldops.geometry import SimplicialMesh, _orient_elements, gradient_matrix
from framefieldops.symtensor import _SQRT2, _mandel_dim, mandel_pairs, mandel_size


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
    """K = D' A G from the gradient, the divergence of ``divergence_by_coo``
    and the element volumes, as one sparse product in canonical CSR."""
    A = sparse.diags(np.repeat(mesh.element_volumes, mesh.dim))
    K = (divergence_by_coo(mesh).T @ A @ gradient_matrix(mesh)).tocsr()
    K.sum_duplicates()
    return K


def bilaplacian_mixed_natural(mesh):
    """Stein-style mixed Bilaplacian with natural boundary conditions.

    G' A D* (M*)^{-1} (D*)' A G with K = D' A G from ``mixed_factor``, the
    boundary Mandel blocks deleted and M the dual-volume diagonal.  The
    frame field operator must reproduce it at epsilon = 1.
    """
    m = mandel_size(mesh.dim)
    keep_vertices = np.setdiff1d(
        np.arange(mesh.num_vertices), np.unique(mesh.boundary_facets)
    )
    keep = (keep_vertices[:, None] * m + np.arange(m)[None, :]).ravel()
    K = mixed_factor(mesh)[keep]
    dual = compute_measures(mesh).dual_volumes[keep_vertices]
    op = (K.T @ (sparse.diags(1.0 / np.repeat(dual, m)) @ K)).tocsr()
    return 0.5 * (op + op.T)


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
    given u.  M is the dual-volume diagonal and M_T the block-diagonal
    energy matrix with blocks dual(v) Q_eps(v) = mbar(v) dual(v)^2.
    """
    dual = compute_measures(system.mesh).dual_volumes
    m = system.mbar.shape[-1]
    Mt = block_diag(*(system.mbar * (dual**2)[:, None, None]))
    M = np.diag(np.repeat(dual, m))
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
    nvm = system.mbar.shape[0] * system.mbar.shape[-1]
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
    Mbar = sparse.bsr_matrix(
        (system.mbar[keep_vertices], np.arange(len(keep_vertices)),
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

    Every assignment of each variable to {lower, upper, free} is tried,
    grouped by free set: the free block is factored once and solved for
    every lower/upper pattern of the other variables as one column, and
    feasibility is checked per column.  Exponential in the variable count,
    so keep instances small.
    """
    n = A.shape[0]
    fixed_indices = list(fixed_indices)
    x_base = np.zeros(n)
    x_base[fixed_indices] = fixed_values
    variables = [i for i in range(n) if i not in fixed_indices]
    best = np.inf
    best_x = None
    for is_free in itertools.product((False, True), repeat=len(variables)):
        free = [i for i, f in zip(variables, is_free) if f]
        bounded = [i for i, f in zip(variables, is_free) if not f]
        pinned = [i for i in range(n) if i not in free]
        # one row per lower/upper pattern of the bounded variables
        at_upper = np.array(list(itertools.product((False, True), repeat=len(bounded))))
        X = np.tile(x_base, (len(at_upper), 1))
        X[:, bounded] = np.where(at_upper, upper[bounded], lower[bounded])
        if free:
            rhs = -A[np.ix_(free, pinned)] @ X[:, pinned].T
            try:
                X[:, free] = np.linalg.solve(A[np.ix_(free, free)], rhs).T
            except np.linalg.LinAlgError:
                continue
            feasible = np.all(X[:, free] >= lower[free] - 1e-12, axis=1) & np.all(
                X[:, free] <= upper[free] + 1e-12, axis=1
            )
            X = X[feasible]
        if len(X):
            obj = 0.5 * np.einsum("ij,ij->i", X @ A, X)
            k = int(np.argmin(obj))
            if obj[k] < best:
                best, best_x = obj[k], X[k]
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
    """K' P K with K from ``mixed_factor``, P a BSR matrix and K' the
    transpose view of K, symmetrized as 0.5 (op + op') in canonical CSR."""
    system = build_mixed_system(mesh, field, epsilon, bc_kind)
    P_blocks = projected_middle_blocks(system)
    nv = mesh.num_vertices
    m = P_blocks.shape[-1]
    P = sparse.bsr_matrix(
        (P_blocks, np.arange(nv), np.arange(nv + 1)), shape=(nv * m, nv * m)
    )
    K = mixed_factor(mesh)
    op = (K.T @ (P @ K)).tocsr()
    op = 0.5 * (op + op.T)
    op.sum_duplicates()
    op.eliminate_zeros()
    return op.tocsr()


def conformal_jacobian(warp, points):
    """Forward Jacobian df of a ``ConformalMap`` at each point: the 2 x 2
    matrix of multiplication by the derivative of its closed form, 1 + 2cz
    for the polynomial map and e^z for the exponential one."""
    z = points[:, 0] + 1j * points[:, 1]
    d = 1.0 + 2.0 * warp.params["c"] * z if warp.name == "polynomial" else np.exp(z)
    J = np.empty((len(points), 2, 2))
    J[:, 0, 0] = J[:, 1, 1] = d.real
    J[:, 0, 1], J[:, 1, 0] = -d.imag, d.imag
    return J


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


def spectral_norm(frame):
    """Spectral norm max_{|v|=1} T(v, v, v, v) of an odeco tensor.

    For an :class:`OdecoFrame` this is the closed form ``max_a |w_a|``.
    Exact maximization of a general quartic is NP-hard, and every field in
    scope is odeco, so anything else, a form array included, raises
    :class:`FieldError`.
    """
    if not isinstance(frame, OdecoFrame):
        raise FieldError(
            f"spectral norm needs an OdecoFrame, got {type(frame).__name__}"
        )
    if frame.weights.size == 0:
        return 0.0
    return float(np.max(np.abs(frame.weights)))


# Entries of a Mandel form tied together by full index symmetry, as
# (entry, partner, scale) with Q[entry] == scale * Q[partner].
_FULL_SYMMETRY = {
    2: (((2, 2), (0, 1), 2.0),),
    3: (
        ((3, 3), (1, 2), 2.0),
        ((4, 4), (0, 2), 2.0),
        ((5, 5), (0, 1), 2.0),
        ((4, 5), (0, 3), _SQRT2),
        ((3, 5), (1, 4), _SQRT2),
        ((3, 4), (2, 5), _SQRT2),
    ),
}


def full_symmetry_violation(Q):
    """Max violation of the full-symmetry constraints linking Q entries.

    Zero (up to round-off) for tensors invariant under all index
    permutations, such as odeco forms; the identity part of an
    epsilon-modified form breaks it.  Reduces over the last two axes of
    a ``(..., m, m)`` stack.
    """
    Q = np.asarray(Q, dtype=float)
    ties = _FULL_SYMMETRY[_mandel_dim(Q.shape[-1])]
    gaps = [Q[(..., *a)] - s * Q[(..., *b)] for a, b, s in ties]
    return np.max(np.abs(gaps), axis=0)


def structured_square_by_loops(n, lo=-1.0, hi=1.0):
    """``meshgen.structured_square`` with one Python iteration per cell."""
    xs = np.linspace(lo, hi, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return SimplicialMesh(vertices, np.array(tris, dtype=np.int64))


def box_by_loops(nx, ny, nz, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    """``meshgen.box`` with one Python iteration per cell and tetrahedron,
    walking each permutation of the axes from the cell's base corner."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    counts = (nx, ny, nz)
    axes = [np.linspace(lo[a], hi[a], counts[a] + 1) for a in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    perms = list(itertools.permutations(range(3)))
    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                base = np.array([i, j, k])
                for perm in perms:
                    corners = [base.copy()]
                    c = base.copy()
                    for axis in perm:
                        c = c.copy()
                        c[axis] += 1
                        corners.append(c)
                    tets.append([vid(*c) for c in corners])
    elements = _orient_elements(vertices, np.array(tets, dtype=np.int64))
    return SimplicialMesh(vertices, elements)
