"""Independent reference computations the production code is tested against.

Each oracle takes the brute-force route on purpose: the dense KKT solve
works straight from the first-order optimality matrix with the sparse
constraint matrix B placed explicitly, the natural-condition shortcut
deletes the boundary multiplier blocks outright, the eigen oracle
diagonalizes the full dense pencil, the QP oracle enumerates every active
set, the band oracle sums COO triplets with ``np.bincount``, the pinned
solve copies its free and coupling blocks out of the matrix, and the
random frame helpers build tensors from their definition.
The mixed factor K = D' A G is rebuilt here from its parts, never read
from the mesh cache, with the divergence D and the gradient G each placed
as COO triplets and converted by scipy; the package never forms D and
sums K's blocks from their element closed form instead.
The epsilon = 1 reference, the mixed-FEM Bilaplacian with natural
conditions, is built on it.  The mesh-cache references take the slow
general route the closed forms replaced: a LAPACK inverse per element,
``np.unique`` over edge rows, a ``lexsort`` over every column to group
rows, a BSR middle matrix times the transpose view of K, one scipy
lookup per batch of stars for the scatter into A's pattern, and one
sequential hash over every array.  The odeco forms are one ``einsum``.  Here the geometry kernels and K's
pair sums work on ``(ne, k, dim)`` arrays, refinement orients each child by the sign of its
determinant, and the symmetry and operator checks take the asymmetry from
``abs(A - A.T)`` and the infinity norm from scipy.  The tensor checks (the
spectral norm of an odeco frame and the full-symmetry violation of a form),
the inverse Mandel map, the boundary alignment in matrix form
and the forward Jacobian of a conformal map have no caller in the package.
The helical frames are turned by scipy's ``Rotation`` in place of the
closed-form turn of the transverse pair.
The mesh generators at the end loop over cells, rings and merge steps one
at a time.
"""

import hashlib
import itertools

import numpy as np
from scipy import sparse
from scipy.linalg import (
    block_diag,
    cho_solve_banded,
    cholesky_banded,
    eigh,
    lu_factor,
    lu_solve,
)
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial.transform import Rotation

from framefieldops import OdecoFrame, compute_measures
from framefieldops.errors import FieldError
import framefieldops.fem
from framefieldops.fem import (
    StarBlocks,
    _pair_sums,
    build_mixed_system,
    projected_middle_blocks,
)
from framefieldops.geometry import (
    _LOCAL_EDGES,
    _OCTA_DIAGONALS,
    SimplicialMesh,
    _orient_elements,
    _stable_order,
    _tangent_bases,
)
from framefieldops.symtensor import (
    _SQRT2,
    mandel_pairs,
    mandel_size,
    sym_to_mandel,
)


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
    K = (divergence_by_coo(mesh).T @ A @ gradient_matrix_by_coo(mesh)).tocsr()
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


def band_by_coo(A, order):
    """The lower band of ``A[order][:, order]`` before it is factored, a
    Fortran-ordered ``(bw + 1, n)`` array: A's COO triplets are ranked in
    ``order`` with two int64 gathers, the lower triangle is compressed out
    with three masks, and ``np.bincount`` sums the entries into their
    slots."""
    A = sparse.csr_matrix(A).tocoo()
    n = A.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    i, j = rank[A.row], rank[A.col]
    lower = i >= j
    i, j, data = i[lower], j[lower], A.data[lower]
    bw = int((i - j).max(initial=0))
    return np.bincount(
        j * (bw + 1) + (i - j), weights=data, minlength=n * (bw + 1)
    ).reshape(n, bw + 1).T


def solve_pinned_by_extraction(A, pinned, values, order=None):
    """``solve_pinned`` with its blocks copied out: the free block
    ``A[free][:, free]`` is factored in ``order`` restricted to the free
    entries (by default reverse Cuthill-McKee of the free block) from
    ``band_by_coo``, and ``A[free][:, pinned] @ values`` gives the
    right-hand side."""
    A = sparse.csr_matrix(A)
    n = A.shape[0]
    pinned = np.asarray(pinned)
    values = np.asarray(values, dtype=float)
    free = np.setdiff1d(np.arange(n), pinned)
    x = np.zeros((n,) + values.shape[1:])
    x[pinned] = values
    A_f = A[free]
    A_ff = A_f[:, free]
    if order is None:
        order = reverse_cuthill_mckee(A_ff, symmetric_mode=True)
    else:
        local = np.full(n, -1)
        local[free] = np.arange(len(free))
        order = local[order]
        order = order[order >= 0]
    rhs = -(A_f[:, pinned] @ values)
    factor = cholesky_banded(band_by_coo(A_ff, order), lower=True)
    x[free[order]] = cho_solve_banded((factor, True), rhs[order])
    return x


def gradient_matrix_by_coo(mesh):
    """``gradient_matrix`` from one COO triplet per (element, local vertex,
    coordinate), converted by scipy's ``tocsr``, which sorts each row's
    columns and sets the canonical flag."""
    g = mesh.shape_gradients()
    ne, k, dim = g.shape
    rows = np.arange(ne)[:, None, None] * dim + np.arange(dim)[None, None, :]
    rows = np.broadcast_to(rows, (ne, k, dim)).ravel()
    cols = np.broadcast_to(mesh.elements[:, :, None], (ne, k, dim)).ravel()
    return sparse.coo_matrix(
        (g.ravel(), (rows, cols)), shape=(ne * dim, mesh.num_vertices)
    ).tocsr()


def star_scatter_by_batches(mesh):
    """``fem.star_blocks`` with each batch's scatter looked up by its own
    ``pattern[rows, cols]`` call on the broadcast query arrays, and the
    batches' results concatenated."""
    nv = mesh.num_vertices
    edges = mesh.edges()
    sums = _pair_sums(mesh)
    star = mesh.vertex_graph() + sparse.identity(nv, dtype=np.int32, format="csr")
    rows = np.repeat(np.arange(nv), np.diff(star.indptr))
    source = rows.copy()
    source[star.indices > rows] = nv + np.arange(len(edges))
    source[star.indices < rows] = nv + _stable_order(edges[:, 1], nv)
    pattern = star @ star
    pattern.sort_indices()
    slots = np.arange(pattern.nnz, dtype=pattern.indices.dtype)
    pattern.data = slots + 1
    twin = np.minimum(slots, pattern.T.tocsr().data - 1)
    size = np.diff(star.indptr)
    by_size = np.argsort(size, kind="stable").astype(star.indices.dtype)
    groups, scatter, start = [], [], 0
    for same in np.split(by_size, np.flatnonzero(np.diff(size[by_size])) + 1):
        s = size[same[0]]
        p, q = np.triu_indices(s)
        step = max(1, framefieldops.fem.STAR_BATCH // (s * s))
        for verts in (same[i : i + step] for i in range(0, len(same), step)):
            at = star.indptr[verts][:, None] + np.arange(s)
            cols = star.indices[at]
            blocks = np.swapaxes(sums[:, source[at]], 0, 1).copy()
            lo, hi = np.broadcast_arrays(cols[:, p], cols[:, q])
            found = np.asarray(pattern[lo.ravel(), hi.ravel()]).reshape(lo.shape)
            scatter.append(found.ravel())
            stop = start + len(verts) * len(p)
            groups.append((verts, blocks, (p, q), slice(start, stop)))
            start = stop
    scatter = np.concatenate(scatter)
    scatter -= 1
    return StarBlocks(tuple(groups), scatter, twin, pattern.indptr, pattern.indices)


def pair_sums_by_fancy_index(mesh):
    """``fem._pair_sums`` on fancy-indexed ``(ne, k, dim)`` copies of the
    shape gradients, one per end of the local edges."""
    nv, dim = mesh.num_vertices, mesh.dim
    g = mesh.shape_gradients()
    vol = mesh.element_volumes[:, None]
    ends = np.array(_LOCAL_EDGES[dim]).T
    pairs = mandel_pairs(dim)
    sums = np.zeros((len(pairs), nv + len(mesh.edges())))
    for target, ga, gb in (
        (mesh.elements, g, g),
        (mesh.element_edges() + np.int64(nv), g[:, ends[0]], g[:, ends[1]]),
    ):
        for c, (i, j) in enumerate(pairs):
            form = ga[..., i] * gb[..., j]
            form += ga[..., j] * gb[..., i]
            form *= vol * (0.5 if i == j else 1.0 / _SQRT2)
            sums[c] += np.bincount(target.ravel(), form.ravel(), sums.shape[1])
    return sums


def boundary_facets_by_unique(mesh):
    """Outward boundary facets by ``np.unique`` over the sorted facet rows,
    in lexicographic order of their sorted vertex tuples."""
    facets = mesh._oriented_facets()
    _, first, counts = np.unique(
        np.sort(facets, axis=1), axis=0, return_index=True, return_counts=True
    )
    boundary = facets[first[counts == 1]]
    return boundary[np.lexsort(np.sort(boundary, axis=1).T[::-1])]


def row_groups_by_lexsort(rows):
    """The lexicographic order of the rows of an integer array by one
    ``lexsort`` over all its columns, and the positions in that order where
    each run of equal rows starts, by comparing adjacent rows."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return order, np.flatnonzero(new)


def shape_gradients_by_inv(mesh):
    """Shape gradients from the batched LAPACK inverse of each element's
    edge matrix (columns p_i - p_0)."""
    p = mesh.vertices[mesh.elements]
    Einv = np.linalg.inv(np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2))
    g = np.empty((mesh.num_elements, mesh.dim + 1, mesh.dim))
    g[:, 1:, :] = Einv  # row i of E^-1 is grad of barycentric coord i
    g[:, 0, :] = -np.sum(Einv, axis=1)
    return g


def edge_determinants_by_rows(vertices, elements):
    """Edge-matrix determinants from the ``(ne, dim, dim)`` array of each
    simplex's edges p_i - p_0: the 2D cross product, or ``einsum`` of the
    first edge with ``np.cross`` of the other two."""
    p = vertices[elements]
    edges = p[:, 1:, :] - p[:, :1, :]
    if vertices.shape[1] == 2:
        return edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    return np.einsum("ei,ei->e", edges[:, 0], np.cross(edges[:, 1], edges[:, 2]))


def shape_gradients_by_rows(mesh):
    """Shape gradients in closed form on ``(ne, k, dim)`` arrays: the
    adjugate rows by ``np.cross`` (3D) or a quarter turn (2D) written into
    the gradient array, divided by the ``einsum`` determinant, and row 0 as
    minus ``np.sum`` of the others."""
    p = mesh.vertices[mesh.elements]
    e = p[:, 1:, :] - p[:, :1, :]  # rows p_i - p_0
    g = np.empty((mesh.num_elements, mesh.dim + 1, mesh.dim))
    if mesh.dim == 2:
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


# Children of the midpoint refinement in local node order (vertices, then
# edge midpoints in _LOCAL_EDGES order), listed with no regard to their
# orientation.
_TRI_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
_TET_CORNERS = np.array([[0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9]])
_OCTA_SPLITS = np.array(
    [
        [[4, 9, 5, 6], [4, 9, 5, 7], [4, 9, 6, 8], [4, 9, 7, 8]],
        [[5, 8, 4, 6], [5, 8, 4, 7], [5, 8, 6, 9], [5, 8, 7, 9]],
        [[6, 7, 4, 5], [6, 7, 4, 8], [6, 7, 5, 9], [6, 7, 8, 9]],
    ]
)


def refine_uniform_by_orientation(mesh):
    """Midpoint refinement from child tables that ignore orientation, each
    child then oriented by the sign of its determinant
    (``_orient_elements``, which swaps the last two vertices)."""
    edges = mesh.edges()
    nv = mesh.num_vertices
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    nodes = np.hstack([mesh.elements, mesh.element_edges() + np.int64(nv)])
    if mesh.dim == 2:
        children = nodes[:, _TRI_CHILDREN]
    else:
        ends = vertices[nodes[:, _OCTA_DIAGONALS]]
        d = ends[:, :, 0] - ends[:, :, 1]
        split = _OCTA_SPLITS[np.argmin(np.sqrt(np.vecdot(d, d)), axis=1)]
        octa = np.take_along_axis(nodes, split.reshape(len(nodes), 16), axis=1)
        children = np.hstack([nodes[:, _TET_CORNERS.ravel()], octa])
    elements = _orient_elements(vertices, children.reshape(-1, mesh.dim + 1))
    return SimplicialMesh(vertices, elements)


def symmetric_by_difference(A, tol=1e-12):
    """Whether ``max |a_ij - a_ji| <= tol * max |a|``, with both maxima
    taken by scipy on ``abs(A)`` and ``abs(A - A.T)`` of a copy of A."""
    A = sparse.csr_matrix(A, copy=True)  # scipy's abs sums duplicates in place
    scale = max(abs(A).max() if A.nnz else 0.0, 1e-300)
    gap = abs(A - A.T).max() if A.nnz else 0.0
    return bool(gap <= tol * scale)


def valid_by_difference(op, seed=0):
    """Whether ``op`` passes the checks of ``AssembledOperator.validate``,
    with symmetry by ``symmetric_by_difference``, the infinity norm by
    ``scipy.sparse.linalg.norm`` and the random probes, the constants and
    the coordinate functions each applied in a product of their own."""
    A = sparse.csr_matrix(op.matrix, copy=True)
    A.sum_duplicates()
    if not symmetric_by_difference(A):
        return False
    n = A.shape[0]
    norm_a = spla.norm(A, np.inf)
    X = np.random.default_rng(seed).standard_normal((5, n))
    if not all(x @ Ax >= -1e-10 * norm_a * (x @ x) for x, Ax in zip(X, (A @ X.T).T)):
        return False
    Y = np.ones((n, 1))
    if op.bc_kind == "natural":
        Y = np.column_stack([Y, op.mesh.vertices])
    AY = A @ Y
    if not np.linalg.norm(AY[:, 0]) <= 1e-10 * norm_a * np.sqrt(n):
        return False
    return all(
        np.linalg.norm(Ax) <= 1e-8 * norm_a * np.linalg.norm(x)
        for x, Ax in zip(Y.T[1:], AY.T[1:])
    )


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


def helical_components_by_rotation(mesh, axis, pitch):
    """Components of ``helical_field_3d(mesh, axis, pitch)``: the unit axis,
    and the pair ``_tangent_bases(axis)`` turned at each vertex about the
    axis by ``pitch`` times the vertex's height, with one ``Rotation`` per
    vertex from its rotation vector."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    t1, t2 = _tangent_bases(axis[None])[0]
    rot = Rotation.from_rotvec((pitch * (mesh.vertices @ axis))[:, None] * axis)
    nv = mesh.num_vertices
    comps = np.empty((nv, 3, 3))
    comps[:, 0, :] = axis
    # Rotation.apply needs writable input, so tile rather than broadcast
    comps[:, 1, :] = rot.apply(np.tile(t1, (nv, 1)))
    comps[:, 2, :] = rot.apply(np.tile(t2, (nv, 1)))
    return comps


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


def odeco_form_by_einsum(components, weights):
    """``odeco_form`` as one three-operand ``einsum`` over the Mandel vectors
    of the stacked outer products ``c_a c_a'``."""
    components = np.asarray(components, dtype=float)
    weights = np.asarray(weights, dtype=float)
    outer = components[..., :, None] * components[..., None, :]  # (..., n, d, d)
    mvecs = sym_to_mandel(outer)  # (..., n, m)
    return np.einsum("...n,...np,...nq->...pq", weights, mvecs, mvecs)


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
# (entry, partner, scale) with Q[entry] == scale * Q[partner], keyed by the
# Mandel length m.
_FULL_SYMMETRY = {
    3: (((2, 2), (0, 1), 2.0),),
    6: (
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
    ties = _FULL_SYMMETRY[Q.shape[-1]]
    gaps = [Q[(..., *a)] - s * Q[(..., *b)] for a, b, s in ties]
    return np.max(np.abs(gaps), axis=0)


def mandel_to_sym(v):
    """Symmetric ``(..., d, d)`` matrices of Mandel vectors ``(..., m)``,
    the inverse of ``sym_to_mandel``, filled one component at a time."""
    v = np.asarray(v, dtype=float)
    dim = {3: 2, 6: 3}[v.shape[-1]]
    S = np.zeros(v.shape[:-1] + (dim, dim))
    for c, (i, j) in enumerate(mandel_pairs(dim)):
        scale = 1.0 if i == j else _SQRT2
        S[..., i, j] = S[..., j, i] = v[..., c] / scale
    return S


def boundary_alignment_by_contraction(field):
    """``check_boundary_alignment``'s residuals in matrix form: contract
    ``C = (n n') : T`` back to a matrix and take the Frobenius norm of
    ``C - (n' C n) n n'`` over the tensor norm, per boundary vertex."""
    measures = compute_measures(field.mesh)
    bv = measures.boundary_vertices
    n = measures.boundary_normals
    nnT = n[:, :, None] * n[:, None, :]
    C = mandel_to_sym(np.einsum("bpq,bq->bp", field.forms()[bv], sym_to_mandel(nnT)))
    w = np.einsum("bi,bij,bj->b", n, C, n)
    R = C - w[:, None, None] * nnT
    return np.linalg.norm(R, axis=(1, 2)) / np.maximum(field.norms[bv], 1e-12)


def structured_square_by_loops(n):
    """``meshgen.structured_square`` with one Python iteration per cell."""
    xs = np.linspace(-1.0, 1.0, n + 1)
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


def box_by_loops(nx, ny, nz):
    """``meshgen.box`` with one Python iteration per cell and tetrahedron,
    walking each permutation of the axes from the cell's base corner."""
    axes = [np.linspace(0.0, 1.0, count + 1) for count in (nx, ny, nz)]
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


def _ring_band_by_loop(k, s_in, s_out):
    # Triangulate the band between ring k (6k points from index s_in) and
    # ring k+1 (6k+6 points from s_out) by an angular merge: advance on
    # whichever ring reaches the next angle first.
    n_in, n_out = 6 * k, 6 * (k + 1)
    ang_in = 2.0 * np.pi * np.arange(n_in + 1) / n_in
    ang_out = 2.0 * np.pi * np.arange(n_out + 1) / n_out
    tris = []
    i = j = 0
    while i < n_in or j < n_out:
        vi = s_in + i % n_in
        vj = s_out + j % n_out
        advance_outer = j < n_out and (i == n_in or ang_out[j + 1] <= ang_in[i + 1])
        if advance_outer:
            tris.append((vi, vj, s_out + (j + 1) % n_out))
            j += 1
        else:
            tris.append((vi, vj, s_in + (i + 1) % n_in))
            i += 1
    return tris


def _ring_vertices_by_loop(vertices, ring_start, k, outer):
    ring_start[k] = len(vertices)
    count = 6 * k
    t = 2.0 * np.pi * np.arange(count) / count
    r = k / outer
    vertices.extend(np.column_stack([r * np.cos(t), r * np.sin(t)]))


def disk_by_loops(rings):
    """``meshgen.disk`` with one Python iteration per ring and merge step."""
    vertices = [np.zeros(2)]
    ring_start = {}
    for k in range(1, rings + 1):
        _ring_vertices_by_loop(vertices, ring_start, k, rings)
    vertices = np.asarray(vertices)
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    for k in range(1, rings):
        tris += _ring_band_by_loop(k, ring_start[k], ring_start[k + 1])
    elements = _orient_elements(vertices, np.array(tris, dtype=np.int64))
    return SimplicialMesh(vertices, elements)


def annulus_by_loops(inner_rings, outer_rings):
    """Polygonal annulus of outer radius 1, a test domain with two boundary
    loops: rings inner_rings to outer_rings of ``meshgen.disk(outer_rings)``
    and the bands between them, indexed from 0."""
    vertices = []
    ring_start = {}
    for k in range(inner_rings, outer_rings + 1):
        _ring_vertices_by_loop(vertices, ring_start, k, outer_rings)
    vertices = np.asarray(vertices)
    tris = []
    for k in range(inner_rings, outer_rings):
        tris += _ring_band_by_loop(k, ring_start[k], ring_start[k + 1])
    elements = _orient_elements(vertices, np.array(tris, dtype=np.int64))
    return SimplicialMesh(vertices, elements)
