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

The outer factor K = D' A G depends on the mesh alone.  G maps vertex
scalars to element gradients, A weights each element by its volume, and D'
tests them against the divergence of every vertex's tensor hat functions,
so on element e the block of K for the vertices (a, b) is
vol_e mandel(sym(g_a g_b')), with g the shape gradients.  K is summed from
this closed form; neither G nor D is formed.  Because P is block-diagonal,
the operator is a sum over vertices, A = sum_v K_v' P_v K_v, where the star
block K_v holds the m rows of K at v over the closed 1-ring, or star, of v.
``star_blocks``, cached once per mesh by ``geometry.mesh_cached`` like the
measures, holds every K_v, the CSR pattern of A (the 2-ring) and one
scatter index from each entry of each star's product to its slot in that
pattern.  A fresh mesh pays for it once: the star blocks are gathered
batch by batch, and the scatter slots of every batch are found by one
lookup of (row, column) queries in the pattern, which gives bit for bit
what one lookup per batch gave (``star_scatter_by_batches`` in
``tests/oracles.py``).  Each assembly forms only the middle blocks, takes
the products as batched dense ``@``, symmetrizes each one, sums their
upper triangles into the pattern with one ``np.bincount`` and copies the
upper triangle of A to the lower one.

No operator shares a cached array: every ``AssembledOperator`` owns fresh
copies of the pattern arrays, so editing or compacting one
(``eliminate_zeros`` under natural conditions) leaves the cache and every
other operator alone.

Assembly is vectorized and deterministic: identical inputs produce
bitwise-identical matrices, and every matrix is bitwise symmetric.

The operator converges only on nested meshes, such as uniform refinements.
On the Neumann source problem at epsilon 0.1 its error falls at order 2
there, but levels off at 0.26-0.29 on ``meshgen.jittered_delaunay(2, n,
jitter=0.0)`` for n from 16 to 128: K rebuilds second derivatives from
element gradients, which is consistent only where neighbouring triangles
pair into near-parallelograms, as uniform refinement keeps them.
"""

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import FieldError, NumericalError, ParameterError, check_values
from .geometry import _LOCAL_EDGES, _stable_order, compute_measures, mesh_cached
from .geometry import gradient_matrix  # noqa: F401  unused here; perfbench/tracing.py wraps it
from .solve import _row_sums, _symmetric_magnitude, solve_pinned
from .symtensor import _SQRT2, mandel_pairs, mandel_size, sym_to_mandel

BC_KINDS = ("natural", "neumann")
# Product entries per batch of stars: about 1 MB per float64 temporary.
STAR_BATCH = 1 << 17


@dataclass
class MixedSystem:
    """The configuration-dependent blocks of the discrete saddle problem.

    ``mbar`` is the ``(nv, m, m)`` stack of the blocks Q_eps(v) / dual(v)
    of Mbar = M^{-1} M_T M^{-1}.  ``constraint_rows`` is the
    ``(nb, r, m)`` array of boundary constraint rows, one ``r x m`` block
    per vertex of ``compute_measures(mesh).boundary_vertices`` in that
    order; B is their block-diagonal placement and is not stored.  The
    gradient G, the divergence D and the element volumes A enter only
    through the star blocks of the mesh-only product K = D' A G, which
    ``star_blocks`` sums once per mesh, so they are not stored here
    either; nor are the measures, which are cached on the mesh.
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
    fingerprint: str
    mesh: object
    boundary_vertices: np.ndarray

    def validate(self):
        """Check symmetry, positive semidefiniteness, and the constant-mode
        nullspace (plus the affine nullspace under natural conditions).
        Each test passes only if its bound holds, so NaN fails all of them.

        Symmetry is ``solve.check_symmetric``'s test, and the ``|a|`` it
        takes gives the bounds' scale, the infinity norm of A: the largest
        row sum of ``|a|``, where an empty row sums to 0.  Five random
        probes X of seed 0, the constants and, under natural conditions, the
        coordinate functions Y are applied in one product ``A @ [X' | Y]``.
        """
        A, magnitude = _symmetric_magnitude(self.matrix)
        n = A.shape[0]
        norm_a = _row_sums(A, magnitude).max(initial=0.0)
        X = np.random.default_rng(0).standard_normal((5, n))
        Y = np.ones((n, 1))
        if self.bc_kind == "natural":
            Y = np.column_stack([Y, self.mesh.vertices])
        AX, AY = np.hsplit(A @ np.hstack([X.T, Y]), [len(X)])
        for x, Ax in zip(X, AX.T):
            q = x @ Ax
            if not q >= -1e-10 * norm_a * (x @ x):
                raise NumericalError(f"operator not PSD: x'Ax = {q:.3e}")
        if not np.linalg.norm(AY[:, 0]) <= 1e-10 * norm_a * np.sqrt(n):
            raise NumericalError("constants are not in the nullspace")
        for x, Ax in zip(Y.T[1:], AY.T[1:]):
            if not np.linalg.norm(Ax) <= 1e-8 * norm_a * np.linalg.norm(x):
                raise NumericalError("affine functions not annihilated")
        return True


@dataclass(frozen=True)
class StarBlocks:
    """Everything about A = K' P K that depends on the mesh alone.

    ``groups`` holds one ``(vertices, blocks, (p, q), part)`` entry per
    batch of n stars of one size s: the star centers, their ``(n, m, s)``
    star blocks K_v, the m rows of K = D' A G at v over the columns of its
    star in ascending vertex order (summed from the element closed form;
    see ``star_blocks``), the indices
    ``np.triu_indices(s)`` and the slice of the flat products that the
    batch fills, the n * s (s + 1) / 2 entries (p, q), p <= q, of the upper
    triangles of the ``s x s`` products K_v' P_v K_v.  A batch holds at
    most ``STAR_BATCH`` product entries, which bounds the temporaries of
    an assembly.

    ``indptr`` and ``indices`` are the canonical CSR pattern of A, which
    couples the vertices of each star, so every vertex to its 2-ring.
    ``scatter`` maps each entry of the flat products to its slot (i, j),
    i <= j, in that pattern, and ``twin`` maps every slot (i, j) to the
    slot of (min(i, j), max(i, j)).  Every array equals, dtype and bits,
    the one ``star_scatter_by_batches`` in ``tests/oracles.py`` builds.
    """

    groups: tuple
    scatter: np.ndarray
    twin: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _pair_sums(mesh):
    """K's blocks ``sum_e vol_e mandel(sym(g_a g_b'))`` as an ``(m, nv + E)``
    array: column v holds the pair (v, v), column nv + i edge i.  A function
    of its own, so its temporaries are freed before A's pattern is built.

    The gradients are read as contiguous ``(ne,)`` columns, one per local
    vertex and coordinate.  Each pair's forms fill an ``(ne, k)`` array
    one local vertex or local edge at a time, so ``np.bincount`` sums them
    element by element in the order of ``mesh.elements`` or
    ``element_edges``."""
    nv, dim = mesh.num_vertices, mesh.dim
    g = np.ascontiguousarray(np.moveaxis(mesh.shape_gradients(), 0, -1))
    vol = mesh.element_volumes
    pairs = mandel_pairs(dim)
    sums = np.zeros((len(pairs), nv + len(mesh.edges())))
    # every vertex with itself, then the local edges
    for target, local in (
        (mesh.elements, [(a, a) for a in range(dim + 1)]),
        (mesh.element_edges() + np.int64(nv), _LOCAL_EDGES[dim]),
    ):
        target = target.ravel()
        form = np.empty((len(vol), len(local)))
        for c, (i, j) in enumerate(pairs):
            weight = vol * (0.5 if i == j else 1.0 / _SQRT2)
            for column, (a, b) in enumerate(local):
                entry = g[a, i] * g[b, j]
                entry += g[a, j] * g[b, i]
                entry *= weight
                form[:, column] = entry
            sums[c] += np.bincount(target, form.ravel(), sums.shape[1])
    return sums


@mesh_cached
def star_blocks(mesh):
    """The star blocks of K and the scatter into A's pattern; see ``StarBlocks``.

    K's block at (a, b) is ``sum_e vol_e mandel(sym(g_a g_b'))`` over the
    elements e that hold both vertices, with g the shape gradients.  It is
    summed once per vertex (a = b) and once per edge, which serves both
    directions, and each star block gathers its columns from these sums.
    Stars are grouped by size, so no block is padded, and the index arrays
    keep scipy's 32-bit index type where it fits.  The star adjacency is
    the vertex graph plus the identity, and A's pattern is its square.
    Each batch writes its (p, q) queries, rows ``cols[:, p]`` and columns
    ``cols[:, q]``, into its slice of one query table, and one
    ``pattern[rows, cols]`` finds every scatter index by a search within
    its row, so the pattern's format is checked once, not per batch.  Only
    upper triangles are scattered: A is symmetric, and its lower triangle
    is a copy of the upper one.
    """
    nv = mesh.num_vertices
    edges = mesh.edges()
    sums = _pair_sums(mesh)
    # canonical: each star in ascending order
    star = mesh.vertex_graph() + sparse.identity(nv, dtype=np.int32, format="csr")
    # The upper entries of the stars, in CSR order, run through the edges in
    # their sorted order, and the lower ones through the edges ordered by
    # their second vertex.
    rows = np.repeat(np.arange(nv), np.diff(star.indptr))
    source = rows.copy()
    source[star.indices > rows] = nv + np.arange(len(edges))
    source[star.indices < rows] = nv + _stable_order(edges[:, 1], nv)
    pattern = star @ star
    pattern.sort_indices()
    slots = np.arange(pattern.nnz, dtype=pattern.indices.dtype)
    pattern.data = slots + 1  # a lookup off the pattern would read 0
    # The slot of (j, i) lies in an earlier row than that of (i, j)
    # exactly when i > j.
    twin = np.minimum(slots, pattern.T.tocsr().data - 1)
    size = np.diff(star.indptr)
    by_size = np.argsort(size, kind="stable").astype(star.indices.dtype)
    # every batch's (p, q) entries as (row, column) queries of the pattern
    query = np.empty((2, (size * (size + 1) // 2).sum()), star.indices.dtype)
    groups, start = [], 0
    for same in np.split(by_size, np.flatnonzero(np.diff(size[by_size])) + 1):
        s = size[same[0]]
        p, q = np.triu_indices(s)
        step = max(1, STAR_BATCH // (s * s))
        for verts in (same[i : i + step] for i in range(0, len(same), step)):
            at = star.indptr[verts][:, None] + np.arange(s)
            cols = star.indices[at]
            blocks = np.swapaxes(sums[:, source[at]], 0, 1).copy()
            stop = start + len(verts) * len(p)
            query[0, start:stop] = cols[:, p].ravel()
            query[1, start:stop] = cols[:, q].ravel()
            groups.append((verts, blocks, (p, q), slice(start, stop)))
            start = stop
    scatter = np.asarray(pattern[query[0], query[1]]).ravel()
    scatter -= 1
    return StarBlocks(tuple(groups), scatter, twin, pattern.indptr, pattern.indices)


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
    P = projected_middle_blocks(system)
    measures = compute_measures(mesh)
    stars = star_blocks(mesh)
    # The upper triangle of 0.5 (C_v + C_v') for every star, summed into
    # the upper slots of A and copied to the lower ones, so A is bitwise
    # symmetric.
    C = np.empty(len(stars.scatter))
    for verts, K_v, (p, q), part in stars.groups:
        C_v = np.swapaxes(K_v, 1, 2) @ (P[verts] @ K_v)
        np.add(C_v[:, p, q], C_v[:, q, p], out=C[part].reshape(len(verts), -1))
    upper = np.bincount(stars.scatter, weights=C, minlength=len(stars.indices))
    data = upper[stars.twin]
    data *= 0.5
    # The operator owns its pattern: eliminate_zeros compacts it in place.
    nv = mesh.num_vertices
    op = sparse.csr_matrix(
        (data, stars.indices.copy(), stars.indptr.copy()), shape=(nv, nv)
    )
    op.eliminate_zeros()
    return AssembledOperator(
        matrix=op,
        vertex_mass=measures.dual_volumes.copy(),
        bc_kind=bc_kind,
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
        One finite value per boundary vertex, in ``op.boundary_vertices``
        order; anything else raises ``ParameterError``.
    """
    if op.bc_kind != "neumann":
        raise ParameterError("Dirichlet partition requires the weak-Neumann operator")
    bv = op.boundary_vertices
    boundary_values = check_values("boundary values", boundary_values, bv.shape)
    try:
        return solve_pinned(op, bv, boundary_values)
    except NumericalError as exc:
        raise NumericalError(f"interior Dirichlet block solve failed: {exc}") from exc
