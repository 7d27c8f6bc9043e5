import dataclasses
import inspect

import numpy as np
import pytest
from scipy import sparse

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.fem import (
    build_mixed_system,
    constraint_blocks,
    projected_middle_blocks,
)
from framefieldops.symtensor import mandel_size

from conftest import rotation_frame_2d
from oracles import (
    bilaplacian_mixed_natural,
    constraint_matrix,
    dense_kkt_apply,
    dense_kkt_factor,
    divergence_by_coo,
    mixed_factor,
    natural_shortcut,
    operator_by_bsr,
    operator_from_blocks,
    random_octahedral_frame,
)


def middle_matrix(system):
    P = projected_middle_blocks(system)
    nv = system.mesh.num_vertices
    m = P.shape[-1]
    return sparse.bsr_matrix(
        (P, np.arange(nv), np.arange(nv + 1)), shape=(nv * m, nv * m)
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_divergence_constant_and_linear(dim):
    mesh = meshgen.jittered_delaunay(dim, 4, seed=1)
    m = mandel_size(dim)
    D = divergence_by_coo(mesh)
    nv = mesh.num_vertices
    # constant tensor field: zero divergence
    lam = np.tile(np.arange(1.0, m + 1.0), nv)
    assert np.abs(D @ lam).max() < 1e-12
    # field x1 * e1 e1^T is linear with divergence (1, 0, ...)
    lam = np.zeros(nv * m)
    lam[::m] = mesh.vertices[:, 0]
    div = (D @ lam).reshape(-1, dim)
    expect = np.zeros(dim)
    expect[0] = 1.0
    assert np.abs(div - expect).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_divergence_theorem_identity(dim):
    # volume integral of the divergence against a constant field equals the
    # boundary flux, with exact piecewise-linear quadrature on both sides
    rng = np.random.default_rng(4)
    mesh = meshgen.jittered_delaunay(dim, 4, seed=7)
    meas = ff.compute_measures(mesh)
    D = divergence_by_coo(mesh)
    m = mandel_size(dim)
    from framefieldops.symtensor import mandel_to_sym
    from framefieldops.geometry import _facet_normals_and_measures

    fnormals, fmeasure = _facet_normals_and_measures(mesh)
    for _ in range(5):
        lam = rng.standard_normal(mesh.num_vertices * m)
        g = rng.standard_normal(dim)
        div = (D @ lam).reshape(-1, dim)
        lhs = np.sum(meas.element_volumes[:, None] * div * g)
        # exact boundary quadrature: facet measure times vertex-mean of n' L g
        L = mandel_to_sym(lam.reshape(-1, m))
        rhs = 0.0
        for f, n, a in zip(mesh.boundary_facets, fnormals, fmeasure):
            vals = [n @ L[v] @ g for v in f]
            rhs += a * np.mean(vals)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_energy_blocks(disk_mesh, disk_measures):
    dual = disk_measures.dual_volumes[:, None, None]
    field = ff.constant_field(disk_mesh, ff.axis_frame(2))
    mbar = build_mixed_system(disk_mesh, field, 1.0, "natural").mbar
    # epsilon = 1: blocks are the identity over the dual volumes
    assert np.array_equal(mbar, np.broadcast_to(np.eye(3), mbar.shape) / dual)
    # zero-weight vertices give zero blocks; all blocks stay PSD
    nv = disk_mesh.num_vertices
    w = np.linalg.norm(disk_mesh.vertices, axis=1) ** 2
    conf = ff.FrameField(
        disk_mesh,
        np.broadcast_to(np.eye(2), (nv, 2, 2)).copy(),
        np.column_stack([w, w]),
    )
    assert conf.kind == "conformal_octahedral"
    for eps in (1.0, 0.3, 0.01):
        blocks = build_mixed_system(disk_mesh, conf, eps, "neumann").mbar * dual
        assert np.abs(blocks[0]).max() == 0.0  # center vertex has zero weight
        eigs = np.linalg.eigvalsh(blocks)
        assert eigs.min() > -1e-12


def test_constraint_rows_2d():
    mesh = meshgen.structured_square(2, 0.0, 1.0)
    meas = ff.compute_measures(mesh)
    rows = constraint_blocks(meas, "neumann", 2)
    # one row per tangent per boundary vertex, in boundary-vertex order
    assert rows.shape == (len(meas.boundary_vertices), 1, 3)
    # bottom-edge midpoint: n = (0, -1), tangent (-1, 0) up to sign;
    # the single row pins the shear component: (0, 0, +-sqrt(2)/2)
    p = mesh.vertices[meas.boundary_vertices]
    bottom = np.flatnonzero((np.abs(p[:, 1]) < 1e-12) & (np.abs(p[:, 0] - 0.5) < 1e-12))
    row = rows[bottom[0], 0]
    assert np.abs(np.abs(row) - [0.0, 0.0, np.sqrt(2.0) / 2.0]).max() < 1e-12


def test_natural_constraints_select_blocks(unit_tet_mesh):
    field = ff.constant_field(unit_tet_mesh, ff.axis_frame(3))
    system = build_mixed_system(unit_tet_mesh, field, 0.5, "natural")
    assert system.constraint_rows.shape == (4, 6, 6)
    B = constraint_matrix(system)
    # every vertex lies on the boundary: B is the identity
    assert B.shape == (24, 24)
    assert abs(B - sparse.eye(24)).max() == 0.0


def test_all_boundary_natural_operator_is_zero(unit_square_mesh, unit_tet_mesh):
    for mesh in (unit_square_mesh, unit_tet_mesh):
        field = ff.constant_field(mesh, ff.axis_frame(mesh.dim))
        op = ff.assemble_operator(mesh, field, 0.5, "natural")
        assert abs(op.matrix).max() < 1e-14


def test_bilaplacian_reduction(disk_mesh):
    f1 = ff.constant_field(disk_mesh, ff.axis_frame(2))
    f2 = ff.constant_field(disk_mesh, rotation_frame_2d(0.77))
    op1 = ff.assemble_operator(disk_mesh, f1, 1.0, "natural")
    op2 = ff.assemble_operator(disk_mesh, f2, 1.0, "natural")
    scale = abs(op1.matrix).max()
    assert abs(op1.matrix - op2.matrix).max() <= 1e-12 * scale
    bil = bilaplacian_mixed_natural(disk_mesh)
    assert abs(op1.matrix - bil).max() <= 1e-12 * scale


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.01])
def test_natural_shortcut_matches_schur(disk_mesh, eps):
    field = ff.constant_field(disk_mesh, rotation_frame_2d(0.3))
    op = ff.assemble_operator(disk_mesh, field, eps, "natural")
    short = natural_shortcut(disk_mesh, field, eps)
    assert abs(op.matrix - short).max() <= 1e-12 * abs(short).max()


@pytest.mark.parametrize("bc", ["natural", "neumann"])
def test_operator_invariants(disk_mesh, disk_harmonic_field, bc):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.2, bc)
    op.validate()
    A = op.matrix
    norm_a = sparse.linalg.norm(A, np.inf)
    ones = np.ones(A.shape[0])
    assert np.linalg.norm(A @ ones) <= 1e-10 * norm_a
    for d in range(2):
        x = disk_mesh.vertices[:, d]
        r = np.linalg.norm(A @ x)
        if bc == "natural":
            assert r <= 1e-8 * norm_a
        else:
            assert r > 1e-6 * norm_a


def test_projector_annihilates_constraints(disk_mesh, disk_harmonic_field):
    system = build_mixed_system(disk_mesh, disk_harmonic_field, 0.2, "neumann")
    P = middle_matrix(system)
    assert abs(constraint_matrix(system) @ P).max() < 1e-10


def test_constraint_rescaling_invariance(disk_mesh, disk_harmonic_field):
    rng = np.random.default_rng(11)
    system = build_mixed_system(disk_mesh, disk_harmonic_field, 0.2, "neumann")
    rows = system.constraint_rows
    nb, r, _ = rows.shape
    S = rng.standard_normal((nb, r, r)) + 3.0 * np.eye(r)
    scaled = dataclasses.replace(system, constraint_rows=S @ rows)
    base = projected_middle_blocks(system)
    redone = projected_middle_blocks(scaled)
    assert np.abs(base - redone).max() <= 1e-10 * np.abs(base).max()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", ["natural", "neumann"])
def test_kkt_equivalence_small(dim, bc):
    rng = np.random.default_rng(dim * 10 + 1)
    mesh = meshgen.jittered_delaunay(dim, 5 if dim == 2 else 3, seed=dim)
    frame = random_octahedral_frame(rng, dim)
    field = ff.constant_field(mesh, frame)
    for eps in (1.0, 0.3):
        system = build_mixed_system(mesh, field, eps, bc)
        factor = dense_kkt_factor(system)
        op = ff.assemble_operator(mesh, field, eps, bc)
        for _ in range(3):
            u = rng.standard_normal(mesh.num_vertices)
            direct = op.matrix @ u
            oracle = dense_kkt_apply(system, factor, u)
            err = np.linalg.norm(direct - oracle) / np.linalg.norm(direct)
            assert err < 1e-8


def test_conformal_zero_weight_boundary(disk_mesh, disk_measures):
    # zero-norm vertices (field singularities) must not break assembly
    nv = disk_mesh.num_vertices
    w = np.linalg.norm(disk_mesh.vertices - disk_mesh.vertices[-1], axis=1) ** 2
    conf = ff.FrameField(
        disk_mesh,
        np.broadcast_to(np.eye(2), (nv, 2, 2)).copy(),
        np.column_stack([w, w]),
    )
    with pytest.warns(UserWarning, match="pseudoinverse"):
        op = ff.assemble_operator(disk_mesh, conf, 0.01, "neumann")
    op.validate()


def test_dirichlet_partition(disk_mesh, disk_harmonic_field, disk_measures):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.05, "neumann")
    nb = len(op.boundary_vertices)
    u = ff.apply_dirichlet_partition(op, np.full(nb, 3.25))
    assert np.abs(u - 3.25).max() < 1e-6
    nat = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.05, "natural")
    with pytest.raises(ValueError):
        ff.apply_dirichlet_partition(nat, np.full(nb, 1.0))
    with pytest.raises(ValueError):
        ff.apply_dirichlet_partition(op, np.ones(nb - 1))


def test_dirichlet_square_wave_snapshot(disk_mesh, disk_harmonic_field, disk_measures):
    # regression values frozen from the first verified run of this exact
    # configuration (disk(8), harmonic field, eps=0.05, 4 periods)
    from framefieldops.apps import square_wave_boundary

    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.05, "neumann")
    u0 = square_wave_boundary(disk_mesh, disk_measures, periods=4)
    u = ff.apply_dirichlet_partition(op, u0)
    probes = [0, 10, 40, 90, 150, 180]
    expected = [
        0.0799241212, 0.0708308478, 0.2944022333,
        -0.3908522552, 0.9410924116, -1.0,
    ]
    assert np.abs(u[probes] - expected).max() < 1e-6


def test_assembly_takes_no_foreign_measures():
    # measures are cached on the mesh; an argument could only be another
    # mesh's, which would silently build a wrong operator
    for fn in (
        ff.assemble_operator,
        build_mixed_system,
        ff.harmonic_cross_field_2d,
    ):
        assert "measures" not in inspect.signature(fn).parameters, fn.__name__


def test_assembly_is_deterministic(disk_mesh, disk_harmonic_field):
    a = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.2, "neumann")
    b = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.2, "neumann")
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a.matrix, name), getattr(b.matrix, name))
    assert a.fingerprint == b.fingerprint


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", ["natural", "neumann"])
def test_operator_is_bitwise_symmetric(dim, bc):
    rng = np.random.default_rng(dim + 70)
    mesh = meshgen.jittered_delaunay(dim, 7 if dim == 2 else 3, seed=dim + 11)
    field = ff.constant_field(mesh, random_octahedral_frame(rng, dim))
    A = ff.assemble_operator(mesh, field, 0.05, bc).matrix
    At = A.T.tocsr()
    assert np.array_equal(A.indptr, At.indptr)
    assert np.array_equal(A.indices, At.indices)
    assert np.array_equal(A.data, At.data)


def test_second_assembly_leaves_the_first_operator_alone(disk_mesh, disk_harmonic_field):
    # under natural conditions eliminate_zeros compacts the pattern of each
    # new operator; it must not reach the cache or an earlier operator
    def assemble(eps, bc):
        return ff.assemble_operator(disk_mesh, disk_harmonic_field, eps, bc).matrix

    first = assemble(0.3, "natural")
    saved = [a.copy() for a in (first.data, first.indices, first.indptr)]
    second = assemble(0.05, "natural")
    assemble(0.3, "neumann")
    assert second.nnz == first.nnz < len(ff.fem.star_blocks(disk_mesh).indices)
    for array, copy in zip((first.data, first.indices, first.indptr), saved):
        assert np.array_equal(array, copy)
    again = assemble(0.3, "natural")
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again, name), getattr(first, name))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", ["natural", "neumann"])
def test_operator_matches_oracle_product(dim, bc):
    # K' P K with K rebuilt from G, D and the element volumes outside the
    # mesh cache, and the product taken densely
    rng = np.random.default_rng(dim + 40)
    mesh = meshgen.jittered_delaunay(dim, 6 if dim == 2 else 3, seed=dim + 5)
    field = ff.constant_field(mesh, random_octahedral_frame(rng, dim))
    for eps in (1.0, 0.05):
        op = ff.assemble_operator(mesh, field, eps, bc)
        blocks = projected_middle_blocks(build_mixed_system(mesh, field, eps, bc))
        ref = operator_from_blocks(mesh, blocks)
        assert np.abs(op.matrix.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def star_of(mesh, v):
    return np.union1d(mesh.vertex_neighbors()[v], [v])


def check_star_blocks(mesh, stars):
    # the blocks are summed from the element closed form, the oracle takes
    # the sparse product D' A G: the two round differently
    K = mixed_factor(mesh).toarray()
    tol = 1e-15 * np.abs(K).max()
    nv = mesh.num_vertices
    m = K.shape[0] // nv
    seen, filled = [], []
    for verts, blocks, (p, q), part in stars.groups:
        s = blocks.shape[2]
        assert blocks.shape == (len(verts), m, s)
        assert np.array_equal(p, np.triu_indices(s)[0])
        assert np.array_equal(q, np.triu_indices(s)[1])
        assert part.stop - part.start == len(verts) * len(p)
        assert len(verts) * s * s <= max(ff.fem.STAR_BATCH, s * s)
        slots = stars.scatter[part].reshape(len(verts), len(p))
        for v, block, slot in zip(verts, blocks, slots):
            star = star_of(mesh, v)
            assert np.abs(block - K[v * m : (v + 1) * m, star]).max() <= tol
            # each upper-triangle entry lands in the slot of its vertex pair
            rows = np.searchsorted(stars.indptr, slot, side="right") - 1
            assert np.array_equal(rows, star[p])
            assert np.array_equal(stars.indices[slot], star[q])
        seen.extend(verts)
        filled.append(part)
    assert sorted(seen) == list(range(nv))
    assert [part.start for part in filled] == [0] + [part.stop for part in filled[:-1]]
    assert filled[-1].stop == len(stars.scatter)
    # the pattern couples the vertices of every star, and nothing else
    adjacency = np.zeros((nv, nv), dtype=int)
    for v in range(nv):
        adjacency[v, star_of(mesh, v)] = 1
    pattern = sparse.csr_matrix(adjacency @ adjacency)
    assert np.array_equal(stars.indptr, pattern.indptr)
    assert np.array_equal(stars.indices, pattern.indices)
    # every slot's twin is the slot of the same pair in the upper triangle
    pattern.data = np.arange(pattern.nnz)
    rows = np.repeat(np.arange(nv), np.diff(pattern.indptr))
    lo, hi = np.minimum(rows, pattern.indices), np.maximum(rows, pattern.indices)
    assert np.array_equal(stars.twin, np.asarray(pattern[lo, hi]).ravel())


def test_star_blocks_are_built_once_per_mesh():
    # repeated assemblies on one mesh are compared bitwise by
    # test_assembly_is_deterministic
    mesh = meshgen.disk(5)
    field = ff.constant_field(mesh, rotation_frame_2d(0.4))
    ff.assemble_operator(mesh, field, 0.3, "neumann")
    stars = ff.fem.star_blocks(mesh)
    ff.assemble_operator(mesh, field, 0.3, "natural")
    assert ff.fem.star_blocks(mesh) is stars
    check_star_blocks(mesh, stars)
    arrays = [stars.scatter, stars.twin, stars.indptr, stars.indices]
    for verts, blocks, pairs, _ in stars.groups:
        arrays += [verts, blocks, *pairs]
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        stars.scatter = stars.scatter.copy()
    # a refined mesh builds its own stars and leaves the coarse ones alone
    fine = ff.refine_uniform(mesh)
    stars_fine = ff.fem.star_blocks(fine)
    assert stars_fine is not stars
    check_star_blocks(fine, stars_fine)
    assert ff.fem.star_blocks(mesh) is stars


def test_star_batches_leave_the_operator_unchanged(monkeypatch):
    # batches only bound the temporaries: the flat products keep their order
    meshes = [meshgen.jittered_delaunay(3, 3, seed=4) for _ in range(2)]
    ops = []
    for batch, mesh in zip((ff.fem.STAR_BATCH, 200), meshes):
        monkeypatch.setattr(ff.fem, "STAR_BATCH", batch)
        field = ff.constant_field(mesh, ff.axis_frame(3))
        ops.append(ff.assemble_operator(mesh, field, 0.1, "neumann").matrix)
    big, small = (ff.fem.star_blocks(mesh) for mesh in meshes)
    assert len(small.groups) > len(big.groups)
    check_star_blocks(meshes[1], small)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ops[0], name), getattr(ops[1], name))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", ["natural", "neumann"])
def test_operator_matches_bsr_product_bitwise(dim, bc):
    # K as the product D' A G, P placed as BSR and K' taken as the transpose
    # view: the same pattern bitwise, and values to the bound of the oracle
    # product test, since the star sums add the same terms in another order
    rng = np.random.default_rng(dim + 60)
    mesh = meshgen.jittered_delaunay(dim, 7 if dim == 2 else 3, seed=dim + 9)
    fields = [ff.constant_field(mesh, random_octahedral_frame(rng, dim))]
    if dim == 2:
        fields.append(ff.harmonic_cross_field_2d(mesh))
    for field in fields:
        for eps in (1.0, 0.05):
            op = ff.assemble_operator(mesh, field, eps, bc).matrix
            ref = operator_by_bsr(mesh, field, eps, bc)
            assert op.format == "csr" and op.has_canonical_format
            assert np.array_equal(op.indptr, ref.indptr)
            assert np.array_equal(op.indices, ref.indices)
            assert np.abs(op.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


def test_validate_rejects_each_broken_invariant(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.3, "natural")
    assert op.validate()
    A = op.matrix
    n = A.shape[0]
    scale = np.abs(A.data).max()
    G = ff.gradient_matrix(disk_mesh)
    laplacian = G.T @ sparse.diags(np.repeat(disk_mesh.element_volumes, 2)) @ G
    skew = sparse.csr_matrix(([scale], ([0], [1])), shape=(n, n))
    cases = [
        (A + skew, "natural", "not symmetric"),
        (A - scale * sparse.eye(n), "natural", "not PSD"),
        (A + scale * sparse.eye(n), "natural", "constants"),
        (A + scale * laplacian, "natural", "affine"),
    ]
    for matrix, bc, message in cases:
        broken = dataclasses.replace(op, matrix=matrix.tocsr(), bc_kind=bc)
        with pytest.raises(ff.NumericalError, match=message):
            broken.validate()
    # the affine nullspace is checked only under natural conditions
    assert dataclasses.replace(op, matrix=(A + scale * laplacian).tocsr(),
                               bc_kind="neumann").validate()


def test_epsilon_validation(disk_mesh, disk_harmonic_field):
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            ff.assemble_operator(disk_mesh, disk_harmonic_field, bad, "neumann")
    with pytest.raises(ValueError):
        build_mixed_system(disk_mesh, disk_harmonic_field, 0.5, "periodic")
