import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

import framefieldops as ff
from framefieldops import meshgen
from framefieldops import framefield as framefield_module
from framefieldops import solve as solve_module
from framefieldops.errors import NumericalError, ParameterError
from framefieldops.solve import check_symmetric

from oracles import (
    band_by_coo,
    box_qp_active_set,
    dense_eigs,
    solve_pinned_by_extraction,
    symmetric_by_difference,
    valid_by_difference,
)


def test_check_symmetric():
    A = sparse.random(30, 30, density=0.2, random_state=0)
    with pytest.raises(NumericalError):
        check_symmetric(A + 2 * A.T)
    check_symmetric(A + A.T)


def _csr(n, entries):
    """An n x n CSR matrix of the (i, j, value) ``entries``, kept row by row
    in the order given, so unsorted columns and duplicates stay."""
    rows, cols, values = np.array(entries, dtype=float).reshape(-1, 3).T
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return sparse.csr_matrix(
        (values[order], cols[order].astype(np.int32), indptr.astype(np.int32)), shape=(n, n)
    )


_SYMMETRIC = [(0, 0, 4.0), (0, 1, -1.0), (0, 3, 0.5), (1, 0, -1.0), (1, 1, 4.0),
              (1, 2, -1.0), (2, 1, -1.0), (2, 2, 4.0), (3, 0, 0.5), (3, 3, 2.0)]


def _without(*positions):
    return [e for e in _SYMMETRIC if e[:2] not in positions]


# Entry lists and whether they are symmetric within 1e-12 of max |a|.
SYMMETRY_CASES = {
    "symmetric": (_SYMMETRIC, True),
    "asymmetric_values": (_without((1, 2)) + [(1, 2, -1.0 + 1e-9)], False),
    "round_off_asymmetry": (_without((1, 2)) + [(1, 2, -1.0 + 1e-15)], True),
    "entry_without_mirror": (_SYMMETRIC + [(2, 3, 1e-3)], False),
    "explicit_zero_without_mirror": (_SYMMETRIC + [(2, 3, 0.0)], True),
    "nan": (_without((3, 3)) + [(3, 3, np.nan)], False),
    "nan_without_mirror": (_SYMMETRIC + [(2, 3, np.nan)], False),
    "infinite_pair": (_without((0, 3), (3, 0)) + [(0, 3, np.inf), (3, 0, np.inf)], False),
    "unsorted": (_SYMMETRIC[::-1], True),
    "duplicates": (_without((1, 2)) + [(1, 2, -0.75), (1, 0, 0.0), (1, 2, -0.25)], True),
    "asymmetric_duplicates": (_without((1, 2)) + [(1, 2, -0.5), (1, 2, -0.6)], False),
    # the scale is max |a| after summing, not the sum of |a| over duplicates
    "cancelling_duplicates": (
        _SYMMETRIC + [(2, 3, 1e6), (2, 4, 1e-7), (2, 3, -1e6), (3, 2, 0.0)], False),
    "empty": ([], True),
}


def _passes(check, *args):
    try:
        check(*args)
    except NumericalError:
        return False
    return True


def _read_only(A):
    """``A`` with its arrays made read-only, and copies of them."""
    saved = [a.copy() for a in (A.data, A.indices, A.indptr)]
    for a in (A.data, A.indices, A.indptr):
        a.flags.writeable = False
    return A, saved


def _unchanged(A, saved):
    return all(
        np.array_equal(a, b, equal_nan=True)
        for a, b in zip((A.data, A.indices, A.indptr), saved)
    )


@pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
def test_check_symmetric_matches_difference_oracle(name):
    entries, symmetric = SYMMETRY_CASES[name]
    A, saved = _read_only(_csr(6, entries))
    assert symmetric_by_difference(A) == symmetric
    assert _passes(check_symmetric, A) == symmetric
    assert _unchanged(A, saved)
    if symmetric:
        B = check_symmetric(A)
        assert B.has_canonical_format
        assert np.array_equal(B.toarray(), A.toarray())


def _operator_cases(op):
    """Matrices derived from ``op.matrix`` and whether ``op`` with each of
    them passes ``validate``."""
    A = op.matrix.tocoo()
    entries = list(zip(A.row.tolist(), A.col.tolist(), A.data.tolist()))
    n = A.shape[0]
    i, j, v = next(e for e in entries if e[0] != e[1])
    pattern = set(zip(A.row.tolist(), A.col.tolist()))
    unmirrored = next((a, b) for a in range(n) for b in range(n) if (b, a) not in pattern)
    split = [(a, b, w) for a, b, w in entries if (a, b) != (i, j)]
    return {
        "operator": (entries, True),
        "asymmetric_values": (split + [(i, j, v + 1e-9 * abs(A.data).max())], False),
        "entry_without_mirror": (entries + [(*unmirrored, 1e-3)], False),
        "explicit_zero_without_mirror": (entries + [(*unmirrored, 0.0)], True),
        "nan": (split + [(i, j, np.nan)], False),
        "unsorted_duplicates": ((split + [(i, j, 0.5 * v), (i, j, 0.5 * v)])[::-1], True),
    }


def test_validate_matches_difference_oracle(disk_mesh, disk_harmonic_field):
    # a disjoint triangle of boundary vertices, last in the vertex order:
    # under natural conditions their rows are empty, and count 0 in the norm
    nv = disk_mesh.num_vertices
    lone = ff.SimplicialMesh(
        np.vstack([disk_mesh.vertices, [[5.0, 0.0], [6.0, 0.0], [5.0, 1.0]]]),
        np.vstack([disk_mesh.elements, [[nv, nv + 1, nv + 2]]]),
    )
    ops = [
        ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "natural"),
        ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann"),
        ff.assemble_operator(lone, ff.constant_field(lone, ff.axis_frame(2)), 0.1, "natural"),
    ]
    assert np.array_equal(np.flatnonzero(np.diff(ops[2].matrix.indptr) == 0), nv + np.arange(3))
    for op in ops:
        for name, (entries, valid) in _operator_cases(op).items():
            A, saved = _read_only(_csr(op.matrix.shape[0], entries))
            broken = dataclasses.replace(op, matrix=A)
            assert valid_by_difference(broken) == valid, name
            assert _passes(broken.validate) == valid, name
            assert _unchanged(A, saved), name


def _with_nan(A):
    A = sparse.csr_matrix(A, dtype=float, copy=True)
    A.data[0] = np.nan
    return A


def _with_nan_above(A):
    A = sparse.csr_matrix(A, dtype=float, copy=True)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    A.data[np.argmax(A.indices > rows)] = np.nan
    return A


def _nan_eigenpairs(op, field):
    eig = ff.eigs_generalized(op, op.vertex_mass, 4)
    getattr(eig, field)[0] = np.nan
    return eig


@pytest.mark.parametrize(
    "check",
    [
        lambda op: check_symmetric(_with_nan(op.matrix)),
        lambda op: dataclasses.replace(op, matrix=_with_nan(op.matrix)).validate(),
        # the factor reads only the lower triangle and an operator is not
        # checked for symmetry, so a NaN above it reaches the residual alone
        # (a NaN b is rejected at entry, and a bare matrix by its check)
        lambda op: ff.solve_spd(
            dataclasses.replace(op, matrix=_with_nan_above(op.matrix)), op.vertex_mass
        ),
        lambda op: _nan_eigenpairs(op, "residuals").validate(op, op.vertex_mass),
        lambda op: _nan_eigenpairs(op, "vectors").validate(op, op.vertex_mass),
    ],
    ids=["check_symmetric", "operator_validate", "solve_spd_residual",
         "eigen_residual", "eigen_orthonormality"],
)
def test_acceptance_checks_reject_nan(check, disk_mesh, disk_harmonic_field):
    # every bound is written so that a NaN measurement fails it
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "natural")
    with pytest.raises(NumericalError):
        check(op)


def test_solve_spd_identity_and_nullspace():
    n = 40
    b = np.arange(n, dtype=float)
    x = ff.solve_spd(sparse.eye(n, format="csr"), b)
    assert np.abs(x - b).max() < 1e-12
    # zero right-hand side gives the zero solution
    L = sparse.diags([np.ones(n - 1), -2 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
    L = -(L + L.T) / 2
    x = ff.solve_spd(L.tocsr(), np.zeros(n))
    assert np.abs(x).max() < 1e-12


def _laplacian(mesh):
    """The piecewise-linear Laplacian, built as the harmonic field builds it."""
    G = ff.gradient_matrix(mesh)
    volumes = sparse.diags(np.repeat(mesh.element_volumes, mesh.dim))
    return (G.T @ volumes @ G).tocsr()


def disk_interior_laplacian():
    mesh = ff.refine_uniform(meshgen.disk(4))
    boundary = ff.compute_measures(mesh).boundary_vertices
    interior = np.setdiff1d(np.arange(mesh.num_vertices), boundary)
    return _laplacian(mesh)[interior][:, interior]


def test_solve_spd_matches_dense_oracle():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((50, 50))
    laplacian = disk_interior_laplacian()
    # The factor works in RCM order; on this mesh that permutation is not its
    # own inverse, so scattering the solution back the wrong way shows.
    perm = reverse_cuthill_mckee(laplacian, symmetric_mode=True)
    assert not np.array_equal(perm[perm], np.arange(len(perm)))
    for A in (R @ R.T + np.eye(50), laplacian.toarray()):
        n = len(A)
        for shape in ((n,), (n, 2)):
            b = rng.standard_normal(shape)
            x = ff.solve_spd(sparse.csr_matrix(A), b)
            assert x.shape == shape
            assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-8


def test_solve_pinned_matches_dense_partition():
    rng = np.random.default_rng(3)
    n = 30
    R = rng.standard_normal((n, n))
    A = R @ R.T + np.eye(n)
    pinned = rng.permutation(n)[:8]  # unsorted, so the order of values matters
    free = np.setdiff1d(np.arange(n), pinned)
    for shape in ((8,), (8, 2)):
        values = rng.standard_normal(shape)
        x = ff.solve_pinned(sparse.csr_matrix(A), pinned, values)
        assert x.shape == (n,) + shape[1:]
        assert np.array_equal(x[pinned], values)
        expected = np.linalg.solve(A[np.ix_(free, free)], -A[np.ix_(free, pinned)] @ values)
        assert np.abs(x[free] - expected).max() < 1e-10
    # every entry pinned: nothing is solved, the values come back
    order = rng.permutation(n)
    values = rng.standard_normal(n)
    x = ff.solve_pinned(sparse.csr_matrix(A), order, values)
    assert np.array_equal(x[order], values)


@pytest.mark.parametrize(
    "pinned, values, named",
    [
        ([0, 0, 4], [1.0, 2.0, 3.0], "pinned"),  # used to keep the last value
        ([0, 4], [1.0], "values"),  # used to raise numpy's broadcast error
        ([0, 4], [1.0, np.nan], "values"),  # used to blame b
    ],
)
def test_solve_pinned_names_the_bad_argument(pinned, values, named):
    with pytest.raises(ff.ParameterError, match=f"^{named}"):
        ff.solve_pinned(sparse.eye(6, format="csr"), pinned, values)


def _bandwidth(A, order):
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    A = sparse.coo_matrix(A)
    return int(np.abs(rank[A.row] - rank[A.col]).max())


@pytest.mark.parametrize("n", [8, 24, 64])
def test_square_operators_are_banded_in_the_mesh_order(n):
    # 2n + 2 is the band of the 2-ring stencil in the vertex graph's RCM
    # order; RCM of the natural operator's own graph reaches about 4n
    mesh = meshgen.structured_square(n)
    field = ff.constant_field(mesh, ff.axis_frame(2))
    for bc in ("neumann", "natural"):
        op = ff.assemble_operator(mesh, field, 0.1, bc)
        assert _bandwidth(op.matrix, mesh.vertex_order()) <= 2 * n + 2, bc


def test_natural_box_is_no_wider_than_neumann_in_the_mesh_order():
    mesh = meshgen.box(5, 5, 5)
    field = ff.constant_field(mesh, ff.axis_frame(3))
    natural, neumann = (
        _bandwidth(ff.assemble_operator(mesh, field, 0.1, bc).matrix, mesh.vertex_order())
        for bc in ("natural", "neumann")
    )
    assert natural <= neumann


def test_solve_pinned_on_an_operator_matches_dense_partition(disk_mesh, disk_harmonic_field):
    # the free block is factored in the mesh order restricted to the free
    # entries; unsorted pinned indices, interior ones among them, make the
    # restriction and its scatter back visible
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann")
    A = op.matrix.toarray()
    n = len(A)
    rng = np.random.default_rng(5)
    interior = np.setdiff1d(np.arange(n), op.boundary_vertices)
    pinned = rng.permutation(
        np.concatenate([op.boundary_vertices, rng.choice(interior, 7, replace=False)])
    )
    free = np.setdiff1d(np.arange(n), pinned)
    for shape in ((len(pinned),), (len(pinned), 2)):
        values = rng.standard_normal(shape)
        x = ff.solve_pinned(op, pinned, values)
        assert np.array_equal(x[pinned], values)
        expected = np.linalg.solve(A[np.ix_(free, free)], -A[np.ix_(free, pinned)] @ values)
        assert np.abs(x[free] - expected).max() <= 1e-9 * np.abs(expected).max()


def test_not_positive_definite_raises_numerical_error(disk_mesh, disk_harmonic_field):
    indefinite = sparse.diags([2.0, 1.0, -1.0, 3.0]).tocsr()
    with pytest.raises(NumericalError, match="not positive definite"):
        ff.solve_spd(indefinite, np.ones(4))
    with pytest.raises(NumericalError, match="not positive definite"):
        ff.solve_pinned(indefinite, [0], [1.0])
    # shifted below its constant zero mode, an operator is indefinite, and
    # the factor in its mesh's order fails the same way
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann")
    n = disk_mesh.num_vertices
    shifted = op.matrix - 1e-6 * op.matrix.diagonal().max() * sparse.eye(n)
    with pytest.raises(NumericalError, match="not positive definite"):
        ff.solve_spd(dataclasses.replace(op, matrix=shifted.tocsr()), np.ones(n))


def test_solve_spd_projects_rhs_with_warning():
    n = 20
    D = sparse.diags([np.ones(n), -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    A = (D.T @ D).tocsr()  # Neumann 1D Laplacian, ones in the nullspace
    # A singular system is rejected; it is not solved in a projected sense.
    with pytest.raises(NumericalError):
        ff.solve_spd(A, np.ones(n))


def test_eigs_neumann_disk(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.2, "neumann")
    eig = ff.eigs_generalized(op, op.vertex_mass, 8)
    assert abs(eig.values[0]) < 1e-8 * eig.values.max()
    assert eig.values[1] > 1e-6 * eig.values.max()


def test_eigs_natural_square_affine_zeros(small_square_mesh):
    field = ff.constant_field(small_square_mesh, ff.axis_frame(2))
    op = ff.assemble_operator(small_square_mesh, field, 0.4, "natural")
    eig = ff.eigs_generalized(op, op.vertex_mass, 8)
    # the affine functions 1, x, y are annihilated
    assert np.abs(eig.values[:3]).max() < 1e-8 * eig.values.max()


def test_eigs_paths_cross_validate(
    disk_mesh, disk_harmonic_field, small_square_mesh, small_ball_mesh
):
    square_field = ff.constant_field(small_square_mesh, ff.axis_frame(2))
    ball_field = ff.helical_field_3d(small_ball_mesh, [0.0, 0.0, 1.0], 2.0)
    ops = [
        ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann"),
        ff.assemble_operator(small_ball_mesh, ball_field, 0.05, "natural"),
        ff.assemble_operator(small_square_mesh, square_field, 0.4, "natural"),
    ]
    for op in ops:
        eig = ff.eigs_generalized(op, op.vertex_mass, 15)
        oracle, _ = dense_eigs(op.matrix, op.vertex_mass, 15)
        assert np.abs(eig.values - oracle).max() < 1e-8 * oracle.max()
        eig.validate(op.matrix, op.vertex_mass)
    # the natural square's affine zero modes are among those found
    assert np.abs(eig.values[:3]).max() < 1e-8 * eig.values.max()


def test_eigen_validate_takes_a_dense_or_sparse_matrix(small_square_mesh):
    field = ff.constant_field(small_square_mesh, ff.axis_frame(2))
    op = ff.assemble_operator(small_square_mesh, field, 0.4, "neumann")
    M = op.vertex_mass
    eig = ff.eigs_generalized(op, M, 4)
    # residuals at the bound pass and one ulp above it fail, for the
    # operator, its sparse matrix and that matrix as a dense array alike:
    # each takes the norm scipy takes of the sparse matrix
    bound = 1e-7 * (spla.norm(op.matrix, np.inf) + np.abs(eig.values) * M.max())
    for residuals, valid in ((bound, True), (np.nextafter(bound, np.inf), False)):
        edge = dataclasses.replace(eig, residuals=residuals)
        for A in (op, op.matrix, op.matrix.toarray()):
            assert _passes(edge.validate, A, M) == valid


def test_eigs_input_validation(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann")
    with pytest.raises(ValueError):
        ff.eigs_generalized(op, op.vertex_mass, 0)
    with pytest.raises(ValueError):
        ff.eigs_generalized(op, op.vertex_mass, op.matrix.shape[0] + 5)
    with pytest.raises(ff.ParameterError):
        ff.eigs_generalized(op, np.zeros_like(op.vertex_mass), 4)
    # numpy raised its own ValueError or TypeError for three, and took True as 1
    for seed in (-1, 1.5, True, "1"):
        with pytest.raises(ff.ParameterError, match="^seed must"):
            ff.eigs_generalized(op, op.vertex_mass, 4, seed=seed)


def test_a_natural_eigensolve_returns_its_whole_zero_cluster():
    # EigenResult.validate checks residuals and orthonormality, so it would
    # pass a solve that skipped members of the zero cluster for nonzero
    # modes.  The natural helical jittered cube has 27 zero modes; asked for
    # 23, every seed must return 23 of them.
    mesh = meshgen.jittered_delaunay(3, 8, seed=501)
    field = ff.helical_field_3d(mesh, [0.0, 0.0, 1.0], 2.0)
    op = ff.assemble_operator(mesh, field, 0.05, "natural")
    assert ff.nullity(op) == 27
    oracle, vectors = dense_eigs(op.matrix, op.vertex_mass, 28)
    null = vectors[:, :27]  # M-orthonormal
    gap = oracle[27]  # the first nonzero eigenvalue
    for seed in range(4):
        eig = ff.eigs_generalized(op, op.vertex_mass, 23, seed=seed)
        assert ff.zero_modes(op, eig.values).all()
        assert np.abs(eig.values - oracle[:23]).max() < 1e-10 * gap
        outside = eig.vectors - null @ (null.T @ (op.vertex_mass[:, None] * eig.vectors))
        assert np.abs(outside).max() < 1e-6 * np.abs(eig.vectors).max()


def test_eigs_of_a_bare_matrix_with_a_varied_mass_match_dense_oracle():
    # A mass that varies by 100x makes a missing or misplaced sqrt(M) show,
    # which the near-uniform mass of a structured square would hide.
    A = disk_interior_laplacian()
    n, k = A.shape[0], 10
    M_diag = np.random.default_rng(5).uniform(0.1, 10.0, n)
    eig = ff.eigs_generalized(A, M_diag, k)
    oracle_vals, oracle_vecs = dense_eigs(A, M_diag, k)
    assert np.abs(eig.values - oracle_vals).max() < 1e-8 * np.abs(oracle_vals).max()
    gaps = np.diff(np.concatenate([[-np.inf], oracle_vals, [np.inf]]))
    for j in np.flatnonzero(np.minimum(gaps[:-1], gaps[1:]) > 1e-6 * oracle_vals.max()):
        phi, ref = eig.vectors[:, j], oracle_vecs[:, j]
        phi = phi * np.sign(phi @ ref)
        assert np.abs(phi - ref).max() < 1e-6 * np.abs(ref).max(), j
    gram = eig.vectors.T @ (M_diag[:, None] * eig.vectors)
    assert np.abs(gram - np.eye(k)).max() < 1e-8


def test_eigs_with_one_seed_are_bitwise_reproducible(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "natural")
    first = ff.eigs_generalized(op, op.vertex_mass, 8, seed=3)
    second = ff.eigs_generalized(op, op.vertex_mass, 8, seed=3)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_eigs_signs_do_not_depend_on_the_seed(disk_mesh, disk_harmonic_field):
    # the natural square's antisymmetric modes have mirrored peaks that tie
    # up to round-off; the sign rule must not let round-off pick between them
    square = meshgen.structured_square(12)
    ops = [
        ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann"),
        ff.assemble_operator(square, ff.constant_field(square, ff.axis_frame(2)), 0.1,
                             "natural"),
    ]
    for op in ops:
        first = ff.eigs_generalized(op, op.vertex_mass, 12, seed=0)
        second = ff.eigs_generalized(op, op.vertex_mass, 12, seed=1)
        vals = first.values
        # the last mode's upper neighbour is not computed, so its gap is unknown
        steps = np.abs(np.diff(vals)) / np.abs(vals).max()
        gaps = np.minimum(np.r_[np.inf, steps[:-1]], steps)
        simple = np.flatnonzero(gaps > 1e-6)
        assert len(simple) >= 6
        for j in simple:
            phi, other = first.vectors[:, j], second.vectors[:, j]
            assert phi @ other > 0, j  # same sign
            assert np.abs(phi - other).max() <= 1e-6 * np.abs(phi).max(), j


def _counting_calls(monkeypatch, name):
    """The arguments of each call to ``solve.<name>`` from now on."""
    wrapped = getattr(solve_module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(solve_module, name, counting)
    return calls


@pytest.mark.parametrize("name", ["_factorize", "_symmetric_magnitude"])
def test_eigs_factor_and_check_symmetry_once_per_call(monkeypatch, disk_mesh,
                                                      disk_harmonic_field, name):
    # a bare matrix used to have its symmetry checked twice
    calls = _counting_calls(monkeypatch, name)
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann")
    A = disk_interior_laplacian()
    for problem in ((op, op.vertex_mass, 8), (A, np.ones(A.shape[0]), 4)):
        calls.clear()
        ff.eigs_generalized(*problem)
        assert len(calls) == 1


@pytest.mark.parametrize("solve", ["diffuse", "dirichlet", "pinned", "pinned_bare"])
def test_solves_factor_once_per_call(monkeypatch, disk_mesh, disk_harmonic_field, solve):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann")
    bv = op.boundary_vertices
    values = np.random.default_rng(4).standard_normal((len(bv), 2))
    factored = _counting_calls(monkeypatch, "_factorize")
    if solve == "diffuse":
        ff.diffuse(op, np.ones(disk_mesh.num_vertices), 1e-5)
    elif solve == "dirichlet":
        ff.apply_dirichlet_partition(op, values[:, 0])
    elif solve == "pinned":
        ff.solve_pinned(op, bv[::-1], values)
    else:
        ff.solve_pinned(_laplacian(disk_mesh), bv, values)
    assert len(factored) == 1


def test_harmonic_field_solves_its_laplacian_in_the_mesh_order(monkeypatch):
    """The harmonic field hands its Laplacian L to ``solve_pinned`` in the
    mesh's ``vertex_order``, with no symmetry scan and no reverse
    Cuthill-McKee.  On a disk L's pattern is the vertex graph's, so that
    order is L's own reverse Cuthill-McKee and the field equals, bit for
    bit, the one of a ``solve_pinned`` on the bare L.  On a square it is
    not: L omits the zero-weight entries (217 stored on
    ``structured_square(6)`` against the 289 of the vertex graph with its
    diagonal), the two orders differ and the interpolated vector moves by
    7.8e-16, so the equality is checked on a disk."""
    mesh = meshgen.disk(8)
    scanned = _counting_calls(monkeypatch, "_symmetric_magnitude")
    ordered = _counting_calls(monkeypatch, "reverse_cuthill_mckee")
    field = ff.harmonic_cross_field_2d(mesh)
    assert scanned == [] and ordered == []
    monkeypatch.setattr(
        framefield_module, "solve_pinned",
        lambda system, pinned, values: ff.solve_pinned(system.matrix, pinned, values),
    )
    bare = ff.harmonic_cross_field_2d(mesh)
    assert len(scanned) == len(ordered) == 1
    assert np.array_equal(field.components, bare.components)
    assert np.array_equal(field.rep_magnitude, bare.rep_magnitude)


@pytest.fixture
def factored_bands(monkeypatch):
    """Every band handed to ``pbtrf``, copied before it is factored."""
    bands = []
    factor = solve_module.cholesky_banded

    def capturing(band, **kwargs):
        bands.append(band.copy(order="F"))
        return factor(band, **kwargs)

    monkeypatch.setattr(solve_module, "cholesky_banded", capturing)
    return bands


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _operator(mesh, bc):
    if mesh.dim == 2:
        field = ff.harmonic_cross_field_2d(mesh)
    else:
        field = ff.helical_field_3d(mesh, [0.0, 0.0, 1.0], 1.0)
    return ff.assemble_operator(mesh, field, 0.1, bc)


@pytest.mark.parametrize("bc", ["neumann", "natural"])
@pytest.mark.parametrize("dim", [2, 3])
def test_shifted_bands_match_the_coo_builder(factored_bands, disk_mesh, small_ball_mesh,
                                             dim, bc):
    # M + tau A and A - sigma M reach the band from A's CSR arrays with the
    # diagonal added in band order; the bands equal those of the systems
    # summed by scipy bit for bit
    mesh = disk_mesh if dim == 2 else small_ball_mesh
    op = _operator(mesh, bc)
    A, M, order = op.matrix, op.vertex_mass, mesh.vertex_order()
    tau = 1e-5
    ff.diffuse(op, np.ones(len(M)), tau)
    _assert_bitwise(factored_bands[-1], band_by_coo(sparse.diags(M) + tau * A, order))
    ff.eigs_generalized(op, M, 4)
    sigma = -1e-5 * A.diagonal().sum() / len(M)
    _assert_bitwise(factored_bands[-1], band_by_coo(A - sigma * sparse.diags(M), order))


@pytest.mark.parametrize("dim", [2, 3])
def test_dirichlet_interior_matches_the_extracted_block(factored_bands, disk_mesh,
                                                        small_ball_mesh, dim):
    # the interior band masks the boundary rows and columns out of A, and
    # the right-hand side sums the boundary products in CSR column order,
    # so band and solution equal those of the extracted blocks bit for bit
    mesh = disk_mesh if dim == 2 else small_ball_mesh
    op = _operator(mesh, "neumann")
    bv = op.boundary_vertices
    values = np.random.default_rng(6).standard_normal(len(bv))
    x = ff.apply_dirichlet_partition(op, values)
    order = mesh.vertex_order()
    interior = np.setdiff1d(np.arange(mesh.num_vertices), bv)
    restricted = order[np.isin(order, interior)]
    block = op.matrix[interior][:, interior]
    _assert_bitwise(factored_bands[-1], band_by_coo(block, np.searchsorted(interior, restricted)))
    _assert_bitwise(x, solve_pinned_by_extraction(op.matrix, bv, values, order))


def test_bare_interior_laplacian_matches_the_extracted_block(factored_bands):
    # a bare matrix is masked like an operator, in reverse Cuthill-McKee of
    # its whole graph restricted to the free entries; on this mesh that
    # order differs from the free block's own RCM, and its band is narrower
    mesh = ff.refine_uniform(meshgen.disk(4))
    L = _laplacian(mesh)
    bv = ff.compute_measures(mesh).boundary_vertices
    values = np.random.default_rng(7).standard_normal((len(bv), 2))
    x = ff.solve_pinned(L, bv, values)
    interior = np.setdiff1d(np.arange(mesh.num_vertices), bv)
    block = L[interior][:, interior]
    whole = reverse_cuthill_mckee(L, symmetric_mode=True)
    restricted = np.searchsorted(interior, whole[np.isin(whole, interior)])
    own = reverse_cuthill_mckee(block, symmetric_mode=True)
    assert _bandwidth(block, restricted) < _bandwidth(block, own)
    _assert_bitwise(factored_bands[-1], band_by_coo(block, restricted))
    _assert_bitwise(x, solve_pinned_by_extraction(L, bv, values, whole))


def _asymmetric_spd(relative):
    """A 20 x 20 SPD matrix with one entry above the diagonal off by
    ``relative`` times the largest magnitude."""
    R = np.random.default_rng(11).standard_normal((20, 20))
    A = R @ R.T + 20 * np.eye(20)
    A[2, 7] += relative * np.abs(A).max()
    return sparse.csr_matrix(A)


@pytest.mark.parametrize("relative", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize(
    "solve",
    [
        lambda A: ff.solve_spd(A, np.ones(20)),
        lambda A: ff.solve_pinned(A, [0, 5], [1.0, -1.0]),
        lambda A: ff.solve_box_qp(A, [0], [1.0], -np.ones(20), np.ones(20)),
    ],
    ids=["solve_spd", "solve_pinned", "solve_box_qp"],
)
def test_asymmetric_bare_matrices_are_rejected_where_they_enter(solve, relative):
    # the factor reads only the lower triangle, so without the check a small
    # asymmetry is solved as if absent and a large one blamed on the residual
    with pytest.raises(NumericalError, match="matrix is not symmetric"):
        solve(_asymmetric_spd(relative))


@pytest.mark.parametrize("bare", [False, True])
def test_unsorted_pinned_indices_match_the_extracted_block(disk_mesh, disk_harmonic_field, bare):
    # the box QP pins fixed, then active entries: not in ascending order
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.01, "natural")
    A = _laplacian(disk_mesh) if bare else op
    matrix = getattr(A, "matrix", A)
    rng = np.random.default_rng(8)
    interior = np.setdiff1d(np.arange(disk_mesh.num_vertices), op.boundary_vertices)
    pinned = np.concatenate([op.boundary_vertices, rng.choice(interior, 9, replace=False)])
    pinned = rng.permutation(pinned)
    values = rng.standard_normal((len(pinned), 3))
    x = ff.solve_pinned(A, pinned, values)
    expected = solve_pinned_by_extraction(
        matrix, pinned, values, None if bare else disk_mesh.vertex_order()
    )
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


def test_solve_spd_columns_match_single_solves():
    # the banded solve takes a C-ordered (n, r) block, a 1-D vector and a
    # strided view, and writes to none of them
    A = disk_interior_laplacian()
    n = A.shape[0]
    block = np.random.default_rng(2).standard_normal((n, 4))
    assert block.flags.c_contiguous
    kept = block.copy()
    X = ff.solve_spd(A, block)
    strided = block[:, 1]
    assert not strided.flags.contiguous
    x = ff.solve_spd(A, strided)
    assert np.array_equal(block, kept)
    for j in range(4):
        single = ff.solve_spd(A, np.ascontiguousarray(block[:, j]))
        assert single.shape == (n,)
        assert np.abs(X[:, j] - single).max() <= 1e-14 * np.abs(single).max()
    assert np.array_equal(x, ff.solve_spd(A, np.ascontiguousarray(strided)))


def test_diffuse_basics(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.2, "natural")
    u0 = np.zeros(disk_mesh.num_vertices)
    u0[0] = 1.0
    u = ff.diffuse(op, u0, 1e-12)
    assert np.linalg.norm(u - u0) <= 1e-6 * np.linalg.norm(u0)
    const = ff.diffuse(op, np.ones_like(u0), 2e-4)
    assert np.abs(const - 1.0).max() < 1e-9
    # M-weighted mean is conserved (operator annihilates constants)
    u = ff.diffuse(op, u0, 1e-5)
    m = op.vertex_mass
    assert abs(m @ u - m @ u0) <= 1e-9 * abs(m @ u0)
    with pytest.raises(ValueError):
        ff.diffuse(op, u0, 0.0)


def test_epsilon_and_tau_of_any_float_type_give_the_same_bits(disk_mesh, disk_harmonic_field):
    # both are read as 0-d float arrays; a numeric string converts too
    ops = [
        ff.assemble_operator(disk_mesh, disk_harmonic_field, eps, "natural")
        for eps in (0.1, np.float64(0.1), np.array(0.1), "0.1")
    ]
    for op in ops[1:]:
        for a, b in ((op.matrix.data, ops[0].matrix.data),
                     (op.matrix.indices, ops[0].matrix.indices)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert op.fingerprint == ops[0].fingerprint
    u0 = np.random.default_rng(2).standard_normal(disk_mesh.num_vertices)
    solutions = {
        ff.diffuse(ops[0], u0, tau).tobytes()
        for tau in (1e-5, np.float64(1e-5), np.array(1e-5), "1e-5")
    }
    assert len(solutions) == 1
    spectra = {ff.square_spectrum(eps, 12).values.tobytes() for eps in (0.3, np.array(0.3))}
    assert len(spectra) == 1


@pytest.mark.parametrize(
    "u0, tau",
    [(None, np.nan), (None, -1e-5), ("short", 1e-5), ("long", 1e-5), ("columns", 1e-5)],
)
def test_diffuse_checks_its_inputs_where_they_enter(disk_mesh, disk_harmonic_field, u0, tau):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.2, "natural")
    n = disk_mesh.num_vertices
    u0 = {None: np.ones(n), "short": np.ones(n - 1), "long": np.ones(n + 1),
          "columns": np.ones((n, 2))}[u0]
    with pytest.raises(ParameterError):
        ff.diffuse(op, u0, tau)


def test_box_qp_against_active_set_oracle():
    rng = np.random.default_rng(9)
    for trial in range(12):
        n = rng.integers(5, 10)
        R = rng.standard_normal((n, n))
        A = R @ R.T + 0.5 * np.eye(n)
        lower = rng.uniform(-2.0, -0.5, n)
        upper = rng.uniform(0.5, 2.0, n)
        # force active bounds for some variables (unconstrained optimum is 0)
        k = rng.integers(1, n - 1)
        lower[:k] = rng.uniform(0.2, 1.0, k)
        upper[:k] = lower[:k] + rng.uniform(0.3, 1.0, k)
        fixed_idx, fixed_val = [], []
        if trial % 2:
            fixed_idx = [int(n - 1)]
            fixed_val = [float(np.clip(0.3, lower[-1], upper[-1]))]
        flat = []
        if trial >= 8:
            # entries whose two bounds are equal, one of them among the
            # active ones
            flat = [0, int(n - 2)]
            upper[flat] = lower[flat]
        x, info = ff.solve_box_qp(
            sparse.csr_matrix(A), fixed_idx, fixed_val, lower, upper, return_info=True
        )
        obj = 0.5 * x @ A @ x
        best, _ = box_qp_active_set(A, lower, upper, fixed_idx, fixed_val)
        assert obj <= best + 1e-8 * max(abs(best), 1.0)
        assert np.all(x >= lower - 1e-15) and np.all(x <= upper + 1e-15)
        if flat:
            # an entry with equal bounds is pinned exactly like a fixed entry
            x_fixed, info_fixed = ff.solve_box_qp(
                sparse.csr_matrix(A), fixed_idx + flat,
                fixed_val + list(lower[flat]), lower, upper, return_info=True,
            )
            assert np.array_equal(x, x_fixed)
            assert info["iterations"] == info_fixed["iterations"]


def test_box_qp_settles_at_degenerate_and_round_off_bounds():
    # At the minimum x[0] = 0 sits on its upper bound with a zero
    # multiplier, and round-off in x[0] and in its gradient decides the
    # side; without a margin the active set flips between two sets.
    A = np.array([[19.0, -3.0, -1.0], [-3.0, 6.0, 2.0], [-1.0, 2.0, 2.0]])
    lower = np.array([-3.0, -3.0, 1.0])
    upper = np.array([0.0, 0.0, 1.0])
    x = ff.solve_box_qp(sparse.csr_matrix(A), [2], [1.0], lower, upper)
    assert np.abs(x - [0.0, -1.0 / 3.0, 1.0]).max() < 1e-15
    # An entry whose free value lies within the margin past its bound stays
    # inactive and is clipped onto the bound.
    B = np.array([[2.0, -2.0], [-2.0, 2.0]])
    bound = 1.0 + 1e-13
    x = ff.solve_box_qp(sparse.csr_matrix(B), [1], [1.0], [bound, 1.0], [2.0, 1.0])
    assert x[0] == bound


def test_box_qp_refuses_an_infinite_bound():
    # A chain Laplacian with its ends fixed at -1 and 1 and x >= 0 inside:
    # the minimizer is 0 up to the middle, then linear to 1.  An infinite
    # upper bound made the 1e-12 margin infinite, so no entry could become
    # active at 0 and the clipped result [-1, 0, 0, 0, 1/3, 2/3, 1] had
    # gradient -1/3 at an active lower bound.
    n = 7
    L = sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    lower = np.r_[-1.0, np.zeros(n - 2), 1.0]
    x = ff.solve_box_qp(L.tocsr(), [0, n - 1], [-1.0, 1.0], lower, np.full(n, 10.0))
    assert np.abs(x - [-1.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0]).max() < 1e-12
    with pytest.raises(ParameterError, match="^upper must be finite"):
        ff.solve_box_qp(L.tocsr(), [0, n - 1], [-1.0, 1.0], lower, np.full(n, np.inf))


def test_box_qp_raises_when_the_active_set_cycles():
    # Three bounded unknowns and a fixed entry that supplies a linear term.
    # The matrix is SPD but not an M-matrix: after five steps the loop
    # returns to an active set it has tried, though the minimum exists.
    A = np.array(
        [[5.32, 4.83, -3.69, -2.2],
         [4.83, 4.96, -3.89, 0.1],
         [-3.69, -3.89, 3.32, -0.4],
         [-2.2, 0.1, -0.4, 10.0]]
    )
    lower = np.array([-1.9, -0.4, -1.4, 1.0])
    upper = np.array([-0.8, 1.6, 0.0, 1.0])
    best, _ = box_qp_active_set(A, lower, upper, [3], [1.0])
    assert abs(best - 7.034204838709678) < 1e-12
    with pytest.raises(NumericalError, match="cycled"):
        ff.solve_box_qp(sparse.csr_matrix(A), [3], [1.0], lower, upper)


def test_box_qp_takes_more_steps_than_unknowns():
    # Four unknowns, one fixed: the loop visits six distinct active sets
    # before it settles, more than any cap of n + 1 steps allows.
    A = np.array(
        [[32.1, -27.7, 3.4, 5.7],
         [-27.7, 80.6, 21.4, 12.6],
         [3.4, 21.4, 28.5, 26.4],
         [5.7, 12.6, 26.4, 28.3]]
    )
    lower = np.array([-0.4, 1.4, -1.6, -0.5])
    upper = np.array([-0.2, 1.7, 0.1, 0.1])
    x, info = ff.solve_box_qp(
        sparse.csr_matrix(A), [0], [-0.4], lower, upper, return_info=True
    )
    best, _ = box_qp_active_set(A, lower, upper, [0], [-0.4])
    assert abs(best - 81.62378771929825) < 1e-12
    assert info["iterations"] == 6 and info["converged"]
    assert abs(0.5 * x @ A @ x - best) < 1e-12 * best


def test_box_qp_inactive_bounds_match_partition(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.05, "neumann")
    bv = op.boundary_vertices
    vals = np.cos(2 * np.arctan2(*disk_mesh.vertices[bv, ::-1].T))
    direct = ff.apply_dirichlet_partition(op, vals)
    wide = 10.0 * np.ones(disk_mesh.num_vertices)
    qp = ff.solve_box_qp(op, bv, vals, -wide, wide)
    assert np.abs(qp - direct).max() < 1e-6


def test_box_qp_constant_boundary(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.05, "natural")
    bv = op.boundary_vertices
    nv = disk_mesh.num_vertices
    x = ff.solve_box_qp(op, bv, np.full(len(bv), 0.7), np.full(nv, 0.7), np.full(nv, 0.7))
    assert np.abs(x - 0.7).max() < 1e-12


def test_box_qp_validation():
    A = sparse.eye(4, format="csr")
    with pytest.raises(ValueError):
        ff.solve_box_qp(A, [0], [5.0], np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        ff.solve_box_qp(A, [], [], np.ones(4), np.zeros(4))
    # one value per fixed index: rows, which solve_pinned takes, used to end
    # in numpy's broadcast error (three) or concatenate error (two)
    for fixed in ([0, 1, 2], [0, 1]):
        with pytest.raises(ParameterError, match="^fixed_values must be finite with shape"):
            ff.solve_box_qp(A, fixed, np.zeros((len(fixed), 2)), -np.ones(4), np.ones(4))


@pytest.mark.parametrize(
    "rings, seed, channel",
    [
        (24, 0, 2),  # projected gradient with BB steps needs over 5,000 steps
        (40, 3, 2),  # 25 active-set steps; cycles with a constant of 1
    ],
)
def test_box_qp_kkt_certificate_on_a_coloring_channel(rings, seed, channel):
    # A natural-condition coloring solve must end at a certified KKT point.
    mesh = meshgen.disk(rings)
    op = ff.assemble_operator(mesh, ff.harmonic_cross_field_2d(mesh), 0.01, "natural")
    bv = op.boundary_vertices
    vals = np.random.default_rng(seed).uniform(0.0, 1.0, (len(bv), 3))[:, channel]
    nv = mesh.num_vertices
    lower, upper = np.full(nv, vals.min()), np.full(nv, vals.max())
    x = ff.solve_box_qp(op, bv, vals, lower, upper)
    assert np.array_equal(x[bv], vals)
    assert np.all(x >= lower) and np.all(x <= upper)
    A = op.matrix
    free = np.setdiff1d(np.arange(nv), bv)
    xf, g = x[free], (A @ x)[free]
    at_lo, at_hi = xf == vals.min(), xf == vals.max()
    inactive = ~(at_lo | at_hi)
    tol = 1e-12 * spla.norm(A, np.inf) * np.abs(x).max()
    assert at_lo.any() and at_hi.any()  # both bounds bind
    assert np.abs(g[inactive]).max() <= tol
    assert g[at_lo].min() >= -tol and g[at_hi].max() <= tol
    # a round-off perturbation of the operator barely moves the solution
    E = A.copy()
    E.data = E.data * np.random.default_rng(1).uniform(-1.0, 1.0, A.nnz)
    x_perturbed = ff.solve_box_qp(A + 0.5e-15 * (E + E.T), bv, vals, lower, upper)
    assert np.abs(x_perturbed - x).max() < 1e-9
