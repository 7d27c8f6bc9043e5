import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.errors import NumericalError, ParameterError
from framefieldops.solve import check_symmetric

from oracles import box_qp_active_set, dense_eigs


def test_check_symmetric():
    A = sparse.random(30, 30, density=0.2, random_state=0)
    with pytest.raises(NumericalError):
        check_symmetric(A + 2 * A.T)
    check_symmetric(A + A.T)


def _with_nan(A):
    A = sparse.csr_matrix(A, dtype=float, copy=True)
    A.data[0] = np.nan
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
        # the factor reads only the lower triangle, so a NaN above it
        # reaches the residual alone (a NaN b is rejected at entry)
        lambda op: ff.solve_spd(
            sparse.eye(5) + sparse.csr_matrix(([np.nan], ([0], [1])), (5, 5)),
            np.ones(5),
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


def disk_interior_laplacian():
    mesh = ff.refine_uniform(meshgen.disk(4))
    measures = ff.compute_measures(mesh)
    G = ff.gradient_matrix(mesh)
    L = (G.T @ sparse.diags(np.repeat(measures.element_volumes, 2)) @ G).tocsr()
    interior = np.setdiff1d(np.arange(mesh.num_vertices), measures.boundary_vertices)
    return L[interior][:, interior]


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


def test_eigs_input_validation(disk_mesh, disk_harmonic_field):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.1, "neumann")
    with pytest.raises(ValueError):
        ff.eigs_generalized(op, op.vertex_mass, 0)
    with pytest.raises(ValueError):
        ff.eigs_generalized(op, op.vertex_mass, op.matrix.shape[0] + 5)
    with pytest.raises(ff.ParameterError):
        ff.eigs_generalized(op, np.zeros_like(op.vertex_mass), 4)


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
