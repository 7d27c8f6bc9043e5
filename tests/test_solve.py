import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.errors import NumericalError
from framefieldops.solve import check_symmetric

from oracles import box_qp_active_set, dense_eigs


def test_check_symmetric():
    A = sparse.random(30, 30, density=0.2, random_state=0)
    with pytest.raises(NumericalError):
        check_symmetric(A + 2 * A.T)
    check_symmetric(A + A.T)


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
    with pytest.raises(NumericalError):
        ff.eigs_generalized(op, np.zeros_like(op.vertex_mass), 4)
    with pytest.raises(ValueError):
        ff.eigs_generalized(op, op.vertex_mass, 4, which="largest")


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


def test_box_qp_against_active_set_oracle():
    rng = np.random.default_rng(9)
    for trial in range(8):
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
        x = ff.solve_box_qp(sparse.csr_matrix(A), fixed_idx, fixed_val, lower, upper)
        obj = 0.5 * x @ A @ x
        best, _ = box_qp_active_set(A, lower, upper, fixed_idx, fixed_val)
        assert obj <= best + 1e-8 * max(abs(best), 1.0)
        assert np.all(x >= lower - 1e-15) and np.all(x <= upper + 1e-15)


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
