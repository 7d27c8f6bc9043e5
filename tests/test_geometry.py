import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.geometry import prolong_linear


OFF_SQUARE = """OFF
4 2 0
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
"""

OFF_DEGENERATE = """OFF
3 1 0
0 0 0
1 0 0
2 0 0
3 0 1 2
"""

MEDIT_TET = """MeshVersionFormatted 2
Dimension 3
Vertices
4
0 0 0 0
1 0 0 0
0 1 0 0
0 0 1 0
Tetrahedra
1
1 2 3 4 0
End
"""


def test_load_off_square(tmp_path):
    path = tmp_path / "square.off"
    path.write_text(OFF_SQUARE)
    mesh = ff.load_mesh(path)
    assert mesh.dim == 2
    assert len(mesh.boundary_facets) == 4
    assert np.isclose(mesh.element_volumes.sum(), 1.0)


def test_load_medit_tet(tmp_path):
    path = tmp_path / "tet.mesh"
    path.write_text(MEDIT_TET)
    mesh = ff.load_mesh(path)
    assert mesh.dim == 3
    assert len(mesh.boundary_facets) == 4
    assert np.isclose(mesh.element_volumes[0], 1.0 / 6.0)


def test_load_degenerate_triangle_fails(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(OFF_DEGENERATE)
    with pytest.raises(ff.GeometryError):
        ff.load_mesh(path)


def test_load_nonplanar_fails(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(OFF_SQUARE.replace("1 1 0", "1 1 0.5"))
    with pytest.raises(ff.GeometryError):
        ff.load_mesh(path)


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n4 2 0\n0 0\n")
    with pytest.raises(ff.MeshFormatError):
        ff.load_mesh(path)


def test_mesh_echo_roundtrip(tmp_path, disk_mesh, small_ball_mesh):
    for mesh, name in ((disk_mesh, "m.off"), (disk_mesh, "m.obj"),
                       (small_ball_mesh, "m.mesh")):
        path = tmp_path / name
        ff.save_mesh(mesh, path)
        back = ff.load_mesh(path)
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-15
        assert np.array_equal(back.elements, mesh.elements)


def test_validation_errors():
    with pytest.raises(ff.GeometryError):  # inverted element
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    with pytest.raises(ff.GeometryError):  # duplicate elements
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(ff.GeometryError):  # index out of range
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])
    with pytest.raises(ff.GeometryError):  # facet shared by 3 elements
        ff.SimplicialMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
             [0.3, 0.3, -1.0], [0.3, 0.3, -2.0]],
            [[0, 1, 2, 3], [0, 2, 1, 4], [0, 2, 1, 5]],
        )


def test_measures_square(unit_square_mesh):
    meas = ff.compute_measures(unit_square_mesh)
    assert np.allclose(meas.element_volumes, 0.5)
    assert np.isclose(meas.dual_volumes.sum(), 1.0)
    # all four vertices are corners: averaged normals are diagonal
    assert np.allclose(np.abs(meas.boundary_normals), np.sqrt(0.5))


def test_measures_straight_edge_normal():
    mesh = meshgen.structured_square(2, 0.0, 1.0)
    meas = ff.compute_measures(mesh)
    # midpoint of the bottom edge lies on a straight segment
    i = np.flatnonzero(
        (np.abs(mesh.vertices[meas.boundary_vertices][:, 1]) < 1e-12)
        & (np.abs(mesh.vertices[meas.boundary_vertices][:, 0] - 0.5) < 1e-12)
    )
    assert len(i) == 1
    assert np.allclose(meas.boundary_normals[i[0]], [0.0, -1.0])


@pytest.mark.parametrize("dim", [2, 3])
def test_measures_tangent_frames(dim):
    mesh = meshgen.disk(4) if dim == 2 else meshgen.ball()
    meas = ff.compute_measures(mesh)
    n = meas.boundary_normals
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    for k in range(dim - 1):
        t = meas.boundary_tangents[:, k, :]
        assert np.abs(np.einsum("bi,bi->b", t, n)).max() < 1e-12
        assert np.allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-12)
    if dim == 3:
        t1, t2 = meas.boundary_tangents[:, 0, :], meas.boundary_tangents[:, 1, :]
        assert np.abs(np.einsum("bi,bi->b", t1, t2)).max() < 1e-12


def test_dual_volume_conservation(disk_mesh, small_ball_mesh):
    for mesh in (disk_mesh, small_ball_mesh):
        meas = ff.compute_measures(mesh)
        total = meas.element_volumes.sum()
        assert abs(meas.dual_volumes.sum() - total) < 1e-12 * total


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_exact_on_affine(dim):
    mesh = meshgen.jittered_delaunay(dim, 5, seed=3)
    G = ff.gradient_matrix(mesh)
    coeff = np.arange(1, dim + 1, dtype=float)
    u = mesh.vertices @ coeff + 0.7
    g = (G @ u).reshape(-1, dim)
    assert np.abs(g - coeff).max() < 1e-12
    assert np.abs(G @ np.ones(mesh.num_vertices)).max() < 1e-13


def test_gradient_unit_corner_triangle():
    mesh = ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    g = (ff.gradient_matrix(mesh) @ np.array([0.0, 1.0, 0.0])).reshape(-1, 2)
    assert np.abs(g - [1.0, 0.0]).max() < 1e-15


def test_refine_counts(unit_square_mesh, unit_tet_mesh):
    r2 = ff.refine_uniform(unit_square_mesh)
    assert r2.num_elements == 8 and r2.num_vertices == 9
    r3 = ff.refine_uniform(unit_tet_mesh)
    assert r3.num_elements == 8 and r3.num_vertices == 10


def test_refine_preserves_volume_and_boundary(disk_mesh, small_ball_mesh):
    for mesh in (disk_mesh, small_ball_mesh):
        fine = ff.refine_uniform(mesh)
        v0, v1 = mesh.element_volumes.sum(), fine.element_volumes.sum()
        assert abs(v1 - v0) < 1e-12 * v0
        # coarse vertices keep positions and indices
        assert np.array_equal(fine.vertices[: mesh.num_vertices], mesh.vertices)
        # boundary vertices of the fine mesh lie on coarse boundary facets
        assert len(fine.boundary_facets) == len(mesh.boundary_facets) * 2 ** (
            mesh.dim - 1
        )


def test_refine_halves_each_edge(unit_square_mesh):
    mesh = unit_square_mesh
    fine = ff.refine_uniform(mesh)
    # children of each coarse edge measure exactly half of it
    for i, (a, b) in enumerate(mesh.edges()):
        mid = mesh.num_vertices + i
        half = 0.5 * np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
        assert np.isclose(np.linalg.norm(fine.vertices[mid] - mesh.vertices[a]), half)
    # the mean only halves asymptotically: midpoint triangles skew the mix
    ratio = ff.mean_edge_length(fine) / ff.mean_edge_length(mesh)
    assert abs(ratio - 0.5) < 0.05
    big = meshgen.structured_square(16)
    ratio = ff.mean_edge_length(ff.refine_uniform(big)) / ff.mean_edge_length(big)
    assert abs(ratio - 0.5) < 0.01


def test_mean_edge_length_values(unit_square_mesh):
    assert np.isclose(
        ff.mean_edge_length(unit_square_mesh), (4.0 + np.sqrt(2.0)) / 5.0
    )
    # regular unit-edge tetrahedron
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / (2.0 * np.sqrt(2.0))
    tet = ff.SimplicialMesh(verts, [[0, 1, 3, 2]])
    assert np.isclose(ff.mean_edge_length(tet), 1.0)


def test_boundary_facets_belong_to_one_element(disk_mesh, small_ball_mesh):
    for mesh in (disk_mesh, small_ball_mesh):
        facets = np.sort(mesh._oriented_facets(), axis=1)
        boundary = set(map(tuple, np.sort(mesh.boundary_facets, axis=1)))
        counts = {}
        for f in map(tuple, facets):
            counts[f] = counts.get(f, 0) + 1
        for f in boundary:
            assert counts[f] == 1


def test_prolongation_exact_on_linears(disk_mesh):
    fine = ff.refine_uniform(disk_mesh)
    u = disk_mesh.vertices @ np.array([1.5, -0.3]) + 0.2
    uf = prolong_linear(fine, u)
    expect = fine.vertices @ np.array([1.5, -0.3]) + 0.2
    assert np.abs(uf - expect).max() < 1e-14


def test_generators_are_valid():
    for mesh in (
        meshgen.structured_square(5),
        meshgen.disk(5),
        meshgen.annulus(2, 5),
        meshgen.box(2, 3, 2),
        meshgen.ball(),
        meshgen.jittered_delaunay(2, 6, seed=0),
        meshgen.jittered_delaunay(3, 3, seed=0),
    ):
        assert np.all(mesh.element_volumes > 0)
        # re-validating in the constructor exercises all invariants
        ff.SimplicialMesh(mesh.vertices, mesh.elements)


def test_nan_coordinate_rejected():
    with pytest.raises(ff.GeometryError, match="finite"):
        ff.SimplicialMesh([[0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]])


def test_unreferenced_vertex_rejected():
    with pytest.raises(ff.GeometryError, match="belong to no element"):
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1], [5, 5]], [[0, 1, 2]])
