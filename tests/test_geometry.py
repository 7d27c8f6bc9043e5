import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.geometry import (
    _LOCAL_EDGES,
    _edge_determinants,
    _row_groups,
    _stable_order,
    prolong_linear,
)
from framefieldops.vtkio import write_vtk

from oracles import (
    annulus_by_loops,
    boundary_facets_by_unique,
    box_by_loops,
    disk_by_loops,
    edge_determinants_by_rows,
    edges_by_unique,
    gradient_dense,
    gradient_matrix_by_coo,
    refine_uniform_by_orientation,
    row_groups_by_lexsort,
    shape_gradients_by_inv,
    shape_gradients_by_rows,
    structured_square_by_loops,
)


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
    cases = [
        ("bad.off", "OFF\n4 2 0\n0 0\n"),
        # zero or negative counts used to reach _to_planar and raise IndexError
        ("bad.off", "OFF\n0 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
        ("bad.off", "OFF\n-1 1 0\n3 0 1 2\n"),
        ("bad.off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
        # ragged rows used to raise a bare ValueError from np.array
        ("bad.obj", "v 1 0\nv 0 0 0\nv 0 1 0\nf 1 2 3\n"),
        ("bad.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n"),
        # an index beyond int64 used to raise OverflowError
        ("bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n"),
        # a lone short row used to reach SimplicialMesh and raise GeometryError
        ("bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n"),
        ("bad.mesh", MEDIT_TET.replace("1 2 3 4 0", "1 2 3")),
    ]
    for name, text in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ff.MeshFormatError):
            ff.load_mesh(path)


@pytest.fixture(scope="module")
def valid_mesh_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    square = meshgen.structured_square(2)
    files = {}
    for name, mesh in (("m.off", square), ("m.obj", square), ("m.mesh", meshgen.ball())):
        ff.save_mesh(mesh, root / name)
        files[name] = (root / name).read_bytes()
    return files


# Replacements for one whitespace-separated token: empty, zero, negative,
# huge, non-finite and non-numeric values, line breaks and stray keywords.
GARBLE_TOKENS = st.one_of(
    st.sampled_from([b"", b"0", b"-1", b"4", b"99999999999999999999", b"1e999",
                     b"nan", b"x", b"\n", b" 0\n", b"v", b"f", b"End"]),
    st.binary(max_size=3),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["m.mesh", "m.obj", "m.off"]),
    edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), GARBLE_TOKENS),
                   max_size=3),
    keep=st.floats(0.0, 1.0),
)
def test_garbled_mesh_files_raise_package_errors(
    valid_mesh_files, tmp_path_factory, name, edits, keep
):
    tokens = re.split(rb"(\s+)", valid_mesh_files[name])
    for where, token in edits:
        tokens[int(where * len(tokens))] = token
    data = b"".join(tokens)
    path = tmp_path_factory.mktemp("garbled") / name
    path.write_bytes(data[: round(keep * len(data))])
    try:
        ff.load_mesh(path)
    except (ff.MeshFormatError, ff.GeometryError):
        pass


def test_mesh_echo_roundtrip(tmp_path, disk_mesh, small_ball_mesh):
    for mesh, name in ((disk_mesh, "m.off"), (disk_mesh, "m.obj"),
                       (small_ball_mesh, "m.mesh"), (small_ball_mesh, "m.medit")):
        path = tmp_path / name
        ff.save_mesh(mesh, path)
        back = ff.load_mesh(path)
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-15
        assert np.array_equal(back.elements, mesh.elements)


REFUSED_WRITES = {
    "unknown extension": (ff.MeshFormatError, lambda path, disk, ball: ff.save_mesh(
        disk, path.with_suffix(".stl"))),
    "2D mesh to MEDIT": (ff.MeshFormatError, lambda path, disk, ball: ff.save_mesh(
        disk, path.with_suffix(".mesh"))),
    "3D mesh to OFF": (ff.MeshFormatError, lambda path, disk, ball: ff.save_mesh(
        ball, path.with_suffix(".off"))),
    "vtk field short": (ff.ParameterError, lambda path, disk, ball: write_vtk(
        path, disk, {"u": np.zeros(disk.num_vertices - 1)})),
    "vtk field 4 columns": (ff.ParameterError, lambda path, disk, ball: write_vtk(
        path, disk, {"u": np.zeros((disk.num_vertices, 4))})),
    "vtk name with a space": (ff.ParameterError, lambda path, disk, ball: write_vtk(
        path, disk, {"u 0": np.zeros(disk.num_vertices)})),
}


@pytest.mark.parametrize("case", list(REFUSED_WRITES))
def test_refused_writes_leave_files_alone(case, tmp_path, disk_mesh, small_ball_mesh):
    # an existing file keeps its bytes, and no file is made where none was
    error, write = REFUSED_WRITES[case]
    kept = ["keep.mesh", "keep.off", "keep.stl", "keep.vtk"]
    for name in kept:
        (tmp_path / name).write_text("precious\n")
    for name in ("keep.vtk", "none.vtk"):
        with pytest.raises(error):
            write(tmp_path / name, disk_mesh, small_ball_mesh)
    assert sorted(path.name for path in tmp_path.iterdir()) == kept
    for name in kept:
        assert (tmp_path / name).read_text() == "precious\n", name


def test_validation_errors():
    with pytest.raises(ff.GeometryError):  # inverted element
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    with pytest.raises(ff.GeometryError):  # duplicate elements
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(ff.GeometryError, match="duplicate"):  # rotated, not adjacent
        ff.SimplicialMesh(
            [[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [1, 3, 2], [2, 0, 1]]
        )
    with pytest.raises(ff.GeometryError, match="duplicate"):  # tets, rotated
        ff.SimplicialMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
            [[0, 1, 2, 3], [1, 2, 3, 4], [1, 2, 0, 3]],
        )
    with pytest.raises(ff.GeometryError):  # index out of range
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]])
    with pytest.raises(ff.GeometryError, match="non-manifold"):  # 3 triangles
        ff.SimplicialMesh(
            [[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, -1]],
            [[0, 1, 2], [0, 1, 3], [1, 0, 4]],
        )
    with pytest.raises(ff.GeometryError, match="non-manifold"):  # 3 tetrahedra
        ff.SimplicialMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
             [0.3, 0.3, -1.0], [0.3, 0.3, -2.0]],
            [[0, 1, 2, 3], [0, 2, 1, 4], [0, 2, 1, 5]],
        )


# The largest bound for which rows of each width pack into one int64 key
# next to the index of one of 500 rows (9 bits).
PACKING_LIMITS = {2: 134_217_728, 3: 262_144, 4: 11_585}


@pytest.mark.parametrize("width, limit", sorted(PACKING_LIMITS.items()))
@pytest.mark.parametrize("where", ["small", "at", "past"])
def test_row_groups_match_lexsort_oracle(width, limit, where):
    # past the limit the columns are split over two keys
    assert limit**width << 9 <= 2**63 < (limit + 1) ** width << 9
    bound = {"small": 7, "at": limit, "past": limit + 1}[where]
    rng = np.random.default_rng(width)
    # Few values per column, the largest among them, so that equal rows lie
    # far apart and unequal ones share leading or trailing columns.
    values = np.array([0, 1, bound // 2, bound - 2, bound - 1])
    pool = values[rng.integers(len(values), size=(40, width))]
    rows = pool[rng.integers(len(pool), size=500)]
    order, starts = _row_groups(rows, bound)
    expect_order, expect_starts = row_groups_by_lexsort(rows)
    assert np.array_equal(order, expect_order)
    assert np.array_equal(starts, expect_starts)
    assert len(starts) == len(np.unique(rows, axis=0)) < len(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 4096, 4097])
def test_stable_order_matches_stable_argsort(n):
    # the index takes (n - 1).bit_length() bits, so the largest bound that
    # packs fills all 63 bits with key and index
    bits = (n - 1).bit_length()
    rng = np.random.default_rng(n)
    for bound in (1, 5, 2**63 >> bits):
        values = np.array([0, bound // 2, bound - 1])
        keys = values[rng.integers(len(values), size=n)]
        order = _stable_order(keys, bound)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
    with pytest.raises(ValueError):
        _stable_order(keys, (2**63 >> bits) + 1)


def test_measures_square(unit_square_mesh):
    meas = ff.compute_measures(unit_square_mesh)
    assert np.allclose(unit_square_mesh.element_volumes, 0.5)
    assert np.isclose(meas.dual_volumes.sum(), 1.0)
    # all four vertices are corners: averaged normals are diagonal
    assert np.allclose(np.abs(meas.boundary_normals), np.sqrt(0.5))


def test_measures_straight_edge_normal():
    mesh = meshgen.structured_square(2)
    meas = ff.compute_measures(mesh)
    # midpoint of the bottom edge lies on a straight segment
    i = np.flatnonzero(
        (np.abs(mesh.vertices[meas.boundary_vertices][:, 1] + 1.0) < 1e-12)
        & (np.abs(mesh.vertices[meas.boundary_vertices][:, 0]) < 1e-12)
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
        total = mesh.element_volumes.sum()
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


def test_boundary_facets_match_unique_oracle():
    R = ff.refine_uniform
    for mesh in (
        R(R(meshgen.disk(16))),
        R(R(R(meshgen.ball()))),
        meshgen.jittered_delaunay(3, 3),
        R(annulus_by_loops(3, 6)),
        meshgen.structured_square(8),
        meshgen.jittered_delaunay(2, 6),
    ):
        assert np.array_equal(mesh.boundary_facets, boundary_facets_by_unique(mesh))


def test_prolongation_exact_on_linears(disk_mesh, small_ball_mesh):
    # the coarse mesh alone gives the midpoint behind each fine vertex
    for coarse, slope in ((disk_mesh, [1.5, -0.3]), (small_ball_mesh, [1.5, -0.3, 0.7])):
        u = coarse.vertices @ np.array(slope) + 0.2
        uf = prolong_linear(coarse, u)
        expect = ff.refine_uniform(coarse).vertices @ np.array(slope) + 0.2
        assert np.abs(uf - expect).max() < 1e-14


def test_prolongation_averages_the_ends_of_each_coarse_edge(disk_mesh, small_ball_mesh):
    rng = np.random.default_rng(4)
    for coarse in (disk_mesh, small_ball_mesh):
        a, b = coarse.edges().T
        for v in (rng.standard_normal(coarse.num_vertices),
                  rng.standard_normal((coarse.num_vertices, 3))):
            expect = np.concatenate([v, 0.5 * (v[a] + v[b])])
            assert np.array_equal(prolong_linear(coarse, v), expect)
        for n in (coarse.num_vertices - 1, ff.refine_uniform(coarse).num_vertices):
            with pytest.raises(ff.ParameterError, match="^coarse values must be finite"):
                prolong_linear(coarse, np.zeros(n))


def test_generators_are_valid():
    for mesh in (
        meshgen.structured_square(5),
        meshgen.disk(5),
        annulus_by_loops(2, 5),
        meshgen.box(2, 3, 2),
        meshgen.ball(),
        meshgen.jittered_delaunay(2, 6, seed=0),
        meshgen.jittered_delaunay(2, 16, jitter=0.0),  # unlike the 3D grid, no flat simplex
        meshgen.jittered_delaunay(3, 3, seed=0),
    ):
        assert np.all(mesh.element_volumes > 0)
        # re-validating in the constructor exercises all invariants
        ff.SimplicialMesh(mesh.vertices, mesh.elements)


def test_structured_generators_match_cell_loops():
    pairs = [
        (meshgen.structured_square(n), structured_square_by_loops(n))
        for n in (1, 2, 6, 30)
    ] + [
        (meshgen.box(*counts), box_by_loops(*counts))
        for counts in ((1, 1, 1), (3, 2, 2), (4, 4, 4))
    ]
    for mesh, ref in pairs:
        for a, b in ((mesh.vertices, ref.vertices), (mesh.elements, ref.elements)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_ring_generators_match_ring_loops():
    for rings in range(1, 41):
        mesh, ref = meshgen.disk(rings), disk_by_loops(rings)
        for a, b in ((mesh.vertices, ref.vertices), (mesh.elements, ref.elements)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_disk_needs_a_ring():
    with pytest.raises(ff.ParameterError, match="rings"):
        meshgen.disk(0)


@pytest.mark.parametrize("count", [2.5, True, -3, 0])
def test_grid_generators_take_only_positive_integer_counts(count):
    # numpy's linspace raised ValueError for -3, TypeError for 2.5, and True
    # built a one-cell grid
    with pytest.raises(ff.ParameterError, match="^n must"):
        meshgen.structured_square(count)
    for axis, name in enumerate(("nx", "ny", "nz")):
        counts = [2, 2, 2]
        counts[axis] = count
        with pytest.raises(ff.ParameterError, match=f"^{name} must"):
            meshgen.box(*counts)


@pytest.mark.parametrize("n", [3, 4])
def test_unjittered_3d_delaunay_raises_on_flat_tetrahedra(n):
    # dropping them left cracks: 204 boundary facets at n = 3 where the
    # cube has 108
    with pytest.raises(ff.GeometryError, match="flat"):
        meshgen.jittered_delaunay(3, n, jitter=0.0)


def test_nan_coordinate_rejected():
    with pytest.raises(ff.GeometryError, match="finite"):
        ff.SimplicialMesh([[0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]])


def test_unreferenced_vertex_rejected():
    with pytest.raises(ff.GeometryError, match="belong to no element"):
        ff.SimplicialMesh([[0, 0], [1, 0], [0, 1], [5, 5]], [[0, 1, 2]])


def test_mesh_arrays_are_private_and_read_only():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = ff.SimplicialMesh(vertices, elements)
    # edits to the caller's arrays do not reach the mesh
    vertices[2] = [5.0, 7.0]
    elements[1] = [3, 2, 0]
    assert mesh.vertices[2].tolist() == [1.0, 1.0]
    assert mesh.elements[1].tolist() == [0, 2, 3]
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 0.5
    with pytest.raises(ValueError):
        mesh.elements[0, 0] = 1


@pytest.mark.parametrize("dim", [2, 3])
def test_shape_gradients_match_inverse_oracle(dim):
    for seed in range(3):
        mesh = meshgen.jittered_delaunay(dim, 6 if dim == 2 else 4, seed=seed)
        ref = shape_gradients_by_inv(mesh)
        scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
        assert (np.abs(mesh.shape_gradients() - ref) / scale).max() <= 1e-13


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@pytest.mark.parametrize("dim", [2, 3])
def test_column_kernels_match_row_oracles_bitwise(dim):
    R = ff.refine_uniform
    if dim == 2:
        meshes = [R(R(meshgen.disk(16))), meshgen.jittered_delaunay(2, 12, seed=5)]
    else:
        meshes = [R(R(meshgen.ball())), meshgen.jittered_delaunay(3, 6, seed=5),
                  meshgen.box(3, 4, 5)]
    for mesh in meshes:
        dets = _edge_determinants(mesh.vertices, mesh.elements)
        expect = edge_determinants_by_rows(mesh.vertices, mesh.elements)
        assert np.array_equal(_bits(dets), _bits(expect))
        g = mesh.shape_gradients()
        assert g.shape == (mesh.num_elements, dim + 1, dim) and g.flags.c_contiguous
        assert np.array_equal(_bits(g), _bits(shape_gradients_by_rows(mesh)))


def _refinement_cases():
    R = ff.refine_uniform
    balls = [meshgen.ball()]
    for _ in range(3):
        balls.append(R(balls[-1]))
    return [
        meshgen.disk(8),
        R(meshgen.disk(8)),
        meshgen.structured_square(7),
        meshgen.jittered_delaunay(2, 10, seed=2),
        meshgen.jittered_delaunay(3, 5, seed=2),
        meshgen.box(2, 3, 4),
        *balls,
    ]


def test_refinement_orients_children_like_the_determinant_oracle():
    for mesh in _refinement_cases():
        fine = ff.refine_uniform(mesh)
        expect = refine_uniform_by_orientation(mesh)
        assert np.array_equal(fine.vertices, expect.vertices)
        assert np.array_equal(fine.elements, expect.elements)
        assert np.array_equal(_bits(fine.element_volumes), _bits(expect.element_volumes))


def test_edges_match_unique_oracle():
    R = ff.refine_uniform
    for mesh in (
        R(R(meshgen.disk(16))),
        R(R(meshgen.ball())),
        meshgen.jittered_delaunay(3, 3),
        meshgen.jittered_delaunay(2, 6),
        meshgen.structured_square(8),
    ):
        assert np.array_equal(mesh.edges(), edges_by_unique(mesh))
        # the incidence names the edge of every local edge, in _LOCAL_EDGES order
        local = np.array(_LOCAL_EDGES[mesh.dim])
        ids = mesh.element_edges()
        assert ids.dtype == np.int32 and ids.shape == (mesh.num_elements, len(local))
        pairs = np.sort(mesh.elements[:, local], axis=-1)
        assert np.array_equal(mesh.edges()[ids], pairs)


def test_mesh_hands_out_read_only_arrays():
    mesh = ff.refine_uniform(meshgen.disk(3))
    measures = ff.compute_measures(mesh)
    G = ff.gradient_matrix(mesh)
    arrays = [
        G.data,
        G.indices,
        G.indptr,
        mesh.element_volumes,
        mesh.boundary_facets,
        mesh.shape_gradients(),
        mesh.edges(),
        mesh.element_edges(),
        *mesh.vertex_neighbors(),
        *(getattr(measures, f.name) for f in dataclasses.fields(measures)),
    ]
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        measures.dual_volumes = np.ones(mesh.num_vertices)


def test_gradient_matrix_matches_the_coo_build_bitwise(kernel_mesh):
    # sorting each element's vertices, gradients alongside, gives the rows
    # that scipy's tocsr sorts
    G = ff.gradient_matrix(kernel_mesh)
    expected = gradient_matrix_by_coo(kernel_mesh)
    assert G.format == expected.format == "csr" and G.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        actual, wanted = getattr(G, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes(), name
    assert G.has_canonical_format and expected.has_canonical_format


def test_measures_and_gradient_are_built_once_per_mesh():
    mesh = meshgen.disk(5)
    measures = ff.compute_measures(mesh)
    G = ff.gradient_matrix(mesh)
    ff.fem.star_blocks(mesh)
    ff.harmonic_cross_field_2d(mesh)
    assert ff.compute_measures(mesh) is measures
    assert ff.gradient_matrix(mesh) is G
    assert G.format == "csr" and G.has_canonical_format
    assert np.array_equal(G.toarray(), gradient_dense(mesh))
    # a refined mesh builds its own and leaves the coarse ones alone
    fine = ff.refine_uniform(mesh)
    fine_measures = ff.compute_measures(fine)
    assert fine_measures is not measures
    assert fine_measures.dual_volumes.shape == (fine.num_vertices,)
    assert ff.gradient_matrix(fine) is not G
    assert ff.gradient_matrix(fine).shape == (2 * fine.num_elements, fine.num_vertices)
    assert ff.compute_measures(mesh) is measures
    assert ff.gradient_matrix(mesh) is G


def test_vertex_order_is_built_once_per_mesh_and_read_only(monkeypatch):
    import framefieldops.geometry as geometry
    import framefieldops.solve as solve

    calls = {"mesh": 0, "matrix": 0}
    rcm = geometry.reverse_cuthill_mckee

    def counting(kind):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return rcm(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(geometry, "reverse_cuthill_mckee", counting("mesh"))
    monkeypatch.setattr(solve, "reverse_cuthill_mckee", counting("matrix"))
    mesh = meshgen.disk(5)
    op = ff.assemble_operator(mesh, ff.constant_field(mesh, ff.axis_frame(2)), 0.1, "neumann")
    order = mesh.vertex_order()
    assert np.array_equal(np.sort(order), np.arange(mesh.num_vertices))
    with pytest.raises(ValueError):
        order[0] = order[1]
    # every solve on the operator uses the mesh's order, never its own RCM
    ff.eigs_generalized(op, op.vertex_mass, 4)
    ff.apply_dirichlet_partition(op, np.zeros(len(op.boundary_vertices)))
    ff.diffuse(op, np.ones(mesh.num_vertices), 1e-5)
    ff.color_by_boundary(op, np.full((len(op.boundary_vertices), 3), 0.5))
    assert mesh.vertex_order() is order
    assert calls == {"mesh": 1, "matrix": 0}
    fine = ff.refine_uniform(mesh)
    assert len(fine.vertex_order()) == fine.num_vertices
    assert calls == {"mesh": 2, "matrix": 0}


@pytest.mark.parametrize(
    "mesh",
    [
        meshgen.structured_square(6),
        meshgen.disk(5),
        ff.refine_uniform(meshgen.ball()),
        meshgen.jittered_delaunay(3, 3, seed=2),
    ],
    ids=["square6", "disk5", "ball1", "jittered3"],
)
def test_vertex_graph_is_the_canonical_symmetric_edge_graph(mesh):
    graph = mesh.vertex_graph()
    n = mesh.num_vertices
    assert graph.format == "csr" and graph.shape == (n, n)
    assert graph.has_canonical_format and np.all(graph.data == 1)
    assert abs(graph - graph.T).nnz == 0
    assert not graph.diagonal().any()
    # its upper triangle, in CSR order, is edges(); its lower one the reverse
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    upper = rows < graph.indices
    e = mesh.edges()
    assert np.array_equal(np.column_stack([rows[upper], graph.indices[upper]]), e)
    expected = np.zeros((n, n), dtype=int)
    expected[e[:, 0], e[:, 1]] = expected[e[:, 1], e[:, 0]] = 1
    assert np.array_equal(graph.toarray(), expected)
    # the 1-ring neighbors are its rows, as int64
    for v, nbrs in enumerate(mesh.vertex_neighbors()):
        assert nbrs.dtype == np.int64
        assert np.array_equal(nbrs, graph.indices[graph.indptr[v] : graph.indptr[v + 1]])
