import os

import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.apps import (
    isoline_crossings,
    radial_ratio,
    square_wave_boundary,
)
from framefieldops.vtkio import write_polyline_obj, write_vtk

from conftest import rotation_frame_2d
from oracles import annulus_by_loops, dense_eigs


@pytest.fixture(scope="module")
def disk_op(disk_mesh):
    field = ff.constant_field(disk_mesh, ff.axis_frame(2))
    return ff.assemble_operator(disk_mesh, field, 0.1, "neumann")


@pytest.fixture(scope="module")
def disk_emb(disk_op):
    return ff.build_embedding(disk_op, 48)


def test_embedding_drops_zero_modes(disk_emb):
    assert disk_emb.n_modes == 48
    assert disk_emb.eigenvalues.min() > 0.0
    assert np.all(np.diff(disk_emb.eigenvalues) >= -1e-12)


def _natural_constant_op(mesh):
    field = ff.constant_field(mesh, ff.axis_frame(mesh.dim))
    return ff.assemble_operator(mesh, field, 0.1, "natural")


@pytest.mark.parametrize(
    "mesh, zeros, solves",
    [
        (meshgen.structured_square(12), 5, 1),  # affine + 2 corner modes
        (meshgen.box(5, 5, 5), 34, 1),  # affine + 30 lone boundary vertices
    ],
    ids=["square12", "box5"],
)
def test_nonzero_eigenpairs_match_one_large_solve(mesh, zeros, solves, eigs_requests):
    op = _natural_constant_op(mesh)
    count = 40
    eig = ff.nonzero_eigenpairs(op, count)
    assert len(eigs_requests) == solves
    assert len(eig.values) == count and eig.vectors.shape == (mesh.num_vertices, count)
    assert len(eig.residuals) == count
    ref = ff.eigs_generalized(op, op.vertex_mass, count + zeros + 10)
    zero = ff.zero_modes(op, ref.values)
    assert zero.sum() == zeros
    expected = ref.values[~zero][:count]
    assert np.abs(eig.values - expected).max() <= 1e-8 * expected.max()
    # each returned pair solves A phi = lambda M phi
    A, M = op.matrix, op.vertex_mass
    resid = A @ eig.vectors - M[:, None] * eig.vectors * eig.values
    assert np.abs(resid).max() <= 1e-7 * np.abs(A).sum(axis=1).max()


@pytest.fixture(scope="module")
def natural_box_op():
    return _natural_constant_op(meshgen.box(5, 5, 5))


@pytest.mark.parametrize("count", [1, 2, 12])
def test_nonzero_eigenpairs_grow_past_a_request_of_only_zero_modes(
    natural_box_op, count, eigs_requests
):
    # A request of count + dim + 3 pairs would hold only the box's 34
    # round-off zero modes; the one request is sized past all of them.  The
    # first nonzero mode is about 24.6.
    eig = ff.nonzero_eigenpairs(natural_box_op, count)
    assert eigs_requests == [count + 34]
    assert len(eig.values) == count
    assert eig.values.min() > 1.0
    ref = ff.eigs_generalized(natural_box_op, natural_box_op.vertex_mass, 60)
    expected = ref.values[~ff.zero_modes(natural_box_op, ref.values)][:count]
    assert np.abs(eig.values - expected).max() <= 1e-8 * expected.max()


def test_nonzero_eigenpairs_make_one_request_on_the_natural_box(
    natural_box_op, eigs_requests
):
    # 34 zero modes, of which ARPACK may return fewer than all (32 at
    # k = 35) with nonzero ones in their place; the first nonzero mode is
    # about 24.6.
    ref = ff.eigs_generalized(natural_box_op, natural_box_op.vertex_mass, 80)
    expected = ref.values[~ff.zero_modes(natural_box_op, ref.values)]
    counts = range(1, 31)
    for count in counts:
        eig = ff.nonzero_eigenpairs(natural_box_op, count)
        assert len(eig.values) == count and eig.values.min() > 1.0
        want = expected[:count]
        assert np.abs(eig.values - want).max() <= 1e-8 * want.max()
    assert eigs_requests == [count + 34 for count in counts]


def _dense_nullity(op):
    vals, _ = dense_eigs(op.matrix, op.vertex_mass, op.matrix.shape[0])
    return int(np.count_nonzero(vals <= 1e-10 * vals.max()))


_NULLITY_MESHES = {
    "square6": lambda: meshgen.structured_square(6),
    "square12": lambda: meshgen.structured_square(12),
    "disk6": lambda: meshgen.disk(6),
    "annulus": lambda: annulus_by_loops(2, 6),
    "box4": lambda: meshgen.box(4, 4, 4),
    "box5": lambda: meshgen.box(5, 5, 5),
    "ball0": meshgen.ball,
    "ball1": lambda: ff.refine_uniform(meshgen.ball()),
    "delaunay2d_seed0": lambda: meshgen.jittered_delaunay(2, 10, seed=0),
    "delaunay2d_seed1": lambda: meshgen.jittered_delaunay(2, 10, seed=1),
    "delaunay3d_seed0": lambda: meshgen.jittered_delaunay(3, 6, seed=0),
    "delaunay3d_seed2": lambda: meshgen.jittered_delaunay(3, 6, seed=2),
    "unit_square": "unit_square_mesh",
    "unit_tet": "unit_tet_mesh",
}


@pytest.mark.parametrize("bc", ["neumann", "natural"])
@pytest.mark.parametrize("name", list(_NULLITY_MESHES))
def test_nullity_equals_the_dense_nullity(name, bc, request):
    make = _NULLITY_MESHES[name]
    # the two all-boundary fixtures have no interior vertex: A = 0 (natural)
    mesh = request.getfixturevalue(make) if isinstance(make, str) else make()
    field = ff.constant_field(mesh, ff.axis_frame(mesh.dim))
    for eps in (1.0, 0.01):
        op = ff.assemble_operator(mesh, field, eps, bc)
        assert ff.nullity(op) == _dense_nullity(op), eps


def test_nonzero_eigenpairs_raise_when_the_mesh_runs_out(small_square_mesh):
    op = _natural_constant_op(small_square_mesh)
    n = op.matrix.shape[0]
    # an oversized request is the caller's input, as an oversized k is
    with pytest.raises(ff.ParameterError, match="^count: "):
        ff.nonzero_eigenpairs(op, n - 3)
    with pytest.raises(ValueError):
        ff.nonzero_eigenpairs(op, 0)


def test_embedding_on_natural_box(natural_box_op):
    op = natural_box_op
    emb = ff.build_embedding(op, 64)
    assert emb.coordinates.shape == (op.matrix.shape[0], 64)
    # the 34 zero modes sit near 1e-15; the first nonzero mode is about 24.6
    assert emb.eigenvalues.min() > 1.0


def test_embedding_makes_one_request(disk_op, eigs_requests):
    emb = ff.build_embedding(disk_op, 30)
    assert eigs_requests == [31]  # 30 nonzero modes and the constant
    assert emb.n_modes == 30


def test_distance_identity_and_symmetry(disk_mesh, disk_emb):
    d0 = ff.distance_field(disk_emb, 0)
    assert d0[0] == 0.0
    assert np.all(d0[1:] > 0.0)
    d1 = ff.distance_field(disk_emb, 17)
    assert d0[17] == d1[0]


def test_distance_triangle_inequality(disk_mesh, disk_emb):
    rng = np.random.default_rng(3)
    triples = rng.integers(0, disk_mesh.num_vertices, (1000, 3))
    coords = disk_emb.coordinates
    for a, b, c in triples:
        dab = np.linalg.norm(coords[a] - coords[b])
        dac = np.linalg.norm(coords[a] - coords[c])
        dcb = np.linalg.norm(coords[c] - coords[b])
        assert dab <= dac + dcb + 1e-12


def test_distance_monotone_in_mode_count(disk_emb):
    coords = disk_emb.coordinates[:, :20]
    d_small = np.linalg.norm(coords - coords[5], axis=1)
    d_full = ff.distance_field(disk_emb, 5)
    assert np.all(d_small <= d_full + 1e-15)


def test_biharmonic_identity_across_fields(disk_mesh):
    f1 = ff.constant_field(disk_mesh, ff.axis_frame(2))
    f2 = ff.constant_field(disk_mesh, rotation_frame_2d(0.9))
    ops = [ff.assemble_operator(disk_mesh, f, 1.0, "neumann") for f in (f1, f2)]
    assert (ops[0].matrix != ops[1].matrix).nnz == 0
    d = [ff.distance_field(ff.build_embedding(o, 48), 0) for o in ops]
    assert np.array_equal(d[0], d[1])


def test_distance_anisotropy_trend(disk_mesh):
    field = ff.constant_field(disk_mesh, ff.axis_frame(2))
    ecc = {}
    for eps in (1.0, 1e-3):
        op = ff.assemble_operator(disk_mesh, field, eps, "neumann")
        emb = ff.build_embedding(op, 48)
        d = ff.distance_field(emb, 0)
        pts = isoline_crossings(disk_mesh, d, np.quantile(d, 0.3))
        ecc[eps] = radial_ratio(pts, disk_mesh.vertices[0]) - 1.0
    assert ecc[1.0] < 0.05
    assert ecc[1e-3] > 0.15


def test_descent_paths(disk_mesh, disk_emb):
    d = ff.distance_field(disk_emb, 0)
    path = ff.trace_descent_path(disk_mesh, d, 0)
    assert path.shape == (1, 2)
    rng = np.random.default_rng(11)
    starts = rng.choice(disk_mesh.num_vertices, 40, replace=False)
    reached = 0
    for s in starts:
        path = ff.trace_descent_path(disk_mesh, d, int(s))
        # distance strictly decreases along the path
        idx = [
            int(np.argmin(np.linalg.norm(disk_mesh.vertices - p, axis=1)))
            for p in path
        ]
        assert np.all(np.diff(d[idx]) < 1e-15)
        reached += bool(np.allclose(path[-1], disk_mesh.vertices[0]))
    assert reached >= 0.95 * len(starts)


def test_descent_paths_accept_numpy_indices(disk_mesh, disk_emb):
    d = ff.distance_field(disk_emb, np.int64(0))
    assert d[0] == 0.0
    assert ff.trace_descent_path(disk_mesh, d, np.int32(0)).shape == (1, 2)


BAD_ENTRY_INPUTS = {
    "source -1": lambda mesh, emb, op, d: ff.distance_field(emb, -1),
    "source nv": lambda mesh, emb, op, d: ff.distance_field(emb, len(d)),
    "source nv + 5": lambda mesh, emb, op, d: ff.distance_field(emb, len(d) + 5),
    "source 2.0": lambda mesh, emb, op, d: ff.distance_field(emb, 2.0),
    "source True": lambda mesh, emb, op, d: ff.distance_field(emb, True),
    "start -1": lambda mesh, emb, op, d: ff.trace_descent_path(mesh, d, -1),
    "start nv + 5": lambda mesh, emb, op, d: ff.trace_descent_path(mesh, d, len(d) + 5),
    "start 0.5": lambda mesh, emb, op, d: ff.trace_descent_path(mesh, d, 0.5),
    "dist short": lambda mesh, emb, op, d: ff.trace_descent_path(mesh, d[:-1], 0),
    "dist column": lambda mesh, emb, op, d: ff.trace_descent_path(mesh, d[:, None], 0),
    "dist nan": lambda mesh, emb, op, d: ff.trace_descent_path(
        mesh, np.where(np.arange(len(d)) == 3, np.nan, d), 0
    ),
    "dist inf": lambda mesh, emb, op, d: ff.trace_descent_path(mesh, d + np.inf, 0),
    "k 3.5": lambda mesh, emb, op, d: ff.eigs_generalized(op, op.vertex_mass, 3.5),
    "k 3.0": lambda mesh, emb, op, d: ff.eigs_generalized(op, op.vertex_mass, 3.0),
    "k 0": lambda mesh, emb, op, d: ff.eigs_generalized(op, op.vertex_mass, 0),
    "k n": lambda mesh, emb, op, d: ff.eigs_generalized(op, op.vertex_mass, len(d)),
    "mass nan": lambda mesh, emb, op, d: ff.eigs_generalized(
        op, np.where(np.arange(len(d)) == 3, np.nan, op.vertex_mass), 4
    ),
    "mass zero": lambda mesh, emb, op, d: ff.eigs_generalized(
        op, np.where(np.arange(len(d)) == 3, 0.0, op.vertex_mass), 4
    ),
    "b short": lambda mesh, emb, op, d: ff.solve_spd(op, d[:-1]),
    "b nan": lambda mesh, emb, op, d: ff.solve_spd(
        op, np.where(np.arange(len(d)) == 3, np.nan, d)
    ),
    "b text": lambda mesh, emb, op, d: ff.solve_spd(op, "abc"),
    "b ragged": lambda mesh, emb, op, d: ff.solve_spd(op, [[1.0, 2.0], [3.0]]),
    "pinned nv": lambda mesh, emb, op, d: ff.solve_pinned(op, [0, len(d)], [0.0, 1.0]),
    "pinned -1": lambda mesh, emb, op, d: ff.solve_pinned(op, [0, -1], [0.0, 1.0]),
    "pinned repeated": lambda mesh, emb, op, d: ff.solve_pinned(
        op, [0, 0, 4], [1.0, 2.0, 3.0]
    ),
    "values short": lambda mesh, emb, op, d: ff.solve_pinned(op, [0, 4], [1.0]),
    "values nan": lambda mesh, emb, op, d: ff.solve_pinned(op, [0, 4], [1.0, np.nan]),
    "values ragged": lambda mesh, emb, op, d: ff.solve_pinned(op, [0, 4], [[1.0, 2.0], [3.0]]),
    "fixed values ragged": lambda mesh, emb, op, d: ff.solve_box_qp(
        op, [0, 4], [[0.5, 0.5], [0.5]], np.zeros(len(d)), np.ones(len(d))
    ),
    "fixed nv": lambda mesh, emb, op, d: ff.solve_box_qp(
        op, [len(d)], [0.5], np.zeros(len(d)), np.ones(len(d))
    ),
    "fixed repeated": lambda mesh, emb, op, d: ff.solve_box_qp(
        op, [0, 0], [0.5, 0.25], np.zeros(len(d)), np.ones(len(d))
    ),
    "bound inf": lambda mesh, emb, op, d: ff.solve_box_qp(
        op, [0], [0.5], np.zeros(len(d)), np.full(len(d), np.inf)
    ),
    "bound nan": lambda mesh, emb, op, d: ff.solve_box_qp(
        op, [0], [0.5], np.where(np.arange(len(d)) == 3, np.nan, 0.0), np.ones(len(d))
    ),
    "bounds short": lambda mesh, emb, op, d: ff.solve_box_qp(
        op, [0], [0.5], np.zeros(len(d) - 1), np.ones(len(d) - 1)
    ),
    "tau inf": lambda mesh, emb, op, d: ff.diffuse(op, d, np.inf),
    # these five escaped as the builtin TypeError or numpy's ValueError
    "tau None": lambda mesh, emb, op, d: ff.diffuse(op, d, None),
    "tau array": lambda mesh, emb, op, d: ff.diffuse(op, d, np.full(2, 1e-5)),
    "epsilon text": lambda mesh, emb, op, d: ff.assemble_operator(
        mesh, ff.constant_field(mesh, ff.axis_frame(2)), "abc", "neumann"
    ),
    "epsilon array": lambda mesh, emb, op, d: ff.assemble_operator(
        mesh, ff.constant_field(mesh, ff.axis_frame(2)), np.full(2, 0.1), "neumann"
    ),
    "spectrum epsilon None": lambda mesh, emb, op, d: ff.square_spectrum(None, 3),
    "u0 nan": lambda mesh, emb, op, d: ff.diffuse(
        op, np.where(np.arange(len(d)) == 3, np.nan, d), 0.1
    ),
    "color nan": lambda mesh, emb, op, d: ff.color_by_boundary(
        op, np.full((len(op.boundary_vertices), 3), np.nan)
    ),
    "color text": lambda mesh, emb, op, d: ff.color_by_boundary(op, "abc"),
    "dirichlet inf": lambda mesh, emb, op, d: ff.apply_dirichlet_partition(
        op, np.full(len(op.boundary_vertices), np.inf)
    ),
    "coarse values nan": lambda mesh, emb, op, d: ff.prolong_linear(
        mesh, np.where(np.arange(len(d)) == 3, np.nan, d)
    ),
    "coarse values ragged": lambda mesh, emb, op, d: ff.prolong_linear(
        mesh, [[0.0, 1.0], [2.0]] + [[0.0, 0.0]] * (len(d) - 2)
    ),
    # both used to escape before the file was opened, as numpy's ValueError
    # from padding and as an IndexError
    "polyline 4 columns": lambda mesh, emb, op, d: write_polyline_obj(
        os.devnull, [np.zeros((3, 4))]
    ),
    "polyline bare array": lambda mesh, emb, op, d: write_polyline_obj(
        os.devnull, mesh.vertices[:3]
    ),
    "polyline ragged": lambda mesh, emb, op, d: write_polyline_obj(
        os.devnull, [[[0.0, 0.0], [1.0]]]
    ),
    "vtk field text": lambda mesh, emb, op, d: write_vtk(os.devnull, mesh, {"f": "abc"}),
}


@pytest.mark.parametrize("case", list(BAD_ENTRY_INPUTS))
def test_bad_entry_input_raises_parameter_error(case, disk_mesh, disk_emb, disk_op):
    d = ff.distance_field(disk_emb, 0)
    with pytest.raises(ff.ParameterError):
        BAD_ENTRY_INPUTS[case](disk_mesh, disk_emb, disk_op, d)


# Bad field, mesh and count arguments, each with the error it must raise
# where it enters (and no warning first: the suite turns warnings into errors).
BAD_BUILDER_INPUTS = {
    "frame nan component": (
        ff.FieldError, lambda op: ff.OdecoFrame([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])
    ),
    "frame nan weight": (
        ff.FieldError, lambda op: ff.OdecoFrame(np.eye(2), [1.0, np.nan])
    ),
    "mesh index 0.5": (
        ff.GeometryError,
        lambda op: ff.SimplicialMesh([[0, 0], [1, 0], [0, 1]], [[0.5, 1, 2]]),
    ),
    "mesh vertices ragged": (
        ff.GeometryError,
        lambda op: ff.SimplicialMesh([[0, 0], [1, 0], [0]], [[0, 1, 2]]),
    ),
    "helical axis nan": (
        ff.FieldError,
        lambda op: ff.helical_field_3d(meshgen.ball(), [0.0, np.nan, 1.0], 1.0),
    ),
    "helical pitch inf": (
        ff.FieldError,
        lambda op: ff.helical_field_3d(meshgen.ball(), [0.0, 0.0, 1.0], np.inf),
    ),
    "jittered dim 4": (ff.ParameterError, lambda op: meshgen.jittered_delaunay(4, 2)),
    "spectrum count 2.5": (ff.ParameterError, lambda op: ff.square_spectrum(0.1, 2.5)),
    "spectrum count True": (ff.ParameterError, lambda op: ff.square_spectrum(0.1, True)),
    "eigenpairs count True": (ff.ParameterError, lambda op: ff.nonzero_eigenpairs(op, True)),
    "eigenpairs count 2.5": (ff.ParameterError, lambda op: ff.nonzero_eigenpairs(op, 2.5)),
}


@pytest.mark.parametrize("case", list(BAD_BUILDER_INPUTS))
def test_bad_builder_input_raises_its_named_error(case, disk_op):
    error, build = BAD_BUILDER_INPUTS[case]
    with pytest.raises(error) as info:
        build(disk_op)
    if "count" in case:
        assert str(info.value).startswith("count must be an integer")
    if "axis" in case:
        assert str(info.value).startswith("axis")


def test_color_by_boundary(disk_mesh, disk_measures, disk_harmonic_field):
    bv = disk_measures.boundary_vertices
    angle = np.arctan2(*disk_mesh.vertices[bv, ::-1].T)
    colors = 0.5 + 0.5 * np.column_stack(
        [np.cos(angle), np.sin(angle), np.cos(2 * angle)]
    )
    op_h = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.01, "natural")
    col_h = ff.color_by_boundary(op_h, colors)
    for c in range(3):
        assert col_h[:, c].min() >= colors[:, c].min() - 1e-12
        assert col_h[:, c].max() <= colors[:, c].max() + 1e-12
    # boundary values are reproduced exactly
    assert np.abs(col_h[bv] - colors).max() == 0.0
    # a different field produces a different coloring
    op_c = ff.assemble_operator(
        disk_mesh, ff.constant_field(disk_mesh, ff.axis_frame(2)), 0.01, "natural"
    )
    col_c = ff.color_by_boundary(op_c, colors)
    assert np.linalg.norm(col_h - col_c) > 1e-3
    # constant boundary color fills the domain
    flat = ff.color_by_boundary(op_h, np.full((len(bv), 3), 0.25))
    assert np.abs(flat - 0.25).max() < 1e-10
    # regression probes frozen from the first verified run (disk(8),
    # harmonic field, eps=0.01)
    expected = np.array(
        [
            [0.5, 0.5, 0.51355639],
            [0.40625, 0.66237976, 0.42057676],
            [0.40343219, 0.79720516, 0.2701178],
        ]
    )
    assert np.abs(col_h[[0, 25, 70]] - expected).max() < 1e-6


def test_color_validation(disk_mesh, disk_harmonic_field, disk_measures):
    op = ff.assemble_operator(disk_mesh, disk_harmonic_field, 0.01, "natural")
    nb = len(disk_measures.boundary_vertices)
    with pytest.raises(ValueError):
        ff.color_by_boundary(op, np.full((nb, 3), 1.4))
    with pytest.raises(ValueError):
        ff.color_by_boundary(op, np.zeros((nb - 1, 3)))


def test_isoline_tools(unit_square_mesh):
    mesh = meshgen.structured_square(10)
    r = np.linalg.norm(mesh.vertices, axis=1)
    pts = isoline_crossings(mesh, r, 0.5)
    assert len(pts) > 0
    radii = np.linalg.norm(pts, axis=1)
    assert np.abs(radii - 0.5).max() < 0.05
    assert radial_ratio(pts, [0.0, 0.0]) < 1.1
    with pytest.raises(ff.ParameterError, match="no isoline points"):
        radial_ratio(pts[:0], [0.0, 0.0])


def test_isoline_crossings_entry_checks():
    mesh = meshgen.disk(4)
    with pytest.raises(ff.ParameterError, match="isoline values"):
        isoline_crossings(mesh, np.ones(5), 0.5)
    with pytest.raises(ff.ParameterError, match="isoline values"):
        isoline_crossings(mesh, np.full(mesh.num_vertices, np.nan), 0.5)
    with pytest.raises(ff.ParameterError, match="isoline values"):
        isoline_crossings(mesh, "values", 0.5)
    with pytest.raises(ff.ParameterError, match="isoline level"):
        isoline_crossings(mesh, np.zeros(mesh.num_vertices), np.nan)


def test_radial_ratio_entry_checks():
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ff.ParameterError, match="on the center"):
        radial_ratio(np.vstack([pts, [[0.0, 0.0]]]), [0.0, 0.0])
    with pytest.raises(ff.ParameterError, match="isoline points"):
        radial_ratio(np.vstack([pts, [[np.nan, 0.0]]]), [0.0, 0.0])
    with pytest.raises(ff.ParameterError, match="isoline center"):
        radial_ratio(pts, [0.0, np.nan])
    with pytest.raises(ff.ParameterError, match="isoline center"):
        radial_ratio(pts, [0.0, 0.0, 0.0])
    assert radial_ratio(pts, [0.0, 0.0]) == 2.0


def test_square_wave_boundary_consistent_across_levels(disk_mesh):
    meas = ff.compute_measures(disk_mesh)
    w0 = square_wave_boundary(disk_mesh, meas, periods=4)
    assert set(np.unique(w0)) <= {-1.0, 1.0}
    fine = ff.refine_uniform(disk_mesh)
    mf = ff.compute_measures(fine)
    w1 = square_wave_boundary(fine, mf, periods=4)
    # values at shared boundary vertices agree between levels
    shared = [v for v in meas.boundary_vertices if v in set(mf.boundary_vertices)]
    lookup = {v: w1[i] for i, v in enumerate(mf.boundary_vertices)}
    for i, v in enumerate(meas.boundary_vertices):
        assert lookup[v] == w0[i]


@pytest.mark.parametrize("rings", [3, 6])
def test_square_wave_boundary_refuses_another_meshs_measures(rings):
    # disk(3)'s measures gave 18 values for disk(4)'s 24 boundary vertices,
    # and disk(6)'s an IndexError
    mesh = meshgen.disk(4)
    assert len(square_wave_boundary(mesh, ff.compute_measures(mesh))) == 24
    with pytest.raises(ff.ParameterError, match="compute_measures"):
        square_wave_boundary(mesh, ff.compute_measures(meshgen.disk(rings)))
