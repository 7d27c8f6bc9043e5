import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.framefield import (
    _locate_barycentric,
    components_to_angles,
    components_to_quaternions,
    match_quaternion,
    octahedral_rotations,
    quaternions_to_components,
)

from conftest import rotation_frame_2d
from oracles import (
    conformal_jacobian,
    fingerprint_sequential,
    locate_by_fresh_tree,
    random_rotation,
)


def cross_rep(field):
    theta = components_to_angles(field.components)
    return np.column_stack([np.cos(4 * theta), np.sin(4 * theta)])


def element_rep_magnitude(field):
    # mean of the 4-fold vectors over each triangle: small where the field winds
    rep = cross_rep(field)
    return np.linalg.norm(rep[field.mesh.elements].mean(axis=1), axis=1)


def test_constant_field(unit_square_mesh):
    field = ff.constant_field(unit_square_mesh, ff.axis_frame(2))
    assert field.kind == "octahedral"
    assert np.abs(field.forms() - np.diag([1.0, 1.0, 0.0])).max() == 0.0
    with pytest.raises(ff.FieldError):
        ff.constant_field(unit_square_mesh, ff.axis_frame(3))


def test_kind_classification(disk_mesh):
    nv = disk_mesh.num_vertices
    comps = np.broadcast_to(np.eye(2), (nv, 2, 2)).copy()
    f = ff.FrameField(disk_mesh, comps, np.full((nv, 2), 0.5))
    assert f.kind == "conformal_octahedral"
    w = np.column_stack([np.ones(nv), np.full(nv, 0.3)])
    assert ff.FrameField(disk_mesh, comps, w).kind == "odeco"
    assert np.allclose(ff.FrameField(disk_mesh, comps, w).norms, 1.0)
    with pytest.raises(ff.FieldError):
        ff.FrameField(disk_mesh, comps, -np.ones((nv, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["components", "weights"])
def test_frame_field_rejects_non_finite_input(disk_mesh, where, bad):
    nv = disk_mesh.num_vertices
    arrays = {
        "components": np.broadcast_to(np.eye(2), (nv, 2, 2)).copy(),
        "weights": np.ones((nv, 2)),
    }
    arrays[where][(nv // 2, 1, 0)[: arrays[where].ndim]] = bad
    with pytest.raises(ff.FieldError, match=f"{where} must be finite"):
        ff.FrameField(disk_mesh, arrays["components"], arrays["weights"])


def test_harmonic_disk_singularity(disk_mesh, disk_harmonic_field, disk_measures):
    field = disk_harmonic_field
    # one +1-index singular region: the 4-fold vector winds 4 times around the
    # boundary, so its harmonic extension vanishes near the center only
    low = np.flatnonzero(field.rep_magnitude < 0.3)
    assert len(low) > 0
    assert np.linalg.norm(disk_mesh.vertices[low], axis=1).max() < 0.75
    # degree argument: the representation vector winds 4 times around a loop
    # enclosing the region, i.e. total cross index +1
    r = np.linalg.norm(disk_mesh.vertices, axis=1)
    ring = np.flatnonzero(np.abs(r - 0.5) < 1e-9)
    ring = ring[np.argsort(np.arctan2(*disk_mesh.vertices[ring, ::-1].T))]
    rep = cross_rep(field)[ring]
    ang = np.arctan2(rep[:, 1], rep[:, 0])
    steps = np.diff(np.r_[ang, ang[0]])
    winding = np.sum((steps + np.pi) % (2 * np.pi) - np.pi) / (2 * np.pi)
    assert round(winding) == 4
    res, ok = ff.check_boundary_alignment(field, disk_measures, 1e-6)
    assert ok.all()


def test_harmonic_square_is_constant(small_square_mesh):
    field = ff.harmonic_cross_field_2d(small_square_mesh)
    rep = cross_rep(field)
    assert np.abs(rep - [1.0, 0.0]).max() < 1e-8


def test_harmonic_annulus_aligned():
    mesh = meshgen.annulus(3, 7)
    meas = ff.compute_measures(mesh)
    field = ff.harmonic_cross_field_2d(mesh)
    res, ok = ff.check_boundary_alignment(field, meas, 1e-6)
    assert ok.all()


def test_harmonic_rotation_invariance(disk_mesh, disk_harmonic_field):
    beta = 0.7
    R = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    rotated = ff.SimplicialMesh(disk_mesh.vertices @ R.T, disk_mesh.elements)
    f_rot = ff.harmonic_cross_field_2d(rotated)
    R4 = np.array(
        [[np.cos(4 * beta), -np.sin(4 * beta)], [np.sin(4 * beta), np.cos(4 * beta)]]
    )
    diff = cross_rep(f_rot) - cross_rep(disk_harmonic_field) @ R4.T
    mask = np.ones(disk_mesh.num_vertices, bool)
    mask[disk_harmonic_field.singular_vertices] = False
    mask[f_rot.singular_vertices] = False
    assert np.abs(diff[mask]).max() < 1e-8


def test_helical_field():
    mesh = meshgen.box(2, 2, 4, hi=(1.0, 1.0, 2.0))
    hel = ff.helical_field_3d(mesh, [0, 0, 1], np.pi / 4.0)
    assert hel.kind == "octahedral"
    # axis is a component of every frame
    dots = np.abs(hel.components @ np.array([0.0, 0.0, 1.0]))
    assert np.allclose(np.max(dots, axis=1), 1.0, atol=1e-12)
    # quarter twist over height 2: frames repeat by cross symmetry
    z0 = np.flatnonzero(np.abs(mesh.vertices[:, 2]) < 1e-12)
    z2 = np.flatnonzero(np.abs(mesh.vertices[:, 2] - 2.0) < 1e-12)
    key = lambda idx: sorted(idx, key=lambda v: tuple(np.round(mesh.vertices[v, :2], 9)))
    pairs = zip(key(z0), key(z2))
    Q = hel.forms()
    for a, b in pairs:
        assert np.abs(Q[a] - Q[b]).max() < 1e-12
    # the check above cannot see a missing twist: a quarter turn maps a cross
    # onto itself.  At z = 1 the frames are an eighth turn (pi/4 about z) from
    # the axis frame; +pi/4 and -pi/4 give the same cross, so this holds for
    # either sense of the twist
    z1 = np.flatnonzero(np.abs(mesh.vertices[:, 2] - 1.0) < 1e-12)
    assert len(z1)
    c = s = np.sqrt(0.5)
    turned = ff.OdecoFrame(np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]),
                           np.ones(3))
    Q_turned = ff.constant_field(mesh, turned).forms()
    Q_axis = ff.constant_field(mesh, ff.axis_frame(3)).forms()
    assert np.abs(Q[z1] - Q_turned[z1]).max() < 1e-12
    assert np.abs(Q[z1] - Q_axis[z1]).max() > 0.5
    # pitch zero reduces to the constant axis field
    flat = ff.helical_field_3d(mesh, [0, 0, 1], 0.0)
    const = ff.constant_field(mesh, ff.axis_frame(3))
    assert np.abs(flat.forms() - const.forms()).max() < 1e-15
    with pytest.raises(ff.FieldError):
        ff.helical_field_3d(mesh, [0, 0, 0], 1.0)
    with pytest.raises(ff.FieldError, match="3 components"):
        ff.helical_field_3d(mesh, [0, 1], 1.0)
    with pytest.raises(ff.FieldError):
        ff.helical_field_3d(meshgen.disk(2), [0, 0, 1], 0.0)


def test_map_coframe_identity_scale_rotation(small_square_mesh):
    mesh = small_square_mesh
    nv = mesh.num_vertices
    ident = np.broadcast_to(np.eye(2), (nv, 2, 2)).copy()
    f_id = ff.map_coframe_field(mesh, ident)
    assert f_id.kind == "octahedral"
    const = ff.constant_field(mesh, ff.axis_frame(2))
    assert np.abs(f_id.forms() - const.forms()).max() == 0.0

    s = 1.7
    f_sc = ff.map_coframe_field(mesh, ident / s)
    assert f_sc.kind == "conformal_octahedral"
    assert np.allclose(f_sc.weights, s**-4)

    R = random_rotation(np.random.default_rng(0), 2)
    f_rot = ff.map_coframe_field(mesh, np.broadcast_to(R.T, (nv, 2, 2)).copy())
    assert f_rot.kind == "octahedral"
    assert np.allclose(f_rot.weights, 1.0)


def test_map_coframe_errors(small_square_mesh):
    nv = small_square_mesh.num_vertices
    singular = np.zeros((nv, 2, 2))
    with pytest.raises(ff.FieldError):
        ff.map_coframe_field(small_square_mesh, singular)
    shear = np.broadcast_to(np.array([[1.0, 0.4], [0.0, 1.0]]), (nv, 2, 2)).copy()
    with pytest.raises(ff.FieldError):
        ff.map_coframe_field(small_square_mesh, shear)
    # NaN passes the determinant and orthogonality tests
    nan = np.broadcast_to(np.eye(2), (nv, 2, 2)).copy()
    nan[3, 0, 0] = np.nan
    with pytest.raises(ff.FieldError):
        ff.map_coframe_field(small_square_mesh, nan)
    aniso = np.broadcast_to(np.diag([1.0, 2.0]), (nv, 2, 2)).copy()
    # orthogonal but anisotropic scaling is a valid odeco field
    assert ff.map_coframe_field(small_square_mesh, aniso).kind == "odeco"


def test_coframe_norm_product():
    # |coframe tensor| * |frame tensor| = 1 for conformal maps
    from framefieldops.analytic import conformal_warp

    mesh = meshgen.structured_square(8)
    warp = conformal_warp("polynomial", c=0.08)
    warped = ff.SimplicialMesh(warp.apply(mesh.vertices), mesh.elements)
    field = ff.map_coframe_field(warped, warp.inverse_jacobian(mesh.vertices))
    J = conformal_jacobian(warp, mesh.vertices)
    forward_norm = np.linalg.norm(J[:, 0, :], axis=1) ** 4  # rows of df
    assert np.abs(field.norms * forward_norm - 1.0).max() < 1e-8


def test_boundary_alignment_square_corners(small_square_mesh):
    meas = ff.compute_measures(small_square_mesh)
    field = ff.constant_field(small_square_mesh, ff.axis_frame(2))
    res, ok = ff.check_boundary_alignment(field, meas, 1e-6)
    pos = small_square_mesh.vertices[meas.boundary_vertices]
    corner = np.all(np.abs(np.abs(pos) - 1.0) < 1e-12, axis=1)
    assert res[corner].min() > 0.1
    assert res[~corner].max() < 1e-12


def test_resample_constant_and_identity(disk_mesh, disk_harmonic_field):
    fine = ff.refine_uniform(disk_mesh)
    frame = rotation_frame_2d(0.3)
    f_fine = ff.constant_field(fine, frame)
    back = ff.resample_field(f_fine, disk_mesh)
    expect = ff.constant_field(disk_mesh, frame)
    assert np.abs(back.forms() - expect.forms()).max() < 1e-12
    same = ff.resample_field(disk_harmonic_field, disk_mesh)
    assert np.abs(same.forms() - disk_harmonic_field.forms()).max() < 1e-10


def test_resample_disk_singularity_location(disk_mesh):
    fine = ff.refine_uniform(disk_mesh)
    f_fine = ff.harmonic_cross_field_2d(fine)
    coarse = ff.resample_field(f_fine, disk_mesh)
    cf = fine.vertices[fine.elements].mean(axis=1)
    cc = disk_mesh.vertices[disk_mesh.elements].mean(axis=1)
    sing_f = cf[element_rep_magnitude(f_fine) < 0.5]
    sing_c = cc[element_rep_magnitude(coarse) < 0.5]
    assert len(sing_f) and len(sing_c)
    d = np.linalg.norm(sing_c[:, None, :] - sing_f[None, :, :], axis=2).min(axis=1)
    assert d.max() <= ff.mean_edge_length(disk_mesh)


def test_resample_3d(small_ball_mesh):
    fine = ff.refine_uniform(small_ball_mesh)
    frame = ff.OdecoFrame(random_rotation(np.random.default_rng(1), 3).T, np.ones(3))
    f_fine = ff.constant_field(fine, frame)
    back = ff.resample_field(f_fine, small_ball_mesh)
    assert back.kind == "octahedral"
    expect = ff.constant_field(small_ball_mesh, frame)
    assert np.abs(back.forms() - expect.forms()).max() < 1e-10


def test_octahedral_matching():
    rots = octahedral_rotations()
    assert len(rots) == 24
    rng = np.random.default_rng(2)
    for _ in range(20):
        R = random_rotation(rng, 3)
        q = components_to_quaternions(R.T[None])[0][[1, 2, 3, 0]]
        # any symmetry image matches back to the original frame
        g = rots[rng.integers(24)]
        from scipy.spatial.transform import Rotation

        q_img = (Rotation.from_quat(q) * g).as_quat()
        matched = match_quaternion(q, q_img)
        assert min(np.linalg.norm(matched - q), np.linalg.norm(matched + q)) < 1e-12


def test_quaternion_component_roundtrip():
    rng = np.random.default_rng(3)
    comps = np.stack([random_rotation(rng, 3).T for _ in range(10)])
    q = components_to_quaternions(comps)
    back = quaternions_to_components(q)
    gram = np.einsum("vad,vbd->vab", back, comps)
    # same frame: gram rows/cols are signed permutations; forms must agree
    w = np.ones((10, 3))
    assert np.abs(ff.odeco_form(back, w) - ff.odeco_form(comps, w)).max() < 1e-12


def test_field_io_roundtrip(tmp_path, disk_harmonic_field, small_ball_mesh):
    hel = ff.helical_field_3d(small_ball_mesh, [0.3, -0.2, 0.9], 0.6)
    for field in (disk_harmonic_field, hel):
        path = tmp_path / "field.csv"
        ff.save_field(field, path)
        back = ff.load_field(field.mesh, path)
        assert np.abs(back.forms() - field.forms()).max() < 1e-12
        assert np.abs(back.weights - field.weights).max() < 1e-15
    with pytest.raises(ff.FieldError):
        ff.load_field(ff.refine_uniform(small_ball_mesh), path)


def test_fingerprint_changes_with_field(disk_mesh):
    f1 = ff.constant_field(disk_mesh, ff.axis_frame(2))
    f2 = ff.constant_field(disk_mesh, rotation_frame_2d(0.2))
    assert f1.fingerprint() != f2.fingerprint()
    assert f1.fingerprint() == ff.constant_field(disk_mesh, ff.axis_frame(2)).fingerprint()


def test_fingerprint_changes_with_mesh():
    square = meshgen.structured_square(4)
    stretched = ff.SimplicialMesh(square.vertices * [2.0, 1.0], square.elements)
    ops = [
        ff.assemble_operator(m, ff.constant_field(m, ff.axis_frame(2)), 0.5, "neumann")
        for m in (square, stretched)
    ]
    assert abs(ops[0].matrix - ops[1].matrix).max() > 1.0
    assert ops[0].fingerprint != ops[1].fingerprint


def test_fingerprint_matches_sequential_hash(disk_mesh, disk_harmonic_field, small_ball_mesh):
    # two fields per mesh, each hashed twice: the cached mesh state must be
    # extended by copy, never in place
    fields = [
        disk_harmonic_field,
        ff.constant_field(disk_mesh, rotation_frame_2d(0.7, (1.0, 0.2))),
        ff.helical_field_3d(small_ball_mesh, [0.3, -0.2, 0.9], 0.6),
        ff.constant_field(small_ball_mesh, ff.axis_frame(3)),
    ]
    for field in fields + fields:
        assert field.fingerprint() == fingerprint_sequential(field)


def test_locate_with_cached_tree_matches_fresh_tree(disk_mesh, small_ball_mesh):
    rng = np.random.default_rng(7)
    for coarse in (disk_mesh, small_ball_mesh):
        fine = ff.refine_uniform(coarse)
        finer = ff.refine_uniform(fine)
        lo, hi = coarse.vertices.min(axis=0), coarse.vertices.max(axis=0)
        points = np.vstack(
            [coarse.vertices, rng.uniform(lo - 0.1, hi + 0.1, (100, coarse.dim))]
        )
        for mesh in (fine, finer, fine):
            elems, barys = _locate_barycentric(points, mesh)
            ref_elems, ref_barys = locate_by_fresh_tree(points, mesh)
            assert np.array_equal(elems, ref_elems)
            assert np.array_equal(barys, ref_barys)
