"""Property tests of the star blocks, the boundary projection rule and the
operator invariants.

Cases are drawn over jittered Delaunay meshes in 2D and 3D, constant
odeco frames with random orientation and weights, epsilon in (0, 1], and
both boundary-condition kinds.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.fem import build_mixed_system, projected_middle_blocks

from oracles import constraint_matrix, mixed_factor, random_rotation

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def meshes(draw):
    dim = draw(st.sampled_from([2, 3]))
    n_side = draw(st.integers(3, 6) if dim == 2 else st.integers(2, 3))
    return meshgen.jittered_delaunay(dim, n_side, seed=draw(st.integers(0, 2**16)))


@st.composite
def cases(draw):
    mesh = draw(meshes())
    dim = mesh.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = ff.OdecoFrame(random_rotation(rng, dim).T, rng.uniform(0.1, 1.0, dim))
    field = ff.constant_field(mesh, frame)
    epsilon = draw(st.floats(0.0, 1.0, exclude_min=True))
    bc = draw(st.sampled_from(["natural", "neumann"]))
    return mesh, field, epsilon, bc, rng


def block_matrix(P):
    nv, m, _ = P.shape
    return sparse.bsr_matrix((P, np.arange(nv), np.arange(nv + 1)), shape=(nv * m,) * 2)


@PROPERTY_SETTINGS
@given(meshes())
def test_star_blocks_match_mixed_factor_property(mesh):
    # the closed-form sums against the sparse product D' A G, to rounding
    K = mixed_factor(mesh).toarray()
    nv = mesh.num_vertices
    rows = K.reshape(nv, -1, nv)
    neighbors = mesh.vertex_neighbors()
    for verts, blocks, _, _ in ff.fem.star_blocks(mesh).groups:
        stars = np.array([np.union1d(neighbors[v], [v]) for v in verts])
        ref = np.take_along_axis(rows[verts], stars[:, None, :], axis=2)
        assert np.abs(blocks - ref).max() <= 1e-15 * np.abs(K).max()


@PROPERTY_SETTINGS
@given(cases())
def test_operator_invariants_property(case):
    mesh, field, epsilon, bc, _ = case
    A = ff.assemble_operator(mesh, field, epsilon, bc).matrix.toarray()
    norm_a = np.abs(A).sum(axis=1).max()
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    assert np.linalg.eigvalsh(A).min() >= -1e-10 * norm_a
    ones = np.ones(mesh.num_vertices)
    assert np.linalg.norm(A @ ones) <= 1e-10 * norm_a * np.sqrt(mesh.num_vertices)
    if bc == "natural":
        for d in range(mesh.dim):
            x = mesh.vertices[:, d]
            assert np.linalg.norm(A @ x) <= 1e-8 * norm_a * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(cases())
def test_projector_property(case):
    mesh, field, epsilon, bc, rng = case
    system = build_mixed_system(mesh, field, epsilon, bc)
    P = projected_middle_blocks(system)
    scale = np.abs(P).max()
    assert abs(constraint_matrix(system) @ block_matrix(P)).max() <= 1e-10 * scale
    bv = ff.compute_measures(mesh).boundary_vertices
    if bc == "natural":
        assert np.all(P[bv] == 0.0)
        return
    # Left-multiplying each row block by an invertible r x r matrix spans
    # the same constraints, so the projector must not change.
    rows = system.constraint_rows
    nb, r, _ = rows.shape
    Q, _ = np.linalg.qr(rng.standard_normal((nb, r, r)))
    S = Q * rng.uniform(0.5, 2.0, (nb, 1, r))
    redone = projected_middle_blocks(dataclasses.replace(system, constraint_rows=S @ rows))
    assert np.abs(redone - P).max() <= 1e-10 * scale
