import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.symtensor import _SQRT2, mandel_size, sym_to_mandel

from conftest import refined
from oracles import (
    full_symmetry_violation,
    mandel_to_sym,
    odeco_form_by_einsum,
    random_octahedral_frame,
    random_rotation,
    random_symmetric,
    spectral_norm,
)


@pytest.mark.parametrize("dim", [2, 3])
def test_mandel_roundtrip_and_frobenius(dim):
    rng = np.random.default_rng(0)
    A = random_symmetric(rng, dim)
    B = random_symmetric(rng, dim)
    assert np.abs(mandel_to_sym(sym_to_mandel(A)) - A).max() < 1e-12
    assert abs(sym_to_mandel(A) @ sym_to_mandel(B) - np.sum(A * B)) < 1e-12


def form_of(frame):
    return ff.odeco_form(frame.components, frame.weights)


def test_axis_aligned_odeco_form():
    Q = ff.odeco_form(np.eye(2), np.ones(2))
    assert np.abs(Q - np.diag([1.0, 1.0, 0.0])).max() == 0.0
    assert full_symmetry_violation(Q) == 0.0


def test_zero_weights_give_zero_form():
    assert np.abs(ff.odeco_form(np.eye(3), np.zeros(3))).max() == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_generalized_eigenpair_property(dim):
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.uniform(0.0, 2.0, dim)
        frame = ff.OdecoFrame(random_rotation(rng, dim).T, w)
        T = form_of(frame)
        for a in range(dim):
            v = sym_to_mandel(np.outer(frame.components[a], frame.components[a]))
            assert np.abs(T @ v - w[a] * v).max() < 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_form_fixes_the_identity(dim):
    rng = np.random.default_rng(2)
    T = form_of(random_octahedral_frame(rng, dim))
    identity = sym_to_mandel(np.eye(dim))
    assert np.abs(T @ identity - identity).max() < 1e-12


def test_principal_symbol_dim_mismatch():
    T = ff.odeco_form(np.eye(2), np.ones(2))
    with pytest.raises(ff.ParameterError):
        ff.principal_symbol(T, np.ones(3))


def test_spectral_norm_closed_form():
    rng = np.random.default_rng(3)
    assert spectral_norm(random_octahedral_frame(rng, 3)) == 1.0
    frame = ff.OdecoFrame(np.eye(2), np.array([0.3, 0.7]))
    assert spectral_norm(frame) == 0.7
    zero = ff.OdecoFrame(np.eye(2), np.zeros(2))
    assert spectral_norm(zero) == 0.0
    with pytest.raises(ff.FieldError):
        spectral_norm(form_of(frame))


def test_modify_epsilon_values():
    T = ff.odeco_form(np.eye(2), np.ones(2))
    assert np.abs(ff.modify_epsilon(T, 1.0, 1.0) - np.eye(3)).max() == 0.0
    eps = 0.37
    Te = ff.modify_epsilon(T, 1.0, eps)
    assert np.abs(Te - np.diag([eps, eps, 1.0])).max() < 1e-15
    assert full_symmetry_violation(Te) > 0.1
    assert np.abs(ff.modify_epsilon(np.zeros((3, 3)), 0.0, 0.5)).max() == 0.0
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError):
            ff.modify_epsilon(T, 1.0, bad)
    with pytest.raises(ValueError):
        ff.modify_epsilon(T, -1.0, 0.5)


def test_principal_symbol_axis_aligned():
    eps = 0.2
    Te = ff.modify_epsilon(ff.odeco_form(np.eye(2), np.ones(2)), 1.0, eps)
    assert abs(ff.principal_symbol(Te, [1.0, 0.0]) - eps) < 1e-14
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(ff.principal_symbol(Te, diag) - (1.0 + eps) / 2.0) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_ellipticity_lower_bound(dim):
    # sigma_P >= eps * |T| * |zeta|^4 over random conformal octahedral fields
    rng = np.random.default_rng(5)
    for _ in range(1000):
        w = rng.uniform(0.05, 3.0)
        frame = random_octahedral_frame(rng, dim, weight=w)
        eps = rng.uniform(1e-4, 1.0)
        Te = ff.modify_epsilon(form_of(frame), w, eps)
        zeta = rng.standard_normal(dim)
        zeta /= np.linalg.norm(zeta)
        assert ff.principal_symbol(Te, zeta) >= eps * w * (1.0 - 1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_alignment_lemma(dim):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        frame = random_octahedral_frame(rng, dim)
        T = form_of(frame)
        S = random_symmetric(rng, dim)
        v = sym_to_mandel(S)
        assert v @ T @ v <= np.sum(S * S) * (1.0 + 1e-10)
    # equality when S shares the frame's eigenvectors
    for _ in range(100):
        frame = random_octahedral_frame(rng, dim)
        T = form_of(frame)
        lam = rng.standard_normal(dim)
        v = sym_to_mandel(frame.components.T @ np.diag(lam) @ frame.components)
        assert abs(v @ T @ v - np.sum(lam**2)) < 1e-10


def test_alignment_degenerate_direction_is_zero():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        frame = random_octahedral_frame(rng, dim)
        T = form_of(frame)
        x1, x2 = frame.components[0], frame.components[1]
        v = sym_to_mandel(np.outer(x1, x2) + np.outer(x2, x1))
        assert abs(v @ T @ v) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_full_symmetry_constraints(dim):
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = rng.uniform(0.0, 2.0, dim)
        T = ff.odeco_form(random_rotation(rng, dim).T, w)
        assert full_symmetry_violation(T) < 1e-12
    assert full_symmetry_violation(np.eye(mandel_size(dim))) > 0.1


@pytest.mark.parametrize("dim", [2, 3])
def test_epsilon_form_block_eigenvalues(dim):
    # spectrum of Q_eps: w*eps on the frame directions, w on the complement
    rng = np.random.default_rng(9)
    m = mandel_size(dim)
    for eps in (1.0, 0.5, 0.01):
        w = rng.uniform(0.2, 2.0)
        frame = random_octahedral_frame(rng, dim, weight=w)
        Te = ff.modify_epsilon(form_of(frame), w, eps)
        vals = np.sort(np.linalg.eigvalsh(Te))
        expected = np.sort(np.r_[np.full(dim, w * eps), np.full(m - dim, w)])
        assert np.abs(vals - expected).max() < 1e-10
        assert vals.min() > -1e-12


def test_batch_helpers_match_single():
    # every form function broadcasts: a (2, 7) stack matches 14 single calls
    rng = np.random.default_rng(10)
    comps = np.stack([random_rotation(rng, 3).T for _ in range(14)]).reshape(2, 7, 3, 3)
    weights = rng.uniform(0.0, 2.0, (2, 7, 3))
    norms = weights.max(axis=-1)
    zeta = rng.standard_normal((2, 7, 3))
    batch = ff.odeco_form(comps, weights)
    eps_batch = ff.modify_epsilon(batch, norms, 0.3)
    assert batch.shape == eps_batch.shape == (2, 7, 6, 6)
    stacked = {
        "symbol": ff.principal_symbol(eps_batch, zeta),
        "violation": full_symmetry_violation(batch),
    }
    for i, v in np.ndindex(2, 7):
        single = ff.odeco_form(comps[i, v], weights[i, v])
        assert np.abs(batch[i, v] - single).max() < 1e-12
        single_eps = ff.modify_epsilon(single, norms[i, v], 0.3)
        assert np.abs(eps_batch[i, v] - single_eps).max() < 1e-12
        for name, value in (
            ("symbol", ff.principal_symbol(single_eps, zeta[i, v])),
            ("violation", full_symmetry_violation(single)),
        ):
            assert np.abs(stacked[name][i, v] - value).max() < 1e-12


def test_odeco_form_matches_the_einsum_bitwise():
    rng = np.random.default_rng(12)
    disk = ff.harmonic_cross_field_2d(refined(meshgen.disk(16), 2))
    ball = ff.helical_field_3d(refined(meshgen.ball(), 3), [0.3, 0.2, 1.0], 2.0).components
    cases = {
        "square frame": (np.eye(2), np.ones(2)),
        "harmonic disk": (disk.components, disk.weights),
        "unequal weights": (ball, rng.uniform(0.0, 2.0, (len(ball), 3))),
        "broadcast (7, 1) by (5,)": (ball[:7, None], rng.uniform(0.0, 2.0, (5, 3))),
        "shared weights": (ball[:4], rng.uniform(0.0, 2.0, 3)),
        "two components in 3D": (ball[:6, :2], rng.uniform(0.0, 2.0, (6, 2))),
    }
    for name, (components, weights) in cases.items():
        expected = odeco_form_by_einsum(components, weights)
        actual = ff.odeco_form(components, weights)
        assert actual.shape == expected.shape and actual.dtype == expected.dtype, name
        assert actual.tobytes() == expected.tobytes(), name


def test_frame_validation_errors():
    with pytest.raises(ff.FieldError):
        ff.OdecoFrame(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(ff.FieldError):
        ff.OdecoFrame(np.eye(2), np.array([1.0, -0.1]))


def test_mandel_offdiagonal_scaling():
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(sym_to_mandel(S) - np.array([0.0, 0.0, _SQRT2])).max() == 0.0
