import numpy as np
import pytest

import framefieldops as ff
from framefieldops.symtensor import (
    _SQRT2,
    epsilon_forms_batch,
    identity_form,
    mandel_size,
    mandel_to_sym,
    odeco_forms_batch,
    sym_to_mandel,
)

from oracles import random_octahedral_frame, random_rotation, random_symmetric


@pytest.mark.parametrize("dim", [2, 3])
def test_mandel_roundtrip_and_frobenius(dim):
    rng = np.random.default_rng(0)
    A = random_symmetric(rng, dim)
    B = random_symmetric(rng, dim)
    assert np.abs(mandel_to_sym(sym_to_mandel(A)) - A).max() < 1e-12
    assert abs(sym_to_mandel(A) @ sym_to_mandel(B) - np.sum(A * B)) < 1e-12


def test_axis_aligned_odeco_form():
    T = ff.odeco_to_form(ff.OdecoFrame(np.eye(2), np.ones(2)))
    assert np.abs(T.Q - np.diag([1.0, 1.0, 0.0])).max() == 0.0
    assert T.fully_symmetric


def test_zero_weights_give_zero_form():
    T = ff.odeco_to_form(ff.OdecoFrame(np.eye(3), np.zeros(3)))
    assert np.abs(T.Q).max() == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_generalized_eigenpair_property(dim):
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.uniform(0.0, 2.0, dim)
        frame = ff.OdecoFrame(random_rotation(rng, dim).T, w)
        T = ff.odeco_to_form(frame)
        for a in range(dim):
            xi = frame.components[a]
            C = ff.contract(np.outer(xi, xi), T)
            assert np.abs(C - w[a] * np.outer(xi, xi)).max() < 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_contract_identity_matrix(dim):
    rng = np.random.default_rng(2)
    T = ff.odeco_to_form(random_octahedral_frame(rng, dim))
    assert np.abs(ff.contract(np.eye(dim), T) - np.eye(dim)).max() < 1e-12
    zero = ff.Sym4Form(dim, np.zeros((mandel_size(dim),) * 2))
    assert np.abs(ff.contract(random_symmetric(rng, dim), zero)).max() == 0.0


def test_contract_dim_mismatch():
    T = ff.odeco_to_form(ff.OdecoFrame(np.eye(2), np.ones(2)))
    with pytest.raises(ValueError):
        ff.contract(np.eye(3), T)


def test_spectral_norm_closed_form():
    rng = np.random.default_rng(3)
    assert ff.spectral_norm(random_octahedral_frame(rng, 3)) == 1.0
    frame = ff.OdecoFrame(np.eye(2), np.array([0.3, 0.7]))
    assert ff.spectral_norm(frame) == 0.7
    zero = ff.OdecoFrame(np.eye(2), np.zeros(2))
    assert ff.spectral_norm(zero) == 0.0
    with pytest.raises(ff.FieldError):
        ff.spectral_norm(ff.odeco_to_form(frame))


def test_modify_epsilon_values():
    T = ff.odeco_to_form(ff.OdecoFrame(np.eye(2), np.ones(2)))
    assert np.abs(ff.modify_epsilon(T, 1.0, 1.0).Q - np.eye(3)).max() == 0.0
    eps = 0.37
    Te = ff.modify_epsilon(T, 1.0, eps)
    assert np.abs(Te.Q - np.diag([eps, eps, 1.0])).max() < 1e-15
    assert not Te.fully_symmetric
    zero = ff.Sym4Form(2, np.zeros((3, 3)))
    assert np.abs(ff.modify_epsilon(zero, 0.0, 0.5).Q).max() == 0.0
    with pytest.raises(ValueError):
        ff.modify_epsilon(T, 1.0, 0.0)
    with pytest.raises(ValueError):
        ff.modify_epsilon(T, 1.0, 1.5)


def test_principal_symbol_axis_aligned():
    eps = 0.2
    T = ff.odeco_to_form(ff.OdecoFrame(np.eye(2), np.ones(2)))
    Te = ff.modify_epsilon(T, 1.0, eps)
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
        Te = ff.modify_epsilon(ff.odeco_to_form(frame), w, eps)
        zeta = rng.standard_normal(dim)
        zeta /= np.linalg.norm(zeta)
        assert ff.principal_symbol(Te, zeta) >= eps * w * (1.0 - 1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_alignment_lemma(dim):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        frame = random_octahedral_frame(rng, dim)
        T = ff.odeco_to_form(frame)
        S = random_symmetric(rng, dim)
        assert ff.alignment_quadratic(S, T) <= np.sum(S * S) * (1.0 + 1e-10)
    # equality when S shares the frame's eigenvectors
    for _ in range(100):
        frame = random_octahedral_frame(rng, dim)
        T = ff.odeco_to_form(frame)
        lam = rng.standard_normal(dim)
        S = frame.components.T @ np.diag(lam) @ frame.components
        assert abs(ff.alignment_quadratic(S, T) - np.sum(lam**2)) < 1e-10


def test_alignment_degenerate_direction_is_zero():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        frame = random_octahedral_frame(rng, dim)
        T = ff.odeco_to_form(frame)
        x1, x2 = frame.components[0], frame.components[1]
        S = np.outer(x1, x2) + np.outer(x2, x1)
        assert abs(ff.alignment_quadratic(S, T)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_full_symmetry_constraints(dim):
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = rng.uniform(0.0, 2.0, dim)
        T = ff.odeco_to_form(ff.OdecoFrame(random_rotation(rng, dim).T, w))
        assert T.full_symmetry_violation() < 1e-12
    assert identity_form(dim).full_symmetry_violation() > 0.1


@pytest.mark.parametrize("dim", [2, 3])
def test_epsilon_form_block_eigenvalues(dim):
    # spectrum of Q_eps: w*eps on the frame directions, w on the complement
    rng = np.random.default_rng(9)
    m = mandel_size(dim)
    for eps in (1.0, 0.5, 0.01):
        w = rng.uniform(0.2, 2.0)
        frame = random_octahedral_frame(rng, dim, weight=w)
        Te = ff.modify_epsilon(ff.odeco_to_form(frame), w, eps)
        vals = np.sort(np.linalg.eigvalsh(Te.Q))
        expected = np.sort(np.r_[np.full(dim, w * eps), np.full(m - dim, w)])
        assert np.abs(vals - expected).max() < 1e-10
        assert vals.min() > -1e-12


def test_batch_helpers_match_single():
    rng = np.random.default_rng(10)
    comps = np.stack([random_rotation(rng, 3).T for _ in range(7)])
    weights = rng.uniform(0.0, 2.0, (7, 3))
    batch = odeco_forms_batch(comps, weights)
    for v in range(7):
        single = ff.odeco_to_form(ff.OdecoFrame(comps[v], weights[v]))
        assert np.abs(batch[v] - single.Q).max() < 1e-12
    eps_batch = epsilon_forms_batch(batch, weights.max(axis=1), 0.3)
    for v in range(7):
        single = ff.modify_epsilon(
            ff.Sym4Form(3, batch[v], fully_symmetric=True), weights[v].max(), 0.3
        )
        assert np.abs(eps_batch[v] - single.Q).max() < 1e-12


def test_frame_validation_errors():
    with pytest.raises(ff.FieldError):
        ff.OdecoFrame(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(ff.FieldError):
        ff.OdecoFrame(np.eye(2), np.array([1.0, -0.1]))
    with pytest.raises(ff.FieldError):
        ff.Sym4Form(2, np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_mandel_offdiagonal_scaling():
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(sym_to_mandel(S) - np.array([0.0, 0.0, _SQRT2])).max() == 0.0
