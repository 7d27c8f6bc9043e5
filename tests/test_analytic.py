import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.analytic import conformal_warp, square_spectrum, warp_experiment
from framefieldops.errors import GeometryError

from oracles import conformal_jacobian


def brute_force_spectrum(epsilon, count, K=64):
    # oracle: enumerate a lattice far larger than needed and sort
    a, b = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
    wa, wb = a * np.pi / 2.0, b * np.pi / 2.0
    lam = 2.0 * wa**2 * wb**2 + epsilon * (wa**4 + wb**4)
    return np.sort(lam.ravel())[:count]


def test_square_spectrum_values():
    eps = 0.3
    spec = square_spectrum(eps, 5)
    assert spec.values[0] == 0.0
    assert np.array_equal(spec.frequencies[0], [0, 0])
    # first nonzero: (1, 0) and (0, 1), eigenvalue eps * (pi/2)^4
    assert np.allclose(spec.values[1:3], eps * (np.pi / 2.0) ** 4)
    # (1, 1) at eps = 1: coefficient sum 2 + 1 + 1
    spec1 = square_spectrum(1.0, 8)
    lam11 = 4.0 * (np.pi / 2.0) ** 4
    assert np.any(np.abs(spec1.values - lam11) < 1e-12)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.013])
def test_square_spectrum_globally_smallest(eps):
    vals = square_spectrum(eps, 60).values
    oracle = brute_force_spectrum(eps, 60)
    # relative: the values reach 2.6e4, where 1e-12 is below one ulp
    assert np.abs(vals - oracle).max() <= 1e-14 * oracle.max()


def test_square_spectrum_bilaplacian_identity():
    # at eps = 1 the eigenvalues collapse to (wa^2 + wb^2)^2
    spec = square_spectrum(1.0, 30)
    w = spec.frequencies * np.pi / 2.0
    expect = (w[:, 0] ** 2 + w[:, 1] ** 2) ** 2
    assert np.all(np.abs(spec.values - expect) <= 1e-14 * expect)


def test_square_spectrum_validation():
    with pytest.raises(ValueError):
        square_spectrum(0.0, 5)
    with pytest.raises(ValueError):
        square_spectrum(0.5, 0)


def test_conformal_maps_closed_forms():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (200, 2))
    ident = conformal_warp("polynomial", c=0.0)
    assert np.abs(ident.apply(pts) - pts).max() == 0.0
    for warp in (conformal_warp("polynomial", c=0.07), conformal_warp("exponential")):
        J = conformal_jacobian(warp, pts)
        Jinv = warp.inverse_jacobian(pts)
        prod = np.einsum("vij,vjk->vik", J, Jinv)
        assert np.abs(prod - np.eye(2)).max() < 1e-12


def test_exponential_maps_rectangle_to_annular_sector():
    warp = conformal_warp("exponential")
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.pi / 2], [1.0, np.pi / 2]])
    img = warp.apply(corners)
    assert np.allclose(img[0], [1.0, 0.0])
    assert np.allclose(img[1], [np.e, 0.0])
    assert np.allclose(img[2], [0.0, 1.0], atol=1e-12)
    assert np.allclose(img[3], [0.0, np.e], atol=1e-12)


def test_warp_injectivity_checks():
    mesh = meshgen.structured_square(8)
    bad = conformal_warp("polynomial", c=0.8)  # derivative vanishes inside
    with pytest.raises(GeometryError):
        bad.validate_on(mesh.vertices)
    conformal_warp("polynomial", c=0.05).validate_on(mesh.vertices)
    with pytest.raises(ValueError):
        conformal_warp("spiral")
    with pytest.raises(ValueError):
        conformal_warp("exponential", c=1.0)


def test_warp_experiment_identity():
    mesh = meshgen.structured_square(10)
    res = warp_experiment(mesh, conformal_warp("polynomial", c=0.0), 0.3, 10)
    assert np.abs(res.values_base - res.values_warped).max() <= 1e-10
    assert np.array_equal(res.warped_mesh.vertices, mesh.vertices)


def test_warp_deviation_shrinks_with_c():
    mesh = meshgen.structured_square(12)
    meds = []
    for c in (0.05, 0.025, 0.0125):
        res = warp_experiment(mesh, conformal_warp("polynomial", c=c), 0.25, 15)
        nzb, nzw = res.values_base, res.values_warped
        meds.append(np.median(np.abs(nzw - nzb) / nzb))
    assert meds[0] > meds[1] > meds[2]


def test_warp_rank_correlation():
    # paper-style warp: sorted spectra strongly rank-correlated
    from scipy.stats import spearmanr

    mesh = meshgen.structured_square(16)
    res = warp_experiment(mesh, conformal_warp("polynomial", c=0.05), 0.25, 51)
    # nonzero modes 2 to 51, skipping the first
    rho = spearmanr(res.values_base[1:], res.values_warped[1:]).statistic
    assert rho > 0.99
