import numpy as np
import pytest

import framefieldops as ff
import framefieldops.apps
import framefieldops.solve
import framefieldops.validation
from framefieldops import meshgen


@pytest.fixture(scope="session")
def unit_square_mesh():
    return ff.SimplicialMesh(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2], [0, 2, 3]]
    )


@pytest.fixture(scope="session")
def unit_tet_mesh():
    return ff.SimplicialMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0, 1, 2, 3]],
    )


@pytest.fixture(scope="session")
def disk_mesh():
    return meshgen.disk(8)


@pytest.fixture(scope="session")
def disk_measures(disk_mesh):
    return ff.compute_measures(disk_mesh)


@pytest.fixture(scope="session")
def disk_harmonic_field(disk_mesh):
    return ff.harmonic_cross_field_2d(disk_mesh)


@pytest.fixture(scope="session")
def small_square_mesh():
    return meshgen.structured_square(6)


@pytest.fixture(scope="session")
def small_ball_mesh():
    return ff.refine_uniform(meshgen.ball())


def rotation_frame_2d(theta, weights=(1.0, 1.0)):
    c, s = np.cos(theta), np.sin(theta)
    return ff.OdecoFrame(np.array([[c, s], [-s, c]]), np.asarray(weights, dtype=float))


@pytest.fixture
def eigs_requests(monkeypatch):
    """Records the k of every eigensolve that ``apps`` or ``validation`` asks for."""
    requests = []
    solve = framefieldops.solve.eigs_generalized

    def counting(A, M_diag, k, **kwargs):
        requests.append(k)
        return solve(A, M_diag, k, **kwargs)

    for module in (framefieldops.apps, framefieldops.validation):
        monkeypatch.setattr(module, "eigs_generalized", counting)
    return requests
