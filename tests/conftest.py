import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framefieldops as ff
import framefieldops.apps
import framefieldops.solve
from framefieldops import meshgen

from oracles import annulus_by_loops


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


def refined(mesh, levels):
    for _ in range(levels):
        mesh = ff.refine_uniform(mesh)
    return mesh


# The meshes on which the kernels a fresh mesh pays for are pinned bit for
# bit to their oracles: the disk and ball levels of a refinement hierarchy
# and one mesh of every other generator.
KERNEL_MESHES = {
    **{f"disk16x{k}": (lambda k=k: refined(meshgen.disk(16), k)) for k in range(3)},
    "square12": lambda: meshgen.structured_square(12),
    "annulus": lambda: annulus_by_loops(2, 6),
    "jittered2d": lambda: meshgen.jittered_delaunay(2, 9, seed=5),
    "jittered3d": lambda: meshgen.jittered_delaunay(3, 4, seed=5),
    "box": lambda: meshgen.box(3, 2, 4),
    **{f"ballx{k}": (lambda k=k: refined(meshgen.ball(), k)) for k in range(4)},
}


@pytest.fixture(scope="session", params=list(KERNEL_MESHES))
def kernel_mesh(request):
    return KERNEL_MESHES[request.param]()


def rotation_frame_2d(theta, weights=(1.0, 1.0)):
    c, s = np.cos(theta), np.sin(theta)
    return ff.OdecoFrame(np.array([[c, s], [-s, c]]), np.asarray(weights, dtype=float))


@pytest.fixture
def eigs_requests(monkeypatch):
    """Records the k of every eigensolve that ``apps`` asks for."""
    requests = []
    solve = framefieldops.solve.eigs_generalized

    def counting(A, M_diag, k, **kwargs):
        requests.append(k)
        return solve(A, M_diag, k, **kwargs)

    monkeypatch.setattr(framefieldops.apps, "eigs_generalized", counting)
    return requests


def package_env():
    """The environment for a child Python that imports this package."""
    paths = [str(Path(ff.__file__).resolve().parents[1])]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def validator_records():
    """Every validator's record at its defaults, by name, from one run of
    ``write_validation.py`` in a process with one BLAS thread, the setting
    under which ``VALIDATION_1.json`` was written."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("write_validation.py")), "-"],
        env=package_env(), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return {r["name"]: r for r in json.loads(out.stdout)["reports"]}
