import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_OUTPUTS = {
    "demo_01_meshes_and_fields.py":
        ["disk.off", "square.obj", "ball.mesh", "disk_field.csv", "ball_helical.csv"],
    "demo_02_operator_and_diffusion.py": ["impulse_sweep.vtk"],
    "demo_03_spectrum_and_eigenfunctions.py": ["disk_modes.vtk"],
    "demo_04_distance_and_paths.py": ["distances.vtk", "descent_paths.obj"],
    "demo_05_coloring.py": ["coloring_axis.vtk", "coloring_aligned.vtk"],
    "demo_06_warp_and_volumetric.py": ["warped_modes.vtk", "ball_modes.vtk"],
    "demo_07_octahedral_vs_conformal.py": ["octahedral_vs_conformal.vtk"],
}


def test_every_demo_and_committed_output_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("demo_*.py")) == sorted(DEMO_OUTPUTS)
    pinned = sorted(name for names in DEMO_OUTPUTS.values() for name in names)
    assert sorted(p.name for p in (DEMOS / "output").iterdir()) == pinned


@pytest.mark.parametrize("demo", sorted(DEMO_OUTPUTS))
def test_demo_reproduces_its_committed_files(demo, tmp_path):
    # run a copy, which writes next to itself, so the committed files are only read
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=package_env(), check=True,
        capture_output=True,
    )
    assert sorted(p.name for p in (tmp_path / "output").iterdir()) == sorted(DEMO_OUTPUTS[demo])
    for name in DEMO_OUTPUTS[demo]:
        written = (tmp_path / "output" / name).read_bytes()
        assert written == (DEMOS / "output" / name).read_bytes(), name
