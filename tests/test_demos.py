import os
import shutil
import subprocess
import sys
from pathlib import Path

import framefieldops

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_01_OUTPUTS = ["disk.off", "square.obj", "ball.mesh", "disk_field.csv", "ball_helical.csv"]


def test_demo_01_reproduces_its_committed_files(tmp_path):
    # run a copy, which writes next to itself, so the committed files are only read
    script = tmp_path / "demo_01_meshes_and_fields.py"
    shutil.copy(DEMOS / script.name, script)
    paths = [str(Path(framefieldops.__file__).resolve().parents[1])]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, check=True, capture_output=True
    )
    for name in DEMO_01_OUTPUTS:
        written = (tmp_path / "output" / name).read_bytes()
        assert written == (DEMOS / "output" / name).read_bytes(), name
