"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the public API.  A name kept
for readers outside its module is marked with ``# noqa: F401`` on its
import line.
"""

import ast
from pathlib import Path

import pytest

import framefieldops as ff

PACKAGE = Path(ff.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """``(line, name)`` of each imported name that ``source`` never reads,
    unless its import line carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = (
        "import numpy as np\n"
        "import os.path\n"
        "from scipy.spatial import (\n"
        "    cKDTree,\n"
        "    distance,\n"
        ")\n"
        "from scipy.linalg import eigh  # noqa: F401  kept for a reader\n"
        "x = np.zeros(3) + distance.euclidean(x, x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "cKDTree")]
