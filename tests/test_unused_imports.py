"""Every name a package module imports is used in that module, and every
private module-level name is read somewhere in the package.

``__init__.py`` is left out of the import check: its imports are the public
API.  A name kept for readers outside its module is marked with
``# noqa: F401`` on its import line.
"""

import ast
from pathlib import Path

import pytest

import framefieldops as ff

PACKAGE = Path(ff.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_private_names(sources):
    """``(module, name)`` of each private module-level name (one leading
    ``_``) bound in one of the ``{module: source}`` and read in none: as a
    loaded name, or an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        (module, name) for module, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_the_scan_sees_an_unread_private_name():
    sources = {
        "a.py": "_kept = 1\n_left = 2\n__version__ = '1'\n"
                "def _fmt(v):\n    return str(v)\n",
        "b.py": "import a\nfrom a import _kept\nx = _kept + a._left\n",
    }
    assert unread_private_names(sources) == [("a.py", "_fmt")]
