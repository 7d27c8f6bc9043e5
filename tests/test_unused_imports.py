"""Every name a package module imports is used in that module, every
private module-level name is read somewhere in the package, and every public
one is read by a program: a package module, a demo or the benchmark.  A
loaded name is a read only of the name its module defines or imports, so
two modules' ``logger`` are two names.
Importing the package, and running the disk, refined-ball and helical-ball
pipelines, leave ``scipy.spatial`` unloaded.

The package's parameters with defaults, its knobs, are counted, so adding
one is a visible edit of ``KNOBS``, and each is set by a call in a program.

``__init__.py`` is left out of the import check: its imports are the public
API.  For the same reason its re-exports do not count as reads of a public
name.  A name kept for readers outside its module is marked with
``# noqa: F401`` on its import line.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import framefieldops as ff

from conftest import package_env

PACKAGE = Path(ff.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)

# Parameters with defaults over every def and lambda in the package.
KNOBS = 24

# Public names that no program reads, each with the reason it stays.
UNREAD_PUBLIC_ALLOWED = {
    ("meshgen.py", "box"): "the cube test domain, and the planned cube validator's",
}

# Knobs that no direct call in a program sets, each with the reason it stays.
_SIGNATURE_DEFAULT = "perfbench/workloads.py reads its signature default"
_SIZE_FLAG = "the validate command's size flag passes it through **kwargs"
UNSET_KNOBS_ALLOWED = {
    ("cli.py", "main", "argv"): "the entry point; tests pass the command line",
    ("meshgen.py", "jittered_delaunay", "jitter"):
        "set by tests, and by the planned non-nested convergence rows",
    ("solve.py", "eigs_generalized", "seed"): "perfbench passes it through p.call",
    ("solve.py", "solve_box_qp", "return_info"): "perfbench/tracing.py's wrapper passes it",
    ("solve.py", "validate", "rtol"): "perfbench/tracing.py reads its signature default",
    ("validation.py", "validate_square_spectrum", "base_n"): _SIZE_FLAG,
    ("validation.py", "validate_square_spectrum", "finest_modes"): _SIGNATURE_DEFAULT,
    ("validation.py", "validate_square_spectrum", "rel_tol"): _SIGNATURE_DEFAULT,
    ("validation.py", "validate_refine_spectrum", "rings"): _SIZE_FLAG,
    ("validation.py", "validate_dirichlet_convergence", "rings"): _SIZE_FLAG,
    ("validation.py", "validate_anisotropy", "rings"): _SIZE_FLAG,
    ("validation.py", "validate_anisotropy", "tau"): _SIGNATURE_DEFAULT,
    ("validation.py", "validate_anisotropy", "epsilons"): _SIGNATURE_DEFAULT,
}


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


# Programs after which scipy.spatial must still be unloaded: the import, the
# disk pipeline, and a refined ball assembled with a constant field and with
# a helical one.
SPATIAL_PROBES = {
    "import": "import framefieldops",
    "disk pipeline": (
        "import framefieldops as ff\n"
        "from framefieldops import meshgen\n"
        "mesh = meshgen.disk(4)\n"
        "op = ff.assemble_operator(mesh, ff.harmonic_cross_field_2d(mesh), 0.1, 'natural')\n"
        "op.validate()\n"
        "ff.eigs_generalized(op, op.vertex_mass, 12)\n"
    ),
    "refined ball": (
        "import framefieldops as ff\n"
        "from framefieldops import meshgen\n"
        "mesh = ff.refine_uniform(meshgen.ball())\n"
        "ff.assemble_operator(mesh, ff.constant_field(mesh, ff.axis_frame(3)), 0.1, 'neumann')\n"
    ),
    "helical ball": (
        "import framefieldops as ff\n"
        "from framefieldops import meshgen\n"
        "mesh = ff.refine_uniform(meshgen.ball())\n"
        "ff.assemble_operator(mesh, ff.helical_field_3d(mesh, [0.0, 0.0, 1.0], 1.0), 0.1, 'neumann')\n"
    ),
}


@pytest.mark.parametrize("program", SPATIAL_PROBES.values(), ids=list(SPATIAL_PROBES))
def test_importing_the_package_leaves_scipy_spatial_unloaded(program):
    # only Delaunay meshes and a few frame and warp functions use it, and
    # each imports it when called
    probe = program + "\nimport sys; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), check=True, capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "False"


def bound_names(sources):
    """``(module, name)`` of each name bound at the top level of one of the
    ``{module: source}``: by a def, a class or an assignment."""
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    return defined


def read_names(sources, aliases=False):
    """What the ``{module: source}`` read, as ``(local, anywhere)``.

    ``local`` holds ``(module, name)`` for each loaded name, under the
    module that defines it: the module that loads it, or the one it was
    imported from.  ``anywhere`` holds the names that count as read in
    every module: attributes and, with ``aliases``, the names an import
    statement brings in.
    """
    local, anywhere = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        origin = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    origin[alias.asname or alias.name] = (
                        node.module.rsplit(".", 1)[-1] + ".py", alias.name
                    )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                local.add(origin.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif aliases and isinstance(node, ast.alias):
                anywhere.add(node.name)
    return local, anywhere


def unread_private_names(sources):
    """``(module, name)`` of each private module-level name (one leading
    ``_``) bound in one of the ``{module: source}`` and read in none: as an
    attribute, or as a loaded name in its own module or in one that imports
    it from there.  Importing a name does not read it."""
    local, anywhere = read_names(sources)
    return [
        (module, name) for module, name in bound_names(sources)
        if name.startswith("_") and not name.startswith("__")
        and name not in anywhere and (module, name) not in local
    ]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_the_scan_sees_an_unread_private_name():
    sources = {
        "a.py": "_kept = 1\n_left = 2\n__version__ = '1'\n_only_imported = 3\n"
                "def _fmt(v):\n    return str(v)\n_twin = 4\n",
        "b.py": "import a\nfrom a import _kept, _only_imported  # noqa: F401\n"
                "x = _kept + a._left\n_twin = 5\ny = _twin\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", "_only_imported"), ("a.py", "_fmt"), ("a.py", "_twin"),
    ]


def unread_public_names(sources, programs):
    """``(module, name)`` of each public module-level name bound in one of the
    ``{module: source}`` and read in none of the ``{module: source}``
    ``programs``: as an attribute or an imported name, or as a loaded name
    in its own module or in one that imports it from there."""
    local, anywhere = read_names(programs, aliases=True)
    return [
        (module, name) for module, name in bound_names(sources)
        if not name.startswith("_") and name not in anywhere
        and (module, name) not in local
    ]


def test_programs_read_every_public_name_the_package_defines():
    unread = unread_public_names(
        {p.name: p.read_text() for p in MODULES}, {p.name: p.read_text() for p in PROGRAMS}
    )
    assert sorted(unread) == sorted(UNREAD_PUBLIC_ALLOWED)


def test_the_scan_sees_an_unread_public_name():
    sources = {
        "a.py": "LIMIT = 1\ndef used():\n    return LIMIT\n"
                "def imported():\n    pass\ndef called_by_attribute():\n    pass\n"
                "def dead():\n    pass\nclass Dead:\n    pass\nlogger = 1\n",
        "b.py": "logger = 2\ndef log():\n    return logger\n",
    }
    programs = {
        **sources,
        "c.py": "import a\nimport b\nfrom a import imported as alias\n"
                "a.called_by_attribute()\na.used()\nb.log()\n",
    }
    assert unread_public_names(sources, programs) == [
        ("a.py", "dead"), ("a.py", "Dead"), ("a.py", "logger"),
    ]


def defaulted_parameters(source):
    """Number of parameters with a default, positional or keyword-only,
    over every def and lambda in ``source``."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def test_the_package_has_its_committed_number_of_knobs():
    assert sum(defaulted_parameters(p.read_text()) for p in SOURCES) == KNOBS


def test_the_knob_count_sees_every_default():
    source = (
        "def f(a, b=1, *, c, d=2):\n"
        "    g = lambda x, y=3: x + y\n"
        "    class C:\n"
        "        def m(self, z=None):\n"
        "            return z\n"
        "    return g\n"
        "async def h(e=4):\n"
        "    pass\n"
    )
    assert defaulted_parameters(source) == 5


def knobs(sources):
    """``{(module, function, parameter): position}`` over each parameter with
    a default in the ``{module: source}``.  ``position`` is its index among
    the arguments a call passes by position, counted after the instance for
    a method, or ``None`` for a keyword-only parameter."""
    found = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {
            id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name, args = getattr(node, "name", "<lambda>"), node.args
            positional = args.posonlyargs + args.args
            skip = id(node) in methods
            for i in range(len(positional) - len(args.defaults), len(positional)):
                found[(module, name, positional[i].arg)] = i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[(module, name, arg.arg)] = None
    return found


def unset_knobs(sources, programs):
    """``(module, function, parameter)`` of each knob of the ``{module:
    source}`` that no direct call in the ``{module: source}`` ``programs``
    sets.  A call of ``f`` or of ``x.f`` calls every function named ``f``; it
    sets each parameter it names, each position it fills, every position
    after a ``*`` argument, and with a ``**`` argument every parameter.  A
    call through a variable, a subscript or a wrapper sets nothing."""
    calls = {}
    for source in programs.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                starred = [isinstance(arg, ast.Starred) for arg in node.args]
                filled = starred.index(True) if any(starred) else len(starred)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append((filled, any(starred), keywords))

    def sets(call, parameter, position):
        filled, starred, keywords = call
        return (parameter in keywords or None in keywords
                or position is not None and (position < filled or starred))

    return sorted(
        (module, function, parameter)
        for (module, function, parameter), position in knobs(sources).items()
        if not any(sets(call, parameter, position) for call in calls.get(function, []))
    )


def test_a_program_sets_every_knob():
    unset = unset_knobs({p.name: p.read_text() for p in SOURCES},
                        {p.name: p.read_text() for p in PROGRAMS})
    assert unset == sorted(UNSET_KNOBS_ALLOWED)


def test_the_knob_scan_sees_an_unset_default():
    sources = {
        "a.py": "def f(x, y=1, z=2):\n    pass\n"
                "def g(u=1, *, v=2, w=3):\n    pass\n"
                "def h(p=1, q=2):\n    pass\n"
                "def k(r=1):\n    pass\n"
                "class C:\n    def m(self, s=1, t=2):\n        pass\n",
    }
    programs = {
        **sources,
        "b.py": "import a\nfrom a import f\nf(0, 5)\na.g(w=1)\na.h(0, *[])\n"
                "a.k(**{})\na.C().m(1)\nwrapped = a.f\nwrapped(0, 1, 2)\n",
    }
    assert unset_knobs(sources, programs) == [
        ("a.py", "f", "z"), ("a.py", "g", "u"), ("a.py", "g", "v"), ("a.py", "m", "t"),
    ]
