"""The per-mesh cache: every ``mesh_cached`` entry point, and who may touch it.

Entry points are found by scanning the package source for functions
decorated with ``mesh_cached``, so a new one is covered without editing
this file.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import framefieldops as ff
from framefieldops import geometry, meshgen

PACKAGE = Path(ff.__file__).resolve().parent


def _cached_entry_points():
    """``(module, class or None, name)`` of every function decorated with
    ``mesh_cached`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree)] + [
            (node.name, node) for node in tree.body if isinstance(node, ast.ClassDef)
        ]
        for owner, scope in scopes:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "mesh_cached"
                    for d in node.decorator_list
                ):
                    found.append((path.stem, owner, node.name))
    return found


ENTRY_POINTS = _cached_entry_points()


def _caller(module, owner, name):
    if owner is not None:
        return lambda mesh: getattr(mesh, name)()
    return getattr(importlib.import_module(f"framefieldops.{module}"), name)


def _reachable_arrays(value):
    """The arrays ``mesh_cached`` promises to freeze in ``value``."""
    if isinstance(value, np.ndarray):
        return [value]
    if sparse.issparse(value):
        return [value.data, value.indices, value.indptr]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _reachable_arrays(item)]
    if dataclasses.is_dataclass(value):
        return [
            a
            for field in dataclasses.fields(value)
            for a in _reachable_arrays(getattr(value, field.name))
        ]
    return []


def test_every_named_cache_is_an_entry_point():
    names = {name for _, _, name in ENTRY_POINTS}
    assert names >= {
        "edges", "vertex_graph", "vertex_neighbors", "vertex_order",
        "shape_gradients", "compute_measures",
        "gradient_matrix", "element_edges", "star_blocks",
    }


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "entry", ENTRY_POINTS, ids=[".".join(filter(None, e)) for e in ENTRY_POINTS]
)
def test_entry_point_is_built_once_per_mesh_and_read_only(entry, dim):
    call = _caller(*entry)
    mesh = meshgen.disk(3) if dim == 2 else meshgen.ball()
    first = call(mesh)
    assert call(mesh) is first
    for array in _reachable_arrays(first):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]
    # a refined mesh builds its own and leaves the coarse one alone
    fine = ff.refine_uniform(mesh)
    assert call(fine) is not first
    assert call(fine) is call(fine)
    assert call(mesh) is first


def test_triangle_mesh_builds_its_edge_table_at_construction(monkeypatch):
    grouped = []
    row_groups = geometry._row_groups

    def counted(rows, bound):
        grouped.append(rows.shape)
        return row_groups(rows, bound)

    disk = meshgen.disk(3)
    monkeypatch.setattr(geometry, "_row_groups", counted)
    mesh = ff.SimplicialMesh(disk.vertices, disk.elements)
    # the duplicate check, then the edge table, which the boundary reads
    ne = mesh.num_elements
    assert grouped == [(ne, 3), (3 * ne, 2)]
    edges, incidence = mesh.edges(), mesh.element_edges()
    for _ in range(2):
        assert mesh.edges() is edges and mesh.element_edges() is incidence
    assert len(grouped) == 2
    assert not edges.flags.writeable and not incidence.flags.writeable


def _violations(path):
    """Lines of ``path`` that touch ``_cache`` (outside ``geometry.py``) or
    assign a ``_``-prefixed attribute of anything but ``self``."""
    tree = ast.parse(path.read_text())
    bad = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_cache"
            and path.name != "geometry.py"
        ):
            bad.append(f"{path.name}:{node.lineno} touches _cache")
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            elif isinstance(target, ast.Starred):
                stack.append(target.value)
            elif (
                isinstance(target, ast.Attribute)
                and target.attr.startswith("_")
                and not (isinstance(target.value, ast.Name) and target.value.id == "self")
            ):
                bad.append(f"{path.name}:{target.lineno} assigns {target.attr}")
    return bad


def test_only_geometry_touches_the_mesh_cache():
    paths = sorted(PACKAGE.glob("*.py"))
    assert any(path.name == "geometry.py" for path in paths)
    assert [line for path in paths for line in _violations(path)] == []


def test_the_guard_sees_a_private_write(tmp_path):
    # the scan itself must catch what it forbids
    bad = tmp_path / "bad.py"
    bad.write_text("mesh._cache = {}\nmesh._x, y = 1, 2\nself._ok = 3\n")
    assert sorted(_violations(bad)) == [
        "bad.py:1 assigns _cache",
        "bad.py:1 touches _cache",
        "bad.py:2 assigns _x",
    ]
