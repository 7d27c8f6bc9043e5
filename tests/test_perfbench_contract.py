"""The benchmark harness's view of the package.

``perfbench/tracing.py`` wraps package attributes by name, and
``perfbench/workloads.py`` imports some at load time, so a rename inside the
package would otherwise surface only in a traced benchmark run.  Both
modules are imported from their directory without writing bytecode there,
and are dropped from ``sys.modules`` afterwards.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import framefieldops as ff
import framefieldops.apps
import framefieldops.fem
import framefieldops.framefield
import framefieldops.solve
from framefieldops import meshgen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (ff, ff.apps, ff.fem, ff.framefield, ff.solve)


@pytest.fixture(scope="module")
def tracing():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads  # noqa: F401  its load-time imports are the check

        yield tracing
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_tracer_wraps_every_attribute_and_restores_it(tracing):
    before = {module: dict(vars(module)) for module in MODULES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _ in tracing.WRAPPED:
            assert getattr(module, attr) is not before[module][attr], attr
        # one call through each kind of wrapper: timed, assembly, eigs, box QP
        mesh = meshgen.disk(4)
        op = ff.assemble_operator(
            mesh, ff.harmonic_cross_field_2d(mesh), 0.1, "natural"
        )
        ff.eigs_generalized(op, op.vertex_mass, 4)
        colors = np.random.default_rng(0).uniform(
            0.0, 1.0, (len(op.boundary_vertices), 3)
        )
        ff.color_by_boundary(op, colors)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    for module, attrs in before.items():
        changed = [k for k, v in attrs.items() if vars(module).get(k) is not v]
        assert not changed, (module.__name__, changed)
    for name in (
        "fem.assemble_operator_s",
        "fem.build_mixed_system_s",
        "fem.projected_middle_blocks_s",
        "framefield.harmonic_cross_field_2d_s",
        "solve.eigs_generalized_s",
        "solve.solve_spd_s",
        "apps.color_by_boundary_s",
        "solve.solve_box_qp_s",
    ):
        assert metrics[name] > 0.0, name
    assert metrics["fem.operator_nnz"] == op.matrix.nnz
    assert metrics["solve.qp_iterations"] > 0 and metrics["solve.qp_capped"] == 0
