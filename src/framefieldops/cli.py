"""Command-line interface: file-based, reproducible experiment runs.

``main`` parses the command line, runs the command and writes its outputs
plus a ``manifest.json`` holding:

- ``command``: the argument list as given
- ``options``: every parsed option, defaults included, by its ``dest`` name
- ``inputs`` and ``outputs``: the SHA-256 of each file read and written
- ``versions``: of framefieldops, numpy and scipy
- ``elapsed_seconds``: wall time from parsing to the manifest
- ``fingerprint``: of the operator the command assembled, if it assembled one
- what the command computed: ``field_kind`` (``field gen``), ``zero_modes``
  (``eigs``), or ``passed`` and ``summary`` (``validate``)

Outputs are deterministic given identical inputs and seeds.  Exit codes:
0 ok, 1 usage, 2 input error, 3 numerical failure, 4 validation failed.
"""

import argparse
import hashlib
import inspect
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse
from scipy.io import mmwrite

from . import __version__
from .analytic import MAPS, conformal_warp
from .apps import (
    ROUNDOFF_RELTOL,
    build_embedding,
    color_by_boundary,
    distance_field,
    square_wave_boundary,
    trace_descent_path,
    zero_modes,
)
from .errors import FrameFieldOpsError, NumericalError, ParameterError, check_indices
from .fem import BC_KINDS, apply_dirichlet_partition, assemble_operator
from .framefield import (
    angles_to_components,
    axis_frame,
    constant_field,
    harmonic_cross_field_2d,
    helical_field_3d,
    load_field,
    save_field,
)
from .geometry import _save_csv, _write_rows, compute_measures, load_mesh, save_mesh
from .solve import diffuse, eigs_generalized
from .symtensor import OdecoFrame
from .validation import VALIDATORS
from .vtkio import write_polyline_obj, write_vtk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Run:
    """Collects a command's inputs and outputs and writes the manifest, with
    the fingerprint of the operator the command assembled, if any."""

    def __init__(self, args):
        self.args = args
        self.outdir = Path(args.output_dir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        self.outputs = []
        self.fingerprint = None
        self.t0 = time.time()

    def input(self, path):
        """Record ``path``'s SHA-256 as an input and return ``path``."""
        self.inputs[str(path)] = _sha256(path)
        return path

    def out(self, name):
        path = self.outdir / name
        self.outputs.append(str(path))
        return path

    def finish(self, result):
        """Write ``manifest.json``, with the command's ``result`` at its top
        level."""
        options = {
            key: value for key, value in vars(self.args).items()
            if key not in ("func", "argv")
        }
        manifest = {
            "command": self.args.argv,
            "options": options,
            "inputs": self.inputs,
            "outputs": {path: _sha256(path) for path in self.outputs},
            "versions": {
                "framefieldops": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "elapsed_seconds": time.time() - self.t0,
        }
        if self.fingerprint is not None:
            manifest["fingerprint"] = self.fingerprint
        manifest.update(result)
        with open(self.outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_csv(path):
    try:
        return np.loadtxt(path, delimiter=",")
    except ValueError as exc:
        raise ParameterError(f"{path}: malformed CSV ({exc})") from exc


def _parse_list(text, kind=int):
    try:
        return [kind(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise UsageError(
            f"expected comma-separated {kind.__name__} values, got {text!r}"
        ) from exc


def cmd_field_gen(run, args):
    mesh = load_mesh(run.input(args.mesh))
    if args.kind == "constant":
        frame = axis_frame(mesh.dim)
        if args.angle is not None:
            if mesh.dim != 2:
                raise UsageError("--angle applies only to 2D meshes")
            frame = OdecoFrame(angles_to_components(args.angle), np.ones(2))
        field = constant_field(mesh, frame)
    elif args.kind == "harmonic2d":
        field = harmonic_cross_field_2d(mesh)
    elif args.kind == "helical":
        axis = _parse_list(args.axis, float)
        field = helical_field_3d(mesh, axis, args.pitch)
    else:  # coframe
        warp = conformal_warp(args.map, **{key: getattr(args, key) for key in MAPS[args.map][0]})
        warped, field = warp.pullback(mesh)
        save_mesh(warped, run.out("warped_" + Path(args.mesh).name))
    save_field(field, run.out(args.name))
    return {"field_kind": field.kind}


def _assemble_from_args(run, args):
    mesh = load_mesh(run.input(args.mesh))
    field = load_field(mesh, run.input(args.field))
    op = assemble_operator(mesh, field, args.epsilon, args.bc)
    run.fingerprint = op.fingerprint
    return mesh, op


def cmd_assemble(run, args):
    _, op = _assemble_from_args(run, args)
    mmwrite(run.out("operator.mtx"), op.matrix)
    mmwrite(run.out("mass.mtx"), sparse.diags(op.vertex_mass).tocoo())


def cmd_dirichlet(run, args):
    mesh, op = _assemble_from_args(run, args)
    if args.boundary:
        u0 = _load_csv(run.input(args.boundary))
    else:
        u0 = square_wave_boundary(mesh, compute_measures(mesh), periods=args.periods)
    u = apply_dirichlet_partition(op, u0)
    _save_csv(run.out("solution.csv"), u)
    write_vtk(run.out("solution.vtk"), mesh, {"u": u})


def cmd_diffuse(run, args):
    mesh, op = _assemble_from_args(run, args)
    if args.u0:
        u0 = _load_csv(run.input(args.u0))
    else:
        u0 = np.zeros(mesh.num_vertices)
        u0[check_indices("--impulse", _parse_list(args.impulse), mesh.num_vertices)] = 1.0
    u = diffuse(op, u0, args.tau)
    _save_csv(run.out("diffused.csv"), u)
    write_vtk(run.out("diffused.vtk"), mesh, {"u": u, "u0": u0})


def cmd_eigs(run, args):
    mesh, op = _assemble_from_args(run, args)
    eig = eigs_generalized(op, op.vertex_mass, args.num)
    zero = zero_modes(op, eig.values)
    rows = np.column_stack([eig.values, eig.vectors.T])
    _save_csv(run.out("eigs.csv"), rows)
    flagged = np.column_stack([np.arange(len(zero)), eig.values, zero])
    with open(run.out("eigenvalues.csv"), "w") as fh:
        fh.write("index,eigenvalue,zero_mode\n")
        _write_rows(fh, "%d,%.17e,%d", flagged)
    data = {f"phi_{k:03d}": eig.vectors[:, k] for k in range(min(6, args.num))}
    write_vtk(run.out("eigs.vtk"), mesh, data)
    return {"zero_modes": int(zero.sum())}


def cmd_distance(run, args):
    mesh, op = _assemble_from_args(run, args)
    source = int(check_indices("--source", args.source, mesh.num_vertices))
    starts = check_indices("--trace", _parse_list(args.trace or ""), mesh.num_vertices)
    emb = build_embedding(op, args.modes)
    d = distance_field(emb, source)
    _save_csv(run.out("distance.csv"), d)
    write_vtk(run.out("distance.vtk"), mesh, {"distance": d})
    if args.trace:
        paths = [trace_descent_path(mesh, d, s) for s in starts]
        write_polyline_obj(run.out("paths.obj"), paths)


def cmd_color(run, args):
    mesh, op = _assemble_from_args(run, args)
    colors = _load_csv(run.input(args.boundary_colors))
    col = color_by_boundary(op, colors)
    _save_csv(run.out("colors.csv"), col)
    write_vtk(run.out("colors.vtk"), mesh, {"rgb": col})


# The validator keywords ``validate`` offers as flags, each to the
# experiments whose validator takes it, with their help.
_SIZE_FLAGS = {
    "base_n": "structured-square resolution of the coarsest level",
    "rings": "disk resolution in rings of the coarsest level",
}


def cmd_validate(run, args):
    kwargs = {key: value for key, value in vars(args).items() if key in _SIZE_FLAGS}
    report = VALIDATORS[args.experiment](**kwargs)
    report.write_csv(run.out(f"{report.name}.csv"))
    print(f"[{'PASS' if report.passed else 'FAIL'}] {report.name}: {report.summary}")
    return {"passed": report.passed, "summary": report.summary}


def build_parser():
    parser = _Parser(prog="framefieldops", description=__doc__)
    parser.add_argument("--output-dir", "-o", default=".", help="output directory")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="package log messages at or above this level go to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="frame field utilities")
    field_sub = p_field.add_subparsers(dest="field_command", required=True)
    p_gen = field_sub.add_parser("gen", help="generate a frame field file")
    p_gen.add_argument("--mesh", required=True)
    p_gen.add_argument("--kind", required=True,
                       choices=["constant", "harmonic2d", "helical", "coframe"])
    p_gen.add_argument("--angle", type=float,
                       help="2D rotation of the constant frame (radians)")
    p_gen.add_argument("--axis", default="0,0,1", help="helical axis")
    p_gen.add_argument("--pitch", type=float, default=0.0,
                       help="helical twist rate (radians per unit length)")
    p_gen.add_argument("--map", default="polynomial", choices=list(MAPS))
    p_gen.add_argument("--c", type=float, default=0.05,
                       help="polynomial warp strength")
    p_gen.add_argument("--name", default="field.csv", help="output file name")
    p_gen.set_defaults(func=cmd_field_gen)

    def common(p, bc_default="neumann", eps_default=0.1):
        # bc_default=None leaves out --bc: the command sets its fixed BC.
        p.add_argument("--mesh", required=True)
        p.add_argument("--field", required=True)
        p.add_argument("--epsilon", type=float, default=eps_default)
        if bc_default is not None:
            p.add_argument("--bc", default=bc_default, choices=BC_KINDS)

    p_asm = sub.add_parser("assemble", help="write the operator as MatrixMarket")
    common(p_asm)
    p_asm.set_defaults(func=cmd_assemble)

    p_dir = sub.add_parser("dirichlet", help="boundary-value solve")
    common(p_dir, bc_default=None)
    p_dir.add_argument("--boundary", help="CSV of per-boundary-vertex values")
    p_dir.add_argument("--periods", type=int, default=4,
                       help="square-wave periods when --boundary is omitted")
    p_dir.set_defaults(func=cmd_dirichlet, bc="neumann")

    p_diff = sub.add_parser("diffuse", help="one implicit-Euler diffusion step")
    common(p_diff, bc_default="natural")
    p_diff.add_argument("--tau", type=float, default=1e-5, help="diffusion time")
    p_diff.add_argument("--impulse", default="0",
                        help="comma-separated vertex indices for the Dirac sum")
    p_diff.add_argument("--u0", help="CSV with an explicit initial condition")
    p_diff.set_defaults(func=cmd_diffuse)

    p_eig = sub.add_parser(
        "eigs",
        help="smallest generalized eigenpairs (banded Cholesky shift-invert Lanczos)",
        description="Smallest generalized eigenpairs.  In eigenvalues.csv the "
                    "zero_mode column is 1 for an eigenvalue at or below "
                    f"{ROUNDOFF_RELTOL:g} times max(diag(A) / mass).",
    )
    common(p_eig)
    p_eig.add_argument("--num", type=int, default=64, help="number of eigenpairs")
    p_eig.set_defaults(func=cmd_eigs)

    p_dist = sub.add_parser(
        "distance", help="spectral distance field from the smallest nonzero modes"
    )
    common(p_dist, bc_default=None)
    p_dist.add_argument("--source", type=int, default=0)
    p_dist.add_argument("--modes", type=int, default=64,
                        help="nonzero modes in the spectral embedding")
    p_dist.add_argument("--trace", help="comma-separated start vertices for paths")
    p_dist.set_defaults(func=cmd_distance, bc="neumann")

    p_col = sub.add_parser("color", help="boundary-value coloring")
    common(p_col, bc_default=None, eps_default=0.01)
    p_col.add_argument("--boundary-colors", required=True,
                       help="CSV with one r,g,b row per boundary vertex")
    p_col.set_defaults(func=cmd_color, bc="natural")

    p_val = sub.add_parser("validate", help="run a validation experiment")
    val_sub = p_val.add_subparsers(dest="experiment", required=True)
    for name, validator in VALIDATORS.items():
        p_exp = val_sub.add_parser(name)
        params = inspect.signature(validator).parameters
        for key in [key for key in _SIZE_FLAGS if key in params]:
            p_exp.add_argument("--" + key.replace("_", "-"), type=int,
                               default=params[key].default,
                               help=_SIZE_FLAGS[key] + " (default %(default)s)")
        p_exp.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.argv = argv  # recorded as the manifest's "command"
    log = logging.getLogger("framefieldops")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        run = Run(args)
        result = args.func(run, args) or {}
        run.finish(result)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FrameFieldOpsError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)
    return EXIT_OK if result.get("passed", True) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
