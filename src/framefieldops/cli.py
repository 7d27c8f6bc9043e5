"""Command-line interface: file-based, reproducible experiment runs.

Every run writes its outputs plus a ``manifest.json`` recording inputs,
content hashes, package versions, and timings.  Outputs are deterministic
given identical inputs and seeds.  Exit codes: 0 ok, 1 usage, 2 input
error, 3 numerical failure, 4 validation failed.
"""

import os

# Thread count must be pinned before numpy loads its BLAS.
_threads = os.environ.get("FRAMEFIELDOPS_THREADS")
if _threads:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _threads)

import argparse
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analytic import conformal_warp, square_spectrum
from .apps import (
    ROUNDOFF_RELTOL,
    ZERO_MODE_RELTOL,
    build_embedding,
    color_by_boundary,
    distance_field,
    square_wave_boundary,
    trace_descent_path,
    zero_modes,
)
from .errors import FrameFieldOpsError, NumericalError, ParameterError
from .fem import apply_dirichlet_partition, assemble_operator
from .framefield import (
    axis_frame,
    constant_field,
    harmonic_cross_field_2d,
    helical_field_3d,
    load_field,
    map_coframe_field,
    save_field,
)
from .geometry import SimplicialMesh, compute_measures, load_mesh, save_mesh
from .solve import diffuse, eigs_generalized
from .validation import VALIDATORS
from .vtkio import write_polyline_obj, write_vtk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

FMT = "%.17e"


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
    """Collects inputs/outputs and writes the manifest."""

    def __init__(self, args):
        self.args = args
        self.outdir = Path(args.output_dir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        self.outputs = []
        self.t0 = time.time()

    def track_input(self, path):
        self.inputs[str(path)] = _sha256(path)

    def out(self, name):
        path = self.outdir / name
        self.outputs.append(str(path))
        return path

    def finish(self, extra=None):
        manifest = {
            "command": self.args.argv,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "versions": {
                "framefieldops": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "elapsed_seconds": time.time() - self.t0,
        }
        if extra:
            manifest.update(extra)
        with open(self.outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_mesh(run, path):
    run.track_input(path)
    return load_mesh(path)


def _load_field(run, mesh, path):
    run.track_input(path)
    return load_field(mesh, path)


def _load_csv(run, path):
    run.track_input(path)
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


def _save_scalar_csv(path, values):
    np.savetxt(path, np.asarray(values, dtype=float), delimiter=",", fmt=FMT)


def cmd_field_gen(args):
    run = Run(args)
    mesh = _load_mesh(run, args.mesh)
    if args.kind == "constant":
        frame = axis_frame(mesh.dim)
        if args.angle and mesh.dim == 2:
            c, s = np.cos(args.angle), np.sin(args.angle)
            from .symtensor import OdecoFrame

            frame = OdecoFrame(np.array([[c, s], [-s, c]]), np.ones(2))
        field = constant_field(mesh, frame)
    elif args.kind == "harmonic2d":
        field = harmonic_cross_field_2d(mesh)
    elif args.kind == "helical":
        axis = _parse_list(args.axis, float)
        field = helical_field_3d(mesh, axis, args.pitch)
    elif args.kind == "coframe":
        warp = conformal_warp(args.map, **({"c": args.c} if args.map == "polynomial" else {}))
        warp.validate_on(mesh.vertices)
        warped = SimplicialMesh(warp.apply(mesh.vertices), mesh.elements)
        field = map_coframe_field(warped, warp.inverse_jacobian(mesh.vertices))
        warped_path = run.out("warped_" + Path(args.mesh).name)
        save_mesh(warped, warped_path)
        mesh = warped
    else:
        raise UsageError(f"unknown field kind {args.kind!r}")
    save_field(field, run.out(args.name))
    run.finish({"kind": args.kind, "field_kind": field.kind})
    return EXIT_OK


def _assemble_from_args(run, args, bc=None):
    mesh = _load_mesh(run, args.mesh)
    field = _load_field(run, mesh, args.field)
    op = assemble_operator(mesh, field, args.epsilon, bc or args.bc)
    return mesh, field, op


def cmd_assemble(args):
    from scipy.io import mmwrite

    run = Run(args)
    mesh, _, op = _assemble_from_args(run, args)
    mmwrite(run.out("operator.mtx"), op.matrix)
    from scipy import sparse

    mmwrite(run.out("mass.mtx"), sparse.diags(op.vertex_mass).tocoo())
    run.finish({"epsilon": args.epsilon, "bc": args.bc, "fingerprint": op.fingerprint})
    return EXIT_OK


def cmd_dirichlet(args):
    run = Run(args)
    mesh = _load_mesh(run, args.mesh)
    field = _load_field(run, mesh, args.field)
    op = assemble_operator(mesh, field, args.epsilon, "neumann")
    if args.boundary:
        u0 = _load_csv(run, args.boundary)
        if u0.shape != op.boundary_vertices.shape:
            raise FrameFieldOpsError("boundary value count mismatch")
    else:
        u0 = square_wave_boundary(mesh, compute_measures(mesh), periods=args.periods)
    u = apply_dirichlet_partition(op, u0)
    _save_scalar_csv(run.out("solution.csv"), u)
    write_vtk(run.out("solution.vtk"), mesh, {"u": u})
    run.finish({"epsilon": args.epsilon})
    return EXIT_OK


def cmd_diffuse(args):
    run = Run(args)
    mesh, _, op = _assemble_from_args(run, args)
    if args.u0:
        u0 = _load_csv(run, args.u0)
    else:
        u0 = np.zeros(mesh.num_vertices)
        u0[_parse_list(args.impulse)] = 1.0
    u = diffuse(op, u0, args.tau)
    _save_scalar_csv(run.out("diffused.csv"), u)
    write_vtk(run.out("diffused.vtk"), mesh, {"u": u, "u0": u0})
    run.finish({"tau": args.tau, "epsilon": args.epsilon, "bc": args.bc})
    return EXIT_OK


def cmd_eigs(args):
    run = Run(args)
    mesh, _, op = _assemble_from_args(run, args)
    eig = eigs_generalized(op, op.vertex_mass, args.num)
    zero = zero_modes(op, eig.values)
    rows = np.column_stack([eig.values, eig.vectors.T])
    np.savetxt(run.out("eigs.csv"), rows, delimiter=",", fmt=FMT)
    with open(run.out("eigenvalues.csv"), "w") as fh:
        fh.write("index,eigenvalue,zero_mode\n")
        for i, (v, z) in enumerate(zip(eig.values, zero)):
            fh.write(f"{i},{FMT % v},{int(z)}\n")
    data = {f"phi_{k:03d}": eig.vectors[:, k] for k in range(min(6, args.num))}
    write_vtk(run.out("eigs.vtk"), mesh, data)
    run.finish(
        {"num": args.num, "zero_modes": int(zero.sum()), "epsilon": args.epsilon,
         "bc": args.bc}
    )
    return EXIT_OK


def cmd_distance(args):
    run = Run(args)
    mesh = _load_mesh(run, args.mesh)
    field = _load_field(run, mesh, args.field)
    op = assemble_operator(mesh, field, args.epsilon, "neumann")
    emb = build_embedding(op, args.modes)
    d = distance_field(emb, args.source)
    _save_scalar_csv(run.out("distance.csv"), d)
    write_vtk(run.out("distance.vtk"), mesh, {"distance": d})
    if args.trace:
        paths = [trace_descent_path(mesh, d, s) for s in _parse_list(args.trace)]
        write_polyline_obj(run.out("paths.obj"), paths)
    run.finish({"source": args.source, "modes": args.modes, "epsilon": args.epsilon})
    return EXIT_OK


def cmd_color(args):
    run = Run(args)
    mesh = _load_mesh(run, args.mesh)
    field = _load_field(run, mesh, args.field)
    op = assemble_operator(mesh, field, args.epsilon, "natural")
    colors = _load_csv(run, args.boundary_colors)
    col = color_by_boundary(op, colors)
    np.savetxt(run.out("colors.csv"), col, delimiter=",", fmt=FMT)
    write_vtk(run.out("colors.vtk"), mesh, {"rgb": col})
    run.finish({"epsilon": args.epsilon})
    return EXIT_OK


# The optional ``validate`` flags each experiment takes, by keyword.
VALIDATE_FLAGS = {
    "square-spectrum": {"base_n"},
    "refine-spectrum": {"rings"},
    "warp": set(),
    "dirichlet-convergence": {"rings"},
    "anisotropy": {"rings"},
}


def cmd_validate(args):
    kwargs = {
        key: getattr(args, key)
        for key in ("base_n", "rings")
        if getattr(args, key) is not None
    }
    misapplied = sorted(set(kwargs) - VALIDATE_FLAGS[args.experiment])
    if misapplied:
        flags = ", ".join("--" + key.replace("_", "-") for key in misapplied)
        raise UsageError(f"{flags} does not apply to validate {args.experiment}")
    run = Run(args)
    report = VALIDATORS[args.experiment](**kwargs)
    report.write_csv(run.out(f"{report.name}.csv"))
    run.finish({"experiment": report.name, "passed": report.passed,
                "summary": report.summary})
    print(f"[{'PASS' if report.passed else 'FAIL'}] {report.name}: {report.summary}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


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
    p_gen.add_argument("--angle", type=float, default=0.0,
                       help="2D rotation of the constant frame")
    p_gen.add_argument("--axis", default="0,0,1", help="helical axis")
    p_gen.add_argument("--pitch", type=float, default=0.0,
                       help="helical twist rate (radians per unit length)")
    p_gen.add_argument("--map", default="polynomial",
                       choices=["polynomial", "exponential"])
    p_gen.add_argument("--c", type=float, default=0.05,
                       help="polynomial warp strength")
    p_gen.add_argument("--name", default="field.csv", help="output file name")
    p_gen.set_defaults(func=cmd_field_gen)

    def common(p, bc_default="neumann", eps_default=0.1):
        # bc_default=None leaves out --bc, for commands with a fixed BC.
        p.add_argument("--mesh", required=True)
        p.add_argument("--field", required=True)
        p.add_argument("--epsilon", type=float, default=eps_default)
        if bc_default is not None:
            p.add_argument("--bc", default=bc_default, choices=["natural", "neumann"])

    p_asm = sub.add_parser("assemble", help="write the operator as MatrixMarket")
    common(p_asm)
    p_asm.set_defaults(func=cmd_assemble)

    p_dir = sub.add_parser("dirichlet", help="boundary-value solve")
    common(p_dir, bc_default=None)
    p_dir.add_argument("--boundary", help="CSV of per-boundary-vertex values")
    p_dir.add_argument("--periods", type=int, default=4,
                       help="square-wave periods when --boundary is omitted")
    p_dir.set_defaults(func=cmd_dirichlet)

    p_diff = sub.add_parser("diffuse", help="one implicit-Euler diffusion step")
    common(p_diff, bc_default="natural")
    p_diff.add_argument("--tau", type=float, default=1e-5, help="diffusion time")
    p_diff.add_argument("--impulse", default="0",
                        help="comma-separated vertex indices for the Dirac sum")
    p_diff.add_argument("--u0", help="CSV with an explicit initial condition")
    p_diff.set_defaults(func=cmd_diffuse)

    p_eig = sub.add_parser(
        "eigs", help="smallest generalized eigenpairs (sparse LU shift-invert Lanczos)",
        description="Smallest generalized eigenpairs.  In eigenvalues.csv the "
                    "zero_mode column is 1 for an eigenvalue at or below "
                    f"{ZERO_MODE_RELTOL:g} times the largest computed one or "
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
    p_dist.set_defaults(func=cmd_distance)

    p_col = sub.add_parser("color", help="boundary-value coloring")
    common(p_col, bc_default=None, eps_default=0.01)
    p_col.add_argument("--boundary-colors", required=True,
                       help="CSV with one r,g,b row per boundary vertex")
    p_col.set_defaults(func=cmd_color)

    p_val = sub.add_parser("validate", help="run a validation experiment")
    p_val.add_argument("experiment", choices=sorted(VALIDATORS))
    p_val.add_argument("--base-n", type=int, default=None,
                       help="square-spectrum base resolution")
    p_val.add_argument("--rings", type=int, default=None,
                       help="disk resolution for refine-spectrum, "
                            "dirichlet-convergence and anisotropy")
    p_val.set_defaults(func=cmd_validate)
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
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
