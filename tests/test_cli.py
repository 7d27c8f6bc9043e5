import argparse
import csv
import hashlib
import inspect
import json
import sys
import warnings

import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.analytic import MAPS, conformal_warp
from framefieldops.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    UsageError,
    build_parser,
    main,
)
from framefieldops.fem import BC_KINDS
from framefieldops.validation import VALIDATORS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    disk = meshgen.disk(6)
    ff.save_mesh(disk, root / "disk.off")
    ball = ff.refine_uniform(meshgen.ball())
    ff.save_mesh(ball, root / "ball.mesh")
    assert main(
        ["-o", str(root / "gen"), "field", "gen", "--mesh", str(root / "disk.off"),
         "--kind", "harmonic2d"]
    ) == EXIT_OK
    return root


def test_field_gen_variants(workspace):
    assert main(
        ["-o", str(workspace / "helical"), "field", "gen",
         "--mesh", str(workspace / "ball.mesh"), "--kind", "helical",
         "--pitch", "0.4"]
    ) == EXIT_OK
    ball = ff.load_mesh(workspace / "ball.mesh")
    hel = ff.load_field(ball, workspace / "helical" / "field.csv")
    expected = ff.helical_field_3d(ball, [0.0, 0.0, 1.0], 0.4)
    assert np.abs(hel.forms() - expected.forms()).max() < 1e-12
    assert main(
        ["-o", str(workspace / "coframe"), "field", "gen",
         "--mesh", str(workspace / "disk.off"), "--kind", "coframe",
         "--map", "polynomial", "--c", "0.04"]
    ) == EXIT_OK
    assert (workspace / "coframe" / "warped_disk.off").exists()
    warped = ff.load_mesh(workspace / "coframe" / "warped_disk.off")
    field = ff.load_field(warped, workspace / "coframe" / "field.csv")
    assert field.kind == "conformal_octahedral"
    # helical with zero pitch equals the constant axis field
    assert main(
        ["-o", str(workspace / "flat"), "field", "gen",
         "--mesh", str(workspace / "ball.mesh"), "--kind", "helical",
         "--pitch", "0.0"]
    ) == EXIT_OK
    flat = ff.load_field(ball, workspace / "flat" / "field.csv")
    const = ff.constant_field(ball, ff.axis_frame(3))
    assert np.abs(flat.forms() - const.forms()).max() < 1e-12


def test_field_gen_pulls_back_through_the_exponential_map(workspace, small_square_mesh):
    ff.save_mesh(small_square_mesh, workspace / "square.obj")
    assert main(
        ["-o", str(workspace / "exponential"), "field", "gen",
         "--mesh", str(workspace / "square.obj"), "--kind", "coframe", "--map", "exponential"]
    ) == EXIT_OK
    square = ff.load_mesh(workspace / "square.obj")
    warped, expected = conformal_warp("exponential").pullback(square)
    written = ff.load_mesh(workspace / "exponential" / "warped_square.obj")
    assert np.abs(written.vertices - warped.vertices).max() <= 1e-15 * np.e
    field = ff.load_field(written, workspace / "exponential" / "field.csv")
    Q, Q_expected = field.forms(), expected.forms()
    assert np.abs(Q - Q_expected).max() <= 1e-12 * np.abs(Q_expected).max()


def _subcommand_choices(path, option):
    """The choices of ``option`` under the subcommand ``path`` of the parser."""
    parser = build_parser()
    for name in path:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = commands.choices[name]
    return next(a for a in parser._actions if option in a.option_strings).choices


def test_parser_choices_are_the_package_tables():
    assert _subcommand_choices(["field", "gen"], "--map") == list(MAPS)
    for command in ("assemble", "diffuse", "eigs"):
        assert _subcommand_choices([command], "--bc") == BC_KINDS


def test_field_gen_angle_is_two_dimensional(workspace):
    # --angle turns the constant 2D cross; a 3D mesh has no such angle
    assert main(
        ["-o", str(workspace / "turned"), "field", "gen",
         "--mesh", str(workspace / "disk.off"), "--kind", "constant",
         "--angle", "0.3"]
    ) == EXIT_OK
    disk = ff.load_mesh(workspace / "disk.off")
    turned = ff.load_field(disk, workspace / "turned" / "field.csv")
    c, s = np.cos(0.3), np.sin(0.3)
    frame = ff.OdecoFrame(np.array([[c, s], [-s, c]]), np.ones(2))
    expected = ff.constant_field(disk, frame)
    assert np.abs(turned.forms() - expected.forms()).max() < 1e-15
    assert main(
        ["-o", str(workspace / "turned3d"), "field", "gen",
         "--mesh", str(workspace / "ball.mesh"), "--kind", "constant",
         "--angle", "0.3"]
    ) == EXIT_USAGE


@pytest.mark.parametrize("angle", ["inf", "nan"])
def test_field_gen_refuses_a_non_finite_angle(workspace, tmp_path, capsys, angle):
    # cos(inf) used to warn, and the frame check then blamed the components
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(
            ["-o", str(tmp_path / "out"), "field", "gen",
             "--mesh", str(workspace / "disk.off"), "--kind", "constant",
             "--angle", angle]
        ) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: angle must be finite with shape (), got {angle}" in err


def test_assemble_writes_matrixmarket(workspace):
    out = workspace / "asm"
    assert main(
        ["-o", str(out), "assemble", "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"),
         "--epsilon", "0.2", "--bc", "neumann"]
    ) == EXIT_OK
    from scipy.io import mmread

    A = mmread(out / "operator.mtx").tocsr()
    M = mmread(out / "mass.mtx").tocsr()
    disk = ff.load_mesh(workspace / "disk.off")
    field = ff.load_field(disk, workspace / "gen" / "field.csv")
    op = ff.assemble_operator(disk, field, 0.2, "neumann")
    assert abs(A - op.matrix).max() < 1e-15
    assert np.abs(M.diagonal() - op.vertex_mass).max() < 1e-15
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] and manifest["versions"]["framefieldops"]
    digest = hashlib.sha256((out / "operator.mtx").read_bytes()).hexdigest()
    assert manifest["outputs"][str(out / "operator.mtx")] == digest


@pytest.mark.parametrize(
    "command, extra, epsilon, bc",
    [
        ("assemble", ["--bc", "natural"], 0.1, "natural"),
        ("dirichlet", [], 0.1, "neumann"),
        ("diffuse", [], 0.1, "natural"),
        ("eigs", ["--num", "6"], 0.1, "neumann"),
        ("distance", ["--modes", "8"], 0.1, "neumann"),
        ("color", ["--boundary-colors", "colors.csv"], 0.01, "natural"),
    ],
)
def test_manifest_records_the_operator_fingerprint(workspace, command, extra, epsilon, bc):
    disk = ff.load_mesh(workspace / "disk.off")
    field = ff.load_field(disk, workspace / "gen" / "field.csv")
    nb = len(ff.compute_measures(disk).boundary_vertices)
    np.savetxt(workspace / "colors.csv", np.linspace(0.0, 1.0, 3 * nb).reshape(nb, 3),
               delimiter=",")
    extra = [str(workspace / a) if a.endswith(".csv") else a for a in extra]
    out = workspace / f"fp_{command}"
    assert main(
        ["-o", str(out), command, "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"), *extra]
    ) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    expected = ff.assemble_operator(disk, field, epsilon, bc).fingerprint
    assert manifest["fingerprint"] == expected
    # every parsed option, the fixed BCs and defaults included, is recorded
    assert manifest["options"]["epsilon"] == epsilon
    assert manifest["options"]["bc"] == bc
    assert manifest["options"]["command"] == command
    assert not {"func", "argv"} & set(manifest["options"])
    # a command that assembles nothing records no fingerprint
    gen = json.loads((workspace / "gen" / "manifest.json").read_text())
    assert "fingerprint" not in gen
    assert gen["options"]["kind"] == "harmonic2d"
    assert gen["field_kind"] == field.kind


def test_eigs_flags_zero_mode(workspace):
    out = workspace / "eigs"
    assert main(
        ["-o", str(out), "eigs", "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"), "--num", "10"]
    ) == EXIT_OK
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    header, first = lines[0], lines[1].split(",")
    assert header == "index,eigenvalue,zero_mode"
    assert first[2] == "1"  # Neumann constant mode flagged
    rows = np.loadtxt(out / "eigs.csv", delimiter=",")
    assert rows.shape[0] == 10


def test_eigs_flags_round_off_zero_modes_by_the_operator_scale(workspace):
    # The natural box(5, 5, 5) has 34 zero modes, so every one of 6
    # requested values is round-off; measured against the largest of them
    # alone, 2 of the 6 were called nonzero.
    ff.save_mesh(meshgen.box(5, 5, 5), workspace / "box.mesh")
    assert main(
        ["-o", str(workspace / "box_field"), "field", "gen",
         "--mesh", str(workspace / "box.mesh"), "--kind", "constant"]
    ) == EXIT_OK
    out = workspace / "box_eigs"
    assert main(
        ["-o", str(out), "eigs", "--mesh", str(workspace / "box.mesh"),
         "--field", str(workspace / "box_field" / "field.csv"),
         "--bc", "natural", "--num", "6"]
    ) == EXIT_OK
    with open(out / "eigenvalues.csv") as fh:
        flags = [row["zero_mode"] for row in csv.DictReader(fh)]
    assert flags == ["1"] * 6
    assert json.loads((out / "manifest.json").read_text())["zero_modes"] == 6


def test_diffuse_deterministic_rerun(workspace):
    args = ["diffuse", "--mesh", str(workspace / "disk.off"),
            "--field", str(workspace / "gen" / "field.csv"),
            "--epsilon", "0.04", "--tau", "1e-5", "--impulse", "0"]
    assert main(["-o", str(workspace / "d1"), *args]) == EXIT_OK
    assert main(["-o", str(workspace / "d2"), *args]) == EXIT_OK
    b1 = (workspace / "d1" / "diffused.csv").read_bytes()
    b2 = (workspace / "d2" / "diffused.csv").read_bytes()
    assert b1 == b2
    v1 = (workspace / "d1" / "diffused.vtk").read_bytes()
    v2 = (workspace / "d2" / "diffused.vtk").read_bytes()
    assert v1 == v2


def test_dirichlet_and_distance_and_color(workspace):
    assert main(
        ["-o", str(workspace / "dir"), "dirichlet",
         "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"), "--epsilon", "0.05",
         "--periods", "3"]
    ) == EXIT_OK
    assert main(
        ["-o", str(workspace / "dist"), "distance",
         "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"),
         "--modes", "24", "--source", "0", "--trace", "30,60"]
    ) == EXIT_OK
    assert (workspace / "dist" / "paths.obj").exists()
    d = np.loadtxt(workspace / "dist" / "distance.csv", delimiter=",")
    assert d[0] == 0.0 and d[1:].min() > 0.0

    disk = ff.load_mesh(workspace / "disk.off")
    nb = len(ff.compute_measures(disk).boundary_vertices)
    colors = np.random.default_rng(1).uniform(0.0, 1.0, (nb, 3))
    np.savetxt(workspace / "colors.csv", colors, delimiter=",")
    assert main(
        ["-o", str(workspace / "col"), "color",
         "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"),
         "--boundary-colors", str(workspace / "colors.csv")]
    ) == EXIT_OK
    col = np.loadtxt(workspace / "col" / "colors.csv", delimiter=",")
    assert col.min() >= colors.min() - 1e-12
    assert col.max() <= colors.max() + 1e-12


def test_exit_codes(workspace, monkeypatch, tmp_path):
    assert main(["-o", str(tmp_path), "assemble", "--mesh", "/no/such.off",
                 "--field", "x"]) == EXIT_INPUT
    assert main(["definitely-not-a-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE

    # numerical failures map to their own code
    import framefieldops.cli as cli

    def boom(*a, **k):
        raise ff.NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "assemble_operator", boom)
    assert main(
        ["-o", str(tmp_path), "assemble", "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv")]
    ) == EXIT_NUMERICAL


def test_input_errors_and_program_faults(workspace, monkeypatch, tmp_path):
    assert issubclass(ff.ParameterError, ValueError)
    assert issubclass(ff.ParameterError, ff.FrameFieldOpsError)
    mesh = str(workspace / "disk.off")
    field = str(workspace / "gen" / "field.csv")
    out = ["-o", str(tmp_path)]
    assert main(out + ["assemble", "--mesh", mesh, "--field", field,
                       "--eps", "2"]) == EXIT_INPUT
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("0.1,1,1\n0.2,x,1\n")
    assert main(out + ["assemble", "--mesh", mesh, "--field", str(garbled)]) == EXIT_INPUT
    assert main(out + ["diffuse", "--mesh", mesh, "--field", field,
                       "--u0", str(garbled)]) == EXIT_INPUT
    assert main(out + ["dirichlet", "--mesh", mesh, "--field", field,
                       "--boundary", str(garbled)]) == EXIT_INPUT
    assert main(out + ["diffuse", "--mesh", mesh, "--field", field,
                       "--impulse", "1,a"]) == EXIT_USAGE
    # one u0 value per vertex, and a positive time: NaN is not one
    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n")
    assert main(out + ["diffuse", "--mesh", mesh, "--field", field,
                       "--u0", str(short)]) == EXIT_INPUT
    assert main(out + ["diffuse", "--mesh", mesh, "--field", field,
                       "--tau", "nan"]) == EXIT_INPUT
    # a non-finite map coefficient, and a 3D field row with a zero quaternion
    for c in ("nan", "inf"):
        assert main(out + ["field", "gen", "--mesh", mesh, "--kind", "coframe",
                           "--c", c]) == EXIT_INPUT
    ball = str(workspace / "ball.mesh")
    zero = tmp_path / "zero_quaternion.csv"
    nv = ff.load_mesh(ball).num_vertices
    rows = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0], (nv, 1))
    rows[3, :4] = 0.0
    np.savetxt(zero, rows, delimiter=",")
    assert main(out + ["assemble", "--mesh", ball, "--field", str(zero)]) == EXIT_INPUT

    # a ValueError from inside a command is a program fault, not bad input
    import framefieldops.cli as cli

    def fault(*a, **k):
        raise ValueError("synthetic fault")

    monkeypatch.setattr(cli, "assemble_operator", fault)
    with pytest.raises(ValueError, match="synthetic fault"):
        main(out + ["assemble", "--mesh", mesh, "--field", field])


def test_color_with_a_nan_in_the_csv_is_bad_input(workspace, tmp_path, capsys):
    disk = ff.load_mesh(workspace / "disk.off")
    colors = np.full((len(ff.compute_measures(disk).boundary_vertices), 3), 0.5)
    colors[2, 1] = np.nan
    np.savetxt(tmp_path / "colors.csv", colors, delimiter=",")
    assert main(
        ["-o", str(tmp_path / "out"), "color", "--mesh", str(workspace / "disk.off"),
         "--field", str(workspace / "gen" / "field.csv"),
         "--boundary-colors", str(tmp_path / "colors.csv")]
    ) == EXIT_INPUT
    assert "input error: colors must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["61", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [("diffuse", "--impulse"), ("distance", "--source"), ("distance", "--trace")],
)
def test_vertex_indices_are_checked_at_entry(tmp_path, capsys, command, flag, index):
    # disk(4) has 61 vertices: 61 is one past the last, and -1 must not
    # count back from the end; either fails before any solve or output
    mesh = meshgen.disk(4)
    assert mesh.num_vertices == 61
    ff.save_mesh(mesh, tmp_path / "disk.off")
    ff.save_field(ff.constant_field(mesh, ff.axis_frame(2)), tmp_path / "field.csv")
    out = tmp_path / "out"
    assert main(
        ["-o", str(out), command, "--mesh", str(tmp_path / "disk.off"),
         "--field", str(tmp_path / "field.csv"), f"{flag}={index}",
         *(["--modes", "8"] if command == "distance" else [])]
    ) == EXIT_INPUT
    assert f"input error: {flag}: vertex {index} " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag, named",
    [("eigs", "--num", "k"), ("distance", "--modes", "count")],
)
def test_oversized_spectrum_requests_are_bad_input(tmp_path, capsys, command, flag, named):
    # disk(3) has 37 vertices, too few for 100 eigenpairs with or without
    # the zero modes
    mesh = meshgen.disk(3)
    assert mesh.num_vertices == 37
    ff.save_mesh(mesh, tmp_path / "disk.off")
    ff.save_field(ff.constant_field(mesh, ff.axis_frame(2)), tmp_path / "field.csv")
    assert main(
        ["-o", str(tmp_path / "out"), command, "--mesh", str(tmp_path / "disk.off"),
         "--field", str(tmp_path / "field.csv"), flag, "100"]
    ) == EXIT_INPUT
    assert f"input error: {named}" in capsys.readouterr().err


def test_validate_exit_codes(monkeypatch, tmp_path):
    import framefieldops.cli as cli
    from framefieldops.validation import ValidationReport

    def fake_pass(**kw):
        return ValidationReport("warp", True, "ok", [{"c": 0.0}])

    def fake_fail(**kw):
        return ValidationReport("warp", False, "bad", [{"c": 0.0}])

    monkeypatch.setitem(cli.VALIDATORS, "warp", fake_pass)
    assert main(["-o", str(tmp_path), "validate", "warp"]) == EXIT_OK
    monkeypatch.setitem(cli.VALIDATORS, "warp", fake_fail)
    assert main(["-o", str(tmp_path), "validate", "warp"]) == EXIT_VALIDATION
    # the CSV columns are the keys of the report's first row
    assert (tmp_path / "warp.csv").read_text() == "c\n0.00000000000000000e+00\n"


def test_log_level_shows_validation_progress(tmp_path, capsys):
    args = ["validate", "square-spectrum", "--base-n", "6"]
    main(["-o", str(tmp_path / "quiet"), *args])
    assert "square spectrum eps=" not in capsys.readouterr().err
    main(["-o", str(tmp_path / "loud"), "--log-level", "info", *args])
    err = capsys.readouterr().err
    # one line per (epsilon, bc, level) and one verdict line per epsilon
    assert err.count("INFO framefieldops.validation: square spectrum eps=") == 12
    assert err.count("best bc") == 2


def test_validate_with_a_negative_size_is_bad_input(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["-o", str(out), "validate", "square-spectrum", "--base-n=-2"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: n must lie in [1, inf), got -2" in err
    assert "Traceback" not in err


def test_validate_small_runs(tmp_path):
    # the isotropy check needs the isoline resolved, so anisotropy runs at
    # its default disk size (still a couple of seconds)
    assert main(
        ["-o", str(tmp_path / "aniso"), "validate", "anisotropy"]
    ) == EXIT_OK
    assert main(
        ["-o", str(tmp_path / "dir"), "validate", "dirichlet-convergence"]
    ) == EXIT_OK


def test_manifest_records_argv_and_rings_reach_dirichlet(monkeypatch, tmp_path):
    # called from Python with nothing on the real command line
    monkeypatch.setattr(sys, "argv", ["framefieldops"])
    argv = ["-o", str(tmp_path), "validate", "dirichlet-convergence", "--rings", "3"]
    assert main(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == argv
    with open(tmp_path / "dirichlet-convergence.csv") as fh:
        first = next(csv.DictReader(fh))
    expected = ff.mean_edge_length(meshgen.disk(3))
    assert float(first["mean_edge_length"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ["warp", "--rings", "4"],
        ["warp", "--base-n", "6"],
        ["square-spectrum", "--rings", "4"],
        ["refine-spectrum", "--base-n", "6"],
        ["dirichlet-convergence", "--base-n", "6"],
        ["anisotropy", "--base-n", "6", "--rings", "4"],
    ],
)
def test_validate_rejects_misapplied_flags(args, tmp_path, capsys):
    assert main(["-o", str(tmp_path / "out"), "validate", *args]) == EXIT_USAGE
    assert f"unrecognized arguments: {args[1]} {args[2]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", sorted(VALIDATORS))
def test_validate_offers_exactly_the_flags_its_validator_takes(experiment):
    params = inspect.signature(VALIDATORS[experiment]).parameters
    parser = build_parser()
    for key in ("base_n", "rings"):
        argv = ["validate", experiment, "--" + key.replace("_", "-"), "3"]
        if key in params:
            assert getattr(parser.parse_args(argv), key) == 3
            assert getattr(parser.parse_args(argv[:2]), key) == params[key].default
        else:
            with pytest.raises(UsageError, match="unrecognized arguments"):
                parser.parse_args(argv)
