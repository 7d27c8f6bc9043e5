import csv
import json
import sys

import numpy as np
import pytest

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    VALIDATE_FLAGS,
    main,
)
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

    # a ValueError from inside a command is a program fault, not bad input
    import framefieldops.cli as cli

    def fault(*a, **k):
        raise ValueError("synthetic fault")

    monkeypatch.setattr(cli, "assemble_operator", fault)
    with pytest.raises(ValueError, match="synthetic fault"):
        main(out + ["assemble", "--mesh", mesh, "--field", field])


def test_validate_exit_codes(monkeypatch, tmp_path):
    import framefieldops.cli as cli
    from framefieldops.validation import ValidationReport

    def fake_pass(**kw):
        return ValidationReport("warp", True, "ok", ["c"], [{"c": 0.0}])

    def fake_fail(**kw):
        return ValidationReport("warp", False, "bad", ["c"], [{"c": 0.0}])

    monkeypatch.setitem(cli.VALIDATORS, "warp", fake_pass)
    assert main(["-o", str(tmp_path), "validate", "warp"]) == EXIT_OK
    monkeypatch.setitem(cli.VALIDATORS, "warp", fake_fail)
    assert main(["-o", str(tmp_path), "validate", "warp"]) == EXIT_VALIDATION
    assert (tmp_path / "warp.csv").exists()


def test_log_level_shows_validation_progress(tmp_path, capsys):
    args = ["validate", "square-spectrum", "--base-n", "6"]
    main(["-o", str(tmp_path / "quiet"), *args])
    assert "square spectrum eps=" not in capsys.readouterr().err
    main(["-o", str(tmp_path / "loud"), "--log-level", "info", *args])
    err = capsys.readouterr().err
    # one line per (epsilon, bc, level) and one verdict line per epsilon
    assert err.count("INFO framefieldops.validation: square spectrum eps=") == 12
    assert err.count("best bc") == 2


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
    assert set(VALIDATE_FLAGS) == set(VALIDATORS)
    assert main(["-o", str(tmp_path / "out"), "validate", *args]) == EXIT_USAGE
    assert f"does not apply to validate {args[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
