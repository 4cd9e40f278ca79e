"""Command-line interface, exercised in process through main(argv)."""

import csv

import numpy as np
import pytest

from hdivwave.cli import main
from hdivwave.mesh import MeshFamily, generate, load_mesh


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


# ----------------------------------------------------------------------- run

def test_run_writes_energy_and_report(tmp_path, capsys):
    rc = main(["run", "--mesh-family", "hybrid", "--level", "1",
               "--tau", "0.01", "--T", "0.2", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "energy.csv")
    assert rows[0] == ["t", "kinetic", "potential", "total"]
    assert len(rows) > 2
    rep = read_csv(tmp_path / "report.csv")
    assert rep[0][0] == "h" and len(rep) == 2
    out = capsys.readouterr().out
    assert "energy_error" in out


def test_run_snapshots_and_index(tmp_path):
    rc = main(["run", "--mesh-family", "structured-triangle", "--level", "1",
               "--tau", "0.01", "--T", "0.2", "--snapshot-every", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    index = read_csv(tmp_path / "snapshots.csv")
    assert index[0] == ["file", "t"]
    for name, t in index[1:]:
        assert (tmp_path / name).exists()
        float(t)


def test_run_dump_matrices_coordinate_format(tmp_path):
    rc = main(["run", "--mesh-family", "structured-quad", "--level", "0",
               "--tau", "0.02", "--T", "0.1", "--dump-matrices",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    for name in ("mass.csv", "stiffness.csv"):
        rows = read_csv(tmp_path / name)
        assert rows[0] == ["row", "col", "value"]
        for i, j, v in rows[1:]:
            int(i), int(j), float(v)
        assert len(rows) > 10


def test_run_unstable_tau_exits_2(tmp_path, capsys):
    rc = main(["run", "--mesh-family", "structured-triangle", "--level", "3",
               "--tau", "0.2", "--T", "0.5", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "stability" in capsys.readouterr().err


def test_run_negative_final_time_exits_2(tmp_path, capsys):
    rc = main(["run", "--T", "-1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--T", "inf"), ("--T", "nan"), ("--tau", "nan"), ("--tau", "inf"),
    ("--damping", "nan"), ("--damping", "inf"), ("--snapshot-every", "-3"),
])
def test_run_bad_parameter_exits_2_with_one_line(tmp_path, capsys, flag, value):
    rc = main(["run", "--level", "0", flag, value, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1


def test_run_perturbation_outside_range_exits_2_with_one_line(tmp_path, capsys):
    rc = main(["run", "--mesh-family", "perturbed", "--perturbation", "0.36",
               "--level", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: perturbation 0.36 out of range")
    assert err.count("\n") == 1


def test_run_energy_outputs_deterministic(tmp_path):
    args = ["run", "--mesh-family", "perturbed", "--seed", "2", "--level", "1",
            "--tau", "0.01", "--T", "0.2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert (a / "energy.csv").read_bytes() == (b / "energy.csv").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_run_from_mesh_file(tmp_path):
    mesh_path = tmp_path / "mesh.txt"
    rc = main(["export-mesh", "--mesh-family", "hybrid", "--level", "1",
               "--out-dir", str(tmp_path / "m")])
    assert rc == 0
    exported = next((tmp_path / "m").glob("*.txt"))
    rc = main(["run", "--mesh-file", str(exported), "--tau", "0.005",
               "--T", "0.1", "--out-dir", str(tmp_path / "r")])
    assert rc == 0
    assert (tmp_path / "r" / "energy.csv").exists()


def test_run_missing_mesh_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--mesh-file", str(tmp_path / "nope.txt"),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, names", [
    ("", "empty mesh file"),
    ("vertices 3 cells 1\n0 0\n1 0\nnan 1\ntri 0 1 2\n", "vertex 2"),
    ("vertices 3 cells 1\n0 0\n1 0 0\n0 1\ntri 0 1 2\n", "mesh.txt:3"),
], ids=["empty", "nan-vertex", "three-numbers"])
def test_run_bad_mesh_file_exits_2_with_one_line(tmp_path, capsys, text, names):
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    rc = main(["run", "--mesh-file", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert names in err


def test_run_snapshots_outside_mesh_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "half.txt"
    path.write_text("vertices 4 cells 2\n0 0\n0.5 0\n0.5 0.5\n0 0.5\n"
                    "tri 0 1 2\ntri 0 2 3\n")
    rc = main(["run", "--mesh-file", str(path), "--tau", "0.01", "--T", "0.1",
               "--snapshot-every", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "7500 of 10000 sample points outside the mesh" in err


# ---------------------------------------------------------------- config file

def test_config_file_sets_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh-family = structured-quad\nlevel = 0\n"
                   "tau = 0.02\nT = 0.1\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh-family = hybrid\nstep-size = 0.01\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "bad.cfg:2" in err


# --------------------------------------------------------------- convergence

def test_convergence_with_assert_passes(tmp_path, capsys):
    rc = main(["convergence", "--mesh-family", "structured-triangle",
               "--base-divisions", "4", "--levels", "0,1,2",
               "--tau", "0.005", "--T", "2", "--assert",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert rows[0][0] == "h" and len(rows) == 4
    out = capsys.readouterr().out
    assert "eoc" in out


def test_convergence_assert_fails_on_a_slow_pair(tmp_path, capsys):
    # mean rates 2.67/2.20 would pass; the 0->1 pair converges at 1.15/0.97
    rc = main(["convergence", "--mesh-family", "structured-quad",
               "--base-divisions", "4", "--levels", "0,1,2",
               "--tau", "0.005", "--T", "2", "--assert",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "energy 1.148 (levels 0->1), discrete 0.970 (levels 0->1) -> FAIL" \
        in out


def test_convergence_assert_needs_three_levels(tmp_path, capsys):
    rc = main(["convergence", "--levels", "0,1", "--tau", "0.01", "--T", "0.2",
               "--assert", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "level" in capsys.readouterr().err


# -------------------------------------------------------------------- verify

def test_verify_all_properties_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out.lower()


def test_verify_broken_weights_fail(capsys):
    assert main(["verify", "--beta", "0.1"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out.lower()


# --------------------------------------------------------------- export-mesh

def test_export_mesh_roundtrips(tmp_path):
    rc = main(["export-mesh", "--mesh-family", "perturbed", "--seed", "4",
               "--level", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    exported = next(tmp_path.glob("*.txt"))
    back = load_mesh(exported)
    ref = generate(MeshFamily("perturbed", seed=4), 1)
    assert np.array_equal(back.vertices, ref.vertices)
    assert back.cells == ref.cells
