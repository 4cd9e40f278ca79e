"""Command-line interface, exercised in process through main(argv)."""

import csv
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hdivwave
from hdivwave import cli, driver
from hdivwave.cli import build_parser, error_line, main, parse_args
from hdivwave.mesh import MAX_CELLS, MeshFamily, generate, load_mesh
from hdivwave.timeloop import LeapfrogSolver
from hdivwave.verify import CHECKS


ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def run_module(*args):
    """``python -m hdivwave.cli`` in a fresh process."""
    src = Path(hdivwave.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "hdivwave.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)


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


def test_run_grid_n_writes_indexed_grids_of_that_size(tmp_path):
    rc = main(["run", "--base-divisions", "2", "--level", "0", "--tau", "0.01",
               "--T", "0.1", "--snapshot-every", "5", "--grid-n", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    index = read_csv(tmp_path / "snapshots.csv")
    assert index[0] == ["file", "t"] and len(index) > 1
    for name, _ in index[1:]:
        rows = read_csv(tmp_path / name)
        assert len(rows) == 11 and all(len(row) == 10 for row in rows)


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


def test_csv_headers_and_line_endings(tmp_path):
    # csv.writer ends its rows in CRLF; the snapshot index and the matrix
    # dumps are written line by line and end in LF
    assert main(["run", "--base-divisions", "2", "--level", "0", "--tau",
                 "0.01", "--T", "0.2", "--snapshot-every", "5", "--grid-n",
                 "3", "--dump-matrices", "--out-dir", str(tmp_path)]) == 0
    assert main(["convergence", "--levels", "0,1", "--tau", "0.01", "--T",
                 "0.2", "--out-dir", str(tmp_path)]) == 0
    crlf, lf = b"\r\n", b"\n"
    expected = {
        "energy.csv": (b"t,kinetic,potential,total", crlf),
        "report.csv": (b"h,energy_error,discrete_error,vel_l2,div_l2,vel_h,"
                       b"div_h", crlf),
        "convergence.csv": (b"h,energy_error,discrete_error,eoc_energy,"
                            b"eoc_discrete", crlf),
        "snapshot_0000.csv": (b"x0,x1,x2", crlf),
        "snapshots.csv": (b"file,t", lf),
        "mass.csv": (b"row,col,value", lf),
        "stiffness.csv": (b"row,col,value", lf),
    }
    for name, (header, end) in expected.items():
        lines = (tmp_path / name).read_bytes().split(end)
        assert lines[0] == header, name
        assert lines[-1] == b"" and len(lines) > 2, name
        assert not any(b"\r" in line or b"\n" in line for line in lines), name


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
    ("--tau", "abc"), ("--grid-n", "0"), ("--grid-n", "-3"),
    ("--tau", "1e-300"),
])
def test_run_bad_parameter_exits_2_with_one_line(tmp_path, capsys, flag, value):
    rc = main(["run", "--level", "0", flag, value, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--base-divisions", "0", "base_divisions must be at least 1"),
    ("--level", "-1", "refinement level must be non-negative"),
], ids=["base-divisions-zero", "level-negative"])
def test_run_bad_mesh_size_exits_2_with_one_line(tmp_path, capsys, flag, value,
                                                 message):
    rc = main(["run", flag, value, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_perturbation_outside_range_exits_2_with_one_line(tmp_path, capsys):
    rc = main(["run", "--mesh-family", "perturbed", "--perturbation", "0.36",
               "--level", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: perturbation 0.36 out of range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "export-mesh"])
def test_negative_seed_of_the_perturbed_family_exits_2_with_one_line(
        tmp_path, capsys, command):
    rc = main([command, "--mesh-family", "perturbed", "--seed", "-1",
               "--level", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed -1 out of range") and \
        err.count("\n") == 1


@pytest.mark.parametrize("damping", ["1e100", "1e200", "1e300"])
def test_huge_damping_is_named_not_the_time_step(tmp_path, capsys, damping):
    # tau is within the stability limit, and the step is stable in d; the
    # Taylor start, explicit in d, is what blows up (without a warning)
    rc = main(["run", "--mesh-family", "hybrid", "--level", "0", "--tau",
               "0.001", "--damping", damping, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and " at step 1; " in err
    assert err.endswith(f"reduce damping * tau = {float(damping) / 1000:.3g}\n")


def test_run_out_of_memory_exits_2_with_one_line(tmp_path, capsys,
                                                monkeypatch):
    message = "Unable to allocate 800. MiB for an array with shape (1000,)"

    def out_of_memory(dofmap, forms):
        raise MemoryError(message)

    monkeypatch.setattr(driver, "assemble_stiffness", out_of_memory)
    rc = main(["run", "--level", "0", "--tau", "0.01", "--T", "0.1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_error_without_message_names_its_type(tmp_path, capsys,
                                              monkeypatch):
    def out_of_memory(dofmap, forms):
        raise MemoryError()

    monkeypatch.setattr(driver, "assemble_stiffness", out_of_memory)
    rc = main(["run", "--level", "0", "--tau", "0.01", "--T", "0.1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert error_line(ValueError("bad --T")) == "error: bad --T"


def test_run_step_count_over_the_cap_exits_2_at_once(tmp_path, capsys,
                                                    monkeypatch):
    def no_stepping(*args):
        raise AssertionError("a refused run must not start stepping")

    monkeypatch.setattr(LeapfrogSolver, "step", no_stepping)
    start = time.perf_counter()
    rc = main(["run", "--level", "0", "--tau", "0.001", "--T", "1e12",
               "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: T / tau = 1e+15 steps exceeds the cap of 10,000,000\n"


@pytest.mark.parametrize("argv", [
    ["run", "--level", "1000000000"],
    ["convergence", "--levels", "24,25"],
    ["export-mesh", "--level", "25"],
], ids=["run", "convergence", "export-mesh"])
def test_mesh_over_the_size_cap_exits_2_at_once(tmp_path, capsys, argv):
    start = time.perf_counter()
    rc = main(argv + ["--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: structured-triangle level ")
    assert err.endswith(f"more than the cap of {MAX_CELLS:,} cells\n")
    assert err.count("\n") == 1


def test_convergence_level_over_the_cap_refused_before_any_level_runs(
        tmp_path, capsys, monkeypatch):
    runs = []
    run_benchmark = driver.run_benchmark

    def counting(*args, **kwargs):
        runs.append(args[1])
        return run_benchmark(*args, **kwargs)

    monkeypatch.setattr(driver, "run_benchmark", counting)
    rc = main(["convergence", "--levels", "0,30", "--T", "0.1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert runs == []
    err = capsys.readouterr().err
    assert err.startswith("error: structured-triangle level 30 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "convergence"])
def test_unusable_out_dir_refused_before_the_run(tmp_path, capsys, monkeypatch,
                                                 command):
    def no_run(*args, **kwargs):
        raise AssertionError("an unusable --out-dir must be refused first")

    monkeypatch.setattr(cli, "run_benchmark", no_run)
    monkeypatch.setattr(cli, "convergence_study", no_run)
    (tmp_path / "afile").touch()
    rc = main([command, "--T", "0.1",
               "--out-dir", str(tmp_path / "afile" / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, path, message", [
    ("--out-dir", "x", "Not a directory"),
    ("--mesh-file", "m.txt", "File exists"),
], ids=["out-dir", "mesh-file"])
def test_unusable_export_path_refused_before_the_mesh(tmp_path, capsys,
                                                      monkeypatch, flag, path,
                                                      message):
    def no_mesh(*args, **kwargs):
        raise AssertionError("an unusable output path must be refused first")

    monkeypatch.setattr(cli, "generate", no_mesh)
    (tmp_path / "afile").touch()
    rc = main(["export-mesh", "--level", "6",
               flag, str(tmp_path / "afile" / path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (["run", "--T", "nan"], "--T must be positive"),
    (["run", "--tau", "abc"], "--tau must be a number"),
    (["run", "--damping", "nan"], "--damping must be >= 0"),
    (["run", "--snapshot-every", "-2"], "--snapshot-every must be >= 0"),
    (["run", "--mesh-family", "hybrid", "--base-divisions", "8", "--level",
      "30"], "hybrid level 30 at base 8 has more than the cap of"),
    (["run", "--grid-n", "0"], "--grid-n must be >= 1"),
    (["run", "--grid-n", "-3"], "--grid-n must be >= 1"),
    (["convergence", "--levels", "1,1"], "--levels must be"),
    (["run", "--level", "0", "--tau", "1e-300", "--T", "1e-300"],
     "--tau must be at least 1.5e-154"),
], ids=["T-nan", "tau-abc", "damping-nan", "snapshot-every", "size-cap",
        "grid-n-zero", "grid-n-negative", "levels-repeated", "tau-tiny"])
def test_module_bad_input_exits_2_with_one_line(tmp_path, args, message):
    # the process-level contract: exit code, one stderr line, empty stdout
    res = run_module(*args, "--out-dir", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {message}")
    assert res.stderr.count("\n") == 1 and res.stdout == ""


def test_run_outputs_independent_of_blas_threads(tmp_path):
    # 40,704 free dofs: numpy hands dot products this long to several
    # OpenBLAS threads, whose partial sums round differently
    src = Path(hdivwave.__file__).parents[1]
    args = [sys.executable, "-m", "hdivwave.cli", "run", "--mesh-family",
            "structured-triangle", "--base-divisions", "8", "--level", "3",
            "--tau", "0.001", "--T", "0.1", "--snapshot-every", "50"]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run(args + ["--out-dir", str(tmp_path / threads)], env=env,
                       check=True, capture_output=True, timeout=120)
    snapshots = sorted(p.name for p in (tmp_path / "1").glob("snapshot_*.csv"))
    assert snapshots
    for name in ["energy.csv", "report.csv", "snapshots.csv"] + snapshots:
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes(), name


def test_run_and_convergence_do_not_import_scipy_linalg(tmp_path):
    # importing scipy.linalg adds about 7 MB to the resident set of a run
    src = Path(hdivwave.__file__).parents[1]
    code = "\n".join([
        "import sys",
        "from hdivwave.cli import main",
        "assert main(['run', '--level', '0', '--tau', '0.01', '--T', '0.1',"
        " '--snapshot-every', '5', '--out-dir', sys.argv[1] + '/r']) == 0",
        "assert main(['convergence', '--levels', '0,1', '--tau', '0.01',"
        " '--T', '0.1', '--out-dir', sys.argv[1] + '/c']) == 0",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))",
    ])
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=path), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"


def test_run_energy_outputs_deterministic(tmp_path):
    args = ["run", "--mesh-family", "perturbed", "--seed", "2", "--level", "1",
            "--tau", "0.01", "--T", "0.2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert (a / "energy.csv").read_bytes() == (b / "energy.csv").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_run_from_mesh_file(tmp_path):
    rc = main(["export-mesh", "--mesh-family", "hybrid", "--level", "1",
               "--out-dir", str(tmp_path / "m")])
    assert rc == 0
    exported = next((tmp_path / "m").glob("*.txt"))
    run = ["run", "--tau", "0.005", "--T", "0.1"]
    assert main(run + ["--mesh-file", str(exported),
                       "--out-dir", str(tmp_path / "r")]) == 0
    assert main(run + ["--mesh-family", "hybrid", "--level", "1",
                       "--out-dir", str(tmp_path / "g")]) == 0
    assert (tmp_path / "r" / "energy.csv").read_bytes() \
        == (tmp_path / "g" / "energy.csv").read_bytes()
    # a mesh file carries no nominal h: the report's h is the longest edge
    from_file, generated = (read_csv(tmp_path / d / "report.csv")
                            for d in "rg")
    assert from_file[0] == generated[0]
    assert from_file[1][1:] == generated[1][1:]
    assert float(from_file[1][0]) == load_mesh(exported).edge_lengths().max()
    assert float(generated[1][0]) == 1 / 4


def test_run_missing_mesh_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--mesh-file", str(tmp_path / "nope.txt"),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, names", [
    ("", "empty mesh file"),
    ("vertices 3 cells 1\n0 0\n1 0\nnan 1\ntri 0 1 2\n", "vertex 2"),
    ("vertices 3 cells 1\n0 0\n1 0 0\n0 1\ntri 0 1 2\n", "mesh.txt:3"),
    ("vertices 3 cells 1\n0 0\n1e200 0\n0 1\ntri 0 1 2\n", "vertex 1"),
    ("vertices 3 cells 1\n0 0\n1 0\n0 1\ntri 0 1 3\n", "mesh.txt:5"),
    ("vertices 3 cells 2\n0 0\n1 0\n0 1\ntri 0 1 2\ntri 0 1 2\n",
     "cells 0 and 1 traverse edge (0, 1) in the same direction"),
    ("vertices 6 cells 3\n0 0\n1 0\n1 1\n0 1\n1 0.5\n2 0.5\n"
     "quad 0 1 2 3\ntri 1 5 4\ntri 4 5 2\n", "V - E + F = 0"),
    ("vertices 5 cells 2\n0 0\n1 0\n1 1\n0 1\n1 0\ntri 0 1 2\ntri 0 4 3\n",
     "vertices 1 and 4"),
    ("vertices 5 cells 3\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n"
     "tri 0 1 2\ntri 1 0 3\ntri 0 1 4\n",
     "error: non-manifold edge (0, 1) shared by 3 cells\n"),
], ids=["empty", "nan-vertex", "three-numbers", "huge-vertex", "index-range",
        "duplicate-cell", "hanging-node", "repeated-vertex",
        "non-manifold-edge"])
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


def test_config_file_level_reaches_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 0\ntau = 0.02\nT = 0.1\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("h = 0.5 ")


def test_config_skips_comments_and_blank_lines_and_reads_false(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# level 0, no matrices\n\nlevel = 0\ntau = 0.02\n"
                   "T = 0.1\ndump-matrices = false\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "energy.csv").exists()
    assert not (tmp_path / "mass.csv").exists()


def test_config_line_without_equals_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("level 0\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: expected 'key = value'\n"


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh-family = hybrid\nstep-size = 0.01\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "bad.cfg:2" in err


def _long_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return [(name, action) for name, p in sub.choices.items()
            for action in p._actions if action.dest not in ("help", "config")]


@pytest.mark.parametrize("command, action", _long_options(),
                         ids=lambda x: x if isinstance(x, str)
                         else x.option_strings[0][2:])
def test_config_key_gives_what_its_flag_gives(tmp_path, command, action):
    flag = action.option_strings[0]
    if action.nargs == 0:
        text, argv = "true", [flag]
    else:
        text = {int: "3", float: "0.25", None: "abc"}[action.type]
        if action.choices:
            text = next(c for c in action.choices if c != action.default)
        argv = [flag, text]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{flag[2:]} = {text}\n")
    from_flag = vars(parse_args([command] + argv))
    from_file = vars(parse_args([command, "--config", str(cfg)]))
    assert from_flag.pop("config") is None
    assert from_file.pop("config") == str(cfg)
    assert from_flag[action.dest] != action.default
    assert from_file == from_flag


@pytest.mark.parametrize("key", ["config", "help"])
def test_config_and_help_are_not_config_keys(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = x\n")
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {cfg}:1: unknown key {key!r}\n"


@pytest.mark.parametrize("text, line, key", [
    ("T = abc\n", 1, "T"),
    ("mesh-family = hybrid\nlevel = 1.5\n", 2, "level"),
    ("dump-matrices = maybe\n", 1, "dump-matrices"),
], ids=["T-float", "level-int", "dump-matrices-bool"])
def test_config_wrong_type_exits_2_with_one_line(tmp_path, capsys, text,
                                                 line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:{line}: {key} must be ")
    assert err.count("\n") == 1


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


def test_readme_convergence_loop_writes_one_csv_per_family(tmp_path, capsys):
    # the README loop, on a small configuration
    for family in ("structured-triangle", "structured-quad", "hybrid"):
        rc = main(["convergence", "--mesh-family", family,
                   "--base-divisions", "2", "--levels", "0,1", "--tau",
                   "0.01", "--T", "0.2", "--out-dir", str(tmp_path / family)])
        assert rc == 0
        rows = read_csv(tmp_path / family / "convergence.csv")
        assert rows[0][0] == "h" and len(rows) == 3
        assert len(capsys.readouterr().out.splitlines()) == 3


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


@pytest.mark.parametrize("levels", ["1,1,1", "2,1,0", "3-1", "a"])
def test_convergence_bad_levels_exit_2_with_one_line(tmp_path, capsys, levels):
    rc = main(["convergence", "--levels", levels, "--tau", "0.01",
               "--T", "0.1", "--assert", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --levels must be") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["convergence", "--levels", "0", "--tau", "0.01", "--T", "0.1",
     "--mesh-file", "x.txt"],
    ["export-mesh", "--level", "0", "--tau", "0.5"],
], ids=["convergence-mesh-file", "export-mesh-tau"])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run", "--T", "abc"], "argument --T: invalid float value: 'abc'"),
    (["convergence", "--base-divisions", "x"],
     "argument --base-divisions: invalid int value: 'x'"),
], ids=["run-T", "convergence-base-divisions"])
def test_flag_value_of_wrong_type_exits_2_with_one_line(tmp_path, capsys,
                                                        argv, message):
    rc = main(argv + ["--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -------------------------------------------------------------------- verify

def test_verify_all_properties_pass(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    assert all(line.startswith("PASS  ") for line in lines)
    names = {line[6:].split("  ")[0] for line in lines}
    assert len(names) == len(CHECKS)


def test_verify_broken_weights_fail(capsys):
    assert main(["verify", "--beta", "0.1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    failed = [line for line in lines if not line.startswith("PASS  ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  quadrature exactness ")


@pytest.mark.parametrize("value, from_config", [
    ("nan", False), ("inf", False), ("nan", True), ("-inf", True),
], ids=["nan", "inf", "config-nan", "config-minus-inf"])
def test_verify_nonfinite_beta_exits_2_with_one_line(tmp_path, capsys, value,
                                                     from_config):
    argv = ["verify", "--beta", value]
    if from_config:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"beta = {value}\n")
        argv = ["verify", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --beta must be finite, got {float(value)}\n"
    assert captured.out == ""


# --------------------------------------------------------------- export-mesh

def test_export_mesh_roundtrips(tmp_path):
    rc = main(["export-mesh", "--mesh-family", "perturbed", "--seed", "4",
               "--level", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    exported = next(tmp_path.glob("*.txt"))
    back = load_mesh(exported)
    ref = generate(MeshFamily("perturbed", seed=4), 1)
    assert np.array_equal(back.vertices, ref.vertices)
    assert np.array_equal(back.cells, ref.cells)


# -------------------------------------------------------------------- README

def readme_commands():
    """argv of every ``hdivwave`` command in README's ``sh`` blocks, lines
    joined at a trailing backslash; a ``for NAME in WORDS; do`` loop's
    body gives one argv per word, with $NAME replaced."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        var, values = None, [None]
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["for"]:
                var, values = "$" + words[1], [w.rstrip(";")
                                               for w in words[3:-1]]
            elif words[:1] == ["hdivwave"]:
                commands += [[w.replace(var, v) if var else w
                              for w in words[1:]] for v in values]
    return commands


def test_readme_commands_parse():
    # a README flag the option table lacks ends parse_args in SystemExit
    commands = readme_commands()
    assert {argv[0] for argv in commands} == \
        {"run", "convergence", "verify", "export-mesh"}
    assert sum(argv[0] == "convergence" for argv in commands) >= 4
    for argv in commands:
        parse_args(argv)
