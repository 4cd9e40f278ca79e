"""Smoke tests: each script in scripts/ runs on a tiny configuration."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hdivwave

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = Path(hdivwave.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_convergence_table_writes_one_csv_per_family(tmp_path):
    res = run_script("convergence_table.py", "--base-divisions", "2",
                     "--levels", "0,1", "--tau", "0.01", "--T", "0.2",
                     "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    for kind in ("structured-triangle", "structured-quad", "hybrid"):
        with open(tmp_path / f"convergence_{kind}.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "h" and len(rows) == 3
        assert kind in res.stdout
    assert "lowest" in res.stdout


def test_wave_snapshots_writes_indexed_grids(tmp_path):
    res = run_script("wave_snapshots.py", "--base-divisions", "2",
                     "--level", "0", "--tau", "0.01", "--T", "0.1",
                     "--snapshot-every", "5", "--grid-n", "10",
                     "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "index.csv", newline="") as f:
        index = list(csv.reader(f))
    assert index[0] == ["file", "t"] and len(index) > 1
    for name, _ in index[1:]:
        with open(tmp_path / name, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 11 and len(rows[0]) == 10
    assert f"wrote {len(index) - 1} snapshots" in res.stdout


@pytest.mark.parametrize("script, args, message", [
    ("wave_snapshots.py", ["--T", "nan"], "--T must be positive"),
    ("wave_snapshots.py", ["--tau", "abc"], "--tau must be a number"),
    ("wave_snapshots.py", ["--damping", "nan"], "--damping must be >= 0"),
    ("wave_snapshots.py", ["--snapshot-every", "-2"],
     "--snapshot-every must be >= 0"),
    ("wave_snapshots.py", ["--level", "30"], "hybrid level 30 at base 8 has "
                                             "more than the cap of"),
    ("wave_snapshots.py", ["--grid-n", "0"], "--grid-n must be >= 1"),
    ("wave_snapshots.py", ["--grid-n", "-3"], "--grid-n must be >= 1"),
    ("convergence_table.py", ["--levels", "1,1"], "--levels must be"),
], ids=["T-nan", "tau-abc", "damping-nan", "snapshot-every", "size-cap",
        "grid-n-zero", "grid-n-negative", "levels-repeated"])
def test_bad_input_exits_2_with_one_line(tmp_path, script, args, message):
    res = run_script(script, *args, "--out-dir", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {message}")
    assert res.stderr.count("\n") == 1 and res.stdout == ""
