"""Smoke tests: each script in scripts/ runs on a tiny configuration."""
import csv
import os
import subprocess
import sys
from pathlib import Path

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
