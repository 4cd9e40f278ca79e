"""Golden outputs: the SHA-256 of stdout, stderr and every CSV of a set of
small runs, against ``tests/golden.json``.

A refactor that should not change any number is checked by this test
instead of by hand.  Bytes are only comparable on the numerical
environment that wrote the file (numpy, scipy, their BLAS, the CPU model
and the SIMD extensions numpy found on it); anywhere else the test
compares the numbers of every ``report.csv`` and ``convergence.csv`` at
a relative tolerance and says that bytes were not compared.

After a deliberate change of the outputs, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from hdivwave.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
# how far the error numbers may move on another numerical environment
RTOL = 1e-9
NUMBER_FILES = ("report.csv", "convergence.csv")

_CONVERGENCE = ["convergence", "--base-divisions", "8", "--levels", "0-1",
                "--tau", "0.001", "--T", "0.1"]
RUNS = {
    **{f"convergence-{kind}": _CONVERGENCE + ["--mesh-family", kind]
       for kind in ("structured-triangle", "structured-quad", "hybrid")},
    "hybrid-snapshots": ["run", "--mesh-family", "hybrid", "--level", "1",
                         "--snapshot-every", "10", "--grid-n", "37",
                         "--dump-matrices"],
    "perturbed-damped": ["run", "--mesh-family", "perturbed", "--seed", "3",
                         "--level", "1", "--tau", "auto", "--damping", "1.5",
                         "--snapshot-every", "10", "--grid-n", "4"],
    "quad-auto": ["run", "--mesh-family", "structured-quad", "--level", "1",
                  "--tau", "auto"],
    "verify": ["verify"],
}


def environment() -> dict[str, str]:
    """What the bytes of a run depend on besides the code."""
    def config(module, section, key):
        try:
            return module.show_config(mode="dicts")[section][key]
        except (TypeError, KeyError):  # versions without the dict form
            return {}

    def blas(module):
        b = config(module, "Build Dependencies", "blas")
        return f"{b.get('name')} {b.get('version')}"

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "cpu": cpu,
            # the vector width decides the order of numpy's reductions
            "cpu_simd": " ".join(config(np, "SIMD Extensions", "found"))}


def _numbers(path: Path) -> list[list[float | None]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    return [[float(x) if x else None for x in row] for row in rows]


def run_one(argv: list[str], out_dir: Path) -> dict:
    """Exit code, the hash of every output, and the error numbers."""
    out, err = io.StringIO(), io.StringIO()
    extra = [] if argv[0] == "verify" else ["--out-dir", str(out_dir)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + extra)
    files = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    paths = sorted(out_dir.glob("*.csv")) if out_dir.exists() else []
    files.update((p.name, p.read_bytes()) for p in paths)
    return {"argv": argv, "exit": code,
            "sha256": {k: hashlib.sha256(v).hexdigest()
                       for k, v in files.items()},
            "numbers": {p.name: _numbers(p) for p in paths
                        if p.name in NUMBER_FILES}}


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run_one(argv, Path(tmp) / name)
                for name, argv in RUNS.items()}


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= RTOL * abs(want)


def compare(golden: dict, runs: dict) -> None:
    """Assert ``runs`` match ``golden``: every hash on the environment
    that wrote it, else the error numbers, with a warning."""
    assert list(golden["runs"]) == list(runs), \
        "the run list changed; rewrite tests/golden.json"
    same_env = golden["environment"] == environment()
    problems = []
    for name, got in runs.items():
        want = golden["runs"][name]
        assert got["argv"] == want["argv"], f"{name}: rewrite tests/golden.json"
        if got["exit"] != want["exit"]:
            problems.append(f"{name}: exit {got['exit']}, not {want['exit']}")
        if same_env:
            changed = [f for f in sorted(set(got["sha256"]) | set(want["sha256"]))
                       if got["sha256"].get(f) != want["sha256"].get(f)]
            if changed:
                problems.append(f"{name}: {', '.join(changed)} changed")
            continue
        for f, rows in want["numbers"].items():
            new = got["numbers"].get(f)
            if new is None or len(new) != len(rows) or not all(
                    len(a) == len(b) and all(map(_close, a, b))
                    for a, b in zip(new, rows)):
                problems.append(f"{name}: {f} {new} != {rows}")
    assert not problems, "\n".join(problems)
    if not same_env:
        warnings.warn(f"golden outputs were written on {golden['environment']}, "
                      f"not on {environment()}: bytes were not compared, only "
                      f"the numbers of {', '.join(NUMBER_FILES)} at rtol {RTOL}")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    return run_all()


def test_outputs_match_the_golden_file(runs):
    compare(load_golden(), runs)


def test_another_environment_compares_the_numbers(runs):
    golden = load_golden()
    golden["environment"] = dict(golden["environment"], cpu="another CPU")
    with pytest.warns(UserWarning, match="bytes were not compared"):
        compare(golden, runs)
    golden["runs"]["quad-auto"]["numbers"]["report.csv"][0][1] *= 1 + 10 * RTOL
    with pytest.raises(AssertionError, match="quad-auto: report.csv"):
        compare(golden, runs)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"environment": environment(),
                                  "runs": run_all()}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
