"""Golden outputs: the SHA-256 of stdout, stderr and every output file of
a set of small runs, against ``tests/golden.json``.

A refactor that should not change any number is checked by this test
instead of by hand.  Bytes are only comparable on the numerical
environment that wrote the file (numpy, scipy, their BLAS, the CPU model
and the SIMD extensions numpy found on it); anywhere else the test
compares the numbers of every ``report.csv`` and ``convergence.csv`` at
a relative tolerance and says that bytes were not compared.

After a deliberate change of the outputs, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

``FULL_RUNS`` is a longer list of larger runs, kept out of the test
suite; ``--full`` selects it and its file ``tests/golden_full.json``,
and ``--check`` compares instead of writing, one line per case, with a
nonzero exit on any mismatch:

    PYTHONPATH=src python tests/test_golden.py --full --check
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
                "--tau", "0.001", "--T", "1.5"]
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
    "zero-data": ["run", "--mesh-family", "hybrid", "--level", "0",
                  "--benchmark", "zero", "--damping", "0.5"],
    "refused-tau": ["run", "--level", "0", "--tau", "1", "--T", "2"],
    "one-point-snapshots": ["run", "--level", "0", "--snapshot-every", "5",
                            "--grid-n", "1"],
    "export-mesh": ["export-mesh", "--mesh-family", "hybrid", "--level", "1"],
}

# base 8, level 1, T 0.5 unless a case says otherwise
_BASE = ["--base-divisions", "8"]
_RUN = ["run", *_BASE, "--level", "1", "--T", "0.5"]
FULL_RUNS = {
    **{f"convergence-{kind}-0123": ["convergence", *_BASE, "--mesh-family",
                                    kind, "--levels", "0,1,2,3", "--tau",
                                    "0.001", "--T", "2", "--assert"]
       for kind in ("structured-triangle", "structured-quad", "hybrid")},
    "hybrid-snapshots-matrices": _RUN + ["--mesh-family", "hybrid",
                                         "--snapshot-every", "20",
                                         "--dump-matrices"],
    "perturbed-damped": _RUN + ["--mesh-family", "perturbed", "--seed", "3",
                                "--tau", "auto", "--damping", "1.5"],
    "quad-auto": _RUN + ["--mesh-family", "structured-quad", "--tau", "auto"],
    "zero-data": _RUN + ["--mesh-family", "hybrid", "--benchmark", "zero",
                         "--damping", "0.5"],
    "perturbed-damped-snapshots": ["run", *_BASE, "--mesh-family",
                                   "perturbed", "--seed", "1", "--level", "2",
                                   "--T", "0.5", "--tau", "auto", "--damping",
                                   "1.5", "--snapshot-every", "20"],
    "convergence-perturbed-auto": ["convergence", *_BASE, "--mesh-family",
                                   "perturbed", "--levels", "0,1,2", "--tau",
                                   "auto", "--T", "0.5"],
    "verify": ["verify"],
    "verify-beta": ["verify", "--beta", "0.1"],
    "snapshots-workload": ["run", *_BASE, "--mesh-family", "perturbed",
                           "--seed", "3", "--level", "2", "--tau", "0.001",
                           "--T", "2", "--snapshot-every", "50", "--grid-n",
                           "100"],
    "triangle-snapshots-matrices": ["run", *_BASE, "--level", "2", "--T",
                                    "0.5", "--snapshot-every", "50",
                                    "--grid-n", "37", "--dump-matrices"],
    **{f"refused-tau-{tau}": _RUN + ["--tau", tau] for tau in ("0.05", "0.03")},
    "export-mesh-out-dir": ["export-mesh", *_BASE, "--level", "1"],
    "export-mesh-file": ["export-mesh", *_BASE, "--level", "1",
                         "--mesh-file", "<out-dir>/mesh.txt"],
    "hybrid-grid-1": _RUN + ["--mesh-family", "hybrid", "--grid-n", "1"],
    **{f"snapshots-{kind}-{n}{tau and '-tau-' + tau}": _RUN + [
        "--mesh-family", kind, "--snapshot-every", "5", "--grid-n", n,
        *(["--tau", tau] if tau else [])]
       for tau in ("", "0.001")
       for kind in ("structured-triangle", "structured-quad", "hybrid",
                    "perturbed")
       for n in ("1", "4", "37", "100")},
}
GOLDEN_FULL = GOLDEN.with_name("golden_full.json")
# stands for the output directory in argv and in stdout, which names it
OUT_DIR = "<out-dir>"


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
        code = main([a.replace(OUT_DIR, str(out_dir)) for a in argv] + extra)
    files = {"stdout": out.getvalue().replace(str(out_dir), OUT_DIR).encode(),
             "stderr": err.getvalue().encode()}
    paths = sorted(out_dir.iterdir()) if out_dir.exists() else []
    files.update((p.name, p.read_bytes()) for p in paths)
    return {"argv": argv, "exit": code,
            "sha256": {k: hashlib.sha256(v).hexdigest()
                       for k, v in files.items()},
            "numbers": {p.name: _numbers(p) for p in paths
                        if p.name in NUMBER_FILES}}


def run_all(runs: dict = RUNS) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run_one(argv, Path(tmp) / name)
                for name, argv in runs.items()}


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= RTOL * abs(want)


def case_problems(name: str, got: dict, want: dict,
                  same_env: bool) -> list[str]:
    """What differs in one run: its hashes on the environment that wrote
    ``want``, else its error numbers."""
    assert got["argv"] == want["argv"], f"{name}: rewrite the golden file"
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"{name}: exit {got['exit']}, not {want['exit']}")
    if same_env:
        changed = [f for f in sorted(set(got["sha256"]) | set(want["sha256"]))
                   if got["sha256"].get(f) != want["sha256"].get(f)]
        if changed:
            problems.append(f"{name}: {', '.join(changed)} changed")
        return problems
    for f, rows in want["numbers"].items():
        new = got["numbers"].get(f)
        if new is None or len(new) != len(rows) or not all(
                len(a) == len(b) and all(map(_close, a, b))
                for a, b in zip(new, rows)):
            problems.append(f"{name}: {f} {new} != {rows}")
    return problems


def compare(golden: dict, runs: dict) -> None:
    """Assert ``runs`` match ``golden``: every hash on the environment
    that wrote it, else the error numbers, with a warning."""
    assert list(golden["runs"]) == list(runs), \
        "the run list changed; rewrite tests/golden.json"
    same_env = golden["environment"] == environment()
    problems = [p for name, got in runs.items()
                for p in case_problems(name, got, golden["runs"][name],
                                       same_env)]
    assert not problems, "\n".join(problems)
    if not same_env:
        warnings.warn(f"golden outputs were written on {golden['environment']}, "
                      f"not on {environment()}: bytes were not compared, only "
                      f"the numbers of {', '.join(NUMBER_FILES)} at rtol {RTOL}")


def load_golden(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check(runs: dict, path: Path) -> int:
    """Run every case of ``runs`` against the golden file ``path`` and
    print one line per case; 1 if any case differs, else 0."""
    golden = load_golden(path)
    if list(golden["runs"]) != list(runs):
        print(f"the run list changed; rewrite {path.name}")
        return 1
    same_env = golden["environment"] == environment()
    if not same_env:
        print(f"{path.name} was written on {golden['environment']}: bytes "
              f"are not compared, only the numbers of "
              f"{', '.join(NUMBER_FILES)} at rtol {RTOL}")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs.items():
            problems = case_problems(name, run_one(argv, Path(tmp) / name),
                                     golden["runs"][name], same_env)
            print("; ".join(problems) if problems
                  else f"{name}: {'identical' if same_env else 'close'}",
                  flush=True)
            failed += bool(problems)
    print(f"{len(runs) - failed} of {len(runs)} cases match")
    return int(failed > 0)


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
    args = sys.argv[1:]
    if set(args) - {"--full", "--check"}:
        sys.exit("usage: test_golden.py [--full] [--check]")
    runs, path = (FULL_RUNS, GOLDEN_FULL) if "--full" in args else (RUNS,
                                                                   GOLDEN)
    if "--check" in args:
        sys.exit(check(runs, path))
    path.write_text(json.dumps({"environment": environment(),
                                "runs": run_all(runs)}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
