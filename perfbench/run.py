"""Layered benchmark of the hdivwave pipeline.

    python3 perfbench/run.py --workload convergence --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Each repetition runs ``rep.py`` in a fresh process, one after
another, until the next one would end after ``--seconds``.  Outputs of
every repetition are checked against ``references.json``; a mismatch or
an exception counts as a failed operation and is left out of the
timings.  With ``--trace 0`` the last line holds the end-to-end metrics
(medians over repetitions); with ``--trace 1`` repetitions alternate
between traced and untraced and the last line holds the per-layer
metrics.  The line before it records the environment and every
repetition.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hooks
import probe
import workloads
from rep import HOOK_FAILURE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
DEADLINE_S = 170.0          # the whole run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "loop_s": "s",
              "peak_rss_mb": "MB"}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot say."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for ln in f:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy without a build-info dict
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh process; {"error": ...} if it failed."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode == HOOK_FAILURE:
        raise hooks.HookError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0 and "error" not in rep:
        rep["error"] = f"exit {proc.returncode}"
    return rep


def repetitions(args, reference: dict) -> list[dict]:
    """Run repetitions until the next one would end after --seconds."""
    start = time.monotonic()
    reps = []
    while True:
        began = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = run_rep(args.workload, args.seed, traced,
                      DEADLINE_S - (began - start))
        rep["traced"] = traced
        if "error" not in rep:
            bad = workloads.mismatches(rep["outputs"], reference)
            if bad:
                rep["error"] = "outputs differ from reference: " + "; ".join(bad)
        reps.append(rep)
        now = time.monotonic()
        needed = 2 if args.trace else 1
        if len(reps) >= needed and now + (now - began) - start > args.seconds:
            return reps
        if now + (now - began) - start > DEADLINE_S:
            return reps


def median_of(reps, key):
    """Median over repetitions; times are scaled to the nominal host speed."""
    if key == "peak_rss_mb":
        return statistics.median(r[key] for r in reps)
    return statistics.median(r[key] * probe.PROBE_NOMINAL_S / r["probe_s"]
                              for r in reps)


def summarize(args, reps: list[dict]) -> tuple[dict, list[str]]:
    ok = [r for r in reps if "error" not in r]
    notes = [f"repetition {i}: {r['error']}" for i, r in enumerate(reps)
             if "error" in r]
    metrics = {}
    if not args.trace:
        if ok:
            metrics = {k: {"value": median_of(ok, k), "unit": unit}
                       for k, unit in END_TO_END.items()}
        return metrics, notes
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    if not (traced and plain):
        return metrics, notes
    for name, (unit, _) in hooks.LAYER_METRICS.items():
        values = [r["layers"][name] for r in traced
                  if r["layers"][name] is not None]
        metrics[name] = {"value": statistics.median(values) if values else 0,
                         "unit": unit}
    notes += sorted({n for r in traced for n in r["notes"]})
    metrics["trace.overhead_s"] = {
        "value": median_of(traced, "wall_s") - median_of(plain, "wall_s"),
        "unit": "s"}
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hdivwave" / "__init__.py").is_file():
        print(f"perfbench: no hdivwave sources under {SRC}", file=sys.stderr)
        return 2
    key = str(workloads.mesh_seed(args.workload, args.seed))
    reference = json.loads(REFERENCES.read_text())[args.workload][key]
    env = environment(args.seed)
    try:
        reps = repetitions(args, reference)
    except hooks.HookError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, notes = summarize(args, reps)
    failed = sum("error" in r for r in reps)
    detail = {"workload": args.workload, "seed": args.seed,
              "mesh_seed": int(key), "trace": args.trace,
              "environment": env, "notes": notes,
              "repetitions": [{k: r.get(k) for k in (
                  "traced", "probe_s", "wall_s", "cpu_s", "setup_s",
                  "loop_s", "peak_rss_mb", "error")} for r in reps]}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
