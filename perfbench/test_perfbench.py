"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q perfbench"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import hooks
import probe
import run
import workloads

# A small problem of the snapshots workload's shape: every layer runs.
SMALL = {"levels": (1,), "T": 0.2}
COUNTS = ("assembly.BlockSolver.builds", "assembly.BlockSolver.used_ratio",
          "assembly.BlockSolver.solves", "timeloop.power_iterations",
          "timeloop.steps", "timeloop.energy_samples", "driver.snapshots",
          "mesh.cells", "assembly.ndof", "assembly.free_dofs")


def traced_pass(seed=3, **overrides):
    rec = hooks.Recorder()
    with hooks.installed(rec, traced=True):
        t0 = time.perf_counter()
        workloads.call("snapshots", seed, **{**SMALL, **overrides})
        wall = time.perf_counter() - t0
    return rec, wall


def test_traced_counts_repeat_exactly():
    first, wall = traced_pass()
    second, _ = traced_pass()
    a, _ = hooks.layer_metrics(first)
    b, _ = hooks.layer_metrics(second)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["assembly.BlockSolver.builds"] == 3
    assert a["timeloop.power_iterations"] > 0
    assert a["driver.snapshots"] > 0
    assert hooks.self_time_total(first) <= wall


def test_hooks_are_removed_afterwards():
    from hdivwave import assembly, driver, timeloop

    before = (driver.run_benchmark, timeloop.constrain,
              assembly.BlockSolver.solve, driver.LeapfrogSolver.step)
    traced_pass()
    assert before == (driver.run_benchmark, timeloop.constrain,
                      assembly.BlockSolver.solve, driver.LeapfrogSolver.step)


def test_missing_layer_target_is_reported_absent(monkeypatch):
    gone = tuple(dataclasses.replace(t, attr="constrain_removed")
                 if t.name == "assembly.constrain" else t
                 for t in hooks.LAYERS)
    monkeypatch.setattr(hooks, "LAYERS", gone)
    rec, _ = traced_pass()
    values, notes = hooks.layer_metrics(rec)
    assert values["assembly.constrain.self_s"] is None
    assert any(n.startswith("assembly.constrain.self_s: absent") for n in notes)
    assert values["assembly.BlockSolver.builds"] == 3


def test_missing_phase_mark_fails_loudly(monkeypatch):
    from hdivwave import driver

    monkeypatch.delattr(driver, "build_sampler")
    with pytest.raises(hooks.HookError, match="build_sampler"):
        traced_pass()
    assert "build_sampler" not in vars(driver)


def test_unreached_phase_mark_fails_loudly():
    rec = hooks.Recorder()
    rec.spans = [["driver.run_benchmark", 0.0, 2.0, -1],
                 ["timeloop.LeapfrogSolver.start", 1.0, 1.1, 0]]
    with pytest.raises(hooks.HookError, match="error_report"):
        hooks.phases(rec)


def test_phases_split_the_level():
    rec = hooks.Recorder()
    rec.spans = [["driver.run_benchmark", 0.0, 10.0, -1],
                 ["timeloop.LeapfrogSolver.start", 3.0, 3.5, 0],
                 ["assembly.build_sampler", 3.5, 5.0, 0],
                 ["analysis.error_report", 9.0, 9.8, 0]]
    assert hooks.phases(rec) == [{"setup_s": 4.5, "loop_s": 4.5}]


def test_reference_check_tolerates_round_off_only():
    ref = json.loads(run.REFERENCES.read_text())["snapshots"]["0"]
    assert workloads.mismatches(copy.deepcopy(ref), ref) == []
    near = copy.deepcopy(ref)
    near["levels"][0]["energy_error"] *= 1 + 1e-12
    near["snapshot_sums"][-1] += 1e-12 * max(ref["snapshot_norms"])
    assert workloads.mismatches(near, ref) == []
    far = copy.deepcopy(ref)
    far["levels"][0]["energy_error"] *= 1 + 1e-4
    far["snapshot_norms"][-1] *= 1 + 1e-4
    far["levels"][0]["steps"] += 1
    assert len(workloads.mismatches(far, ref)) == 3


def test_times_are_scaled_to_the_nominal_host_speed():
    slow = {"probe_s": 2 * probe.PROBE_NOMINAL_S, "wall_s": 4.0,
            "setup_s": 3.0, "loop_s": 1.0, "peak_rss_mb": 70.0}
    fast = {"probe_s": probe.PROBE_NOMINAL_S / 2, "wall_s": 1.0,
            "setup_s": 0.75, "loop_s": 0.25, "peak_rss_mb": 72.0}
    metrics, _ = run.summarize(argparse.Namespace(trace=0), [slow, fast])
    assert {k: m["value"] for k, m in metrics.items()} == pytest.approx({
        "wall_s": 2.0, "setup_s": 1.5, "loop_s": 0.5, "peak_rss_mb": 71.0})


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **{k: unit for k, (unit, _) in hooks.LAYER_METRICS.items()},
        "trace.overhead_s": "s"}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-run",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
