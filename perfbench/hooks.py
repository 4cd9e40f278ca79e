"""Outside-in hooks on the hdivwave package.

Each target is wrapped in the namespace its caller looks it up in:
module functions through ``hdivwave.driver`` (which imports them by
name), ``constrain`` through ``hdivwave.timeloop``, the interpolant used
by the error report through ``hdivwave.analysis``, and methods through
their class attributes.  A wrapper records one span per call, kept in
memory: name, start, end and the index of the enclosing span.

Phase marks are required: if one cannot be placed, or a level never
reaches one, the benchmark stops with ``HookError``.  Layer targets are
optional: a target that has gone is recorded as absent and the metrics
built on it are reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


class HookError(RuntimeError):
    """A required phase mark could not be placed or was never reached."""


@dataclass(frozen=True)
class Target:
    name: str      # span name; the layer prefix of its metrics
    module: str    # module whose namespace the caller resolves the name in
    attr: str      # "function" or "Class.method"
    observe: str = ""   # Recorder method called with (span, args, result)


# Calls made once per level: the only hooks of the untraced pass.
PHASE_MARKS = (
    Target("driver.run_benchmark", "hdivwave.driver", "run_benchmark",
           "_on_run"),
    Target("timeloop.LeapfrogSolver.start", "hdivwave.driver",
           "LeapfrogSolver.start"),
    Target("assembly.build_sampler", "hdivwave.driver", "build_sampler"),
    Target("analysis.error_report", "hdivwave.driver", "error_report",
           "_on_report"),
)

# Added by the traced pass.
LAYERS = (
    Target("mesh.generate", "hdivwave.driver", "generate", "_on_mesh"),
    Target("assembly.build_dofmap", "hdivwave.driver", "build_dofmap",
           "_on_dofmap"),
    Target("assembly.assemble_lumped_mass", "hdivwave.driver",
           "assemble_lumped_mass"),
    Target("assembly.assemble_stiffness", "hdivwave.driver",
           "assemble_stiffness"),
    Target("timeloop.stable_tau", "hdivwave.driver", "stable_tau"),
    Target("assembly.interpolate_field", "hdivwave.driver",
           "interpolate_field"),
    Target("assembly.interpolate_field", "hdivwave.analysis",
           "interpolate_field"),
    Target("assembly.constrain", "hdivwave.timeloop", "constrain"),
    Target("assembly.BlockSolver.init", "hdivwave.assembly",
           "BlockSolver.__init__", "_on_build"),
    Target("assembly.BlockSolver.solve", "hdivwave.assembly",
           "BlockSolver.solve", "_on_solve"),
    Target("timeloop.LeapfrogSolver.init", "hdivwave.driver",
           "LeapfrogSolver.__init__"),
    Target("timeloop.LeapfrogSolver.step", "hdivwave.driver",
           "LeapfrogSolver.step"),
    Target("timeloop.LeapfrogSolver.energy", "hdivwave.driver",
           "LeapfrogSolver.energy"),
    Target("timeloop.LeapfrogSolver.centered_velocity", "hdivwave.driver",
           "LeapfrogSolver.centered_velocity"),
)


def resolve(target: Target):
    """(owner, attribute name, original) or None if the target has gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class Recorder:
    """Spans and counts of one repetition, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self.absent: list[str] = []     # optional targets not found
        self.levels: list[dict] = []    # per-level outputs, in call order
        self._report: dict | None = None  # dofs seen by this level's report
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._builds = weakref.WeakKeyDictionary()  # BlockSolver -> span
        self.used_builds: set[int] = set()

    def wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, target.observe) if target.observe else None
        name = target.name

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(i)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(i, args, result)
            return result

        return hooked

    # -- observers: read counts and outputs off arguments and results ----

    def _on_run(self, i, args, result):
        self.counts["driver.snapshots"] += len(result.snapshots)
        report, self._report = self._report or {}, None
        self.levels.append({"steps": int(result.state.n), **report})

    def _on_report(self, i, args, result):
        dofmap = args[0]
        self._report = {"ndof": int(dofmap.ndof),
                        "free_dofs": int(len(dofmap.free_idx))}

    def _on_mesh(self, i, args, result):
        self.counts["mesh.cells"] += result.n_cells

    def _on_dofmap(self, i, args, result):
        self.counts["assembly.ndof"] += result.ndof
        self.counts["assembly.free_dofs"] += len(result.free_idx)

    def _on_build(self, i, args, result):
        self._builds[args[0]] = i

    def _on_solve(self, i, args, result):
        build = self._builds.get(args[0])
        if build is not None:
            self.used_builds.add(build)


@contextmanager
def installed(recorder: Recorder, traced: bool):
    """Place the phase marks, and with ``traced`` the layer hooks."""
    undo = []
    try:
        for target in PHASE_MARKS + (LAYERS if traced else ()):
            found = resolve(target)
            if found is None:
                if target in PHASE_MARKS:
                    raise HookError(
                        f"phase mark {target.module}.{target.attr} not found")
                recorder.absent.append(target.name)
                continue
            owner, attr, original = found
            setattr(owner, attr, recorder.wrap(target, original))
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _children(spans, parent):
    return [i for i, s in enumerate(spans) if s[3] == parent]


def phases(recorder: Recorder) -> list[dict]:
    """Per-level set-up and loop time from the phase marks.

    Set-up runs from entering ``run_benchmark`` to entering
    ``LeapfrogSolver.start``, plus ``build_sampler``; the loop runs from
    entering ``start`` to entering ``error_report``, minus
    ``build_sampler``.
    """
    spans = recorder.spans
    out = []
    for i, s in enumerate(spans):
        if s[0] != "driver.run_benchmark":
            continue
        first = {}
        sampler = 0.0
        for c in _children(spans, i):
            name, t0, t1, _ = spans[c]
            first.setdefault(name, t0)
            if name == "assembly.build_sampler":
                sampler += t1 - t0
        for mark in ("timeloop.LeapfrogSolver.start", "analysis.error_report"):
            if mark not in first:
                raise HookError(f"run_benchmark returned without reaching "
                                f"the phase mark {mark}")
        start, report = (first["timeloop.LeapfrogSolver.start"],
                         first["analysis.error_report"])
        out.append({"setup_s": start - s[1] + sampler,
                    "loop_s": report - start - sampler})
    if not out:
        raise HookError("run_benchmark was never entered")
    return out


# Per-layer metric -> (unit, the targets it is built on).
LAYER_METRICS = {
    "mesh.generate.s": ("s", ["mesh.generate"]),
    "mesh.cells": ("count", ["mesh.generate"]),
    "assembly.build_dofmap.s": ("s", ["assembly.build_dofmap"]),
    "assembly.ndof": ("count", ["assembly.build_dofmap"]),
    "assembly.free_dofs": ("count", ["assembly.build_dofmap"]),
    "assembly.assemble_lumped_mass.s":
        ("s", ["assembly.assemble_lumped_mass"]),
    "assembly.assemble_stiffness.s": ("s", ["assembly.assemble_stiffness"]),
    "assembly.constrain.self_s": ("s", ["assembly.constrain"]),
    "assembly.BlockSolver.builds": ("count", ["assembly.BlockSolver.init"]),
    "assembly.BlockSolver.build_s": ("s", ["assembly.BlockSolver.init"]),
    "assembly.BlockSolver.used_ratio":
        ("ratio", ["assembly.BlockSolver.init", "assembly.BlockSolver.solve"]),
    "assembly.BlockSolver.solves": ("count", ["assembly.BlockSolver.solve"]),
    "assembly.BlockSolver.solve_us": ("us", ["assembly.BlockSolver.solve"]),
    "timeloop.stable_tau.self_s": ("s", ["timeloop.stable_tau"]),
    "timeloop.power_iterations":
        ("count", ["timeloop.stable_tau", "assembly.BlockSolver.solve"]),
    "timeloop.LeapfrogSolver.init.self_s":
        ("s", ["timeloop.LeapfrogSolver.init"]),
    "timeloop.steps": ("count", ["timeloop.LeapfrogSolver.step"]),
    "timeloop.LeapfrogSolver.step.self_us":
        ("us", ["timeloop.LeapfrogSolver.step"]),
    "timeloop.energy_samples": ("count", ["timeloop.LeapfrogSolver.energy"]),
    "timeloop.LeapfrogSolver.energy.s":
        ("s", ["timeloop.LeapfrogSolver.energy"]),
    "timeloop.LeapfrogSolver.centered_velocity.s":
        ("s", ["timeloop.LeapfrogSolver.centered_velocity"]),
    "assembly.build_sampler.s": ("s", []),
    "driver.run_benchmark.self_s": ("s", []),
    "driver.snapshots": ("count", []),
    "analysis.error_report.s": ("s", []),
    "assembly.interpolate_field.s": ("s", ["assembly.interpolate_field"]),
}


def layer_metrics(recorder: Recorder) -> tuple[dict, list[str]]:
    """Per-layer values of one traced repetition, and notes on absences.

    An absent metric maps to None.
    """
    spans = recorder.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, t0, t1, _) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
        calls[name] += 1

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else None

    def self_per_call(name, scale):
        return own[name] / calls[name] * scale if calls[name] else None

    in_tau = 0
    for name, _, _, parent in spans:
        if name != "assembly.BlockSolver.solve":
            continue
        while parent >= 0 and spans[parent][0] != "timeloop.stable_tau":
            parent = spans[parent][3]
        in_tau += parent >= 0

    builds = calls["assembly.BlockSolver.init"]
    values = {
        "mesh.generate.s": total["mesh.generate"],
        "mesh.cells": recorder.counts["mesh.cells"],
        "assembly.build_dofmap.s": total["assembly.build_dofmap"],
        "assembly.ndof": recorder.counts["assembly.ndof"],
        "assembly.free_dofs": recorder.counts["assembly.free_dofs"],
        "assembly.assemble_lumped_mass.s":
            total["assembly.assemble_lumped_mass"],
        "assembly.assemble_stiffness.s": total["assembly.assemble_stiffness"],
        "assembly.constrain.self_s": own["assembly.constrain"],
        "assembly.BlockSolver.builds": builds,
        "assembly.BlockSolver.build_s": total["assembly.BlockSolver.init"],
        "assembly.BlockSolver.used_ratio":
            len(recorder.used_builds) / builds if builds else None,
        "assembly.BlockSolver.solves": calls["assembly.BlockSolver.solve"],
        "assembly.BlockSolver.solve_us":
            per_call("assembly.BlockSolver.solve", 1e6),
        "timeloop.stable_tau.self_s": own["timeloop.stable_tau"],
        "timeloop.power_iterations": in_tau,
        "timeloop.LeapfrogSolver.init.self_s":
            own["timeloop.LeapfrogSolver.init"],
        "timeloop.steps": calls["timeloop.LeapfrogSolver.step"],
        "timeloop.LeapfrogSolver.step.self_us":
            self_per_call("timeloop.LeapfrogSolver.step", 1e6),
        "timeloop.energy_samples": calls["timeloop.LeapfrogSolver.energy"],
        "timeloop.LeapfrogSolver.energy.s":
            total["timeloop.LeapfrogSolver.energy"],
        "timeloop.LeapfrogSolver.centered_velocity.s":
            total["timeloop.LeapfrogSolver.centered_velocity"],
        "assembly.build_sampler.s": total["assembly.build_sampler"]
        if calls["assembly.build_sampler"] else None,
        "driver.run_benchmark.self_s": own["driver.run_benchmark"],
        "driver.snapshots": recorder.counts["driver.snapshots"],
        "analysis.error_report.s": total["analysis.error_report"],
        "assembly.interpolate_field.s": total["assembly.interpolate_field"],
    }
    notes = []
    for metric, (_, needs) in LAYER_METRICS.items():
        gone = [n for n in needs if n in recorder.absent]
        if gone:
            values[metric] = None
            notes.append(f"{metric}: absent, hook target {', '.join(gone)} "
                         f"not found")
        elif values[metric] is None:
            notes.append(f"{metric}: absent, never called on this workload")
    return values, notes


def self_time_total(recorder: Recorder) -> float:
    """Sum of every span's self time: the time covered by top-level spans."""
    return sum(t1 - t0 for _, t0, t1, parent in recorder.spans if parent < 0)
