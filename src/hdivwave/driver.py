"""Benchmark problems and the simulation pipeline.

A benchmark is any object with ``field``, ``velocity`` and ``divergence``
of points (n, 2) and a time t: the exact solution and its time derivative,
each (n, 2), and its divergence (n,).  ``field`` is also the solver's
boundary data, called with t given once per point.

The main benchmark is a right-travelling Gaussian pulse

    u(x, y, t) = g(x - t) (1, 0),   g(s) = 2 exp(-50 (s + 1)^2),

an exact solution of the undamped system whose trace enters through the
prescribed normal components on the boundary.  At t = 0 the pulse is
centered at x = -1, so the domain starts essentially at rest and the
wave enters through the left edge.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import ErrorReport, error_report, rates
from .assembly import (
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    build_sampler,
    cell_forms,
    interpolate_field,
)
from .mesh import HybridMesh, MeshFamily, generate, grid_size
from .timeloop import (
    LeapfrogSolver,
    WaveState,
    _zero_field,
    stable_tau,
)


# longest run accepted; T / tau beyond it is refused before stepping
MAX_STEPS = 10**7


class PlaneWave:
    @staticmethod
    def g(s: np.ndarray) -> np.ndarray:
        return 2.0 * np.exp(-50.0 * (s + 1.0) ** 2)

    @classmethod
    def gprime(cls, s: np.ndarray) -> np.ndarray:
        return -100.0 * (s + 1.0) * cls.g(s)

    def field(self, pts, t):
        out = np.zeros_like(pts)
        out[:, 0] = self.g(pts[:, 0] - t)
        return out

    def velocity(self, pts, t):
        out = np.zeros_like(pts)
        out[:, 0] = -self.gprime(pts[:, 0] - t)
        return out

    def divergence(self, pts, t):
        return self.gprime(pts[:, 0] - t)


class ZeroData:
    field = velocity = staticmethod(_zero_field)

    def divergence(self, pts, t):
        return np.zeros(len(pts))


BENCHMARKS = {"planewave": PlaneWave, "zero": ZeroData}


def make_benchmark(name: str):
    try:
        return BENCHMARKS[name]()
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")


@dataclass
class RunResult:
    """A run's outputs; its time step is ``state.tau``."""

    mesh: HybridMesh
    report: ErrorReport
    state: WaveState
    energy_trace: list[tuple[float, float, float, float]]
    snapshots: list[tuple[float, np.ndarray]]


def run_benchmark(family: MeshFamily, level: int, benchmark,
                  tau: float | str, T: float, damping: float = 0.0,
                  snapshot_every: int = 0, snapshot_n: int = 100,
                  energy_every: int = 10,
                  mesh: HybridMesh | None = None) -> RunResult:
    """Full pipeline: mesh, assemble, integrate, measure.

    ``tau`` may be the string "auto" to take the step limit of the
    element eigenvalue bound (``stable_tau``), computed once per run; a
    given tau must lie in (0, limit].  The cell forms are computed once
    for the mass, the stiffness and the bound.  Every ``snapshot_every``
    steps a snapshot stores the first component of the centered-difference
    velocity on the ``snapshot_n`` x ``snapshot_n`` cell-centered grid of
    ``assembly.snapshot_grid``, read through ``build_sampler``.
    """
    if not 0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if snapshot_every > 0 and snapshot_n < 1:
        raise ValueError(f"snapshot_n must be >= 1, got {snapshot_n}")
    if mesh is None:
        mesh = generate(family, level)
    dofmap = build_dofmap(mesh)
    forms = cell_forms(dofmap)
    mass = assemble_lumped_mass(dofmap, forms)
    stiffness = assemble_stiffness(dofmap, forms)
    h = mesh.h_effective()

    limit = stable_tau(dofmap, forms)
    tau = limit if tau == "auto" else float(tau)
    if not 0 < tau <= limit:
        raise ValueError(
            f"tau = {tau:g} must be positive and within the stability "
            f"limit {limit:.4g} at h = {h:.4g}")
    if T / tau > MAX_STEPS:
        raise ValueError(f"T / tau = {T / tau:.3g} steps exceeds the cap of "
                         f"{MAX_STEPS:,}")
    n_steps = max(2, round(T / tau))
    del forms

    solver = LeapfrogSolver(dofmap, mass, stiffness, damping=damping,
                            boundary_data=benchmark.field)
    # the solver holds its free/boundary split and the block inverse
    del mass, stiffness
    u0, v0 = interpolate_field(dofmap, lambda p: benchmark.field(p, 0.0),
                               lambda p: benchmark.velocity(p, 0.0))
    # only the two newest states stay alive through the loop
    state = solver.start(u0, v0, tau)

    sampler = build_sampler(dofmap, snapshot_n) if snapshot_every > 0 else None

    energy_trace: list[tuple[float, float, float, float]] = []
    snapshots: list[tuple[float, np.ndarray]] = []

    def next_read(n: int) -> int:
        """The first step after ``n`` whose state is read."""
        out = [n_steps]
        if energy_every:
            out.append(n + energy_every - n % energy_every)
        if sampler is not None:
            out.append(n + snapshot_every - (n - 1) % snapshot_every)
        return min(out)

    def record_energy(s: WaveState):
        if energy_every and s.n % energy_every == 0:
            e = solver.energy(s)
            energy_trace.append((s.t, e.kinetic, e.potential, e.total))

    record_energy(state)
    # advance straight to each state that is read; a snapshot reads the
    # state before it too, and the final velocity its u_prev, so those
    # two are advanced to the step before and stepped into
    while state.n < n_steps:
        n = next_read(state.n)
        snap = sampler is not None and (n - 1) % snapshot_every == 0
        if n < n_steps and not snap:
            state = solver.advance(state, n - state.n)
        else:
            older = solver.advance(state, n - 1 - state.n)
            state = solver.step(older)
            if snap:
                v = sampler @ solver.centered_velocity(older, state)
                snapshots.append((older.t, v.reshape(snapshot_n, snapshot_n)))
            if state.n < n_steps:
                del older    # not held through the next advance
        record_energy(state)

    # n_steps >= 2, so the loop ran and set older
    del sampler    # the report reads no snapshot
    Tend = state.t
    v_full = solver.final_velocity(older.u_prev, state)
    del older
    report = error_report(
        dofmap, solver.full(state), v_full,
        exact_u=lambda p: benchmark.field(p, Tend),
        exact_vel=lambda p: benchmark.velocity(p, Tend),
        exact_div=lambda p: benchmark.divergence(p, Tend),
        h=h)
    return RunResult(mesh=mesh, report=report, state=state,
                     energy_trace=energy_trace, snapshots=snapshots)


def convergence_study(family: MeshFamily, levels: list[int],
                      benchmark, tau: float | str, T: float,
                      damping: float = 0.0) -> list[ErrorReport]:
    """Every level's report as measured (``analysis.rates`` gives the
    observed orders), each level checked against the cell cap before the
    first runs."""
    for lv in levels:
        grid_size(family, lv)
    reports = []
    for lv in levels:
        res = run_benchmark(family, lv, benchmark, tau, T, damping,
                            energy_every=0)
        reports.append(res.report)
    return reports


# -- CSV emission -------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    """``header`` and ``rows`` as CSV; a number is written as the repr of
    a Python float, which round-trips exactly (a numpy scalar's repr does
    not), and None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(["" if x is None else repr(float(x)) for x in row]
                    for row in rows)


def write_convergence_csv(reports: list[ErrorReport], path: Path) -> None:
    rows = zip(reports, rates(reports, "energy"), rates(reports, "discrete"))
    _write_csv(path, ["h", "energy_error", "discrete_error", "eoc_energy",
                      "eoc_discrete"],
               ([r.h, r.energy_error, r.discrete_error, e, d]
                for r, e, d in rows))


def write_energy_csv(trace: list[tuple[float, float, float, float]],
                     path: Path) -> None:
    _write_csv(path, ["t", "kinetic", "potential", "total"], trace)


def write_snapshot_csv(values: np.ndarray, path: Path) -> None:
    """One velocity-component snapshot; sample time lives in the filename."""
    _write_csv(path, [f"x{j}" for j in range(values.shape[1])], values)


def write_snapshots(snapshots: list[tuple[float, np.ndarray]],
                    out_dir: Path) -> None:
    """Every grid as ``snapshot_NNNN.csv`` in ``out_dir``, and the index
    ``snapshots.csv`` mapping each file to its sample time."""
    with open(out_dir / "snapshots.csv", "w", newline="",
              encoding="utf-8") as f:
        f.write("file,t\n")
        for i, (t, grid) in enumerate(snapshots):
            name = f"snapshot_{i:04d}.csv"
            write_snapshot_csv(grid, out_dir / name)
            f.write(f"{name},{float(t)!r}\n")


def write_report_csv(report: ErrorReport, path: Path) -> None:
    cols = ["h", "energy_error", "discrete_error", "vel_l2", "div_l2",
            "vel_h", "div_h"]
    _write_csv(path, cols, [[getattr(report, c) for c in cols]])
