"""Benchmark problems and the simulation pipeline.

The main benchmark is a right-travelling Gaussian pulse

    u(x, y, t) = g(x - t) (1, 0),   g(s) = 2 exp(-50 (s + 1)^2),

an exact solution of the undamped system whose trace enters through the
prescribed normal components on the boundary.  At t = 0 the pulse is
centered at x = -1, so the domain starts essentially at rest and the
wave enters through the left edge.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import ErrorReport, attach_rates, error_report
from .assembly import (
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    build_sampler,
    cell_forms,
    interpolate_field,
)
from .mesh import HybridMesh, MeshFamily, generate, grid_size
from .timeloop import LeapfrogSolver, WaveState, stable_tau, within_stable_tau


# longest run accepted; T / tau beyond it is refused before stepping
MAX_STEPS = 10**7


class Benchmark:
    """Exact data of a wave problem; all point arrays are (n, 2)."""

    name = "base"

    def field(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def divergence(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def boundary(self):
        """Boundary-data callable for the solver, or None if zero; it is
        pointwise, ``t`` holding one time per point."""
        return lambda pts, t: self.field(pts, t)


class PlaneWave(Benchmark):
    name = "planewave"

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


class ZeroData(Benchmark):
    name = "zero"

    def field(self, pts, t):
        return np.zeros_like(pts)

    def velocity(self, pts, t):
        return np.zeros_like(pts)

    def divergence(self, pts, t):
        return np.zeros(len(pts))

    def boundary(self):
        return None


BENCHMARKS = {"planewave": PlaneWave, "zero": ZeroData}


def make_benchmark(name: str) -> Benchmark:
    try:
        return BENCHMARKS[name]()
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")


@dataclass
class RunResult:
    mesh: HybridMesh
    report: ErrorReport
    state: WaveState
    energy_trace: list[tuple[float, float, float, float]]
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    tau: float = 0.0


def run_benchmark(family: MeshFamily, level: int, benchmark: Benchmark,
                  tau: float | str, T: float, damping: float = 0.0,
                  snapshot_every: int = 0, snapshot_n: int = 100,
                  energy_every: int = 10,
                  mesh: HybridMesh | None = None) -> RunResult:
    """Full pipeline: mesh, assemble, integrate, measure.

    ``tau`` may be the string "auto" to pick a safe step from the
    element eigenvalue bound (``stable_tau``).  A given tau is first
    checked against that bound by a Cholesky certificate
    (``within_stable_tau``), with no eigen-solve; only if that does not
    prove it is the limit computed and compared, which names the limit
    in the error.  The cell forms are computed once for the mass, the
    stiffness and the bound.  Every ``snapshot_every`` steps a snapshot
    stores the first component of the centered-difference velocity on the
    ``snapshot_n`` x ``snapshot_n`` cell-centered grid of
    ``assembly.snapshot_grid``, read through ``build_sampler``.
    """
    if snapshot_every > 0 and snapshot_n < 1:
        raise ValueError(f"snapshot_n must be >= 1, got {snapshot_n}")
    if mesh is None:
        mesh = generate(family, level)
    dofmap = build_dofmap(mesh)
    forms = cell_forms(dofmap)
    mass = assemble_lumped_mass(dofmap, forms)
    stiffness = assemble_stiffness(dofmap, forms)
    h = mesh.h_effective()

    if tau == "auto":
        tau = stable_tau(dofmap, forms)
    else:
        tau = float(tau)
        if not within_stable_tau(dofmap, tau, forms):
            limit = stable_tau(dofmap, forms)
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
                            boundary_data=benchmark.boundary())
    # the solver holds its free/boundary split and the block inverse
    del mass, stiffness
    u0, v0 = interpolate_field(dofmap, lambda p: benchmark.field(p, 0.0),
                               lambda p: benchmark.velocity(p, 0.0))
    # only the two newest states stay alive through the loop
    prev = solver.start(u0, v0, tau)

    sampler = build_sampler(dofmap, snapshot_n) if snapshot_every > 0 else None

    energy_trace: list[tuple[float, float, float, float]] = []
    snapshots: list[tuple[float, np.ndarray]] = []

    def record_energy(s: WaveState):
        if energy_every and s.n % energy_every == 0:
            e = solver.energy(s)
            energy_trace.append((s.t, e.kinetic, e.potential, e.total))

    record_energy(prev)
    for _ in range(n_steps - 1):
        new = solver.step(prev)
        record_energy(new)
        if sampler is not None and (new.n - 1) % snapshot_every == 0:
            v_full = solver.centered_velocity(prev, new)
            snapshots.append((prev.t, (sampler @ v_full).reshape(snapshot_n,
                                                                 snapshot_n)))
        u_nm2 = prev.u_prev
        prev = new
    state = prev

    # n_steps >= 2, so the loop ran and u_nm2 is set
    Tend = state.t
    v_full = solver.final_velocity(u_nm2, state)
    report = error_report(
        dofmap, solver.full(state), v_full,
        exact_u=lambda p: benchmark.field(p, Tend),
        exact_vel=lambda p: benchmark.velocity(p, Tend),
        exact_div=lambda p: benchmark.divergence(p, Tend),
        h=h)
    return RunResult(mesh=mesh, report=report, state=state,
                     energy_trace=energy_trace, snapshots=snapshots, tau=tau)


def convergence_study(family: MeshFamily, levels: list[int],
                      benchmark: Benchmark, tau: float | str, T: float,
                      damping: float = 0.0) -> list[ErrorReport]:
    """Run every level, each checked against the cell cap before the first."""
    for lv in levels:
        grid_size(family, lv)
    reports = []
    for lv in levels:
        res = run_benchmark(family, lv, benchmark, tau, T, damping,
                            energy_every=0)
        reports.append(res.report)
    return attach_rates(reports)


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
    cols = ["h", "energy_error", "discrete_error", "eoc_energy",
            "eoc_discrete"]
    _write_csv(path, cols, ([getattr(r, c) for c in cols] for r in reports))


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
