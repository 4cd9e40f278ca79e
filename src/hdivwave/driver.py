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
    interpolate_field,
)
from .mesh import HybridMesh, MeshFamily, generate
from .timeloop import LeapfrogSolver, WaveState, stable_tau


class Benchmark:
    """Exact data of a wave problem; all point arrays are (n, 2)."""

    name = "base"
    has_exact = True

    def field(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def divergence(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def boundary(self):
        """Boundary-data callable for the solver, or None if zero."""
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


def snapshot_grid(n: int = 100) -> np.ndarray:
    """Cell-centered uniform sample grid on the unit square, row-major in y."""
    c = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(c, c)
    return np.column_stack([X.ravel(), Y.ravel()])


@dataclass
class RunResult:
    mesh: HybridMesh
    report: ErrorReport | None
    state: WaveState
    energy_trace: list[tuple[float, float, float, float]]
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    tau: float = 0.0


def run_benchmark(family: MeshFamily, level: int, benchmark: Benchmark,
                  tau: float | str, T: float, damping: float = 0.0,
                  snapshot_every: int = 0, snapshot_n: int = 100,
                  energy_every: int = 10, check_stability: bool = True,
                  mesh: HybridMesh | None = None) -> RunResult:
    """Full pipeline: mesh, assemble, integrate, measure.

    ``tau`` may be the string "auto" to pick a safe step from the
    element eigenvalue bound (``stable_tau``).  Snapshots store the first component of the
    centered-difference velocity on a uniform grid.
    """
    if mesh is None:
        mesh = generate(family, level)
    dofmap = build_dofmap(mesh)
    mass = assemble_lumped_mass(dofmap)
    stiffness = assemble_stiffness(dofmap)
    h = mesh.h_effective()

    if tau == "auto":
        tau = stable_tau(dofmap)
    else:
        tau = float(tau)
        if check_stability:
            limit = stable_tau(dofmap)
            if tau > limit:
                raise ValueError(
                    f"tau = {tau:g} exceeds the stability limit {limit:.4g} "
                    f"at h = {h:.4g}")
    n_steps = max(2, round(T / tau))

    solver = LeapfrogSolver(dofmap, mass, stiffness, damping=damping,
                            boundary_data=benchmark.boundary())
    u0 = interpolate_field(dofmap, lambda p: benchmark.field(p, 0.0))
    v0 = interpolate_field(dofmap, lambda p: benchmark.velocity(p, 0.0))
    state = solver.start(u0, v0, tau)

    sampler = None
    if snapshot_every > 0:
        sampler = build_sampler(dofmap, snapshot_grid(snapshot_n))[0]

    energy_trace: list[tuple[float, float, float, float]] = []
    snapshots: list[tuple[float, np.ndarray]] = []

    def record_energy(s: WaveState):
        if energy_every and s.n % energy_every == 0:
            e = solver.energy(s)
            energy_trace.append((s.t, e.kinetic, e.potential, e.total))

    prev = state
    record_energy(state)
    u_nm2 = None
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

    report = None
    if benchmark.has_exact and u_nm2 is not None:
        Tend = state.t
        v_full = solver.final_velocity(u_nm2, state)
        u_full = solver.full(state)
        report = error_report(
            dofmap, u_full, v_full,
            exact_u=lambda p: benchmark.field(p, Tend),
            exact_vel=lambda p: benchmark.velocity(p, Tend),
            exact_div=lambda p: benchmark.divergence(p, Tend),
            h=h)
    return RunResult(mesh=mesh, report=report, state=state,
                     energy_trace=energy_trace, snapshots=snapshots, tau=tau)


def convergence_study(family: MeshFamily, levels: list[int],
                      benchmark: Benchmark, tau: float | str, T: float,
                      damping: float = 0.0,
                      check_stability: bool = True) -> list[ErrorReport]:
    reports = []
    for lv in levels:
        res = run_benchmark(family, lv, benchmark, tau, T, damping,
                            energy_every=0, check_stability=check_stability)
        assert res.report is not None
        reports.append(res.report)
    return attach_rates(reports)


# -- CSV emission -------------------------------------------------------


def _num(x) -> str:
    # repr of a Python float round-trips exactly; numpy scalars do not
    return repr(float(x))


def write_convergence_csv(reports: list[ErrorReport], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["h", "energy_error", "discrete_error",
                    "eoc_energy", "eoc_discrete"])
        for r in reports:
            w.writerow([_num(r.h), _num(r.energy_error),
                        _num(r.discrete_error),
                        "" if r.eoc_energy is None else _num(r.eoc_energy),
                        "" if r.eoc_discrete is None else _num(r.eoc_discrete)])


def write_energy_csv(trace: list[tuple[float, float, float, float]],
                     path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["t", "kinetic", "potential", "total"])
        for row in trace:
            w.writerow([_num(x) for x in row])


def write_snapshot_csv(values: np.ndarray, path: Path) -> None:
    """One velocity-component snapshot; sample time lives in the filename."""
    n = values.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([f"x{j}" for j in range(n)])
        for row in values:
            w.writerow([_num(v) for v in row])


def write_report_csv(report: ErrorReport, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["h", "energy_error", "discrete_error", "vel_l2",
                    "div_l2", "vel_h", "div_h"])
        w.writerow([_num(report.h), _num(report.energy_error),
                    _num(report.discrete_error), _num(report.vel_l2),
                    _num(report.div_l2), _num(report.vel_h),
                    _num(report.div_h)])
