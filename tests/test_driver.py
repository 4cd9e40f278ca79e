"""Benchmark definitions and the end-to-end run pipeline."""

import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdivwave import assembly, driver
from hdivwave.driver import (
    PlaneWave,
    ZeroData,
    convergence_study,
    make_benchmark,
    run_benchmark,
    write_convergence_csv,
    write_energy_csv,
    write_report_csv,
    write_snapshot_csv,
)
from hdivwave.analysis import ErrorReport, rates
from hdivwave.assembly import AssemblyError, build_dofmap, snapshot_grid
from hdivwave.cli import main
from hdivwave.mesh import FAMILIES, MeshFamily, generate
from hdivwave.timeloop import CHUNK, stable_tau

from conftest import read_csv
from test_timeloop import relabelled


@pytest.fixture(scope="module")
def sample_points(rng_module=None):
    rng = np.random.default_rng(7)
    return rng.uniform(0.0, 1.0, size=(60, 2))


# ------------------------------------------------------- benchmark calculus

def test_plane_wave_velocity_is_time_derivative(sample_points):
    bench = PlaneWave()
    eps = 1e-6
    for t in (0.0, 0.4, 1.3):
        fd = (bench.field(sample_points, t + eps)
              - bench.field(sample_points, t - eps)) / (2 * eps)
        assert_allclose(bench.velocity(sample_points, t), fd, atol=1e-6)


def test_plane_wave_divergence_is_spatial_divergence(sample_points):
    bench = PlaneWave()
    eps = 1e-6
    dx = np.array([[eps, 0.0]])
    dy = np.array([[0.0, eps]])
    for t in (0.0, 0.7, 1.9):
        ddx = (bench.field(sample_points + dx, t)[:, 0]
               - bench.field(sample_points - dx, t)[:, 0]) / (2 * eps)
        ddy = (bench.field(sample_points + dy, t)[:, 1]
               - bench.field(sample_points - dy, t)[:, 1]) / (2 * eps)
        assert_allclose(bench.divergence(sample_points, t), ddx + ddy, atol=1e-5)


def test_plane_wave_travels_in_x(sample_points):
    bench = PlaneWave()
    vals = bench.field(sample_points, 0.6)
    assert np.all(vals[:, 1] == 0)
    shifted = sample_points + np.array([[0.25, 0.0]])
    assert_allclose(bench.field(shifted, 0.85), vals, atol=1e-14)
    moved_y = sample_points + np.array([[0.0, 0.3]])
    assert_allclose(bench.field(moved_y, 0.6), vals, atol=1e-14)


def test_pulse_profile_value():
    # g(s) = 2 exp(-50 (s+1)^2) peaks at s = -1 with height 2
    assert PlaneWave.g(np.array([-1.0]))[0] == pytest.approx(2.0, rel=1e-15)
    assert PlaneWave.g(np.array([0.0]))[0] == pytest.approx(
        2.0 * np.exp(-50.0), rel=1e-12)


def test_make_benchmark_names():
    assert isinstance(make_benchmark("planewave"), PlaneWave)
    assert isinstance(make_benchmark("zero"), ZeroData)
    with pytest.raises(ValueError):
        make_benchmark("gauss")


def test_snapshot_grid_is_cell_centered():
    pts = snapshot_grid(10)
    assert pts.shape == (100, 2)
    assert pts.min() == pytest.approx(0.05) and pts.max() == pytest.approx(0.95)
    assert_allclose(pts[0], [0.05, 0.05])
    assert_allclose(pts[1], [0.15, 0.05])


# ------------------------------------------------------------- run pipeline

def test_zero_benchmark_stays_zero():
    res = run_benchmark(MeshFamily("hybrid"), 1, ZeroData(), tau="auto", T=0.3)
    assert np.all(res.state.u_curr == 0)
    assert all(row[3] == 0 for row in res.energy_trace)


def test_auto_tau_is_stable_and_recorded():
    res = run_benchmark(MeshFamily("structured-quad"), 1, PlaneWave(),
                        tau="auto", T=0.2)
    assert res.state.tau > 0
    assert np.isfinite(res.state.u_curr).all()
    assert res.report is not None and res.report.energy_error >= 0


def test_oversized_tau_rejected_before_running():
    with pytest.raises(ValueError, match="stability limit"):
        run_benchmark(MeshFamily("structured-triangle"), 2, PlaneWave(),
                      tau=0.2, T=1.0)


GIVEN_TAU_MESHES = [(kind, level) for kind in FAMILIES
                    for level in (0, 1, 2)] + [("perturbed-relabelled", 2)]


@pytest.mark.parametrize("kind, level", GIVEN_TAU_MESHES,
                         ids=[f"{k}-{lv}" for k, lv in GIVEN_TAU_MESHES])
def test_given_tau_certified_without_the_eigen_solve(monkeypatch, kind, level):
    """A given tau is accepted exactly when 0 < tau <= stable_tau, with one
    stable_tau call per run, and refused naming the limit."""
    family = MeshFamily(kind.removesuffix("-relabelled"), seed=5)
    mesh = generate(family, level)
    if kind.endswith("-relabelled"):
        mesh = relabelled(mesh)
    limit = stable_tau(build_dofmap(mesh))
    calls = []

    def counting_stable_tau(dofmap, *forms):
        calls.append(dofmap)
        return stable_tau(dofmap, *forms)

    monkeypatch.setattr(driver, "stable_tau", counting_stable_tau)

    def run(tau, T=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_benchmark(family, level, PlaneWave(), tau,
                                 2.0 * tau if T is None else T, mesh=mesh)

    def rejected(tau):
        return re.escape(
            f"tau = {tau:g} must be positive and within the stability limit "
            f"{limit:.4g} at h = {mesh.h_effective():.4g}")

    # one limit per run, whether the tau is accepted or refused
    assert run(limit * (1 - 1e-6)).state.tau == limit * (1 - 1e-6)
    assert len(calls) == 1
    assert run(limit * (1 - 1e-9)).state.tau == limit * (1 - 1e-9)
    assert len(calls) == 2
    for tau in (limit * (1 + 1e-6), 1e200, math.nan, math.inf):
        with pytest.raises(ValueError, match=rejected(tau)):
            run(tau, T=1.0)  # T = 2 tau would be refused first at nan, inf
    assert len(calls) == 6
    # a tiny tau is within the limit and meets the step cap
    with pytest.raises(ValueError, match=r"T / tau = 1e\+199 steps exceeds"):
        run(1e-200, T=0.1)
    assert len(calls) == 7


@pytest.mark.parametrize("tau, damping", [
    (math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (-0.01, 0.0),
    (0.01, math.nan), (0.01, math.inf), (0.01, -1.0),
], ids=["tau-nan", "tau-inf", "tau-zero", "tau-negative", "damping-nan",
        "damping-inf", "damping-negative"])
def test_bad_tau_or_damping_rejected_with_its_name(tau, damping):
    name = "tau" if damping == 0.0 else "damping"
    with pytest.raises(ValueError, match=name):
        run_benchmark(MeshFamily("structured-triangle"), 0, PlaneWave(),
                      tau=tau, T=0.1, damping=damping)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_bad_T_rejected_before_the_mesh(monkeypatch, T):
    def no_mesh(*args):
        raise AssertionError("mesh generated before the check")

    monkeypatch.setattr(driver, "generate", no_mesh)
    with pytest.raises(ValueError, match=re.escape(
            f"T must be positive and finite, got {T}")):
        run_benchmark(MeshFamily("hybrid"), 0, PlaneWave(), 0.01, T)


def test_free_dof_solver_built_once_per_run(block_solver_builds):
    run_benchmark(MeshFamily("hybrid"), 1, PlaneWave(), tau=0.01, T=0.1)
    assert len(block_solver_builds) == 1


@pytest.mark.parametrize("tau", [0.01, "auto"])
def test_mass_blocks_gathered_once_per_run(monkeypatch, tau):
    """Only the free-dof solver gathers and checks the mass blocks."""
    gathered = []
    gather = assembly._diagonal_blocks

    def counting_gather(A, bid):
        gathered.append(len(bid))
        return gather(A, bid)

    monkeypatch.setattr(assembly, "_diagonal_blocks", counting_gather)
    res = run_benchmark(MeshFamily("hybrid"), 1, PlaneWave(), tau, 0.05)
    assert gathered == [len(build_dofmap(res.mesh).free_idx)]


def test_non_spd_mass_refused_by_name(monkeypatch, tmp_path, capsys):
    assemble = driver.assemble_lumped_mass
    monkeypatch.setattr(driver, "assemble_lumped_mass",
                        lambda *args: -assemble(*args))
    not_spd = r"mass block at (vertex|cell) \d+ is not SPD"
    with pytest.raises(AssemblyError, match=not_spd):
        run_benchmark(MeshFamily("hybrid"), 1, PlaneWave(), 0.01, 0.05)
    assert main(["run", "--mesh-family", "hybrid", "--level", "1", "--tau",
                 "0.01", "--T", "0.05", "--out-dir", str(tmp_path)]) == 2
    assert re.fullmatch(f"error: {not_spd}\n", capsys.readouterr().err)


def test_run_steps_through_the_solver_and_calls_boundary_data_per_window(
        monkeypatch):
    # every step is taken by LeapfrogSolver.advance (step is one
    # advance), between the phase marks from start to the error report;
    # an energy-only read is one advance, the last state advance + step
    steps, calls = [], []
    advance = driver.LeapfrogSolver.advance

    def counting_advance(self, state, n_steps):
        # a read left one step short would call advance(state, 0) forever
        assert n_steps >= 1
        steps.append(n_steps)
        return advance(self, state, n_steps)

    class CountingWave(PlaneWave):
        # the boundary data is field with one time per point; the
        # interpolant and the error report pass one number
        def field(self, pts, t):
            if isinstance(t, np.ndarray):
                calls.append(len(pts))
            return super().field(pts, t)

    monkeypatch.setattr(driver.LeapfrogSolver, "advance", counting_advance)
    n_steps = 200
    for energy_every in (10, 7):
        steps.clear()
        calls.clear()
        res = run_benchmark(MeshFamily("hybrid"), 0, CountingWave(),
                            tau=0.001, T=0.2, energy_every=energy_every)
        assert res.state.n == n_steps and sum(steps) == n_steps - 1
        assert len(steps) == (n_steps - 1) // energy_every + 2
        assert len(calls) == 1 + math.ceil((n_steps - 1) / CHUNK) + 1


def test_full_matrices_freed_once_the_solver_holds_its_split(monkeypatch):
    """Only the solver's split and block inverse outlive its setup: the
    full mass and stiffness are gone when the loop starts."""
    made = []

    def keep_weakref(assemble):
        def wrapped(*args, **kwargs):
            A = assemble(*args, **kwargs)
            made.append(weakref.ref(A))
            return A
        return wrapped

    for name in ("assemble_lumped_mass", "assemble_stiffness"):
        monkeypatch.setattr(driver, name, keep_weakref(getattr(driver, name)))
    alive = []
    start = driver.LeapfrogSolver.start

    def checked_start(self, *args):
        alive.extend(ref() is not None for ref in made)
        return start(self, *args)

    monkeypatch.setattr(driver.LeapfrogSolver, "start", checked_start)
    run_benchmark(MeshFamily("hybrid"), 0, PlaneWave(), 0.01, 0.05)
    assert alive == [False, False]


def test_a_finished_run_leaves_no_solver_alive(monkeypatch):
    """The state a run returns holds no solver: its forcing window is
    tagged by the boundary trace, so the split and the block inverse
    go with the run."""
    made = []
    init = driver.LeapfrogSolver.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(driver.LeapfrogSolver, "__init__", recorded_init)
    res = run_benchmark(MeshFamily("hybrid"), 0, PlaneWave(), 0.01, 0.05)
    gc.collect()
    assert res.state.window is not None and len(made) == 1
    assert made[0]() is None


def test_snapshot_operator_freed_before_the_error_report(monkeypatch):
    made, alive = [], []
    build, report = driver.build_sampler, driver.error_report

    def kept_build(*args):
        sampler = build(*args)
        made.append(weakref.ref(sampler))
        return sampler

    def checked_report(*args, **kwargs):
        alive.extend(ref() is not None for ref in made)
        return report(*args, **kwargs)

    monkeypatch.setattr(driver, "build_sampler", kept_build)
    monkeypatch.setattr(driver, "error_report", checked_report)
    res = run_benchmark(MeshFamily("hybrid"), 0, PlaneWave(), 0.01, 0.05,
                        snapshot_every=2, snapshot_n=4)
    assert res.snapshots and alive == [False]


def test_snapshots_shape_and_times():
    res = run_benchmark(MeshFamily("structured-triangle"), 1, PlaneWave(),
                        tau=0.01, T=0.3, snapshot_every=5, snapshot_n=12)
    assert len(res.snapshots) == 5
    times = [t for t, _ in res.snapshots]
    assert times == sorted(times)
    for _, arr in res.snapshots:
        assert arr.shape == (12, 12)
        assert np.isfinite(arr).all()


@pytest.mark.parametrize("n", [0, -3])
def test_bad_snapshot_n_rejected_before_assembly(monkeypatch, n):
    def no_assembly(*args):
        raise AssertionError("assembled before the check")

    monkeypatch.setattr(driver, "build_dofmap", no_assembly)
    with pytest.raises(ValueError, match="snapshot_n must be >= 1"):
        run_benchmark(MeshFamily("structured-triangle"), 0, PlaneWave(),
                      tau=0.01, T=0.1, snapshot_every=5, snapshot_n=n)


def test_snapshot_n_unused_without_snapshots():
    res = run_benchmark(MeshFamily("structured-triangle"), 0, PlaneWave(),
                        tau=0.01, T=0.1, snapshot_n=0)
    assert res.snapshots == [] and res.report is not None


def test_run_shorter_than_a_step_still_reports():
    # a run takes max(2, round(T / tau)) steps, so it always has the two
    # levels the final-time velocity needs
    res = run_benchmark(MeshFamily("structured-triangle"), 0, PlaneWave(),
                        tau=0.01, T=0.001)
    assert res.state.n == 2
    assert isinstance(res.report, ErrorReport)
    assert np.isfinite(res.report.energy_error)


def test_run_is_deterministic():
    kw = dict(tau=0.01, T=0.2, energy_every=5)
    a = run_benchmark(MeshFamily("hybrid"), 1, PlaneWave(), **kw)
    b = run_benchmark(MeshFamily("hybrid"), 1, PlaneWave(), **kw)
    assert np.array_equal(a.state.u_curr, b.state.u_curr)
    assert a.energy_trace == b.energy_trace
    assert a.report.energy_error == b.report.energy_error


def test_convergence_study_second_order():
    fam = MeshFamily("structured-triangle", base_divisions=4)
    reports = convergence_study(fam, [0, 1, 2], PlaneWave(), tau=0.005,
                                T=2.0)
    errs_e = [r.energy_error for r in reports]
    errs_d = [r.discrete_error for r in reports]
    assert all(a > b > 0 for a, b in zip(errs_e, errs_e[1:]))
    assert all(a > b > 0 for a, b in zip(errs_d, errs_d[1:]))
    eoc_e, eoc_d = rates(reports, "energy"), rates(reports, "discrete")
    assert eoc_e[0] is None and eoc_d[0] is None
    mean_e, mean_d = np.mean(eoc_e[1:]), np.mean(eoc_d[1:])
    assert mean_e >= 1.8 and mean_d >= 1.8


# ------------------------------------------------------------------ writers

def test_convergence_csv_roundtrip(tmp_path):
    from hdivwave.analysis import ErrorReport

    reports = [
        ErrorReport(h=0.125, energy_error=0.41, discrete_error=0.2,
                    vel_l2=0, div_l2=0, vel_h=0, div_h=0),
        ErrorReport(h=0.0625, energy_error=0.1, discrete_error=0.05,
                    vel_l2=0, div_l2=0, vel_h=0, div_h=0),
    ]
    path = tmp_path / "conv.csv"
    write_convergence_csv(reports, path)
    rows = read_csv(path)
    assert rows[0] == ["h", "energy_error", "discrete_error",
                       "eoc_energy", "eoc_discrete"]
    assert rows[1][3] == "" and rows[1][4] == ""
    assert float(rows[1][0]) == 0.125
    assert float(rows[2][1]) == 0.1
    assert float(rows[2][3]) == rates(reports, "energy")[1]
    assert float(rows[2][4]) == rates(reports, "discrete")[1]


def test_energy_csv_roundtrip(tmp_path):
    trace = [(0.0, 0.5, 0.25, 0.75), (0.1, 0.4, 0.35, 0.75)]
    path = tmp_path / "energy.csv"
    write_energy_csv(trace, path)
    rows = read_csv(path)
    assert rows[0] == ["t", "kinetic", "potential", "total"]
    back = [tuple(float(v) for v in row) for row in rows[1:]]
    assert back == trace


def test_report_and_snapshot_csv(tmp_path):
    from hdivwave.analysis import ErrorReport

    rep = ErrorReport(h=0.25, energy_error=1e-3, discrete_error=5e-4,
                      vel_l2=1e-4, div_l2=2e-4, vel_h=3e-4, div_h=4e-4)
    rpath = tmp_path / "report.csv"
    write_report_csv(rep, rpath)
    rows = read_csv(rpath)
    assert len(rows) == 2 and float(rows[1][1]) == 1e-3

    vals = np.arange(12.0).reshape(3, 4) / 7.0
    spath = tmp_path / "snap.csv"
    write_snapshot_csv(vals, spath)
    rows = read_csv(spath)
    assert rows[0] == ["x0", "x1", "x2", "x3"]
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back, vals)
