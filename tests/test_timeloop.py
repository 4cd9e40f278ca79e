"""Leapfrog stepper: invariants, stability threshold, velocity recovery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hdivwave.assembly import (
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    interpolate_field,
)
from hdivwave.mesh import FAMILIES, MeshFamily, generate
from hdivwave.timeloop import (
    InstabilityError,
    LeapfrogSolver,
    WaveState,
    stable_tau,
)


def power_lambda(dofmap, mass, stiffness, tol=1e-4, maxit=500, seed=0):
    """Largest generalized eigenvalue of (K, M) on free dofs, by power
    iteration; approaches it from below.  Oracle for the cell bound."""
    free = dofmap.free_idx
    K_FF = stiffness[free][:, free].tocsr()
    M_FF = mass.tocsr()[free][:, free].tocsr()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(len(free))
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(maxit):
        y = mass.solver.solve(K_FF @ x)
        ny = np.linalg.norm(y)
        if ny < 1e-300:
            x = rng.standard_normal(len(free))
            x /= np.linalg.norm(x)
            continue
        y /= ny
        lam_new = float((y @ (K_FF @ y)) / (y @ (M_FF @ y)))
        if lam > 0 and abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new, True
        x, lam = y, lam_new
    return lam, False


def critical_tau(dofmap, mass, stiffness):
    """Leapfrog stability threshold 2 / sqrt(lambda_max), from the oracle."""
    lam, converged = power_lambda(dofmap, mass, stiffness)
    assert converged and lam > 0
    return 2.0 / np.sqrt(lam)


def bound_lambda(dofmap):
    """The cell eigenvalue bound behind ``stable_tau``."""
    return (2.0 / stable_tau(dofmap, safety=1.0)) ** 2


def compatible_field(pts):
    """Smooth field with zero normal trace on the unit-square boundary."""
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.sin(np.pi * x) * np.cos(np.pi * y),
                            x * np.sin(np.pi * y)])


def linear_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([0.3 + 0.7 * x - 0.2 * y, -0.1 + 0.4 * x + 0.9 * y])


@pytest.fixture(scope="module")
def setup():
    dofmap = build_dofmap(generate(MeshFamily("hybrid"), 1))
    mass = assemble_lumped_mass(dofmap)
    K = assemble_stiffness(dofmap)
    return dofmap, mass, K


def homogeneous_start(solver, dofmap, tau):
    u0 = interpolate_field(dofmap, compatible_field)
    v0 = np.zeros_like(u0)
    return solver.start(u0, v0, tau)


# ---------------------------------------------------------------- invariants

def test_energy_conserved_without_damping(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = stable_tau(dofmap)
    state = homogeneous_start(solver, dofmap, tau)
    e0 = solver.energy(state)
    total0 = e0.kinetic + e0.potential
    assert total0 > 0
    drift = 0.0

    def watch(st):
        nonlocal drift
        e = solver.energy(st)
        drift = max(drift, abs(e.kinetic + e.potential - total0))

    solver.advance(state, 1000, on_step=watch)
    assert drift <= 1e-8 * total0


def test_energy_monotone_with_damping(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K, damping=1.0)
    tau = stable_tau(dofmap)
    state = homogeneous_start(solver, dofmap, tau)
    prev = np.inf

    def watch(st):
        nonlocal prev
        e = solver.energy(st)
        total = e.kinetic + e.potential
        assert total <= prev * (1 + 1e-12)
        prev = total

    solver.advance(state, 500, on_step=watch)
    e_first = solver.energy(homogeneous_start(solver, dofmap, tau))
    assert prev < 0.999 * (e_first.kinetic + e_first.potential)


def test_time_reversal_recovers_initial_state(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = stable_tau(dofmap)
    start = homogeneous_start(solver, dofmap, tau)
    state = solver.advance(start, 200)
    back = solver.advance(solver.reverse(state), 200)
    scale = np.abs(start.u_curr).max()
    assert np.abs(back.u_curr - start.u_prev).max() <= 1e-9 * scale
    assert np.abs(back.u_prev - start.u_curr).max() <= 1e-9 * scale


def test_zero_data_stays_zero(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = stable_tau(dofmap)
    z = np.zeros(dofmap.ndof)
    state = solver.advance(solver.start(z, z, tau), 50)
    assert np.all(state.u_curr == 0)
    e = solver.energy(state)
    assert e.kinetic == 0 and e.potential == 0


# ----------------------------------------------------------------- stability

def test_blowup_raises_instability_error(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = 1.01 * critical_tau(dofmap, mass, K)
    state = homogeneous_start(solver, dofmap, tau)
    with pytest.raises(InstabilityError) as err:
        solver.advance(state, 20000)
    assert err.value.step > 0
    assert err.value.norm > 1e8


def test_stable_at_safety_factor(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = stable_tau(dofmap, safety=0.99)
    state = solver.advance(homogeneous_start(solver, dofmap, tau), 2000)
    assert np.isfinite(state.u_curr).all()


def test_critical_tau_halves_under_refinement():
    taus = []
    for level in (1, 2):
        dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), level))
        taus.append(stable_tau(dofmap))
    ratio = taus[0] / taus[1]
    assert 1.85 <= ratio <= 2.15
    # equivalently lambda_max scales like 1/h^2
    assert 3.5 <= ratio**2 <= 4.5


def _oracle_and_bound(family, level):
    dofmap = build_dofmap(generate(family, level))
    mass = assemble_lumped_mass(dofmap)
    K = assemble_stiffness(dofmap)
    lam, converged = power_lambda(dofmap, mass, K)
    assert converged
    return lam, bound_lambda(dofmap)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("kind", FAMILIES)
def test_bound_covers_power_iteration(kind, level):
    lam, bound = _oracle_and_bound(MeshFamily(kind, base_divisions=8), level)
    assert bound >= lam
    if kind.startswith("structured"):
        assert bound <= 1.02 * lam


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), level=st.integers(0, 1))
def test_bound_covers_power_iteration_on_perturbed_seeds(seed, level):
    lam, bound = _oracle_and_bound(
        MeshFamily("perturbed", base_divisions=4, seed=seed), level)
    assert bound >= lam


def test_stable_just_below_the_bound_on_a_perturbed_mesh():
    dofmap = build_dofmap(generate(
        MeshFamily("perturbed", base_divisions=8, seed=1), 1))
    mass = assemble_lumped_mass(dofmap)
    K = assemble_stiffness(dofmap)
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = stable_tau(dofmap, safety=0.999)
    rng = np.random.default_rng(0)
    u0 = np.zeros(dofmap.ndof)
    u0[dofmap.free_idx] = rng.standard_normal(len(dofmap.free_idx))
    state = solver.advance(solver.start(u0, np.zeros_like(u0), tau), 2000)
    assert np.isfinite(state.u_curr).all()


# --------------------------------------------------------------- consistency

def test_second_order_in_time(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    free = dofmap.free_idx
    M_FF = mass.tocsr()[np.ix_(free, free)]
    T = 0.2
    n0 = int(np.ceil(T / (0.25 * critical_tau(dofmap, mass, K))))

    def run(n_steps):
        # the Taylor start already delivers the level at t = tau
        state = solver.advance(
            homogeneous_start(solver, dofmap, T / n_steps), n_steps - 1)
        assert abs(state.t - T) < 1e-12
        return state.u_curr

    ref = run(8 * n0)
    errs = []
    for n in (n0, 2 * n0):
        d = run(n) - ref
        errs.append(float(np.sqrt(d @ (M_FF @ d))))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_velocity_extractor_formulas(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = stable_tau(dofmap)
    older = solver.advance(homogeneous_start(solver, dofmap, tau), 10)
    newer = solver.step(older)
    v_mid = solver.centered_velocity(older, newer)
    expect = np.zeros(dofmap.ndof)
    expect[dofmap.free_idx] = (newer.u_curr - older.u_prev) / (2 * tau)
    assert_allclose(v_mid, expect, atol=1e-13)

    u_prev2 = older.u_prev
    mid = solver.step(older)
    last = solver.step(mid)
    v_end = solver.final_velocity(u_prev2, last)
    bdf2 = np.zeros(dofmap.ndof)
    bdf2[dofmap.free_idx] = (
        3 * last.u_curr - 4 * last.u_prev + u_prev2) / (2 * tau)
    assert_allclose(v_end, bdf2, atol=1e-13)


def test_variable_damping_matches_constant(setup):
    dofmap, mass, K = setup
    tau = stable_tau(dofmap)
    s_const = LeapfrogSolver(dofmap, mass, K, damping=1.5)
    s_field = LeapfrogSolver(dofmap, mass, K,
                             damping=lambda p: np.full(len(p), 1.5))
    a = s_const.advance(homogeneous_start(s_const, dofmap, tau), 50)
    b = s_field.advance(homogeneous_start(s_field, dofmap, tau), 50)
    assert_allclose(a.u_curr, b.u_curr, atol=1e-12 * np.abs(a.u_curr).max())


# ------------------------------------------------------------ boundary data

def test_boundary_values_imposed_nodally(setup):
    dofmap, mass, K = setup
    g = lambda p, t: linear_field(p)
    solver = LeapfrogSolver(dofmap, mass, K, boundary_data=g)
    tau = stable_tau(dofmap)
    u0 = interpolate_field(dofmap, linear_field)
    state = solver.advance(solver.start(u0, np.zeros_like(u0), tau), 25)
    full = solver.full(state)
    assert_allclose(full[dofmap.con_idx],
                    dofmap.constrained_values(g, state.t), atol=1e-13)


def test_static_solution_of_static_data(setup):
    # linear fields are divergence-constant, so with matching boundary data
    # and zero initial velocity the divergence term is the only force
    dofmap, mass, K = setup
    g = lambda p, t: linear_field(p)
    solver = LeapfrogSolver(dofmap, mass, K, boundary_data=g)
    tau = stable_tau(dofmap)
    u0 = interpolate_field(dofmap, linear_field)
    state = solver.advance(solver.start(u0, np.zeros_like(u0), tau), 5)
    # grad(div u0) = 0: the interpolant of a linear field is an equilibrium
    assert_allclose(solver.full(state), u0, atol=1e-11 * np.abs(u0).max())


# -------------------------------------------------------------------- guards

def test_negative_damping_rejected(setup):
    dofmap, mass, K = setup
    with pytest.raises(ValueError):
        LeapfrogSolver(dofmap, mass, K, damping=-0.5)


def test_wave_state_is_frozen(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    state = homogeneous_start(solver, dofmap, stable_tau(dofmap))
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t = 1.0
