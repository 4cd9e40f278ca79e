"""Leapfrog stepper: invariants, stability threshold, velocity recovery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hdivwave import timeloop
from hdivwave.assembly import (
    BlockSolver,
    _diagonal_blocks,
    _scatter,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    cell_forms,
    constrain,
    element_matrices,
    interpolate_field,
)
from hdivwave.driver import PlaneWave, ZeroData
from hdivwave.mesh import (FAMILIES, MAX_PERTURBATION, HybridMesh, MeshFamily,
                           generate)
from hdivwave.timeloop import (
    BLOWUP,
    CHUNK,
    InstabilityError,
    LeapfrogSolver,
    SAFETY,
    WaveState,
    stable_tau,
    within_stable_tau,
)
from hdivwave.verify import naive_lumped_mass

from test_assembly import boundary_coupling, free_block, naive_lumped_damping


def power_lambda(dofmap, mass, stiffness, tol=1e-4, maxit=500, seed=0):
    """Largest generalized eigenvalue of (K, M) on free dofs, by power
    iteration; approaches it from below.  Oracle for the cell bound."""
    free = dofmap.free_idx
    K_FF, M_FF = free_block(stiffness, dofmap), free_block(mass, dofmap)
    solver = BlockSolver(M_FF, dofmap)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(len(free))
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(maxit):
        y = solver.solve(K_FF @ x)
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
    return (2.0 * SAFETY / stable_tau(dofmap)) ** 2


def all_cells_stable_tau(dofmap):
    """``stable_tau`` with every cell eigen-solved: the oracle for the
    reduction to distinct cells."""
    lam = 0.0
    for g in dofmap.groups:
        M, K = element_matrices(g)
        Linv = np.linalg.inv(np.linalg.cholesky(M))
        A = Linv @ K @ np.swapaxes(Linv, 1, 2)
        lam = max(lam, float(np.linalg.eigvalsh(A)[:, -1].max()))
    return SAFETY * 2.0 / np.sqrt(lam)


def relabelled(mesh, seed=0):
    """``mesh`` with its vertex ids shuffled.  Cells keep their vertex
    order, so their Jacobians, but edges and their normals turn with the
    ids, so cells of one Jacobian differ in the signs of their scales."""
    new_id = np.random.default_rng(seed).permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[new_id] = mesh.vertices
    cells = np.where(mesh.cells >= 0, new_id[mesh.cells], -1)
    return HybridMesh(verts, cells, mesh.h_nominal)


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
    for _ in range(1000):
        state = solver.step(state)
        e = solver.energy(state)
        drift = max(drift, abs(e.kinetic + e.potential - total0))
    assert drift <= 1e-8 * total0


def test_energy_monotone_with_damping(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K, damping=1.0)
    tau = stable_tau(dofmap)
    state = homogeneous_start(solver, dofmap, tau)
    prev = np.inf
    for _ in range(500):
        state = solver.step(state)
        e = solver.energy(state)
        total = e.kinetic + e.potential
        assert total <= prev * (1 + 1e-12)
        prev = total
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
    tau = stable_tau(dofmap) * 0.99 / SAFETY
    state = solver.advance(homogeneous_start(solver, dofmap, tau), 2000)
    assert np.isfinite(state.u_curr).all()


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("kind", FAMILIES)
def test_stable_tau_equals_the_all_cells_loop(kind, level):
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=8), level))
    assert stable_tau(dofmap) == all_cells_stable_tau(dofmap)


def cell_matrix_bytes(g):
    M, K = element_matrices(g)
    return [m.tobytes() + k.tobytes() for m, k in zip(M, K)]


@pytest.mark.parametrize("relabel", [False, True],
                         ids=["generated", "relabelled"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_distinct_cells_carry_every_distinct_cell_matrix(kind, relabel):
    mesh = generate(MeshFamily(kind, base_divisions=4), 1)
    dofmap = build_dofmap(relabelled(mesh) if relabel else mesh)
    for g in dofmap.groups:
        d, inverse = g.distinct()
        every, kept = cell_matrix_bytes(g), cell_matrix_bytes(d)
        # no cell matrix lost, and none kept twice
        assert set(kept) == set(every)
        assert len(kept) == len(set(kept))
        # the inverse gives each cell its own matrix
        assert [kept[i] for i in np.arange(g.n)[inverse]] == every
        # every per-cell array keeps the rows of the kept cells
        rows = [list(g.cell_ids).index(c) for c in d.cell_ids]
        for name, a in vars(g).items():
            if isinstance(a, np.ndarray):
                assert np.array_equal(getattr(d, name), a[rows]), name
        if kind == "perturbed":
            assert d is g       # every cell distinct: nothing copied
        else:
            assert d.n < g.n
            assert relabel or d.n <= 2
    assert stable_tau(dofmap) == all_cells_stable_tau(dofmap)


@pytest.mark.parametrize("kind", FAMILIES)
def test_certificate_agrees_with_the_limit_at_every_scale(kind):
    # 1e-300 to 1e300, beside non-positive and non-finite values; the
    # huge ones overflow tau^2 or tau^2 K_e and must decline silently
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=4), 1))
    limit = stable_tau(dofmap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in [10.0**k for k in range(-300, 301, 5)] + [
                0.0, -limit / 2, math.nan, math.inf, -math.inf]:
            assert within_stable_tau(dofmap, tau) == (0 < tau <= limit)
        for rel in (1 - 1e-6, 1 - 1e-9, 1 + 1e-9):
            assert within_stable_tau(dofmap, rel * limit) == (rel < 1 - 1e-8)


def test_certificate_refuses_a_non_finite_pencil(hybrid_dofmap):
    # Cholesky factors a matrix with a NaN pivot without complaint; the
    # forms are the certificate's one pencil source
    forms = cell_forms(hybrid_dofmap)
    assert within_stable_tau(hybrid_dofmap, 1e-3, forms)
    M, K, classes = forms[0]
    M = M.copy()
    M[0, -1, -1] = np.nan
    assert not within_stable_tau(hybrid_dofmap, 1e-3,
                                 [(M, K, classes)] + forms[1:])


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
    tau = stable_tau(dofmap) * 0.999 / SAFETY
    rng = np.random.default_rng(0)
    u0 = np.zeros(dofmap.ndof)
    u0[dofmap.free_idx] = rng.standard_normal(len(dofmap.free_idx))
    state = solver.advance(solver.start(u0, np.zeros_like(u0), tau), 2000)
    assert np.isfinite(state.u_curr).all()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000),
       perturbation=st.floats(0.0, MAX_PERTURBATION, exclude_max=True))
def test_perturbed_meshes_keep_mass_and_energy_invariants(seed, perturbation):
    family = MeshFamily("perturbed", base_divisions=4,
                        perturbation=perturbation, seed=seed)
    dofmap = build_dofmap(generate(family, 1))
    mass = assemble_lumped_mass(dofmap)
    K = assemble_stiffness(dofmap)
    assert np.max(np.abs(mass.toarray() - naive_lumped_mass(dofmap))) <= 1e-13
    for _, blocks in _diagonal_blocks(mass, dofmap, dofmap.block_id):
        assert np.linalg.eigvalsh(blocks).min() > 0

    free = dofmap.free_idx
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(len(free))
    M_FF = free_block(mass, dofmap)
    x = BlockSolver(M_FF, dofmap).solve(r)
    assert np.max(np.abs(M_FF @ x - r)) <= 1e-12 * np.abs(r).max()

    solver = LeapfrogSolver(dofmap, mass, K)
    u0, v0 = np.zeros(dofmap.ndof), np.zeros(dofmap.ndof)
    u0[free] = rng.standard_normal(len(free))
    v0[free] = rng.standard_normal(len(free))
    state = solver.start(u0, v0, stable_tau(dofmap))
    e0 = solver.energy(state).total
    drift = 0.0
    for _ in range(200):
        state = solver.step(state)
        drift = max(drift, abs(solver.energy(state).total - e0) / e0)
    assert drift <= 1e-8


# --------------------------------------------------------------- consistency

def test_second_order_in_time(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    free = dofmap.free_idx
    M_FF = mass[np.ix_(free, free)]
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


def test_centered_velocity_refuses_states_that_are_not_consecutive(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    older = homogeneous_start(solver, dofmap, stable_tau(dofmap))
    for newer in (older, solver.advance(older, 2)):
        with pytest.raises(ValueError, match="states are not consecutive"):
            solver.centered_velocity(older, newer)


def test_variable_damping_matches_constant(setup):
    dofmap, mass, K = setup
    tau = stable_tau(dofmap)
    s_const = LeapfrogSolver(dofmap, mass, K, damping=1.5)
    s_field = LeapfrogSolver(dofmap, mass, K,
                             damping=lambda p: np.full(len(p), 1.5))
    a = s_const.advance(homogeneous_start(s_const, dofmap, tau), 50)
    b = s_field.advance(homogeneous_start(s_field, dofmap, tau), 50)
    assert_allclose(a.u_curr, b.u_curr, atol=1e-12 * np.abs(a.u_curr).max())


def test_scalar_damping_field_steps_as_the_constant(setup):
    # a field returning one number is taken at every node
    dofmap, mass, K = setup
    states = []
    for damping in (2.0, lambda p: 2.0):
        solver = LeapfrogSolver(dofmap, mass, K, damping=damping,
                                boundary_data=PlaneWave().field)
        states.append(solver.advance(
            homogeneous_start(solver, dofmap, stable_tau(dofmap)), 20))
    assert np.array_equal(states[0].u_curr, states[1].u_curr)


@pytest.mark.parametrize("field", [lambda p: np.ones((len(p), 1)),
                                   lambda p: np.ones(3),
                                   lambda p: np.ones((len(p), 2))],
                         ids=["column", "short", "vector"])
def test_damping_field_of_the_wrong_shape_rejected(setup, field):
    dofmap, mass, K = setup
    n = dofmap.mesh.n_vertices + dofmap.mesh.n_cells
    got = np.shape(field(np.zeros((n, 2))))
    with pytest.raises(ValueError) as err:
        LeapfrogSolver(dofmap, mass, K, damping=field)
    assert str(got) in str(err.value) and f"({n},)" in str(err.value)


@pytest.mark.parametrize("damping", [0.0, 1.5, lambda p: 1.0 + p[:, 0]],
                         ids=["none", "constant", "field"])
def test_one_block_solver_per_solver_across_taus(setup, block_solver_builds,
                                                 damping):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K, damping=damping)
    tau = stable_tau(dofmap)
    for t in (tau, 0.5 * tau):
        solver.advance(homogeneous_start(solver, dofmap, t), 5)
    assert len(block_solver_builds) == 1


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
                    dofmap.boundary_trace(g)([state.t])[0], atol=1e-13)


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


@pytest.mark.parametrize("kind", ["constant", "field"])
def test_damped_boundary_forcing_tracks_the_decaying_equilibrium(setup, kind):
    # with g = e^{-dt} L, L linear, the semi-discrete solution is exactly
    # e^{-dt} Pi L: K annihilates Pi L and u'' + d u' = 0, so only the
    # O(tau^2) leapfrog error remains.  Either damping boundary term left
    # out of the forcing costs about 3% of |L|, whatever tau.
    dofmap, mass, K = setup
    d, T = 2.0, 0.5
    damping = d if kind == "constant" else (lambda p: np.full(len(p), d))
    solver = LeapfrogSolver(
        dofmap, mass, K, damping=damping,
        boundary_data=lambda p, t: np.exp(-d * t)[:, None] * linear_field(p))
    L = interpolate_field(dofmap, linear_field)
    errs = []
    for n in (50, 100):
        tau = T / n
        state = solver.advance(solver.start(L, -d * L, tau), n - 1)
        exact = np.exp(-d * state.t) * L
        errs.append(np.abs(solver.full(state) - exact).max() / np.abs(L).max())
        assert errs[-1] <= 0.5 * tau**2
    assert 3.8 <= errs[0] / errs[1] <= 4.2


def test_each_step_evaluates_boundary_data_once(setup):
    # each time level is evaluated exactly once, CHUNK levels a call
    dofmap, mass, K = setup
    calls = []

    def g(p, t):
        calls.append(list(dict.fromkeys(t.tolist())))
        return np.cos(t)[:, None] * linear_field(p)

    solver = LeapfrogSolver(dofmap, mass, K, damping=0.5, boundary_data=g)
    u0 = interpolate_field(dofmap, linear_field)
    state = solver.start(u0, np.zeros_like(u0), 0.001)
    assert len(calls) == 1 and len(calls[0]) == 3
    calls.clear()
    prev, seen = state, []
    for _ in range(1000):
        new = solver.step(prev)
        # the outputs a run reads evaluate nothing more
        before = len(calls)
        solver.full(new)
        solver.centered_velocity(prev, new)
        assert len(calls) == before
        prev = new
        seen.append(new.t)
    times = [t for call in calls for t in call]
    assert times[:1000] == seen and len(set(times)) == len(times)
    assert len(calls) == math.ceil(1000 / CHUNK)
    assert len(times) - 1000 <= CHUNK - 1


def test_energy_reuses_the_steps_stiffness_product(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    state = solver.advance(
        homogeneous_start(solver, dofmap, stable_tau(dofmap)), 20)
    K_FF = solver.con.K_FF
    # reverse forms the product of its new u_prev, the old u_curr
    for s in (state, solver.reverse(state)):
        Ku = K_FF @ s.u_prev
        assert np.array_equal(s.Ku_prev.view(np.int64), Ku.view(np.int64))
        assert solver.energy(s).potential \
            == 0.5 * float(np.sum(s.u_curr * Ku))


# ----------------------------------------------------------------- lean step

def damping_field(p):
    return 1.0 + p[:, 0] * p[:, 1]


def family_solver(kind, damping, boundary_data):
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=4), 1))
    mass, K = assemble_lumped_mass(dofmap), assemble_stiffness(dofmap)
    return LeapfrogSolver(dofmap, mass, K, damping=damping,
                          boundary_data=boundary_data)


def implicit_damped_run(dofmap, mass, K, D, data, u0, v0, tau, n_steps):
    """Free-dof ``u`` after ``n_steps`` of the implicit damped leapfrog

        (M_FF + tau/2 D_FF) u^{n+1} = M_FF (2 u^n - u^{n-1})
            + tau/2 D_FF u^{n-1} - tau^2 (K_FF u^n + f^n),
        f = K_FB g + M_FB g'' + D_FB g',

    with the assembled damping matrix D and the boundary data sampled at
    n tau, one level at a time; oracle for the nodal-scaling update."""
    free, con = dofmap.free_idx, dofmap.con_idx
    (K_FF, K_FB), (M_FF, M_FB), (D_FF, D_FB) = (
        (A[free][:, free].tocsr(), A[free][:, con].tocsr())
        for A in (K, mass, D))
    trace = dofmap.boundary_trace(data)

    def f(n):
        gm, g0, gp = trace(tau * np.array([n - 1.0, n, n + 1.0]))
        return (K_FB @ g0 + M_FB @ ((gp - 2.0 * g0 + gm) / tau**2)
                + D_FB @ ((gp - gm) / (2.0 * tau)))

    u_prev, v = u0[free], v0[free]
    u = u_prev + tau * v - 0.5 * tau**2 * BlockSolver(M_FF, dofmap).solve(
        K_FF @ u_prev + f(0) + D_FF @ v)
    implicit = BlockSolver(M_FF + (tau / 2.0) * D_FF, dofmap)
    for n in range(1, n_steps):
        b = M_FF @ (2.0 * u - u_prev) + (tau / 2.0) * (D_FF @ u_prev) \
            - tau**2 * (K_FF @ u + f(n))
        u_prev, u = u, implicit.solve(b)
    return u


@pytest.mark.parametrize("kind", ["structured-triangle", "hybrid"])
def test_field_damping_matches_the_implicit_step(kind):
    d = lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1]
    wave, tau, n = PlaneWave(), 0.001, 500
    solver = family_solver(kind, d, wave.field)
    dofmap = solver.dofmap
    mass, K = assemble_lumped_mass(dofmap), assemble_stiffness(dofmap)
    u0 = interpolate_field(dofmap, lambda p: wave.field(p, 0.0))
    v0 = interpolate_field(dofmap, lambda p: wave.velocity(p, 0.0))
    state = solver.advance(solver.start(u0, v0, tau), n - 1)
    ref = implicit_damped_run(
        dofmap, mass, K, sp.csr_matrix(naive_lumped_damping(dofmap, d)),
        wave.field, u0, v0, tau, n)
    assert np.abs(state.u_curr - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("damping", [0.0, 1.5, damping_field],
                         ids=["none", "constant", "field"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_load_on_touched_rows_equals_the_full_row_product(kind, damping):
    solver = family_solver(kind, damping, PlaneWave().field)
    dofmap, con, tau, t = solver.dofmap, solver.con, 0.01, 0.8
    gm, g0, gp = solver._g([t - tau, t, t + tau])
    d_con = (dofmap.nodal_values(damping)[dofmap.con_idx]
             if callable(damping) else damping)
    w = [g0, (gp - 2.0 * g0 + gm) / tau**2
         + d_con * ((gp - gm) / (2.0 * tau))]
    u = np.random.default_rng(0).standard_normal(len(dofmap.free_idx))
    new = solver.step(WaveState(u_prev=u, u_curr=u, t=t, tau=tau, n=1,
                                g_prev=gm, g_curr=g0, Ku_prev=con.K_FF @ u))
    assert np.array_equal(new.g_curr, gp)
    f = np.zeros(len(u))
    f[con.rows] = solver._forcing(np.array([gm, g0, gp]), tau)[0]
    coupling = sp.csr_matrix(boundary_coupling(
        dofmap, assemble_lumped_mass(dofmap), assemble_stiffness(dofmap)))
    assert np.array_equal(new.Ku_prev + f,
                          coupling @ np.concatenate(w) + new.Ku_prev)
    assert len(con.rows) < len(u)


def reference_step(solver, trace, state):
    """The step with one trace call for its new level and the load
    ``K_FF u + f`` formed from the three levels around it: the oracle
    for the forcing window.  With ``trace`` None there is no forcing
    term at all, and the new boundary row is zero."""
    con, tau = solver.con, state.tau
    t = state.t + tau
    gm, g0 = state.g_prev, state.g_curr
    Ku = con.K_FF @ state.u_curr
    load = Ku
    if trace is None:
        gp = np.zeros_like(g0)
    else:
        gp = trace([t])[0]
        w = [g0, (gp - 2.0 * g0 + gm) / tau**2]
        if solver._damped:
            w[1] += solver._d_con * ((gp - gm) / (2.0 * tau))
        load = Ku.copy()
        load[con.rows] += con.boundary @ np.concatenate(w)
    d = solver._d_free if solver._damped else 0.0
    u_next = (-tau**2 * solver._msolve.solve(load) + state.u_curr
              + state.u_curr - (1.0 - d * tau / 2.0) * state.u_prev) \
        / (1.0 + d * tau / 2.0)
    return WaveState(u_prev=state.u_curr, u_curr=u_next, t=t, tau=tau,
                     n=state.n + 1, g_prev=g0, g_curr=gp, Ku_prev=Ku)


def assert_steps_match_reference(solver, trace, state, n_steps):
    ref = state
    for _ in range(n_steps):
        state, ref = solver.step(state), reference_step(solver, trace, ref)
        assert state.t == ref.t and state.n == ref.n
        for name in ("u_curr", "Ku_prev", "g_curr"):
            assert np.array_equal(getattr(state, name), getattr(ref, name))
    return state


def oscillating_data(p, t):
    return np.cos(3.0 * t)[:, None] * linear_field(p)


def forced_start(solver):
    u0 = interpolate_field(solver.dofmap, compatible_field)
    return solver.start(u0, np.zeros_like(u0), stable_tau(solver.dofmap))


@pytest.mark.parametrize("damping", [0.0, 1.5, damping_field],
                         ids=["none", "constant", "field"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_windowed_steps_are_bit_identical_to_the_per_level_load(kind,
                                                                damping):
    solver = family_solver(kind, damping, oscillating_data)
    trace = solver.dofmap.boundary_trace(oscillating_data)
    # crosses two refills
    assert_steps_match_reference(solver, trace, forced_start(solver),
                                 2 * CHUNK + 5)


@pytest.mark.parametrize("path", ["repeat", "reverse", "tau", "restart",
                                  "no-data"])
@pytest.mark.parametrize("damping", [1.5, damping_field],
                         ids=["constant", "field"])
def test_window_refill_paths_match_the_reference(path, damping):
    # a retimed or restarted state refills the window; a repeated or
    # reversed one keeps the times and boundary rows, and its window
    data = None if path == "no-data" else oscillating_data
    solver = family_solver("hybrid", damping, data)
    if data is None:
        n_con = len(solver.dofmap.con_idx)
        trace = lambda ts: np.zeros((len(ts), n_con))
    else:
        trace = solver.dofmap.boundary_trace(data)
    state = solver.advance(forced_start(solver), 10)
    if path == "repeat":
        solver.step(state)
    elif path == "reverse":
        state = solver.reverse(state)
    elif path == "tau":
        state = dataclasses.replace(state, tau=0.5 * state.tau)
    elif path == "restart":
        state = forced_start(solver)
    assert_steps_match_reference(solver, trace, state, CHUNK + 3)


def test_a_refill_that_raises_leaves_the_window_to_refill():
    # the window is formed in the call and handed out on its state only
    solver = family_solver("hybrid", 1.5, oscillating_data)
    trace = solver.dofmap.boundary_trace(oscillating_data)
    state = solver.advance(forced_start(solver), 10)
    g, solver._g = solver._g, lambda ts: 1 / 0
    with pytest.raises(ZeroDivisionError):
        solver.step(dataclasses.replace(state, tau=0.5 * state.tau))
    solver._g = g
    assert_steps_match_reference(solver, trace, state, CHUNK + 3)


def test_no_step_sets_a_solver_attribute():
    solver = family_solver("hybrid", damping_field, oscillating_data)
    before = dict(vars(solver))
    state = forced_start(solver)
    older = solver.advance(state, CHUNK + 3)
    newer = solver.step(older)
    for s in (solver.reverse(newer), dataclasses.replace(
            newer, tau=0.5 * newer.tau)):
        solver.advance(s, CHUNK + 3)
    solver.centered_velocity(older, newer)
    solver.final_velocity(state.u_curr, newer)
    solver.energy(newer)
    solver.full(newer)
    assert vars(solver).keys() == before.keys()
    assert all(vars(solver)[k] is v for k, v in before.items())


def counting(data, levels):
    """``data``, appending the number of time levels of each call."""
    def g(p, t):
        levels.append(len(set(t.tolist())))
        return data(p, t)
    return g


def test_interleaved_trajectories_keep_their_own_windows():
    levels, n_steps = [], 2 * CHUNK + 5
    solver = family_solver("hybrid", 1.5, counting(oscillating_data, levels))
    tau = stable_tau(solver.dofmap)
    u0 = interpolate_field(solver.dofmap, compatible_field)
    starts = [solver.start(u0, np.zeros_like(u0), tau),
              solver.start(u0, u0, 0.5 * tau)]
    alone = []
    for s in starts:
        for _ in range(n_steps):
            s = solver.step(s)
        alone.append(s)
    levels.clear()
    a, b = starts
    for _ in range(n_steps):
        a, b = solver.step(a), solver.step(b)
    assert_bits_equal(a, alone[0])
    assert_bits_equal(b, alone[1])
    assert levels == [CHUNK] * (2 * math.ceil(n_steps / CHUNK))


@pytest.mark.parametrize("damping, scale", [(1.5, 2.0), (damping_field, 1.0)],
                         ids=["other-data", "other-damping"])
def test_a_state_steps_with_the_forcing_of_the_solver_it_is_handed(damping,
                                                                   scale):
    first = family_solver("hybrid", 1.5, oscillating_data)
    data = lambda p, t: scale * oscillating_data(p, t)
    second = family_solver("hybrid", damping, data)
    trace = second.dofmap.boundary_trace(data)
    # ten steps into the first solver's window
    state = ref = first.advance(forced_start(first), 10)
    for _ in range(CHUNK + 3):
        state, ref = second.step(state), reference_step(second, trace, ref)
        assert_bits_equal(state, ref)


@pytest.mark.parametrize("damping", [0.0, 1.5, damping_field],
                         ids=["none", "constant", "field"])
@pytest.mark.parametrize("kind", FAMILIES)
def test_no_boundary_data_steps_with_no_forcing_term(kind, damping):
    # zero data adds a forcing of +0.0, which changes no bit; None is
    # the zero field, and so steps as ZeroData does
    for data in (None, ZeroData().field):
        solver = family_solver(kind, damping, data)
        state = ref = solver.advance(forced_start(solver), 3)
        for _ in range(CHUNK + 3):
            state, ref = solver.step(state), reference_step(solver, None,
                                                            ref)
            assert_bits_equal(state, ref)


def state_arrays(state):
    """Copies of the arrays a state holds, by field name."""
    return {f.name: np.copy(getattr(state, f.name))
            for f in dataclasses.fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)}


def assert_bits_equal(state, ref):
    assert state.n == ref.n
    assert np.float64(state.t).view(np.int64) \
        == np.float64(ref.t).view(np.int64)
    for name in ("u_prev", "u_curr", "Ku_prev", "g_prev", "g_curr"):
        a, b = getattr(state, name), getattr(ref, name)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def assert_unchanged(state, arrays):
    for name, kept in arrays.items():
        assert np.array_equal(getattr(state, name).view(np.int64),
                              kept.view(np.int64)), name


@pytest.mark.parametrize("path", ["mid-window", "reverse", "tau"])
@pytest.mark.parametrize("data", [None, oscillating_data],
                         ids=["no-data", "data"])
@pytest.mark.parametrize("damping", [0.0, 1.5, damping_field],
                         ids=["none", "constant", "field"])
def test_advance_is_n_reference_steps_bit_for_bit(damping, data, path):
    solver = family_solver("hybrid", damping, data)
    if data is None:
        n_con = len(solver.dofmap.con_idx)
        trace = lambda ts: np.zeros((len(ts), n_con))
    else:
        trace = solver.dofmap.boundary_trace(data)
    # ten steps into the first window; CHUNK + 3 more cross a refill
    state = solver.advance(forced_start(solver), 10)
    if path == "reverse":
        state = solver.reverse(state)
    elif path == "tau":
        state = dataclasses.replace(state, tau=0.5 * state.tau)
    inputs = state_arrays(state)
    ref = state
    for _ in range(CHUNK + 3):
        ref = reference_step(solver, trace, ref)
    got = solver.advance(state, CHUNK + 3)
    assert_bits_equal(got, ref)
    assert_unchanged(state, inputs)
    # the buffers belong to one call: a later advance leaves got alone
    kept = state_arrays(got)
    solver.advance(got, CHUNK + 3)
    assert_unchanged(got, kept)


@pytest.mark.parametrize("damping", [0.0, 1.5, damping_field],
                         ids=["none", "constant", "field"])
def test_energy_of_a_forced_state_needs_no_stored_product(setup, damping):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(
        dofmap, mass, K, damping=damping,
        boundary_data=lambda p, t: np.cos(3.0 * t)[:, None] * linear_field(p))
    u0 = interpolate_field(dofmap, compatible_field)
    state = solver.advance(
        solver.start(u0, np.zeros_like(u0), stable_tau(dofmap)), 30)
    # the stored product holds no forcing: it is K_FF @ u_prev
    Ku = solver.con.K_FF @ state.u_prev
    assert np.array_equal(state.Ku_prev.view(np.int64), Ku.view(np.int64))
    assert solver.energy(state) \
        == solver.energy(dataclasses.replace(state, Ku_prev=Ku))


def max_norm_guard(u, step):
    """The guard as max |u| after every step, the reference."""
    nrm = float(np.max(np.abs(u))) if len(u) else 0.0
    if not np.isfinite(nrm) or nrm > BLOWUP:
        raise InstabilityError(step, nrm)


def guard_outcome(solver, state, n_steps):
    """(step, norm) of the InstabilityError, or None and the last state."""
    try:
        return None, solver.advance(state, n_steps)
    except InstabilityError as err:
        return (err.step, err.norm), None


def assert_guard_matches_reference(monkeypatch, solver, state, n_steps):
    fast, fast_end = guard_outcome(solver, state, n_steps)
    with monkeypatch.context() as m:
        m.setattr(timeloop, "_check_blowup", max_norm_guard)
        ref, ref_end = guard_outcome(solver, state, n_steps)
    np.testing.assert_equal(fast, ref)
    if ref is None:
        assert np.array_equal(fast_end.u_curr, ref_end.u_curr)
    return fast


def test_guard_fires_at_the_reference_step_on_blowup(setup, monkeypatch):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    tau = 1.3 * critical_tau(dofmap, mass, K)
    fired = assert_guard_matches_reference(
        monkeypatch, solver, homogeneous_start(solver, dofmap, tau), 5000)
    assert fired is not None and fired[1] > BLOWUP


def test_guard_fires_at_the_reference_step_on_nan_data(setup, monkeypatch):
    dofmap, mass, K = setup
    tau = 0.001

    def g(p, t):
        return np.where(t > 10.5 * tau, np.nan, np.cos(t))[:, None] \
            * linear_field(p)

    solver = LeapfrogSolver(dofmap, mass, K, boundary_data=g)
    u0 = interpolate_field(dofmap, linear_field)
    fired = assert_guard_matches_reference(
        monkeypatch, solver, solver.start(u0, np.zeros_like(u0), tau), 50)
    assert fired is not None and fired[0] == 11 and np.isnan(fired[1])


@pytest.mark.parametrize("scale", [0.9, -0.9, 1.01, -1.01])
def test_guard_on_one_signed_large_state(setup, monkeypatch, scale):
    # every entry has the sign of scale, and the largest is scale * BLOWUP;
    # with a tiny step it stays there, so the guard fires iff |scale| > 1,
    # also when ||u||_2 is far above BLOWUP
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    state = homogeneous_start(solver, dofmap, 1e-6)
    u = scale * BLOWUP * np.abs(state.u_curr) / np.abs(state.u_curr).max()
    assert np.linalg.norm(u) > 2 * BLOWUP
    state = dataclasses.replace(state, u_prev=u, u_curr=u,
                                Ku_prev=solver.con.K_FF @ u)
    fired = assert_guard_matches_reference(monkeypatch, solver, state, 3)
    assert (fired is not None) == (abs(scale) > 1)


@pytest.mark.parametrize("kind", FAMILIES)
def test_stiffness_stores_no_zeros(kind):
    # nor do the mass blocks of the split and the block inverse, which
    # hold the same values as the products that store zeros
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=4), 1))
    K = assemble_stiffness(dofmap)
    summed = _scatter(dofmap.ndof, [(g.l2g, element_matrices(g)[1])
                                    for g in dofmap.groups])
    assert not np.any(K.data == 0)
    assert np.any(summed.data == 0)
    assert np.array_equal(K.toarray(), summed.toarray())

    mass = assemble_lumped_mass(dofmap)
    free = dofmap.free_idx
    split = constrain(dofmap, mass, K)
    inv = np.zeros((len(free), len(free)))
    for pos, blocks in _diagonal_blocks(free_block(mass, dofmap), dofmap,
                                        dofmap.block_id[free]):
        for p, block_inv in zip(pos, np.linalg.inv(blocks)):
            inv[np.ix_(p, p)] = block_inv
    coupling = boundary_coupling(dofmap, mass, K)
    for stored, full in ((split.M_FF, mass[free][:, free].toarray()),
                         (split.boundary, coupling[split.rows]),
                         (BlockSolver(split.M_FF, dofmap)._inv, inv)):
        assert not np.any(stored.data == 0)
        assert np.array_equal(stored.toarray(), full)


# -------------------------------------------------------------------- guards

def test_negative_damping_rejected(setup):
    dofmap, mass, K = setup
    with pytest.raises(ValueError):
        LeapfrogSolver(dofmap, mass, K, damping=-0.5)


@pytest.mark.parametrize("form", ["constant", "field"])
@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
def test_damping_outside_zero_to_infinity_rejected(setup, form, value):
    # the field is bad on part of the domain only
    dofmap, mass, K = setup
    damping = value if form == "constant" else (
        lambda p: np.where(p[:, 0] > 0.5, value, 1.0))
    with pytest.raises(ValueError, match="damping"):
        LeapfrogSolver(dofmap, mass, K, damping=damping)


@pytest.mark.parametrize("tau", [0.0, -0.01, math.nan, math.inf, 1e-300,
                                 1e-160])
def test_start_rejects_a_bad_tau(setup, tau):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    z = np.zeros(dofmap.ndof)
    with pytest.raises(ValueError, match="tau"):
        solver.start(z, z, tau)


def test_wave_state_is_frozen(setup):
    dofmap, mass, K = setup
    solver = LeapfrogSolver(dofmap, mass, K)
    state = homogeneous_start(solver, dofmap, stable_tau(dofmap))
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t = 1.0
