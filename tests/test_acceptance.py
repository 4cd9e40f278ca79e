"""Acceptance criteria, one test per criterion.

Each test appends exactly one PASS/FAIL line to the summary block that
conftest prints after the run, then asserts.  The convergence study in
the first test is the expensive part (about half a minute); everything
else is seconds.
"""

import math
import time

import numpy as np
import pytest

from hdivwave.analysis import (
    commuting_residuals,
    div_norm_cells,
    eoc,
    field_l2_error,
    project_p1_field,
    sigma_cells,
)
from hdivwave.assembly import (
    _diagonal_blocks,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    interpolate_field,
)
from hdivwave.driver import PlaneWave, run_benchmark
from hdivwave.mesh import MeshFamily, generate
from hdivwave.quadrature import (
    LUMPED_EXACT_DEGREE,
    SHAPES,
    exact_ref_integral,
    lumped_rule,
)
from hdivwave.refelem import reference_basis
from hdivwave.timeloop import LeapfrogSolver, stable_tau
from hdivwave.verify import naive_lumped_mass, verify_splitting

from conftest import ACCEPTANCE_LINES

# Published benchmark table: key k -> reported error on a quasi-uniform mesh
# whose maximum cell diameter is 2^-k.  The table's source is not in this
# repository; the key is read as a diameter because the structured-triangle
# error divided by the entry at the equal *spacing* 2^-k tends to 2.03,
# which is (sqrt 2)^2: the factor a second-order error picks up from the
# sqrt(2) between spacing and diameter on these meshes.  Matched by diameter
# the ratio tends to 1.
REFERENCE_TABLE = {3: 0.270790, 4: 0.060266, 5: 0.016328, 6: 0.004343}

A1_FAMILIES = ("structured-triangle", "structured-quad", "hybrid")
A1_LEVELS = (0, 1, 2, 3)          # spacing 2^-3 .. 2^-6 with 8 base divisions
RATE_FLOOR, RATE_WINDOW = 1.8, (1.8, 2.2)
REFERENCE_FACTOR = 5.0
MIN_REFERENCE_LEVELS = 3


def record(ok: bool, name: str, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


@pytest.fixture(scope="session")
def convergence_matrix():
    """Reports, runtimes and maximum cell diameters for the three families."""
    out = {}
    for kind in A1_FAMILIES:
        fam = MeshFamily(kind, base_divisions=8)
        reports, seconds, diameters = [], [], []
        for level in A1_LEVELS:
            t0 = time.perf_counter()
            res = run_benchmark(fam, level, PlaneWave(), tau=0.001, T=2.0)
            seconds.append(time.perf_counter() - t0)
            reports.append(res.report)
            diameters.append(res.mesh.cell_diameters().max())
        out[kind] = (reports, seconds, diameters)
    return out


def rate_problems(label: str, hs, errors) -> tuple[list[float], list[str]]:
    """Observed orders on consecutive levels and what breaks the rate rule.

    Every pair must converge at least at RATE_FLOOR: the error decays no
    slower than h^2.  Only the finest pair must lie in RATE_WINDOW, since
    the error tends to h^2 asymptotically; on the coarsest level the
    benchmark pulse has about one cell per standard deviation, and the
    first pairs are steeper than 2.
    """
    rates = eoc(list(zip(hs, errors)))
    problems = [f"{label} EOC {r:.3f} on levels {i}->{i + 1} below "
                f"{RATE_FLOOR}" for i, r in enumerate(rates)
                if not r >= RATE_FLOOR]
    lo, hi = RATE_WINDOW
    if not lo <= rates[-1] <= hi:
        problems.append(
            f"{label} EOC {rates[-1]:.3f} on finest levels "
            f"{len(rates) - 1}->{len(rates)} outside [{lo}, {hi}]")
    return rates, problems


def reference_at(diameter: float) -> float | None:
    """Table error at a maximum cell diameter, log-log interpolated between
    the neighbouring entries; None outside the table (no extrapolation)."""
    keys = sorted(REFERENCE_TABLE)
    k = -math.log2(diameter)
    if not keys[0] <= k <= keys[-1]:
        return None
    logs = [math.log(REFERENCE_TABLE[j]) for j in keys]
    return math.exp(float(np.interp(k, keys, logs)))


def reference_problems(diameters, errors) -> tuple[dict[int, float],
                                                   list[str]]:
    """Two-sided error/reference ratio per level and what breaks the gate.

    Levels whose diameter lies outside the table are not compared; at
    least MIN_REFERENCE_LEVELS must be, so the gate never passes empty.
    """
    ratios = {}
    for level, (d, e) in enumerate(zip(diameters, errors)):
        ref = reference_at(d)
        if ref is not None:
            ratios[level] = max(e / ref, ref / e)
    problems = [f"triangle level {level} error/reference ratio {r:.2f} "
                f"exceeds {REFERENCE_FACTOR:g}"
                for level, r in ratios.items() if not r <= REFERENCE_FACTOR]
    if len(ratios) < MIN_REFERENCE_LEVELS:
        problems.append(
            f"only {len(ratios)} triangle levels within the table's "
            f"diameters (need {MIN_REFERENCE_LEVELS})")
    return ratios, problems


def smooth_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.sin(np.pi * x) * np.cos(np.pi * y), x**2 * y])


def smooth_div(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.pi * np.cos(np.pi * x) * np.cos(np.pi * y) + x**2


def test_convergence_benchmark(convergence_matrix):
    problems = []
    rates = {}
    for kind in A1_FAMILIES:
        reports, _, _ = convergence_matrix[kind]
        hs = [r.h for r in reports]
        for tag, get in (("energy", lambda r: r.energy_error),
                         ("discrete", lambda r: r.discrete_error)):
            rates[kind, tag], found = rate_problems(
                f"{kind} {tag}", hs, [get(r) for r in reports])
            problems += found

    tri_reports, _, tri_diameters = convergence_matrix["structured-triangle"]
    ratios, found = reference_problems(
        tri_diameters, [r.discrete_error for r in tri_reports])
    problems += found

    slowest = max(convergence_matrix[k][1][-1] for k in A1_FAMILIES)
    if slowest > 180.0:
        problems.append(f"finest level took {slowest:.0f}s (limit 180s)")

    summary = ("EOC lowest, finest " + " ".join(
        f"{kind.split('-')[-1]}[{min(rates[kind, 'energy']):.3f}/"
        f"{min(rates[kind, 'discrete']):.3f}, "
        f"{rates[kind, 'energy'][-1]:.3f}/{rates[kind, 'discrete'][-1]:.3f}]"
        for kind in A1_FAMILIES)
        + "; triangle error/reference at diameter " + " ".join(
            f"L{level} {r:.2f}" for level, r in ratios.items())
        + f"; finest level {slowest:.0f}s")
    record(not problems, "convergence (reference table)", summary)
    assert not problems, "; ".join(problems)


def test_convergence_gates_reject_synthetic_failures():
    hs = [2.0 ** -(3 + level) for level in A1_LEVELS]
    h = np.array(hs)

    _, found = rate_problems("first order", hs, list(h))
    assert found and "levels 0->1 below" in found[0]
    steep_start = h**2
    steep_start[0] *= 4                       # rates 4, 2, 2
    assert rate_problems("steep start", hs, list(steep_start))[1] == []
    third_finest = h**2
    third_finest[-1] = third_finest[-2] / 8   # rates 2, 2, 3
    _, found = rate_problems("third order", hs, list(third_finest))
    assert found == ["third order EOC 3.000 on finest levels 2->3 "
                     "outside [1.8, 2.2]"]

    assert reference_at(2.0 ** -4) == pytest.approx(REFERENCE_TABLE[4])
    diameters = [math.sqrt(2) * x for x in hs]
    refs = [reference_at(d) for d in diameters]
    assert refs[0] is None                    # coarser than the table
    assert reference_problems(
        diameters, [r or 1.0 for r in refs]) == ({1: 1.0, 2: 1.0, 3: 1.0}, [])
    for scale in (6.0, 1 / 6):
        ratios, found = reference_problems(
            diameters, [scale * r if r else 1.0 for r in refs])
        assert len(found) == 3 and all(
            r == pytest.approx(6.0) for r in ratios.values())
    _, found = reference_problems(diameters[:3], [r or 1.0 for r in refs[:3]])
    assert found == ["only 2 triangle levels within the table's diameters "
                     "(need 3)"]


def test_quadrature_exactness():
    worst = 0.0
    for shape in SHAPES:
        rule = lumped_rule(shape)
        w = rule.ref_weights()
        for a in range(LUMPED_EXACT_DEGREE[shape] + 1):
            for b in range(LUMPED_EXACT_DEGREE[shape] + 1 - a):
                got = float(w @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                ref = exact_ref_integral(shape, a, b)
                worst = max(worst, abs(got - ref) / abs(ref) if ref else abs(got))

    tri = lumped_rule("triangle")
    tri_cubic = float(tri.ref_weights() @ tri.points[:, 0] ** 3)
    quad = lumped_rule("quad")
    quad_quartic = float(quad.ref_weights() @ quad.points[:, 0] ** 4)
    mis_ok = (abs(tri_cubic - 1 / 18) <= 1e-12
              and abs(exact_ref_integral("triangle", 3, 0) - 1 / 20) <= 1e-12
              and abs(quad_quartic - 5 / 24) <= 1e-12
              and abs(exact_ref_integral("quad", 4, 0) - 1 / 5) <= 1e-12)

    ok = worst <= 1e-12 and mis_ok
    record(ok, "quadrature exactness",
           f"worst relative defect {worst:.2e}; x^3 on triangle "
           f"{tri_cubic:.6f} vs 1/20, x^4 on square {quad_quartic:.6f} vs 1/5")
    assert ok


def test_mass_structure():
    worst, checked = 0.0, 0
    for kind in ("structured-triangle", "structured-quad", "hybrid",
                 "perturbed"):
        dofmap = build_dofmap(generate(MeshFamily(kind, seed=3), 1))
        mass = assemble_lumped_mass(dofmap)
        batches = _diagonal_blocks(mass, dofmap, np.arange(dofmap.ndof))
        mesh = dofmap.mesh
        size = np.zeros(mesh.n_vertices + mesh.n_cells, dtype=int)
        for dofs, blocks in batches:
            size[dofmap.block_id[dofs[:, 0]]] = dofs.shape[1]
            assert np.linalg.eigvalsh(blocks).min() > 0
        assert sum(len(dofs) for dofs, _ in batches) == len(size)
        incidence = np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices)
        assert np.array_equal(size[:mesh.n_vertices], incidence)
        assert np.all(size[mesh.n_vertices:] == 2)
        worst = max(worst, float(np.max(np.abs(
            mass.toarray() - naive_lumped_mass(dofmap)))))
        checked += 1
    ok = worst <= 1e-13
    record(ok, "mass structure",
           f"{checked} families; max |blockwise - pairwise| {worst:.2e}; "
           f"all blocks SPD; counts match")
    assert ok


def test_nodality():
    worst = 0.0
    for shape in SHAPES:
        basis = reference_basis(shape)
        rule = lumped_rule(shape)
        vals = basis.values(rule.points)        # (dim, npts, 2)
        for q in range(len(rule.points)):
            own = basis.slots_at_qpoint(q)
            foreign = [i for i in range(basis.dim) if i not in own]
            worst = max(worst, float(
                np.abs(vals[foreign, q, :]).max()))
    ok = worst <= 1e-13
    record(ok, "nodality", f"max foreign-point magnitude {worst:.2e}")
    assert ok


def test_commuting_interpolation():
    worst = 0.0
    for level in range(3):
        dofmap = build_dofmap(generate(MeshFamily("hybrid"), level))
        K = assemble_stiffness(dofmap)
        r, s = commuting_residuals(dofmap, smooth_field, smooth_div, K)
        worst = max(worst, float(np.max(np.abs(r) / (1e-10 * s))))
    errs = []
    for level in range(3):
        dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), level))
        errs.append(field_l2_error(
            dofmap, interpolate_field(dofmap, smooth_field), exact=smooth_field))
    rate = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    ok = worst <= 1.0 and rate >= 1.9
    record(ok, "commuting interpolation",
           f"divergence residual at {worst:.2f} of budget; L2 EOC {rate:.2f}")
    assert ok


def test_sigma_functional():
    dofmap = build_dofmap(generate(MeshFamily("structured-quad"), 2))
    p1u = project_p1_field(dofmap, smooth_field)
    v = interpolate_field(dofmap, smooth_field)
    para_worst = float(np.max(np.abs(sigma_cells(dofmap, p1u, v))))

    u = lambda p: np.column_stack([np.exp(p[:, 0] / 2), np.exp(p[:, 1] / 2)])
    worst = []
    for level in range(3):
        dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), level))
        p1u = project_p1_field(dofmap, u)
        vv = interpolate_field(dofmap, u)
        worst.append(float(np.max(
            np.abs(sigma_cells(dofmap, p1u, vv)) / div_norm_cells(dofmap, vv))))
    rate = min(np.log2(worst[i] / worst[i + 1]) for i in range(2))
    ok = para_worst <= 1e-12 and rate >= 1.8
    record(ok, "quadrature defect functional",
           f"parallelogram max {para_worst:.2e}; triangle decay rate {rate:.2f}")
    assert ok


def test_splitting():
    rep = verify_splitting("triangle")
    ok = (rep.rank == 8 and rep.smallest_singular_value > 1e-2
          and rep.bubble_div_smin > 1e-2)
    record(ok, "splitting",
           f"rank {rep.rank}; smallest singular value "
           f"{rep.smallest_singular_value:.3f}; bubble-divergence smin "
           f"{rep.bubble_div_smin:.3f}")
    assert ok


def test_leapfrog_invariants():
    dofmap = build_dofmap(generate(MeshFamily("hybrid"), 1))
    mass = assemble_lumped_mass(dofmap)
    K = assemble_stiffness(dofmap)
    tau = stable_tau(dofmap)

    def start(solver):
        u0 = interpolate_field(dofmap, lambda p: np.column_stack(
            [np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
             p[:, 0] * np.sin(np.pi * p[:, 1])]))
        return solver.start(u0, np.zeros_like(u0), tau)

    solver = LeapfrogSolver(dofmap, mass, K)
    state = start(solver)
    e0 = solver.energy(state)
    total0 = e0.kinetic + e0.potential
    drift = 0.0

    def watch(s):
        nonlocal drift
        e = solver.energy(s)
        drift = max(drift, abs(e.kinetic + e.potential - total0))

    solver.advance(state, 1000, on_step=watch)
    rel_drift = drift / total0

    damped = LeapfrogSolver(dofmap, mass, K, damping=1.0)
    dstate = start(damped)
    prev = [np.inf]
    monotone = [True]

    def dwatch(s):
        e = damped.energy(s)
        total = e.kinetic + e.potential
        if total > prev[0] * (1 + 1e-12):
            monotone[0] = False
        prev[0] = total

    damped.advance(dstate, 500, on_step=dwatch)

    begin = start(solver)
    fwd = solver.advance(begin, 200)
    back = solver.advance(solver.reverse(fwd), 200)
    scale = float(np.abs(begin.u_curr).max())
    rev_err = max(float(np.abs(back.u_curr - begin.u_prev).max()),
                  float(np.abs(back.u_prev - begin.u_curr).max())) / scale

    ok = rel_drift <= 1e-8 and monotone[0] and rev_err <= 1e-9
    record(ok, "leapfrog invariants",
           f"relative drift {rel_drift:.2e} over 1000 steps; damped energy "
           f"monotone {monotone[0]}; reversal defect {rev_err:.2e}")
    assert ok
