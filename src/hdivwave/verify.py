"""The property suite: ``hdivwave verify`` prints it, the acceptance tests
assert it.

Each check measures one invariant the paper's analysis rests on against
an independent recomputation (closed-form integrals, naive quadrature
loops, dense reconstructions), not against the production path itself,
and returns one PropertyResult.  Every gate is written ``measure <= tol``
(or ``>=``) so that a NaN measure fails.  The ``beta_override`` knob
deliberately breaks the vertex weight of the lumped rule and serves as a
negative control: with beta = 1/10 the exactness check must fail on
degree-2 monomials.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import (
    commuting_residuals,
    div_norm_cells,
    field_l2_error,
    lowest_rate,
    project_p1_field,
    sigma_cells,
)
from .assembly import (
    DofMap,
    _diagonal_blocks,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    interpolate_field,
)
from .mesh import FAMILIES, HybridMesh, MeshFamily, generate
from .quadrature import (
    LUMPED_EXACT_DEGREE,
    QUAD,
    REF_VERTICES,
    SHAPES,
    TRIANGLE,
    exact_ref_integral,
    lumped_rule,
    oracle_rule,
)
from .refelem import reference_basis
from .timeloop import LeapfrogSolver, stable_tau


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def naive_lumped_mass(dofmap: DofMap) -> np.ndarray:
    """Dense lumped mass by brute-force pairwise quadrature.

    Skips every structural shortcut (nodality, block layout): all basis
    pairs are multiplied at all lumped points.  Reference recomputation
    for the block assembly.
    """
    M = np.zeros((dofmap.ndof, dofmap.ndof))
    for g in dofmap.groups:
        rule = lumped_rule(g.shape)
        V = g.basis.values(rule.points)               # (dim, npts, 2)
        for ci in range(g.n):
            PV = np.einsum("ij,dpj->dpi", g.J[ci], V) / g.detJ[ci]
            PV = PV * g.scale[ci][:, None, None]
            w = g.detJ[ci] * rule.weights
            loc = np.einsum("p,apk,bpk->ab", w, PV, PV)
            idx = g.l2g[ci]
            M[np.ix_(idx, idx)] += loc
    return M


def smooth_field(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack([np.sin(np.pi * x) * np.cos(np.pi * y), x**2 * y])


def smooth_div(p):
    x, y = p[:, 0], p[:, 1]
    return np.pi * np.cos(np.pi * x) * np.cos(np.pi * y) + x**2


def exp_field(p):
    return np.column_stack([np.exp(p[:, 0] / 2), np.exp(p[:, 1] / 2)])


def _dofmap(kind: str, level: int, seed: int = 0) -> DofMap:
    return build_dofmap(generate(MeshFamily(kind, seed=seed), level))


# The lumped rule's deliberate mis-integrations just past its exact
# degree: (shape, a, lumped value of x^a, exact value of x^a).
MIS_INTEGRATIONS = ((TRIANGLE, 3, Fraction(1, 18), Fraction(1, 20)),
                    (QUAD, 4, Fraction(5, 24), Fraction(1, 5)))


def check_exactness(beta_override: float | None = None) -> PropertyResult:
    rules = {shape: lumped_rule(shape, beta=beta_override) for shape in SHAPES}
    cases, defects = [], []
    for shape, rule in rules.items():
        deg = LUMPED_EXACT_DEGREE[shape]
        for a, b in itertools.product(range(deg + 1), repeat=2):
            if a + b <= deg:
                got = rule.integrate_ref(lambda p: p[:, 0] ** a * p[:, 1] ** b)
                want = exact_ref_integral(shape, a, b)     # > 0 on [0, 1]^2
                cases.append(f"{shape} x^{a} y^{b}")
                defects.append(abs(got - want) / want)
    worst = int(np.argmax(defects))                   # a NaN counts as worst
    ok = defects[worst] <= 1e-12
    mis = []
    for shape, a, lumped, exact in MIS_INTEGRATIONS:
        got = rules[shape].integrate_ref(lambda p: p[:, 0] ** a)
        ok &= (abs(got - lumped) <= 1e-12
               and abs(exact_ref_integral(shape, a, 0) - exact) <= 1e-12)
        mis.append(f"x^{a} on {shape} {got:.6f} vs {exact}")
    return PropertyResult(
        "quadrature exactness", bool(ok),
        f"max relative defect {defects[worst]:.2e} ({cases[worst]}); "
        + ", ".join(mis))


def check_nodality() -> PropertyResult:
    foreign = []
    for shape in SHAPES:
        basis = reference_basis(shape)
        rule = lumped_rule(shape)
        vals = basis.values(rule.points)              # (dim, npts, 2)
        for slot in basis.slots:
            others = np.arange(len(rule.points)) != slot.qpoint
            foreign.append(np.abs(vals[slot.index, others]).ravel())
    worst = float(np.max(np.concatenate(foreign)))
    return PropertyResult(
        "basis nodality", worst <= 1e-13,
        f"max foreign-point magnitude {worst:.2e}")


def check_mass_structure() -> PropertyResult:
    """Blocks and CSR matrix against the pairwise oracle on every family:
    SPD blocks, one per vertex sized by its edge incidence and one 2x2
    per cell."""
    defects, min_eig, n_blocks, n_expected, layout_ok = [], [], 0, 0, True
    for kind in FAMILIES:
        dofmap = _dofmap(kind, 1, seed=3)
        mesh = dofmap.mesh
        mass = assemble_lumped_mass(dofmap)
        dense = naive_lumped_mass(dofmap)
        recon = np.zeros_like(dense)
        size = np.zeros(mesh.n_vertices + mesh.n_cells, dtype=int)
        for dofs, blocks in _diagonal_blocks(mass, dofmap.block_id):
            recon[dofs[:, :, None], dofs[:, None, :]] += blocks
            size[dofmap.block_id[dofs[:, 0]]] = dofs.shape[1]
            min_eig.append(np.linalg.eigvalsh(blocks).min())
            n_blocks += len(dofs)
        n_expected += len(size)
        incidence = np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices)
        layout_ok &= (np.array_equal(size[:mesh.n_vertices], incidence)
                      and np.all(size[mesh.n_vertices:] == 2))
        defects.append([np.abs(recon - dense).max(),
                        np.abs(mass.toarray() - dense).max()])
    block_err, csr_err = np.max(defects, axis=0)
    eig = float(np.min(min_eig))
    ok = (block_err <= 1e-13 and csr_err <= 1e-13 and eig > 0
          and n_blocks == n_expected and layout_ok)
    return PropertyResult(
        "block mass structure", bool(ok),
        f"{len(FAMILIES)} families; max |blocks - pairwise| {block_err:.2e}, "
        f"|CSR - pairwise| {csr_err:.2e}; min block eig {eig:.2e}; "
        f"{n_blocks}/{n_expected} blocks, sizes "
        f"{'match' if layout_ok else 'DIFFER'}")


def check_splitting() -> PropertyResult:
    """The direct-sum structure of the local space on each reference cell.

    Expresses the six linear monomial fields in the nodal basis of the
    reference cell (exact, since linears are contained in the local
    space), appends the two bubble coordinate vectors, and gates the rank
    and smallest singular value of the resulting square matrix.  Also
    gates the smallest singular value of the Gram matrix of the bubble
    divergences, which must be nonzero for the interior degrees of
    freedom to be well-posed.
    """
    fields = [
        lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
        lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))]),
        lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]),
        lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
        lambda p: np.column_stack([p[:, 1], np.zeros(len(p))]),
        lambda p: np.column_stack([np.zeros(len(p)), p[:, 1]]),
    ]
    details = []
    ok = True
    for shape in SHAPES:
        basis = reference_basis(shape)
        verts = REF_VERTICES[shape]
        cell = [0, 1, 2, 3 if len(verts) == 4 else -1]
        dofmap = build_dofmap(HybridMesh(verts, [cell]))
        g = dofmap.groups[0]
        cols = [g.local_coeffs(interpolate_field(dofmap, f))[0]
                for f in fields]
        nb = basis.dim - 2
        cols.extend(np.eye(basis.dim)[nb:nb + 2])
        svals = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        rank = int(np.sum(svals > 1e-10 * svals[0]))

        rule = oracle_rule(shape, 6)
        divs = basis.divergences(rule.points)[nb:nb + 2]
        G = np.einsum("q,aq,bq->ab", rule.weights, divs, divs)
        smin, div_smin = svals[-1], np.linalg.svd(G, compute_uv=False)[-1]
        ok &= rank == 8 and smin > 1e-2 and div_smin > 1e-2
        details.append(f"{shape}: rank {rank}, smin {smin:.3f}, "
                       f"bubble div smin {div_smin:.3f}")
    return PropertyResult("local space splitting", bool(ok), "; ".join(details))


def check_commuting() -> PropertyResult:
    """div I_h = Pi_h div on hybrid levels 0-2, and I_h converges in L2 at
    second order on structured triangles."""
    residuals = []
    for level in range(3):
        dofmap = _dofmap("hybrid", level)
        r, s = commuting_residuals(dofmap, smooth_field, smooth_div,
                                   assemble_stiffness(dofmap))
        residuals.append(np.max(np.abs(r) / s))
    worst = float(np.max(residuals))
    errors = []
    for level in range(3):
        dofmap = _dofmap("structured-triangle", level)
        errors.append(field_l2_error(
            dofmap, interpolate_field(dofmap, smooth_field), exact=smooth_field))
    _, rate = lowest_rate([(2.0 ** -lv, e) for lv, e in enumerate(errors)])
    return PropertyResult(
        "commuting interpolation", worst <= 1e-10 and rate >= 1.9,
        f"max normalized residual {worst:.2e}; L2 EOC {rate:.2f}")


def _sigma(dofmap: DofMap, u) -> tuple[np.ndarray, np.ndarray]:
    """|sigma| per cell for a field and its interpolant, and the interpolant."""
    v = interpolate_field(dofmap, u)
    return np.abs(sigma_cells(dofmap, project_p1_field(dofmap, u), v)), v


def check_sigma_defect() -> PropertyResult:
    """The quadrature defect vanishes on parallelograms and decays faster
    than the divergence norm on triangles."""
    dofmap = _dofmap("structured-quad", 2)
    para = float(np.max([_sigma(dofmap, u)[0] for u in (exp_field,
                                                         smooth_field)]))
    relative = []
    for level in range(3):
        dofmap = _dofmap("structured-triangle", level)
        sigma, v = _sigma(dofmap, exp_field)
        relative.append(np.max(sigma / div_norm_cells(dofmap, v)))
    _, rate = lowest_rate([(2.0 ** -lv, r)
                           for lv, r in enumerate(relative)])
    return PropertyResult(
        "quadrature defect functional", para < 1e-12 and rate >= 1.8,
        f"parallelogram max {para:.2e}; triangle decay rate {rate:.2f}")


def check_leapfrog() -> PropertyResult:
    """Undamped energy is conserved from a random and a smooth start,
    damped energy never grows under a constant and a field damping, and
    the undamped scheme retraces itself."""
    dofmap = _dofmap("hybrid", 1)
    mass, K = assemble_lumped_mass(dofmap), assemble_stiffness(dofmap)
    tau = stable_tau(dofmap)
    rng = np.random.default_rng(7)
    u_rand, v_rand = np.zeros((2, dofmap.ndof))
    u_rand[dofmap.free_idx] = rng.standard_normal(len(dofmap.free_idx))
    v_rand[dofmap.free_idx] = rng.standard_normal(len(dofmap.free_idx))
    u_smooth = interpolate_field(dofmap, lambda p: np.column_stack(
        [np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
         p[:, 0] * np.sin(np.pi * p[:, 1])]))
    rest = np.zeros(dofmap.ndof)

    def energies(solver, state, n_steps):
        out = [solver.energy(state).total]
        for _ in range(n_steps):
            state = solver.step(state)
            out.append(solver.energy(state).total)
        return np.array(out)

    solver = LeapfrogSolver(dofmap, mass, K)
    drift = float(np.max([np.max(np.abs(e - e[0])) / abs(e[0]) for e in (
        energies(solver, solver.start(u_rand, v_rand, 0.5 * tau), 1000),
        energies(solver, solver.start(u_smooth, rest, tau), 1000))]))

    monotone = True
    for d in (1.0, lambda p: 1.0 + p[:, 0] * p[:, 1]):
        damped = LeapfrogSolver(dofmap, mass, K, damping=d)
        e = energies(damped, damped.start(u_smooth, rest, tau), 500)
        monotone &= bool(np.all(e[1:] <= e[:-1] * (1 + 1e-12)))

    begin = solver.start(u_smooth, rest, tau)
    back = solver.advance(solver.reverse(solver.advance(begin, 200)), 200)
    reversal = float(np.max(np.abs([back.u_curr - begin.u_prev,
                                    back.u_prev - begin.u_curr]))
                     / np.max(np.abs(begin.u_curr)))
    return PropertyResult(
        "leapfrog invariants",
        drift <= 1e-8 and monotone and reversal <= 1e-9,
        f"max relative drift {drift:.2e} over 1000 steps from a random and "
        f"a smooth start; damped energy monotone {monotone} at d = 1 and "
        f"d = 1 + xy; reversal defect {reversal:.2e} after 200 steps")


# every check but the exactness check takes no argument
CHECKS = (check_exactness, check_nodality, check_mass_structure,
          check_splitting, check_commuting, check_sigma_defect, check_leapfrog)


def run_all(beta_override: float | None = None) -> list[PropertyResult]:
    return [check_exactness(beta_override), *(c() for c in CHECKS[1:])]
