"""Self-contained property suite behind the ``verify`` subcommand.

Each check rebuilds what it verifies from first principles (naive
quadrature loops, dense reconstructions) so the fast production paths
are tested against independent recomputations, not against themselves.
The ``beta_override`` knob deliberately breaks the vertex weight of the
lumped rule and serves as a negative control: with beta = 1/10 the
exactness check must fail on degree-2 monomials.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import commuting_residuals, project_p1_field, sigma_cells
from .assembly import (
    DofMap,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    interpolate_field,
)
from .mesh import HybridMesh, MeshFamily, generate
from .quadrature import (
    LUMPED_EXACT_DEGREE,
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
            w = g.area[ci] * rule.weights
            loc = np.einsum("p,apk,bpk->ab", w, PV, PV)
            idx = g.l2g[ci]
            M[np.ix_(idx, idx)] += loc
    return M


def check_exactness(beta_override: float | None = None) -> PropertyResult:
    worst = 0.0
    worst_case = ""
    failed = False
    for shape in SHAPES:
        rule = lumped_rule(shape, beta=beta_override)
        deg = LUMPED_EXACT_DEGREE[shape]
        for a, b in itertools.product(range(deg + 1), repeat=2):
            if a + b > deg:
                continue
            got = rule.integrate_ref(lambda p: p[:, 0] ** a * p[:, 1] ** b)
            want = exact_ref_integral(shape, a, b)
            rel = abs(got - want) / abs(want)
            if rel > worst:
                worst, worst_case = rel, f"{shape} x^{a} y^{b}"
            if rel > 1e-12:
                failed = True
    return PropertyResult(
        "quadrature exactness", not failed,
        f"max relative defect {worst:.2e} ({worst_case})")


def check_nodality() -> PropertyResult:
    worst = 0.0
    for shape in SHAPES:
        basis = reference_basis(shape)
        rule = lumped_rule(shape)
        vals = basis.values(rule.points)              # (dim, npts, 2)
        for slot in basis.slots:
            foreign = [q for q in range(rule.npoints) if q != slot.qpoint]
            worst = max(worst, float(np.max(np.abs(vals[slot.index, foreign]))))
    return PropertyResult(
        "basis nodality", worst <= 1e-13,
        f"max foreign-point magnitude {worst:.2e}")


def _hybrid_dofmap(level: int = 1) -> DofMap:
    return build_dofmap(generate(MeshFamily("hybrid"), level))


def check_mass_blocks() -> PropertyResult:
    dofmap = _hybrid_dofmap()
    mass = assemble_lumped_mass(dofmap)
    dense = naive_lumped_mass(dofmap)
    recon = np.zeros_like(dense)
    min_eig = np.inf
    for dofs, blocks in mass.batches:
        recon[dofs[:, :, None], dofs[:, None, :]] += blocks
        min_eig = min(min_eig, float(np.linalg.eigvalsh(blocks).min()))
    err = float(np.max(np.abs(recon - dense)))
    nblocks = sum(len(dofs) for dofs, _ in mass.batches)
    expected = dofmap.mesh.n_vertices + dofmap.mesh.n_cells
    ok = err <= 1e-13 and min_eig > 0 and nblocks == expected
    return PropertyResult(
        "block mass structure", ok,
        f"reconstruction defect {err:.2e}, min block eig {min_eig:.2e}, "
        f"{nblocks}/{expected} blocks")


@dataclass(frozen=True)
class SplittingReport:
    shape: str
    rank: int
    smallest_singular_value: float
    bubble_div_gram_det: float
    bubble_div_smin: float


def verify_splitting(shape: str = TRIANGLE) -> SplittingReport:
    """Check the direct-sum structure of the local space.

    Expresses the six linear monomial fields in the nodal basis of the
    reference cell (exact, since linears are contained in the local
    space), appends the two bubble coordinate vectors, and reports the
    rank and smallest singular value of the resulting square matrix.
    Also reports the Gram determinant of the bubble divergences, which
    must be nonzero for the interior degrees of freedom to be
    well-posed.
    """
    basis = reference_basis(shape)
    verts = REF_VERTICES[shape]
    dofmap = build_dofmap(HybridMesh(verts, [tuple(range(len(verts)))]))
    g = dofmap.groups[0]
    fields = [
        lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
        lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))]),
        lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]),
        lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
        lambda p: np.column_stack([p[:, 1], np.zeros(len(p))]),
        lambda p: np.column_stack([np.zeros(len(p)), p[:, 1]]),
    ]
    cols = [g.local_coeffs(interpolate_field(dofmap, f))[0] for f in fields]
    nb = basis.dim - 2
    for k in (nb, nb + 1):
        e = np.zeros(basis.dim)
        e[k] = 1.0
        cols.append(e)
    A = np.column_stack(cols)
    svals = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))

    rule = oracle_rule(shape, 6)
    divs = basis.divergences(rule.points)[nb:nb + 2]
    G = np.einsum("q,aq,bq->ab", rule.weights, divs, divs)
    gsv = np.linalg.svd(G, compute_uv=False)
    return SplittingReport(
        shape=shape,
        rank=rank,
        smallest_singular_value=float(svals[-1]),
        bubble_div_gram_det=float(np.linalg.det(G)),
        bubble_div_smin=float(gsv[-1]),
    )


def check_splitting() -> PropertyResult:
    details = []
    ok = True
    for shape in SHAPES:
        rep = verify_splitting(shape)
        ok &= rep.rank == 8 and rep.smallest_singular_value > 1e-2
        ok &= rep.bubble_div_smin > 1e-2
        details.append(
            f"{shape}: rank {rep.rank}, smin {rep.smallest_singular_value:.3f}, "
            f"bubble div smin {rep.bubble_div_smin:.3f}")
    return PropertyResult("local space splitting", bool(ok), "; ".join(details))


def check_commuting() -> PropertyResult:
    dofmap = _hybrid_dofmap(2)
    K = assemble_stiffness(dofmap)

    def u(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
                                p[:, 0] ** 2 * p[:, 1]])

    def udiv(p):
        return (np.pi * np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
                + p[:, 0] ** 2)

    r, s = commuting_residuals(dofmap, u, udiv, K)
    ratio = float(np.max(np.abs(r) / s))
    return PropertyResult(
        "commuting interpolation", ratio <= 1e-10,
        f"max normalized residual {ratio:.2e}")


def check_sigma_parallelogram() -> PropertyResult:
    dofmap = build_dofmap(generate(MeshFamily("structured-quad"), 2))

    def u(p):
        return np.column_stack([np.exp(p[:, 0] / 2.0), np.exp(p[:, 1] / 2.0)])

    p1u = project_p1_field(dofmap, u)
    v = interpolate_field(dofmap, u)
    worst = float(np.max(np.abs(sigma_cells(dofmap, p1u, v))))
    return PropertyResult(
        "quadrature defect on parallelograms", worst < 1e-12,
        f"max cell defect {worst:.2e}")


def check_energy_conservation() -> PropertyResult:
    dofmap = _hybrid_dofmap()
    mass = assemble_lumped_mass(dofmap)
    K = assemble_stiffness(dofmap)
    solver = LeapfrogSolver(dofmap, mass, K, damping=0.0, boundary_data=None)
    tau = 0.5 * stable_tau(dofmap)
    rng = np.random.default_rng(7)
    u0 = np.zeros(dofmap.ndof)
    u0[dofmap.free_idx] = rng.standard_normal(len(dofmap.free_idx))
    v0 = np.zeros(dofmap.ndof)
    v0[dofmap.free_idx] = rng.standard_normal(len(dofmap.free_idx))
    state = solver.start(u0, v0, tau)
    e0 = solver.energy(state).total
    drift = 0.0
    for _ in range(1000):
        state = solver.step(state)
        drift = max(drift, abs(solver.energy(state).total - e0) / abs(e0))
    return PropertyResult(
        "leapfrog energy conservation", drift <= 1e-8,
        f"max relative drift {drift:.2e} over 1000 steps")


def run_all(beta_override: float | None = None) -> list[PropertyResult]:
    return [
        check_exactness(beta_override),
        check_nodality(),
        check_mass_blocks(),
        check_splitting(),
        check_commuting(),
        check_sigma_parallelogram(),
        check_energy_conservation(),
    ]
