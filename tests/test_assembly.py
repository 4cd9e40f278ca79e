"""Global assembly: mass structure, stiffness, constraints, interpolation."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hdivwave.assembly import (
    AssemblyError,
    BlockSolver,
    assemble_consistent_mass,
    assemble_damping,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    build_sampler,
    constrain,
    element_matrices,
    interpolate_field,
)
from hdivwave.mesh import MeshFamily, generate
from hdivwave.quadrature import TRIANGLE, lumped_rule
from hdivwave.verify import naive_lumped_mass


def linear_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([0.3 + 0.7 * x - 0.2 * y, -0.1 + 0.4 * x + 0.9 * y])


LINEAR_DIV = 0.7 + 0.9


def vertex_block_dofs(dofmap, v):
    """Edge dofs meeting at vertex v, ascending; per-vertex loop oracle."""
    mesh = dofmap.mesh
    out = [2 * e + (0 if mesh.edges[e, 0] == v else 1)
           for e in mesh.vertex_edges[v]]
    return np.array(sorted(out), dtype=int)


def per_cell_sampler(dofmap, pts):
    """Point-value operators (x, y) by a loop over cells; sampler oracle.

    Each point goes to the first containing cell, groups in order and
    cells ascending within a group.
    """
    mesh = dofmap.mesh
    owner = np.full(len(pts), -1)
    ref = np.zeros((len(pts), 2))
    tol = 1e-10
    for g in dofmap.groups:
        Jinv = np.linalg.inv(g.J)
        for ci in range(g.n):
            todo = np.flatnonzero(owner < 0)
            vv = mesh.vertices[g.vids[ci]]
            inbox = np.all((pts[todo] >= vv.min(axis=0) - tol)
                           & (pts[todo] <= vv.max(axis=0) + tol), axis=1)
            cand = todo[inbox]
            r = (pts[cand] - g.b[ci]) @ Jinv[ci].T
            if g.shape == TRIANGLE:
                ok = (r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(axis=1) <= 1 + tol)
            else:
                ok = np.all((r >= -tol) & (r <= 1 + tol), axis=1)
            owner[cand[ok]] = g.cell_ids[ci]
            ref[cand[ok]] = r[ok]
    assert np.all(owner >= 0)
    rows, cols, vx, vy = [], [], [], []
    for g in dofmap.groups:
        for ci in range(g.n):
            for pi in np.flatnonzero(owner == g.cell_ids[ci]):
                vals = g.basis.values(ref[pi])[:, 0]  # (dim, 2)
                pv = vals @ g.J[ci].T / g.detJ[ci] * g.scale[ci][:, None]
                rows.extend([pi] * g.basis.dim)
                cols.extend(g.l2g[ci])
                vx.extend(pv[:, 0])
                vy.extend(pv[:, 1])
    shape = (len(pts), dofmap.ndof)
    return (sp.csr_matrix((vx, (rows, cols)), shape=shape),
            sp.csr_matrix((vy, (rows, cols)), shape=shape))


@pytest.fixture(scope="module", params=["structured-triangle", "structured-quad",
                                        "hybrid", "perturbed"])
def any_dofmap(request):
    mesh = generate(MeshFamily(request.param, base_divisions=2, seed=3), 1)
    return build_dofmap(mesh)


# ---------------------------------------------------------------- mass matrix

def test_lumped_mass_matches_pairwise_quadrature(any_dofmap):
    mass = assemble_lumped_mass(any_dofmap)
    dense = mass.tocsr().toarray()
    naive = naive_lumped_mass(any_dofmap)
    assert np.max(np.abs(dense - naive)) <= 1e-13


def test_block_count_and_reconstruction(any_dofmap):
    mesh = any_dofmap.mesh
    mass = assemble_lumped_mass(any_dofmap)
    assert sum(len(dofs) for dofs, _ in mass.batches) \
        == mesh.n_vertices + mesh.n_cells
    rebuilt = np.zeros((any_dofmap.ndof, any_dofmap.ndof))
    for dofs, blocks in mass.batches:
        rebuilt[dofs[:, :, None], dofs[:, None, :]] = blocks
    assert np.max(np.abs(rebuilt - mass.tocsr().toarray())) <= 1e-15


def test_element_matrices_sum_to_global(any_dofmap):
    n = any_dofmap.ndof
    M, K = np.zeros((n, n)), np.zeros((n, n))
    for g in any_dofmap.groups:
        Me, Ke = element_matrices(g)
        idx = (g.l2g[:, :, None], g.l2g[:, None, :])
        np.add.at(M, idx, Me)
        np.add.at(K, idx, Ke)
        assert np.linalg.eigvalsh(Me).min() > 0
    for summed, assembled in ((M, assemble_lumped_mass(any_dofmap).csr),
                              (K, assemble_stiffness(any_dofmap))):
        dense = assembled.toarray()
        assert np.abs(summed - dense).max() <= 1e-15 * np.abs(dense).max()


def test_every_block_spd(any_dofmap):
    mass = assemble_lumped_mass(any_dofmap)
    for _, blocks in mass.batches:
        assert_allclose(blocks, blocks.transpose(0, 2, 1), atol=1e-15)
        assert np.linalg.eigvalsh(blocks).min() > 0


def test_non_spd_block_is_rejected_by_name(hybrid_dofmap):
    mass = assemble_lumped_mass(hybrid_dofmap)
    with pytest.raises(AssemblyError, match=r"block at (vertex|cell) \d+ "):
        BlockSolver(mass, extra_csr=-2 * mass.tocsr())


def test_vertex_block_dimension_counts_incident_edges(tri_dofmap):
    mesh = tri_dofmap.mesh
    incidence = np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices)
    for v in range(mesh.n_vertices):
        dofs = vertex_block_dofs(tri_dofmap, v)
        assert len(dofs) == incidence[v]
        assert np.array_equal(np.flatnonzero(tri_dofmap.block_id == v), dofs)
    mass = assemble_lumped_mass(tri_dofmap)
    for dofs, _ in mass.batches:
        assert np.all(tri_dofmap.block_id[dofs] == tri_dofmap.block_id[dofs[:, :1]])
    boundary = mesh.boundary_vertices()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    assert interior.size > 0
    # uniform-diagonal triangulation: six edges meet at every interior vertex
    assert all(incidence[v] == 6 for v in interior)


def test_restricted_blocks_count_interior_edges(hybrid_dofmap):
    mesh = hybrid_dofmap.mesh
    interior = np.ones(len(mesh.edges), dtype=bool)
    interior[mesh.boundary_edges] = False
    interior_inc = np.bincount(mesh.edges[interior].ravel(),
                               minlength=mesh.n_vertices)
    free = set(hybrid_dofmap.free_idx.tolist())
    restricted = np.bincount(hybrid_dofmap.block_id[hybrid_dofmap.free_idx],
                             minlength=mesh.n_vertices)
    for v in range(mesh.n_vertices):
        kept = [d for d in vertex_block_dofs(hybrid_dofmap, v) if d in free]
        assert len(kept) == interior_inc[v] == restricted[v]


def test_quadratic_form_matches_cellwise_rule(quad_dofmap, rng):
    mass = assemble_lumped_mass(quad_dofmap)
    M = mass.tocsr()
    for _ in range(100):
        c = rng.standard_normal(quad_dofmap.ndof)
        total = 0.0
        for g in quad_dofmap.groups:
            qr = lumped_rule(g.shape)
            vals = g.eval_values(c, qr.points)          # (ncells, npts, 2)
            w = g.area[:, None] * qr.weights[None, :]
            total += np.sum(w * np.sum(vals**2, axis=2))
        qf = c @ (M @ c)
        assert abs(qf - total) <= 1e-12 * max(1.0, abs(total))


def test_consistent_mass_differs_but_same_pattern(tri_dofmap):
    lumped = assemble_lumped_mass(tri_dofmap).tocsr()
    consistent = assemble_consistent_mass(tri_dofmap)
    # same basis product supports, different quadrature
    assert consistent.shape == lumped.shape
    assert_allclose(consistent.toarray(), consistent.toarray().T, atol=1e-15)
    assert np.max(np.abs((consistent - lumped).toarray())) > 1e-6


# ----------------------------------------------------------------- stiffness

def test_lumped_stiffness_equals_oracle(any_dofmap):
    K_l = assemble_stiffness(any_dofmap, rule="lumped").toarray()
    K_o = assemble_stiffness(any_dofmap, rule="oracle").toarray()
    scale = np.max(np.abs(K_o))
    assert np.max(np.abs(K_l - K_o)) <= 1e-12 * scale
    assert_allclose(K_l, K_l.T, atol=1e-13 * scale)
    assert np.linalg.eigvalsh(K_l).min() >= -1e-10 * scale


def test_stiffness_rejects_unknown_rule(tri_dofmap):
    with pytest.raises(ValueError):
        assemble_stiffness(tri_dofmap, rule="midpoint")


def test_stiffness_kernel_contains_divergence_free_modes(tri_dofmap):
    K = assemble_stiffness(tri_dofmap)
    # constant fields are divergence free and exactly representable
    c = interpolate_field(tri_dofmap, lambda p: np.broadcast_to([1.0, -2.0], p.shape))
    r = K @ c
    assert np.max(np.abs(r)) <= 1e-12 * np.max(np.abs(K.toarray()))


# ------------------------------------------------------------------- damping

def test_constant_damping_coefficient_scales_lumped_mass(hybrid_dofmap):
    M = assemble_lumped_mass(hybrid_dofmap).tocsr()
    D = assemble_damping(hybrid_dofmap, lambda p: np.full(len(p), 2.5))
    assert np.max(np.abs((D - 2.5 * M).toarray())) <= 1e-14


def test_variable_damping_bounded_by_coefficient_range(hybrid_dofmap, rng):
    d = lambda p: 1.0 + p[:, 0]          # in [1, 2] on the unit square
    M = assemble_lumped_mass(hybrid_dofmap).tocsr()
    D = assemble_damping(hybrid_dofmap, d)
    assert (D != 0).nnz == (M != 0).nnz
    for _ in range(20):
        c = rng.standard_normal(hybrid_dofmap.ndof)
        m = c @ (M @ c)
        dd = c @ (D @ c)
        assert 1.0 * m - 1e-12 <= dd <= 2.0 * m + 1e-12


# --------------------------------------------------------------- constraints

def test_constrain_splits_the_system(quad_dofmap):
    mass = assemble_lumped_mass(quad_dofmap)
    K = assemble_stiffness(quad_dofmap)
    con = constrain(quad_dofmap, mass, K)
    nf, nb = len(quad_dofmap.free_idx), len(quad_dofmap.con_idx)
    assert nf + nb == quad_dofmap.ndof
    assert np.intersect1d(quad_dofmap.free_idx, quad_dofmap.con_idx).size == 0
    assert con.K_FF.shape == (nf, nf) and con.K_FB.shape == (nf, nb)
    assert con.M_FF.shape == (nf, nf) and con.M_FB.shape == (nf, nb)
    Kd = K.toarray()
    assert_allclose(con.K_FF.toarray(),
                    Kd[np.ix_(quad_dofmap.free_idx, quad_dofmap.free_idx)],
                    atol=1e-15)
    assert_allclose(con.K_FB.toarray(),
                    Kd[np.ix_(quad_dofmap.free_idx, quad_dofmap.con_idx)],
                    atol=1e-15)


def test_constrained_dofs_sit_on_the_boundary(any_dofmap):
    mesh = any_dofmap.mesh
    bverts = set(mesh.boundary_vertices().tolist())
    for d in any_dofmap.con_idx:
        assert d < any_dofmap.n_edge_dofs
        assert int(any_dofmap.edof_vertex[d]) in bverts


def test_constrained_values_match_interpolant_sign(hybrid_dofmap):
    c = interpolate_field(hybrid_dofmap, linear_field)
    g = hybrid_dofmap.constrained_values(lambda p, t: linear_field(p), 0.0)
    assert_allclose(c[hybrid_dofmap.con_idx], g, atol=1e-12)


def test_block_solver_roundtrip(hybrid_dofmap, rng):
    mass = assemble_lumped_mass(hybrid_dofmap)
    free = hybrid_dofmap.free_idx
    A = mass.tocsr()[np.ix_(free, free)]
    solver = mass.solver
    r = rng.standard_normal(len(free))
    x = solver.solve(r)
    assert_allclose(A @ x, r, atol=1e-12 * np.abs(r).max())


def test_block_solver_with_extra_term(hybrid_dofmap, rng):
    mass = assemble_lumped_mass(hybrid_dofmap)
    extra = 0.5 * assemble_damping(hybrid_dofmap, lambda p: np.ones(len(p)))
    free = hybrid_dofmap.free_idx
    solver = BlockSolver(mass, extra_csr=extra)
    A = (mass.tocsr() + extra)[np.ix_(free, free)]
    r = rng.standard_normal(len(free))
    x = solver.solve(r)
    assert_allclose(A @ x, r, atol=1e-12 * np.abs(r).max())


# ------------------------------------------------------------- interpolation

def test_interpolant_reproduces_linear_fields(any_dofmap, rng):
    c = interpolate_field(any_dofmap, linear_field)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    Sx, Sy = build_sampler(any_dofmap, pts)
    exact = linear_field(pts)
    assert_allclose(Sx @ c, exact[:, 0], atol=1e-12)
    assert_allclose(Sy @ c, exact[:, 1], atol=1e-12)
    for g in any_dofmap.groups:
        divs = g.eval_divs(c, lumped_rule(g.shape).points)
        assert_allclose(divs, LINEAR_DIV, atol=1e-11)


@pytest.mark.parametrize("kind", ["hybrid", "perturbed"])
def test_sampler_matches_per_cell_oracle(kind, rng):
    mesh = generate(MeshFamily(kind, base_divisions=4, seed=3), 1)
    dofmap = build_dofmap(mesh)
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    on_interface = np.column_stack([np.full(9, 0.5), np.linspace(0, 1, 9)])
    pts = np.vstack([mesh.vertices, 0.5 * (lo + hi), 0.75 * lo + 0.25 * hi,
                     on_interface, rng.random((200, 2))])
    Sx, Sy = build_sampler(dofmap, pts)
    Ox, Oy = per_cell_sampler(dofmap, pts)
    for S, O in ((Sx, Ox), (Sy, Oy)):
        S.sort_indices()
        O.sort_indices()
        assert np.array_equal(S.indptr, O.indptr)
        assert np.array_equal(S.indices, O.indices)
        assert_allclose(S.data, O.data, rtol=0, atol=1e-13)


def test_sampler_rejects_points_outside_the_mesh(tri_dofmap):
    with pytest.raises(AssemblyError):
        build_sampler(tri_dofmap, np.array([[1.5, 0.5]]))


def test_commuting_divergence_residuals_three_levels():
    from hdivwave.analysis import commuting_residuals

    u = lambda p: np.column_stack([np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
                                   p[:, 0] ** 2 * p[:, 1]])
    udiv = lambda p: (np.pi * np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
                      + p[:, 0] ** 2)
    for level in range(3):
        dofmap = build_dofmap(generate(MeshFamily("hybrid"), level))
        K = assemble_stiffness(dofmap)
        r, s = commuting_residuals(dofmap, u, udiv, K)
        assert np.all(np.abs(r) <= 1e-10 * s)


def test_interpolation_error_second_order():
    from hdivwave.analysis import field_l2_error

    u = lambda p: np.column_stack([np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
                                   p[:, 0] ** 2 * p[:, 1]])
    errs = []
    for level in range(3):
        dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), level))
        errs.append(field_l2_error(dofmap, interpolate_field(dofmap, u), exact=u))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9
