"""Global assembly: mass structure, stiffness, constraints, interpolation."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hdivwave import assembly, verify
from hdivwave.assembly import (
    AssemblyError,
    BlockSolver,
    _diagonal_blocks,
    _dot2,
    _matvec,
    _scatter,
    _times_J,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    build_sampler,
    cell_forms,
    constrain,
    element_matrices,
    interpolate_field,
    snapshot_grid,
)
from hdivwave.driver import PlaneWave
from hdivwave.mesh import FAMILIES, HybridMesh, MeshFamily, generate
from hdivwave.quadrature import REF_MIDPOINT, TRIANGLE, lumped_rule, oracle_rule
from hdivwave.verify import naive_lumped_mass

from conftest import linear_field


LINEAR_DIV = 0.7 + 0.9


def vertex_block_dofs(dofmap, v):
    """Edge dofs meeting at vertex v, ascending; per-vertex loop oracle."""
    out = [2 * e + side for e, ends in enumerate(dofmap.mesh.edges.tolist())
           for side in (0, 1) if ends[side] == v]
    return np.array(sorted(out), dtype=int)


def boundary_vertices(mesh):
    """Vertices on a boundary edge, ascending."""
    return np.unique(mesh.edges[mesh.boundary_edges].ravel())


def mass_blocks(dofmap):
    """``(dofs, blocks)`` pairs of the assembled lumped mass, by size."""
    return _diagonal_blocks(assemble_lumped_mass(dofmap), dofmap.block_id)


def free_block(A, dofmap):
    """The free-dof block ``A_FF`` of a global matrix, as CSR."""
    return A[dofmap.free_idx][:, dofmap.free_idx].tocsr()


def boundary_coupling(dofmap, mass, stiffness):
    """Dense ``[K_FB | M_FB]`` on every free row."""
    free, con = dofmap.free_idx, dofmap.con_idx
    return np.hstack([stiffness[free][:, con].toarray(),
                      mass[free][:, con].toarray()])


def assemble_consistent_mass(dofmap, degree=6):
    """Exact mass matrix via the oracle rule (not block diagonal)."""
    locs = []
    for g in dofmap.groups:
        points, w = g.quadrature("oracle", degree)
        PV = g.scaled_values(points)
        locs.append(np.einsum("np,napk,nbpk->nab", w, PV, PV))
    return _scatter((dofmap.ndof,) * 2,
                    [(g.l2g, g.l2g, M) for g, M in zip(dofmap.groups, locs)])


def naive_lumped_damping(dofmap, d):
    """Dense lumped damping by pairwise quadrature, one cell at a time,
    with the coefficient ``d`` at each cell's lumped points; oracle."""
    D = np.zeros((dofmap.ndof, dofmap.ndof))
    for g in dofmap.groups:
        rule = lumped_rule(g.shape)
        V = g.basis.values(rule.points)               # (dim, npts, 2)
        for ci in range(g.n):
            PV = np.einsum("ij,dpj->dpi", g.J[ci], V) / g.detJ[ci]
            PV = PV * g.scale[ci][:, None, None]
            w = g.detJ[ci] * rule.weights * d(rule.points @ g.J[ci].T + g.b[ci])
            idx = g.l2g[ci]
            D[np.ix_(idx, idx)] += np.einsum("p,apk,bpk->ab", w, PV, PV)
    return D


def per_cell_sampler(dofmap, pts):
    """First-component point-value operator by a loop over cells; sampler
    oracle.

    Each point goes to the first containing cell, groups in order and
    cells ascending within a group.
    """
    mesh = dofmap.mesh
    owner = np.full(len(pts), -1)
    ref = np.zeros((len(pts), 2))
    tol = 1e-10
    for g, (_, vids, _) in zip(dofmap.groups, mesh.shape_groups()):
        Jinv = np.linalg.inv(g.J)
        for ci in range(g.n):
            todo = np.flatnonzero(owner < 0)
            vv = mesh.vertices[vids[ci]]
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
    rows, cols, vx = [], [], []
    for g in dofmap.groups:
        for ci in range(g.n):
            mine = np.flatnonzero(owner == g.cell_ids[ci])
            vals = g.basis.values(ref[mine])  # (dim, m, 2)
            pv = vals @ g.J[ci].T / g.detJ[ci] * g.scale[ci][:, None, None]
            rows.extend(np.tile(mine, g.basis.dim))
            cols.extend(np.repeat(g.l2g[ci], len(mine)))
            vx.extend(pv[:, :, 0].ravel())
    return sp.csr_matrix((vx, (rows, cols)), shape=(len(pts), dofmap.ndof))


@pytest.fixture(scope="module", params=["structured-triangle", "structured-quad",
                                        "hybrid", "perturbed"])
def any_dofmap(request):
    mesh = generate(MeshFamily(request.param, base_divisions=2, seed=3), 1)
    return build_dofmap(mesh)


# ------------------------------------------------------- cell point maps

# the einsum forms the broadcast cell kernels replaced: their oracles
def einsum_phys_points(g, ref_pts):
    return np.einsum("nij,mj->nmi", g.J, ref_pts) + g.b[:, None, :]


def einsum_eval_values(g, coeffs, ref_pts):
    combo = np.einsum("nd,dmk->nmk", g.local_coeffs(coeffs),
                      g.basis.values(ref_pts))
    return np.einsum("nij,nmj->nmi", g.J, combo) / g.detJ[:, None, None]


def einsum_scaled_basis(g, ref_pts):
    PV = np.einsum("nij,dmj->ndmi", g.J, g.basis.values(ref_pts)) \
        / g.detJ[:, None, None, None]
    DS = g.scale[:, :, None] * g.basis.divergences(ref_pts)[None, :, :] \
        / g.detJ[:, None, None]
    return PV * g.scale[:, :, None, None], DS


def einsum_boundary_trace(dofmap, g, ts):
    pts = dofmap.mesh.vertices[dofmap.block_id[dofmap.con_idx]]
    vals = g(np.tile(pts, (len(ts), 1)), np.repeat(ts, len(pts)))
    return np.einsum("mnk,nk->mn", vals.reshape(len(ts), -1, 2),
                     dofmap.mesh.edge_normals()[dofmap.con_idx // 2])


REF_POINTS = {
    "lumped": lambda shape: lumped_rule(shape).points,
    "oracle-6": lambda shape: oracle_rule(shape, 6).points,
    "oracle-12": lambda shape: oracle_rule(shape, 12).points,
    "midpoint": lambda shape: REF_MIDPOINT[shape][None],
}


@pytest.fixture(scope="module", params=FAMILIES)
def level2_dofmap(request):
    # base 8: the acceptance meshes; perturbed cells are all distinct
    return build_dofmap(generate(MeshFamily(request.param, base_divisions=8,
                                            seed=1), 2))


@pytest.mark.parametrize("rule", REF_POINTS)
def test_point_map_matches_the_einsum_form(level2_dofmap, rule, rng):
    c = rng.standard_normal(level2_dofmap.ndof)
    for g in level2_dofmap.groups:
        pts = REF_POINTS[rule](g.shape)
        assert np.array_equal(g.phys_points(pts), einsum_phys_points(g, pts))
        assert np.array_equal(g.eval_values(c, pts),
                              einsum_eval_values(g, c, pts))
        oracle_PV, oracle_DS = einsum_scaled_basis(g, pts)
        assert np.array_equal(g.scaled_values(pts), oracle_PV)
        assert np.array_equal(g.scaled_divergences(pts), oracle_DS)


def test_sampler_products_match_the_einsum_form(level2_dofmap, rng):
    # the reference map (m,2,2).(m,2) of build_sampler and the Piola map
    # (m,2,2).(d,m,2), whose first row it forms with _dot2, at one random
    # point per cell
    for g in level2_dofmap.groups:
        Jinv = np.linalg.inv(g.J)
        x = rng.random((g.n, 2))
        assert np.array_equal(_times_J(Jinv, x),
                              np.einsum("nij,nj->ni", Jinv, x))
        vals = g.basis.values(0.5 * rng.random((g.n, 2)))
        assert np.array_equal(_times_J(g.J, vals),
                              np.einsum("mij,dmj->dmi", g.J, vals))
        assert np.array_equal(_dot2(g.J[:, 0], vals), _times_J(g.J, vals)[..., 0])


@pytest.mark.parametrize("data", ["plane-wave", "random"])
def test_boundary_trace_matches_the_einsum_form(level2_dofmap, data):
    if data == "plane-wave":
        g = PlaneWave().field
    else:
        g = lambda p, t: np.random.default_rng(7).standard_normal((len(p), 2))
    ts = 0.3 + 0.01 * np.arange(64)
    assert np.array_equal(level2_dofmap.boundary_trace(g)(ts),
                          einsum_boundary_trace(level2_dofmap, g, ts))


# ---------------------------------------------------------------- mass matrix

def test_lumped_mass_matches_pairwise_quadrature(any_dofmap):
    dense = assemble_lumped_mass(any_dofmap).toarray()
    naive = naive_lumped_mass(any_dofmap)
    assert np.max(np.abs(dense - naive)) <= 1e-13


def test_block_count_and_reconstruction(any_dofmap):
    mesh = any_dofmap.mesh
    batches = mass_blocks(any_dofmap)
    assert sum(len(dofs) for dofs, _ in batches) \
        == mesh.n_vertices + mesh.n_cells
    rebuilt = np.zeros((any_dofmap.ndof, any_dofmap.ndof))
    for dofs, blocks in batches:
        rebuilt[dofs[:, :, None], dofs[:, None, :]] = blocks
    dense = assemble_lumped_mass(any_dofmap).toarray()
    assert np.max(np.abs(rebuilt - dense)) <= 1e-15


def test_element_matrices_sum_to_global(any_dofmap):
    n = any_dofmap.ndof
    M, K = np.zeros((n, n)), np.zeros((n, n))
    for g in any_dofmap.groups:
        Me, Ke = element_matrices(g)
        idx = (g.l2g[:, :, None], g.l2g[:, None, :])
        np.add.at(M, idx, Me)
        np.add.at(K, idx, Ke)
        assert np.linalg.eigvalsh(Me).min() > 0
    for summed, assembled in ((M, assemble_lumped_mass(any_dofmap)),
                              (K, assemble_stiffness(any_dofmap))):
        dense = assembled.toarray()
        assert np.abs(summed - dense).max() <= 1e-15 * np.abs(dense).max()


# the triplet formation the block scatter replaced: four scalar triplets per
# lumped point for the mass, (s, s) index patterns spelled out per matrix
def triplet_lumped_products(g, PV, w):
    for q in range(w.shape[1]):
        a, b = g.basis.pairs[q]
        va, vb = PV[:, a, q], PV[:, b, q]
        for i, j, x, y in ((a, a, va, va), (a, b, va, vb),
                           (b, a, vb, va), (b, b, vb, vb)):
            yield i, j, w[:, q] * np.einsum("nk,nk->n", x, y)


def triplet_csr(n, triplets):
    rows, cols, vals = (np.concatenate(x) for x in zip(*triplets))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def dense_triplets(idx, blocks):
    """Row, column and value of every entry of (s, s) blocks on (nb, s)
    index sets."""
    s = idx.shape[1]
    return (np.repeat(idx, s, axis=1).ravel(), np.tile(idx, (1, s)).ravel(),
            blocks.ravel())


def triplet_assembly(dofmap):
    """Mass, stiffness, their free/boundary split (``K_FF``, ``M_FF``,
    the touched rows and ``[K_FB | M_FB]`` there) and the block inverse
    of ``M_FF`` in the triplet form, and every group's cell mass and
    stiffness; oracle.  The split blocks are the dense slices as CSR, so
    they store no exact zeros."""
    mass, stiff, cells = [], [], []
    for g in dofmap.groups:
        points, w = g.quadrature("lumped")
        Me = np.zeros((g.n, g.basis.dim, g.basis.dim))
        for i, j, v in triplet_lumped_products(g, g.scaled_values(points), w):
            mass.append((g.l2g[:, i], g.l2g[:, j], v))
            Me[:, i, j] += v
        DS = g.scaled_divergences(points)
        Ke = np.einsum("np,nap,nbp->nab", w, DS, DS)
        stiff.append(dense_triplets(g.l2g, Ke))
        cells += [Me, Ke]
    M = triplet_csr(dofmap.ndof, mass)
    K = triplet_csr(dofmap.ndof, stiff)
    K.eliminate_zeros()
    M_FF, bid = free_block(M, dofmap), dofmap.block_id[dofmap.free_idx]
    Minv = triplet_csr(len(bid), [
        dense_triplets(pos, np.linalg.inv(blocks))
        for pos, blocks in _diagonal_blocks(M_FF, bid)])
    Minv.eliminate_zeros()
    coupling = boundary_coupling(dofmap, M, K)
    rows = np.flatnonzero(coupling.any(axis=1))
    split = [sp.csr_matrix(free_block(A, dofmap).toarray()) for A in (K, M)]
    return [M, K, Minv, *split, sp.csr_matrix(coupling[rows])], rows, cells


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("kind", FAMILIES)
def test_assembly_matches_the_triplet_form(kind, level):
    """Bit for bit, exact zeros and their positions included: ``mass.csv``
    prints every stored entry."""
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=4, seed=3),
                                   level))
    want, want_rows, want_cells = triplet_assembly(dofmap)
    M, K = assemble_lumped_mass(dofmap), assemble_stiffness(dofmap)
    con = constrain(dofmap, M, K)
    got = [M, K, BlockSolver(con.M_FF, dofmap)._inv, con.K_FF, con.M_FF,
           con.boundary]
    assert np.array_equal(con.rows, want_rows)
    for A, B in zip(got, want, strict=True):
        assert A.shape == B.shape
        assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.indptr, B.indptr)
    got_cells = [m for g in dofmap.groups for m in element_matrices(g)]
    assert len(got_cells) == len(want_cells)
    for A, B in zip(got_cells, want_cells):
        assert np.array_equal(A.view(np.int64), B.view(np.int64))


@pytest.mark.parametrize("kind", ["hybrid", "perturbed"])
def test_class_forms_gather_to_the_cell_forms(kind):
    # hybrid: a few classes per shape; perturbed: one class per cell
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=8, seed=1),
                                   2))
    for g, (M, K, classes) in zip(dofmap.groups, cell_forms(dofmap)):
        assert len(M) < g.n if kind == "hybrid" else len(M) == g.n
        for got, want in zip((M, K), element_matrices(g)):
            assert np.array_equal(got[classes].view(np.int64),
                                  want.view(np.int64))


def test_several_fields_interpolate_as_each_alone(level2_dofmap):
    wave = PlaneWave()
    fields = [lambda p: wave.field(p, 0.3), lambda p: wave.velocity(p, 0.3),
              linear_field]
    both = interpolate_field(level2_dofmap, *fields)
    assert both.shape == (len(fields), level2_dofmap.ndof)
    for row, f in zip(both, fields):
        alone = interpolate_field(level2_dofmap, f)
        assert np.array_equal(row.view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("kind", ["hybrid", "perturbed"])
def test_interpolation_is_chunk_invariant(monkeypatch, kind):
    """Each mesh has a group of more cells than a chunk of 512 and ragged
    last chunks of 7; the edges are chunked by the same constant."""
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=8, seed=1),
                                   2))
    assert max(g.n for g in dofmap.groups) > assembly.CELL_CHUNK
    assert all(g.n % 7 for g in dofmap.groups)
    wave = PlaneWave()
    fields = [lambda p: wave.field(p, 0.3), lambda p: wave.velocity(p, 0.3)]
    want = [interpolate_field(dofmap, *fields[:n]) for n in (1, 2)]
    for chunk in (1, 7, 10**9):
        monkeypatch.setattr(assembly, "CELL_CHUNK", chunk)
        for n, w in zip((1, 2), want):
            got = interpolate_field(dofmap, *fields[:n])
            assert np.array_equal(got.view(np.int64), w.view(np.int64))


def interpolation_peak(level: int) -> int:
    """tracemalloc peak of interpolating the two initial fields of a run
    on structured-triangle base 8, over what was held before the call."""
    dofmap = build_dofmap(generate(MeshFamily("structured-triangle",
                                              base_divisions=8), level))
    wave = PlaneWave()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        interpolate_field(dofmap, lambda p: wave.field(p, 0.0),
                          lambda p: wave.velocity(p, 0.0))
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_interpolation_peak_grows_slower_than_the_mesh():
    """Level 3 has four times the cells of level 2.  Whole-mesh oracle
    samples made the peak grow with them (4.0 times); the cell chunks
    leave the coefficients and the edge traces, whose moments are
    whole-mesh products (1.9 times)."""
    assert interpolation_peak(3) <= 2.5 * interpolation_peak(2)


def test_every_block_spd(any_dofmap):
    for _, blocks in mass_blocks(any_dofmap):
        assert_allclose(blocks, blocks.transpose(0, 2, 1), atol=1e-15)
        assert np.linalg.eigvalsh(blocks).min() > 0


def test_non_spd_block_is_rejected_by_name(hybrid_dofmap):
    mass = assemble_lumped_mass(hybrid_dofmap)
    with pytest.raises(AssemblyError, match=r"block at (vertex|cell) \d+ "):
        BlockSolver(free_block(mass - 2 * mass, hybrid_dofmap), hybrid_dofmap)


def test_mass_check_reports_a_non_spd_mass(monkeypatch):
    """A negated mass is a FAIL result, not an error; with its pairwise
    oracle negated too, only the SPD gate can see it."""
    for name in ("assemble_lumped_mass", "naive_lumped_mass"):
        original = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, f=original: -f(*a))
        result = verify.check_mass_structure()
        assert not result.passed
        assert "min block eig -" in result.detail


def test_vertex_block_dimension_counts_incident_edges(tri_dofmap):
    mesh = tri_dofmap.mesh
    incidence = np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices)
    for v in range(mesh.n_vertices):
        dofs = vertex_block_dofs(tri_dofmap, v)
        assert len(dofs) == incidence[v]
        assert np.array_equal(np.flatnonzero(tri_dofmap.block_id == v), dofs)
    for dofs, _ in mass_blocks(tri_dofmap):
        assert np.all(tri_dofmap.block_id[dofs] == tri_dofmap.block_id[dofs[:, :1]])
    boundary = boundary_vertices(mesh)
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
    M = assemble_lumped_mass(quad_dofmap)
    for _ in range(100):
        c = rng.standard_normal(quad_dofmap.ndof)
        total = 0.0
        for g in quad_dofmap.groups:
            qr = lumped_rule(g.shape)
            vals = g.eval_values(c, qr.points)          # (ncells, npts, 2)
            w = g.detJ[:, None] * qr.weights[None, :]
            total += np.sum(w * np.sum(vals**2, axis=2))
        qf = c @ (M @ c)
        assert abs(qf - total) <= 1e-12 * max(1.0, abs(total))


def test_consistent_mass_differs_but_same_pattern(tri_dofmap):
    lumped = assemble_lumped_mass(tri_dofmap)
    consistent = assemble_consistent_mass(tri_dofmap)
    # same basis product supports, different quadrature
    assert consistent.shape == lumped.shape
    assert_allclose(consistent.toarray(), consistent.toarray().T, atol=1e-15)
    assert np.max(np.abs((consistent - lumped).toarray())) > 1e-6


# ----------------------------------------------------------------- stiffness

def test_lumped_stiffness_equals_oracle(any_dofmap):
    locs = []
    for g in any_dofmap.groups:
        points, w = g.quadrature()
        DS = g.scaled_divergences(points)
        locs.append(np.einsum("np,nap,nbp->nab", w, DS, DS))
    K_o = _scatter((any_dofmap.ndof,) * 2,
                   [(g.l2g, g.l2g, K) for g, K in zip(any_dofmap.groups, locs)]
                   ).toarray()
    K_l = assemble_stiffness(any_dofmap).toarray()
    scale = np.max(np.abs(K_o))
    assert np.max(np.abs(K_l - K_o)) <= 1e-12 * scale
    assert_allclose(K_l, K_l.T, atol=1e-13 * scale)
    assert np.linalg.eigvalsh(K_l).min() >= -1e-10 * scale


def test_stiffness_kernel_contains_divergence_free_modes(tri_dofmap):
    K = assemble_stiffness(tri_dofmap)
    # constant fields are divergence free and exactly representable
    c = interpolate_field(tri_dofmap, lambda p: np.broadcast_to([1.0, -2.0], p.shape))
    r = K @ c
    assert np.max(np.abs(r)) <= 1e-12 * np.max(np.abs(K.toarray()))


# ------------------------------------------------------------------- damping

def nodal_damping(dofmap, d):
    """Lumped damping as the nodal scaling ``diag(d) M`` of the lumped mass."""
    return sp.diags(dofmap.nodal_values(d)) @ assemble_lumped_mass(dofmap)


def test_constant_damping_coefficient_scales_lumped_mass(hybrid_dofmap):
    M = assemble_lumped_mass(hybrid_dofmap)
    D = nodal_damping(hybrid_dofmap, lambda p: np.full(len(p), 2.5))
    assert np.max(np.abs((D - 2.5 * M).toarray())) <= 1e-14


def test_variable_damping_bounded_by_coefficient_range(hybrid_dofmap, rng):
    d = lambda p: 1.0 + p[:, 0]          # in [1, 2] on the unit square
    M = assemble_lumped_mass(hybrid_dofmap)
    D = nodal_damping(hybrid_dofmap, d)
    assert (D != 0).nnz == (M != 0).nnz
    for _ in range(20):
        c = rng.standard_normal(hybrid_dofmap.ndof)
        m = c @ (M @ c)
        dd = c @ (D @ c)
        assert 1.0 * m - 1e-12 <= dd <= 2.0 * m + 1e-12


def test_variable_damping_matches_pairwise_oracle(any_dofmap):
    d = lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1]
    D = nodal_damping(any_dofmap, d).toarray()
    assert np.max(np.abs(D - naive_lumped_damping(any_dofmap, d))) <= 1e-13


def test_nodal_scaling_commutes_with_the_lumped_mass(any_dofmap):
    # a mass block couples only dofs of one node, which share a value
    lam = sp.diags(any_dofmap.nodal_values(
        lambda p: np.exp(3.0 * p[:, 0]) * (1.0 + np.sin(7.0 * p[:, 1])**2)))
    M = assemble_lumped_mass(any_dofmap)
    assert np.array_equal((lam @ M).toarray(), (M @ lam).toarray())


# --------------------------------------------------------------- constraints

def test_constrain_splits_the_system(quad_dofmap):
    mass = assemble_lumped_mass(quad_dofmap)
    K = assemble_stiffness(quad_dofmap)
    con = constrain(quad_dofmap, mass, K)
    nf, nb = len(quad_dofmap.free_idx), len(quad_dofmap.con_idx)
    assert nf + nb == quad_dofmap.ndof
    assert np.intersect1d(quad_dofmap.free_idx, quad_dofmap.con_idx).size == 0
    assert con.K_FF.shape == (nf, nf) and con.M_FF.shape == (nf, nf)
    assert con.boundary.shape == (len(con.rows), 2 * nb)
    Kd = K.toarray()
    assert_allclose(con.K_FF.toarray(),
                    Kd[np.ix_(quad_dofmap.free_idx, quad_dofmap.free_idx)],
                    atol=1e-15)
    coupling = boundary_coupling(quad_dofmap, mass, K)
    assert_allclose(con.boundary.toarray(), coupling[con.rows], atol=1e-15)
    # the other free rows do not touch the boundary
    assert not np.delete(coupling, con.rows, axis=0).any()


def test_constrained_dofs_sit_on_the_boundary(any_dofmap):
    mesh = any_dofmap.mesh
    bverts = set(boundary_vertices(mesh).tolist())
    for d in any_dofmap.con_idx:
        assert d < 2 * mesh.n_edges
        assert int(any_dofmap.block_id[d]) in bverts


def test_constrained_values_match_interpolant_sign(hybrid_dofmap):
    c = interpolate_field(hybrid_dofmap, linear_field)
    g = hybrid_dofmap.boundary_trace(lambda p, t: linear_field(p))([0.0])[0]
    assert_allclose(c[hybrid_dofmap.con_idx], g, atol=1e-12)


def test_block_solver_roundtrip(hybrid_dofmap, rng):
    mass = assemble_lumped_mass(hybrid_dofmap)
    free = hybrid_dofmap.free_idx
    A = free_block(mass, hybrid_dofmap)
    solver = BlockSolver(A, hybrid_dofmap)
    r = rng.standard_normal(len(free))
    x = solver.solve(r)
    assert_allclose(A @ x, r, atol=1e-12 * np.abs(r).max())


def test_block_solver_with_extra_term(hybrid_dofmap, rng):
    mass = assemble_lumped_mass(hybrid_dofmap)
    extra = 0.5 * nodal_damping(hybrid_dofmap, lambda p: np.ones(len(p)))
    free = hybrid_dofmap.free_idx
    A = free_block(mass + extra, hybrid_dofmap)
    solver = BlockSolver(A, hybrid_dofmap)
    r = rng.standard_normal(len(free))
    x = solver.solve(r)
    assert_allclose(A @ x, r, atol=1e-12 * np.abs(r).max())


def test_matvec_helper_is_the_public_product_bit_for_bit(any_dofmap, rng):
    # the step's two products skip scipy's wrapper; a scipy that renames
    # or changes the kernel behind ``A @ x`` turns this red
    con = constrain(any_dofmap, assemble_lumped_mass(any_dofmap),
                    assemble_stiffness(any_dofmap))
    solver = BlockSolver(con.M_FF, any_dofmap)
    n = con.K_FF.shape[0]
    for A in (con.K_FF, solver._inv):
        for x in (np.zeros(n), np.full(n, -0.0), rng.standard_normal(n)):
            out = np.full(n, np.nan)
            assert _matvec(A, x, out) is out
            assert np.array_equal(out.view(np.int64), (A @ x).view(np.int64))
    x = rng.standard_normal(n)
    assert np.array_equal(solver.solve(x).view(np.int64),
                          (solver._inv @ x).view(np.int64))


@pytest.mark.parametrize("kind", FAMILIES)
def test_block_solver_takes_the_diagonal_path_where_it_is_exact(kind, rng):
    # only structured-quad has orthogonal dof normals at every vertex, so
    # only there is every block inverse diagonal and a solve one vector
    # product; either path is the sparse product bit for bit on a load
    # with +0.0 entries and no -0.0
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=2,
                                              seed=3), 1))
    solver = BlockSolver(free_block(assemble_lumped_mass(dofmap), dofmap),
                         dofmap)
    assert (solver._diag is not None) == (kind == "structured-quad")
    n = solver._inv.shape[0]
    r = rng.standard_normal(n)
    for x in (r, np.where(rng.random(n) < 0.5, 0.0, r)):
        assert np.array_equal(solver.solve(x).view(np.int64),
                              (solver._inv @ x).view(np.int64))


# ------------------------------------------------------------- interpolation

def test_interpolant_reproduces_linear_fields(any_dofmap, rng):
    c = interpolate_field(any_dofmap, linear_field)
    assert_allclose(build_sampler(any_dofmap, 7) @ c,
                    linear_field(snapshot_grid(7))[:, 0], atol=1e-12)
    for g in any_dofmap.groups:
        # both components at points inside the reference triangle and square
        ref = 0.5 * rng.random((5, 2))
        exact = linear_field(g.phys_points(ref).reshape(-1, 2))
        assert_allclose(g.eval_values(c, ref), exact.reshape(g.n, 5, 2),
                        atol=1e-12)
        divs = g.eval_divs(c, lumped_rule(g.shape).points)
        assert_allclose(divs, LINEAR_DIV, atol=1e-11)


def assert_sampler_matches_oracle(dofmap, n):
    S = build_sampler(dofmap, n)
    O = per_cell_sampler(dofmap, snapshot_grid(n))
    assert S.has_canonical_format    # rows sorted, no duplicates
    O.sort_indices()
    assert np.array_equal(S.indptr, O.indptr)
    assert np.array_equal(S.indices, O.indices)
    assert_allclose(S.data, O.data, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", FAMILIES)
def test_sampler_matches_per_cell_oracle(kind):
    """On the base-4 level-1 meshes, h = 1/8: at n = 4 every grid point is
    a mesh vertex (of the unperturbed families), at n = 5 one column lies
    on the hybrid interface x = 0.5, at n = 12 some points lie on edges."""
    dofmap = build_dofmap(generate(MeshFamily(kind, base_divisions=4,
                                              seed=3), 1))
    for n in (1, 4, 5, 12, 100):
        assert_sampler_matches_oracle(dofmap, n)


SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def test_sampler_handles_a_cell_far_larger_than_the_grid():
    """One parallelogram with coordinates near 1e150 owns every grid point;
    its grid-index range is clipped before the integer cast."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = build_dofmap(HybridMesh(1e150 * SQUARE, [[0, 1, 2, 3]]))
        S = build_sampler(big, 9)
    assert np.array_equal(S.indptr, np.arange(82) * big.groups[0].basis.dim)
    assert_sampler_matches_oracle(big, 9)


@pytest.mark.parametrize("L", [1e-150, 1.0, 1e150])
def test_normal_trace_test_is_scale_free(monkeypatch, L):
    """A square is accepted at any size, its normal traces about 1 / L;
    a trace 1e-16 times its size is still refused as degenerate."""
    mesh = HybridMesh(L * SQUARE, [[0, 1, 2, 3]])
    g = build_dofmap(mesh).groups[0]
    assert_allclose(np.abs(g.scale[:, :-2]), 2 * L, rtol=1e-12)
    normals = HybridMesh.edge_normals
    monkeypatch.setattr(HybridMesh, "edge_normals",
                        lambda self: 1e-16 * normals(self))
    with pytest.raises(AssemblyError, match="degenerate normal trace"):
        build_dofmap(mesh)


def test_sampler_rejects_points_outside_the_mesh():
    # one triangle under the diagonal: the grid point (0.75, 0.75) is outside
    mesh = HybridMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2, -1]])
    with pytest.raises(AssemblyError, match="1 of 4 sample points outside"):
        build_sampler(build_dofmap(mesh), 2)

