"""Global assembly: degrees of freedom, mass blocks, stiffness, constraints.

Degrees of freedom are normal-component values: one per (edge, endpoint)
pair, signed by the global edge normal, plus two interior coefficients
per cell.  Edge dofs are numbered ``2*edge + side`` (side 0 at the lower
vertex id), interior dofs follow after all edge dofs in cell order, so
``n_dof = 2*n_edges + 2*n_cells``.

Because the local bases are nodal at the quadrature points, the lumped
mass matrix splits into independent SPD blocks: one per mesh vertex
(coupling the incident edge dofs) and one 2x2 block per cell midpoint.
Assembly is sequential and deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import HybridMesh, MeshError
from .quadrature import QUAD, TRIANGLE, gauss_01, lumped_rule, oracle_rule
from .refelem import ReferenceBasis, reference_basis

# Positions of the nodal-basis edges inside a cell's boundary traversal:
# triangle slots use edges (v0,v1), (v1,v2), (v0,v2); the traversal order
# is (v0,v1), (v1,v2), (v2,v0).  Same idea for parallelograms.
_EDGE_POS = {
    TRIANGLE: (0, 1, 2),
    QUAD: (1, 2, 3, 0),
}


class AssemblyError(RuntimeError):
    pass


@dataclass
class CellGroup:
    """Batched per-shape cell data used by every assembly loop."""

    shape: str
    basis: ReferenceBasis
    cell_ids: np.ndarray    # (nc,)
    vids: np.ndarray        # (nc, k) global vertex ids
    J: np.ndarray           # (nc, 2, 2)
    b: np.ndarray           # (nc, 2) images of the reference origin
    detJ: np.ndarray        # (nc,)
    area: np.ndarray        # (nc,)
    l2g: np.ndarray         # (nc, dim) global dof per local slot
    scale: np.ndarray       # (nc, dim) local-to-global normalization

    @property
    def n(self) -> int:
        return len(self.cell_ids)

    def phys_points(self, ref_pts: np.ndarray) -> np.ndarray:
        return np.einsum("nij,mj->nmi", self.J, ref_pts) + self.b[:, None, :]

    def local_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs[self.l2g] * self.scale

    def eval_values(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Field values at reference points in every cell; (nc, m, 2)."""
        C = self.local_coeffs(coeffs)
        combo = np.einsum("nd,dmk->nmk", C, self.basis.values(ref_pts))
        return np.einsum("nij,nmj->nmi", self.J, combo) / self.detJ[:, None, None]

    def eval_divs(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        C = self.local_coeffs(coeffs)
        return np.einsum("nd,dm->nm", C, self.basis.divergences(ref_pts)) \
            / self.detJ[:, None]


@dataclass
class DofMap:
    """Degree-of-freedom layout over a mesh, with per-shape cell groups."""

    mesh: HybridMesh
    groups: list[CellGroup]
    ndof: int
    n_edge_dofs: int
    free_idx: np.ndarray
    con_idx: np.ndarray
    edof_vertex: np.ndarray   # (2E,) vertex id of each edge dof
    edof_normal: np.ndarray   # (2E, 2) global edge normal of each edge dof
    block_id: np.ndarray      # (ndof,) mass block: edge dof's vertex, or
                              # n_vertices + cell for interior dofs

    def constrained_values(self, g, t: float) -> np.ndarray:
        """Boundary dof values n.g at the edge-endpoint points."""
        pts = self.mesh.vertices[self.edof_vertex[self.con_idx]]
        nrm = self.edof_normal[self.con_idx]
        vals = np.asarray(g(pts, t), dtype=float)
        return np.einsum("nk,nk->n", vals, nrm)


def build_dofmap(mesh: HybridMesh) -> DofMap:
    nE = mesh.n_edges
    ndof = 2 * nE + 2 * mesh.n_cells
    normals = mesh.edge_normals()
    groups = []
    for shape, ids in ((TRIANGLE, mesh.triangle_ids()), (QUAD, mesh.quad_ids())):
        if not ids:
            continue
        groups.append(_build_group(mesh, shape, np.array(ids, dtype=int), normals))
    con = np.sort(np.concatenate(
        [[2 * e, 2 * e + 1] for e in mesh.boundary_edges]).astype(int)) \
        if len(mesh.boundary_edges) else np.array([], dtype=int)
    free = np.setdiff1d(np.arange(ndof), con)
    return DofMap(
        mesh=mesh,
        groups=groups,
        ndof=ndof,
        n_edge_dofs=2 * nE,
        free_idx=free,
        con_idx=con,
        edof_vertex=mesh.edges.ravel().copy(),
        edof_normal=np.repeat(normals, 2, axis=0),
        block_id=np.concatenate([mesh.edges.ravel(), mesh.n_vertices
                                 + np.arange(mesh.n_cells).repeat(2)]),
    )


def _build_group(mesh: HybridMesh, shape: str, cell_ids: np.ndarray,
                 normals: np.ndarray) -> CellGroup:
    basis = reference_basis(shape)
    rule = lumped_rule(shape)
    nc = len(cell_ids)
    k = basis.n_vertices
    vids = np.array([mesh.cells[c] for c in cell_ids], dtype=int)
    verts = mesh.vertices[vids]                       # (nc, k, 2)
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, k - 1] - verts[:, 0]
    J = np.stack([e1, e2], axis=-1)                   # columns e1, e2
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(detJ <= 0):
        bad = cell_ids[np.argmax(detJ <= 0)]
        raise AssemblyError(f"inverted cell {bad}: non-positive Jacobian")
    area = detJ * (0.5 if shape == TRIANGLE else 1.0)

    cell_eids = np.array(
        [[e for e, _ in mesh.cell_edges[c]] for c in cell_ids], dtype=int)
    pos = _EDGE_POS[shape]

    refvals = basis.values(rule.points)               # (dim, npts, 2)
    l2g = np.empty((nc, basis.dim), dtype=int)
    scale = np.ones((nc, basis.dim))
    for slot in basis.slots:
        if slot.kind == "interior":
            k = slot.index - (basis.dim - 2)
            l2g[:, slot.index] = 2 * mesh.n_edges + 2 * cell_ids + k
    # Edge slots: resolve edge ids through the cell's traversal table.
    edge_order = []
    for slot in basis.slots:
        if slot.kind == "edge" and slot.edge not in edge_order:
            edge_order.append(slot.edge)
    for slot in basis.slots:
        if slot.kind != "edge":
            continue
        eids = cell_eids[:, pos[edge_order.index(slot.edge)]]
        gv = vids[:, slot.endpoint]
        side = (mesh.edges[eids, 0] != gv).astype(int)
        if np.any(mesh.edges[eids, side] != gv):
            raise AssemblyError("edge table inconsistent with cell traversal")
        l2g[:, slot.index] = 2 * eids + side
        # normalization: physical normal-component value at the slot's
        # own quadrature point must be 1 with respect to the global normal
        v = refvals[slot.index, slot.qpoint]          # (2,)
        pv = np.einsum("nij,j->ni", J, v) / detJ[:, None]
        t = np.einsum("ni,ni->n", pv, normals[eids])
        if np.any(np.abs(t) < 1e-14):
            raise AssemblyError("degenerate normal trace while scaling basis")
        scale[:, slot.index] = 1.0 / t
    return CellGroup(shape, basis, cell_ids, vids, J, verts[:, 0].copy(),
                     detJ, area, l2g, scale)


# -- lumped mass --------------------------------------------------------


def _diagonal_blocks(A: sp.csr_matrix, dofmap: DofMap,
                     dofs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagonal blocks of ``A`` on the sorted dof set ``dofs``, batched by size.

    Returns one ``(pos, blocks)`` pair per block size: ``pos`` (n, s)
    indexes into ``dofs`` (ascending within a block), ``blocks`` (n, s, s)
    holds the matching entries of ``A``.  Every block must be SPD; the
    batched Cholesky factorization checks it.
    """
    bid = dofmap.block_id[dofs]
    order = np.argsort(bid, kind="stable")
    _, start, size = np.unique(bid[order], return_index=True,
                               return_counts=True)
    out = []
    for s in np.unique(size):
        pos = order[start[size == s][:, None] + np.arange(s)]
        d = dofs[pos]
        rows = np.repeat(d, s, axis=1).ravel()
        cols = np.tile(d, (1, s)).ravel()
        blocks = np.asarray(A[rows, cols]).reshape(-1, s, s)
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            b = dofmap.block_id[d[np.linalg.eigvalsh(blocks)[:, 0].argmin(), 0]]
            nv = dofmap.mesh.n_vertices
            where = f"vertex {b}" if b < nv else f"cell {b - nv}"
            raise AssemblyError(f"mass block at {where} is not SPD") from exc
        out.append((pos, blocks))
    return out


class BlockDiagMass:
    """Block-diagonal lumped mass matrix.

    One block per mesh vertex (dimension = number of incident edges) and
    one 2x2 block per cell.  ``batches`` holds them grouped by size as
    ``(dofs, blocks)`` pairs; construction checks that every block is
    SPD.  ``solver`` inverts the free-dof part and is built once here.
    """

    def __init__(self, dofmap: DofMap):
        self.dofmap = dofmap
        self.csr = _assemble_lumped_csr(dofmap)
        self.batches = _diagonal_blocks(self.csr, dofmap,
                                        np.arange(dofmap.ndof))
        self.solver = BlockSolver(self)

    def tocsr(self) -> sp.csr_matrix:
        return self.csr


class BlockSolver:
    """Applies the inverse of the free-dof block of ``M + extra_csr``.

    Only the entries of ``extra_csr`` inside the mass blocks are read;
    the damping operator has no others.  Blocks are gathered batched by
    size, checked SPD and inverted once; a solve is one batched product
    per size.
    """

    def __init__(self, mass: BlockDiagMass,
                 extra_csr: sp.spmatrix | None = None):
        A = mass.csr if extra_csr is None else (mass.csr + extra_csr).tocsr()
        self._batches = [
            (pos, np.linalg.inv(blocks))
            for pos, blocks in _diagonal_blocks(A, mass.dofmap,
                                                mass.dofmap.free_idx)]

    def solve(self, r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        for positions, inv in self._batches:
            out[positions.ravel()] = np.einsum(
                "nij,nj->ni", inv, r[positions]).ravel()
        return out


def _assemble_lumped_csr(dofmap: DofMap, coeff=None) -> sp.csr_matrix:
    """Lumped bilinear form; ``coeff`` is an optional scalar field weight."""
    rows, cols, vals = [], [], []
    for g in dofmap.groups:
        rule = lumped_rule(g.shape)
        V = g.basis.values(rule.points)               # (dim, npts, 2)
        PV = np.einsum("nij,dpj->ndpi", g.J, V) / g.detJ[:, None, None, None]
        PV = PV * g.scale[:, :, None, None]
        w = g.area[:, None] * rule.weights[None, :]   # (nc, npts)
        if coeff is not None:
            phys = g.phys_points(rule.points)
            cw = np.asarray(coeff(phys.reshape(-1, 2)), dtype=float)
            w = w * cw.reshape(g.n, rule.npoints)
        for q in range(rule.npoints):
            a, b = g.basis.slots_at_qpoint(q)
            va, vb = PV[:, a, q], PV[:, b, q]
            for (i, j, prod) in (
                (a, a, np.einsum("nk,nk->n", va, va)),
                (a, b, np.einsum("nk,nk->n", va, vb)),
                (b, a, np.einsum("nk,nk->n", vb, va)),
                (b, b, np.einsum("nk,nk->n", vb, vb)),
            ):
                rows.append(g.l2g[:, i])
                cols.append(g.l2g[:, j])
                vals.append(w[:, q] * prod)
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.ndof, dofmap.ndof))
    return M.tocsr()


def assemble_lumped_mass(dofmap: DofMap) -> BlockDiagMass:
    return BlockDiagMass(dofmap)


def assemble_damping(dofmap: DofMap, d) -> sp.csr_matrix:
    """Lumped damping matrix for a spatially varying coefficient d(x).

    Same sparsity as the lumped mass, so the implicit damped update
    stays block diagonal.
    """
    return _assemble_lumped_csr(dofmap, coeff=d)


def assemble_consistent_mass(dofmap: DofMap, degree: int = 6) -> sp.csr_matrix:
    """Exact mass matrix via the oracle rule (not block diagonal)."""
    rows, cols, vals = [], [], []
    for g in dofmap.groups:
        rule = oracle_rule(g.shape, degree)
        V = g.basis.values(rule.points)
        PV = np.einsum("nij,dpj->ndpi", g.J, V) / g.detJ[:, None, None, None]
        PV = PV * g.scale[:, :, None, None]
        w = g.detJ[:, None] * rule.weights[None, :]
        loc = np.einsum("np,napk,nbpk->nab", w, PV, PV)
        dim = g.basis.dim
        rows.append(np.repeat(g.l2g, dim, axis=1).ravel())
        cols.append(np.tile(g.l2g, (1, dim)).ravel())
        vals.append(loc.ravel())
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.ndof, dofmap.ndof))
    return M.tocsr()


def assemble_stiffness(dofmap: DofMap, rule: str = "lumped",
                       degree: int = 6) -> sp.csr_matrix:
    """div-div stiffness matrix.

    The lumped rule is already exact here (divergences are linear per
    cell, so the integrand has degree at most 2), which the test suite
    double-checks against the oracle variant.
    """
    if rule not in ("lumped", "oracle"):
        raise ValueError("rule must be 'lumped' or 'oracle'")
    rows, cols, vals = [], [], []
    for g in dofmap.groups:
        if rule == "lumped":
            qr = lumped_rule(g.shape)
            pts, w = qr.points, g.area[:, None] * qr.weights[None, :]
        else:
            qr = oracle_rule(g.shape, degree)
            pts, w = qr.points, g.detJ[:, None] * qr.weights[None, :]
        D = g.basis.divergences(pts)                  # (dim, npts)
        DS = g.scale[:, :, None] * D[None, :, :] / g.detJ[:, None, None]
        loc = np.einsum("np,nap,nbp->nab", w, DS, DS)
        dim = g.basis.dim
        rows.append(np.repeat(g.l2g, dim, axis=1).ravel())
        cols.append(np.tile(g.l2g, (1, dim)).ravel())
        vals.append(loc.ravel())
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.ndof, dofmap.ndof))
    return K.tocsr()


# -- boundary handling --------------------------------------------------


@dataclass
class Constraint:
    """Free/constrained splitting of the semi-discrete system."""

    dofmap: DofMap
    K_FF: sp.csr_matrix
    K_FB: sp.csr_matrix
    M_FF: sp.csr_matrix
    M_FB: sp.csr_matrix

    @property
    def free_idx(self) -> np.ndarray:
        return self.dofmap.free_idx

    @property
    def con_idx(self) -> np.ndarray:
        return self.dofmap.con_idx


def constrain(dofmap: DofMap, mass: BlockDiagMass,
              stiffness: sp.csr_matrix) -> Constraint:
    free, con = dofmap.free_idx, dofmap.con_idx
    M = mass.tocsr()
    return Constraint(
        dofmap=dofmap,
        K_FF=stiffness[free][:, free].tocsr(),
        K_FB=stiffness[free][:, con].tocsr(),
        M_FF=M[free][:, free].tocsr(),
        M_FB=M[free][:, con].tocsr(),
    )


# -- global interpolation and evaluation --------------------------------

_REF_BUBBLE_INTEGRALS = {}


def _ref_bubble_integrals(shape: str) -> np.ndarray:
    """Reference integrals of all basis functions, (dim, 2)."""
    if shape not in _REF_BUBBLE_INTEGRALS:
        basis = reference_basis(shape)
        rule = oracle_rule(shape, 6)
        vals = basis.values(rule.points)              # (dim, m, 2)
        _REF_BUBBLE_INTEGRALS[shape] = np.einsum("m,dmk->dk", rule.weights, vals)
    return _REF_BUBBLE_INTEGRALS[shape]


def interpolate_field(dofmap: DofMap, u, ngauss: int = 12,
                      degree: int = 12) -> np.ndarray:
    """Canonical interpolant of a smooth field; full coefficient vector.

    Edge dofs come from the linear L2 fit of the normal trace on each
    edge (hence they match the edge moments of ``u`` exactly up to
    quadrature), interior dofs from matching componentwise cell
    averages.
    """
    mesh = dofmap.mesh
    coeffs = np.zeros(dofmap.ndof)
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    nrm = mesh.edge_normals()
    s, w = gauss_01(ngauss)
    pts = lo[:, None, :] + s[None, :, None] * (hi - lo)[:, None, :]
    E = mesh.n_edges
    un = np.einsum("egk,ek->eg",
                   np.asarray(u(pts.reshape(-1, 2)), dtype=float).reshape(E, ngauss, 2),
                   nrm)
    m0 = un @ w
    m1 = (un * s[None, :]) @ w
    coeffs[0:2 * E:2] = 4.0 * m0 - 6.0 * m1
    coeffs[1:2 * E:2] = -2.0 * m0 + 6.0 * m1

    for g in dofmap.groups:
        rule = oracle_rule(g.shape, degree)
        phys = g.phys_points(rule.points)
        uvals = np.asarray(u(phys.reshape(-1, 2)), dtype=float).reshape(g.n, -1, 2)
        Iu = np.einsum("m,nmk->nk", rule.weights, uvals) * g.detJ[:, None]
        refI = _ref_bubble_integrals(g.shape)         # (dim, 2)
        dim = g.basis.dim
        edge_slots = np.arange(dim - 2)
        C_edge = coeffs[g.l2g[:, edge_slots]] * g.scale[:, edge_slots]
        contrib = np.einsum("ne,nij,ej->ni", C_edge, g.J, refI[edge_slots])
        rhs = Iu - contrib
        G = np.einsum("nij,kj->nik", g.J, refI[dim - 2:dim])
        cb = np.linalg.solve(G, rhs[:, :, None])[:, :, 0]
        coeffs[g.l2g[:, dim - 2]] = cb[:, 0]
        coeffs[g.l2g[:, dim - 1]] = cb[:, 1]
    return coeffs


def build_sampler(dofmap: DofMap, pts: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse operators mapping coefficients to point values (x and y).

    Each sample point belongs to the first cell containing it, taking the
    groups in ``dofmap.groups`` order (triangles before parallelograms)
    and ascending cell ids within a group; points outside the mesh raise.
    Candidate cells come from a uniform grid of bins as wide as the
    largest cell bounding box, so a cell overlaps at most 2 x 2 bins.
    """
    verts = dofmap.mesh.vertices
    pts = np.asarray(pts, dtype=float)
    tol = 1e-10
    boxes = [(verts[g.vids].min(axis=1) - tol, verts[g.vids].max(axis=1) + tol)
             for g in dofmap.groups]
    origin = np.min([lo.min(axis=0) for lo, _ in boxes], axis=0)
    width = max(float((hi - lo).max()) for lo, hi in boxes)
    top = np.max([hi.max(axis=0) for _, hi in boxes], axis=0)
    nbins = np.floor((top - origin) / width).astype(int) + 1

    def bin_of(x):
        return np.clip(np.floor((x - origin) / width).astype(int), 0, nbins - 1)

    pkey = bin_of(pts) @ [nbins[1], 1]
    order = np.argsort(pkey, kind="stable")
    first = np.searchsorted(pkey[order], np.arange(nbins.prod() + 1))

    owned = np.zeros(len(pts), dtype=bool)
    rows, cols, vx, vy = [], [], [], []
    for g, (lo, hi) in zip(dofmap.groups, boxes):
        blo, bhi = bin_of(lo), bin_of(hi)
        span = int((bhi - blo).max()) + 1
        cells, cand = [], []
        for dx in range(span):
            for dy in range(span):
                bx, by = blo[:, 0] + dx, blo[:, 1] + dy
                c = np.flatnonzero((bx <= bhi[:, 0]) & (by <= bhi[:, 1]))
                key = bx[c] * nbins[1] + by[c]
                cnt = first[key + 1] - first[key]
                cells.append(np.repeat(c, cnt))
                cand.append(order[np.repeat(first[key] - np.cumsum(cnt) + cnt, cnt)
                                  + np.arange(cnt.sum())])
        c, p = np.concatenate(cells), np.concatenate(cand)
        todo = ~owned[p]
        c, p = c[todo], p[todo]
        r = np.einsum("nij,nj->ni", np.linalg.inv(g.J)[c], pts[p] - g.b[c])
        ok = np.all((pts[p] >= lo[c]) & (pts[p] <= hi[c]), axis=1)
        if g.shape == TRIANGLE:
            ok &= (r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(axis=1) <= 1 + tol)
        else:
            ok &= np.all((r >= -tol) & (r <= 1 + tol), axis=1)
        # a point on several cells goes to the lowest one
        hit = np.flatnonzero(ok)[np.lexsort((c[ok], p[ok]))]
        hit = hit[np.unique(p[hit], return_index=True)[1]]
        c, p = c[hit], p[hit]
        owned[p] = True
        vals = g.basis.values(r[hit])                 # (dim, m, 2)
        pv = np.einsum("mij,dmj->dmi", g.J[c], vals) / g.detJ[c][:, None]
        pv = pv * g.scale[c].T[:, :, None]
        rows.append(np.tile(p, g.basis.dim))
        cols.append(g.l2g[c].T.ravel())
        vx.append(pv[:, :, 0].ravel())
        vy.append(pv[:, :, 1].ravel())
    if not owned.all():
        raise AssemblyError(f"{np.sum(~owned)} of {len(pts)} sample points "
                            "outside the mesh")
    shape = (len(pts), dofmap.ndof)
    rows = np.concatenate(rows); cols = np.concatenate(cols)
    Sx = sp.coo_matrix((np.concatenate(vx), (rows, cols)), shape=shape).tocsr()
    Sy = sp.coo_matrix((np.concatenate(vy), (rows, cols)), shape=shape).tocsr()
    return Sx, Sy
