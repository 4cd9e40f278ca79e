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

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import HybridMesh, MeshError
from .quadrature import (QUAD, REF_MIDPOINT, TRIANGLE, gauss_01, lumped_rule,
                         oracle_rule)
from .refelem import ReferenceBasis, reference_basis

# most cells, or edges, whose field samples interpolate_field holds at once
CELL_CHUNK = 512


class AssemblyError(RuntimeError):
    pass


def _times_J(J: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``J @ x`` over the last axis of ``x``, with ``J`` (..., 2, 2)
    broadcast against the leading axes of ``x``.

    Output component i is ``J[..., i, 0] x0 + J[..., i, 1] x1``, written
    into its plane of one preallocated array.  It forms the same
    products and sums them in the same order as einsum, so the bits are
    the same, without einsum's slow 4-d loop or a temporary per column.
    """
    out = np.empty(np.broadcast_shapes(J.shape[:-2], x.shape[:-1]) + (2,),
                   dtype=np.result_type(J, x))
    for i in range(2):
        o = out[..., i]
        np.multiply(J[..., i, 0], x[..., 0], out=o)
        o += J[..., i, 1] * x[..., 1]
    return out


def field_at(f, x: np.ndarray) -> np.ndarray:
    """Callable field ``f`` at mapped points ``x`` (nc, m, 2): (nc, m) for
    a scalar field, (nc, m, 2) for a vector field."""
    vals = np.asarray(f(x.reshape(-1, 2)), dtype=float)
    return vals.reshape(x.shape[:2] + vals.shape[1:])


def _dot2(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``v . n`` over the last axis of length 2, ``n`` broadcast against
    ``v``; the same bits as the einsum form."""
    return v[..., 0] * n[..., 0] + v[..., 1] * n[..., 1]


@dataclass
class CellGroup:
    """Batched per-shape cell data.

    The one path for cell integrals: ``quadrature`` gives a rule's
    reference points and per-cell physical weights, ``sample`` evaluates
    a callable field at the mapped points, and ``scaled_values`` and
    ``scaled_divergences`` give the Piola-mapped local basis and its
    divergences there.  Every array field holds one row per cell.
    """

    shape: str
    basis: ReferenceBasis
    cell_ids: np.ndarray    # (nc,)
    vids: np.ndarray        # (nc, k) global vertex ids
    J: np.ndarray           # (nc, 2, 2)
    b: np.ndarray           # (nc, 2) images of the reference origin
    detJ: np.ndarray        # (nc,)
    l2g: np.ndarray         # (nc, dim) global dof per local slot
    scale: np.ndarray       # (nc, dim) local-to-global normalization

    @property
    def n(self) -> int:
        return len(self.cell_ids)

    def phys_points(self, ref_pts: np.ndarray) -> np.ndarray:
        """Images (nc, m, 2) of reference points (m, 2) in every cell."""
        out = _times_J(self.J[:, None], ref_pts)
        out += self.b[:, None, :]
        return out

    def quadrature(self, kind: str = "oracle",
                   degree: int = 6) -> tuple[np.ndarray, np.ndarray]:
        """Reference points (m, 2) and per-cell physical weights (nc, m)
        of the lumped rule, or of the oracle rule exact to ``degree``."""
        rule = (lumped_rule(self.shape) if kind == "lumped"
                else oracle_rule(self.shape, degree))
        return rule.points, self.detJ[:, None] * rule.weights

    def sample(self, f, ref_pts: np.ndarray) -> np.ndarray:
        """Callable field ``f`` at the mapped reference points of every
        cell: (nc, m) for a scalar field, (nc, m, 2) for a vector field."""
        return field_at(f, self.phys_points(ref_pts))

    def scaled_values(self, ref_pts: np.ndarray) -> np.ndarray:
        """Piola-mapped values (nc, dim, m, 2) of the scaled local basis
        at reference points."""
        PV = _times_J(self.J[:, None, None], self.basis.values(ref_pts))
        PV /= self.detJ[:, None, None, None]
        PV *= self.scale[:, :, None, None]
        return PV

    def scaled_divergences(self, ref_pts: np.ndarray) -> np.ndarray:
        """Divergences (nc, dim, m) of the scaled local basis at reference
        points."""
        return self.scale[:, :, None] * self.basis.divergences(ref_pts)[None] \
            / self.detJ[:, None, None]

    def distinct(self) -> tuple[CellGroup, np.ndarray | slice]:
        """The group with one cell for each distinct ``(J, scale)`` row and
        the index of each cell's row in it, or, when every row is
        distinct, the group itself and ``slice(None)``.

        The cell matrices are computed from these rows alone (detJ follows
        from J), so cells whose rows agree bit for bit have bit-identical
        matrices.  The generated structured and hybrid meshes have one or
        two rows per shape, a perturbed mesh one per cell.
        """
        key = np.hstack([self.J.reshape(self.n, 4), self.scale])
        # each row as one opaque item: equal bytes, equal cell
        rows = key.view(np.dtype((np.void, key.shape[1] * key.itemsize)))[:, 0]
        first, inverse = np.unique(rows, return_index=True,
                                   return_inverse=True)[1:]
        if len(first) == self.n:
            return self, slice(None)
        return self._rows(first), inverse

    def chunks(self, size: int):
        """The group as consecutive runs of at most ``size`` cells, each
        a group of views of these rows."""
        for start in range(0, self.n, size):
            yield self._rows(slice(start, start + size))

    def _rows(self, index) -> CellGroup:
        return replace(self, **{name: a[index] for name, a in vars(self).items()
                                if isinstance(a, np.ndarray)})

    def local_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs[self.l2g] * self.scale

    def eval_values(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Field values at reference points in every cell; (nc, m, 2)."""
        C = self.local_coeffs(coeffs)
        combo = np.einsum("nd,dmk->nmk", C, self.basis.values(ref_pts))
        out = _times_J(self.J[:, None], combo)
        out /= self.detJ[:, None, None]
        return out

    def eval_divs(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        C = self.local_coeffs(coeffs)
        out = np.einsum("nd,dm->nm", C, self.basis.divergences(ref_pts))
        out /= self.detJ[:, None]
        return out


@dataclass
class DofMap:
    """Degree-of-freedom layout over a mesh, with per-shape cell groups."""

    mesh: HybridMesh
    groups: list[CellGroup]
    ndof: int
    free_idx: np.ndarray
    con_idx: np.ndarray
    block_id: np.ndarray      # (ndof,) mass block: edge dof's vertex, or
                              # n_vertices + cell for interior dofs

    def boundary_trace(self, g):
        """``ts -> n.g(t)`` at the edge-endpoint points of the boundary
        dofs, one row per time in ``ts``.  ``g(points, t)`` is pointwise,
        ``t`` holding one time per point, so all times take one call."""
        pts = self.mesh.vertices[self.block_id[self.con_idx]]
        nrm = self.mesh.edge_normals()[self.con_idx // 2]

        def trace(ts):
            vals = g(np.tile(pts, (len(ts), 1)), np.repeat(ts, len(pts)))
            return _dot2(vals.reshape(len(ts), -1, 2), nrm)
        return trace

    def nodal_values(self, f) -> np.ndarray:
        """Scalar field ``f`` at every dof's mass-block node, (ndof,): the
        vertex of an edge dof, the cell midpoint of an interior dof.

        These are the lumped rule's points, so the lumped form of
        ``(f u, v)`` is ``diag(nodal_values(f)) @ M`` with M the lumped mass.
        A field that returns one number is constant: it is broadcast to
        every node.  Any other shape than one value per node is refused.
        """
        mid = np.empty((self.mesh.n_cells, 2))
        for g in self.groups:
            mid[g.cell_ids] = g.phys_points(REF_MIDPOINT[g.shape][None])[:, 0]
        nodes = np.vstack([self.mesh.vertices, mid])
        vals = np.asarray(f(nodes), dtype=float)
        if vals.ndim == 0:
            vals = np.full(len(nodes), vals)
        elif vals.shape != (len(nodes),):
            raise ValueError(f"field returned shape {vals.shape} at "
                             f"{len(nodes)} points; expected ({len(nodes)},) "
                             "or a single number")
        return vals[self.block_id]


def build_dofmap(mesh: HybridMesh) -> DofMap:
    ndof = 2 * mesh.n_edges + 2 * mesh.n_cells
    normals = mesh.edge_normals()
    con = (2 * mesh.boundary_edges[:, None] + [0, 1]).ravel()
    free = np.delete(np.arange(ndof), con)
    return DofMap(
        mesh=mesh,
        groups=[_build_group(mesh, *group, normals)
                for group in mesh.shape_groups()],
        ndof=ndof,
        free_idx=free,
        con_idx=con,
        block_id=np.concatenate([mesh.edges.ravel(), mesh.n_vertices
                                 + np.arange(mesh.n_cells).repeat(2)]),
    )


def _build_group(mesh: HybridMesh, cell_ids: np.ndarray, vids: np.ndarray,
                 cell_eids: np.ndarray, normals: np.ndarray) -> CellGroup:
    k = vids.shape[1]
    shape = TRIANGLE if k == 3 else QUAD
    basis = reference_basis(shape)
    rule = lumped_rule(shape)
    nc = len(cell_ids)
    verts = mesh.vertices[vids]                       # (nc, k, 2)
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, k - 1] - verts[:, 0]
    J = np.stack([e1, e2], axis=-1)                   # columns e1, e2
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(detJ <= 0):
        bad = cell_ids[np.argmax(detJ <= 0)]
        raise AssemblyError(f"inverted cell {bad}: non-positive Jacobian")

    refvals = basis.values(rule.points)               # (dim, npts, 2)
    lengths = mesh.edge_lengths()
    l2g = np.empty((nc, basis.dim), dtype=int)
    scale = np.ones((nc, basis.dim))
    # the two interior bubbles are the last slots
    l2g[:, -2:] = 2 * mesh.n_edges + 2 * cell_ids[:, None] + [0, 1]
    for slot in basis.slots:
        if slot.kind != "edge":
            continue
        # local edge j of a cell runs from its vertex j to vertex j + 1
        a, b = slot.edge
        eids = cell_eids[:, a if (a + 1) % k == b else b]
        gv = vids[:, slot.endpoint]
        side = (mesh.edges[eids, 0] != gv).astype(int)
        l2g[:, slot.index] = 2 * eids + side
        # normalization: physical normal-component value at the slot's
        # own quadrature point must be 1 with respect to the global normal
        v = refvals[slot.index, slot.qpoint]          # (2,)
        t = _dot2(_times_J(J, v) / detJ[:, None], normals[eids])
        # t scales as one over the edge length; t times it does not
        if np.any(np.abs(t) * lengths[eids] < 1e-14):
            raise AssemblyError("degenerate normal trace while scaling basis")
        scale[:, slot.index] = 1.0 / t
    return CellGroup(shape, basis, cell_ids, vids, J, verts[:, 0].copy(),
                     detJ, l2g, scale)


# -- lumped mass --------------------------------------------------------


def _scatter(n: int, parts) -> sp.csr_matrix:
    """Sum of dense blocks as an (n, n) CSR matrix; ``parts`` yields
    ``(idx, blocks)`` pairs, ``blocks`` (nb, s, s) on the global index
    sets ``idx`` (nb, s).  Entries that meet are summed, exact zeros kept.

    The COO triplets are written into arrays allocated once, the rows and
    columns as int32 (``MAX_CELLS`` keeps every index far below 2**31).
    """
    parts = list(parts)
    nnz = sum(blocks.size for _, blocks in parts)
    rows, cols = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    start = 0
    while parts:
        idx, blocks = parts.pop(0)
        entries = slice(start, start + blocks.size)
        rows[entries].reshape(blocks.shape)[...] = idx[:, :, None]
        cols[entries].reshape(blocks.shape)[...] = idx[:, None, :]
        vals[entries].reshape(blocks.shape)[...] = blocks
        start += blocks.size
        del idx, blocks  # each block let go once copied
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _diagonal_blocks(A: sp.csr_matrix, dofmap: DofMap,
                     bid: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagonal blocks of ``A``, whose row i holds a dof of mass block
    ``bid[i]``, batched by size.

    Returns one ``(pos, blocks)`` pair per block size: ``pos`` (n, s)
    holds each block's rows of ``A`` (ascending), ``blocks`` (n, s, s)
    the entries of ``A`` there.  Every block must be SPD; the batched
    Cholesky factorization checks it.
    """
    order = np.argsort(bid, kind="stable")
    _, start, size = np.unique(bid[order], return_index=True,
                               return_counts=True)
    out = []
    for s in np.unique(size):
        pos = order[start[size == s][:, None] + np.arange(s)]
        rows, cols = np.repeat(pos, s, axis=1), np.tile(pos, (1, s))
        blocks = np.asarray(A[rows.ravel(), cols.ravel()]).reshape(-1, s, s)
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            b = bid[pos[np.linalg.eigvalsh(blocks)[:, 0].argmin(), 0]]
            nv = dofmap.mesh.n_vertices
            where = f"vertex {b}" if b < nv else f"cell {b - nv}"
            raise AssemblyError(f"mass block at {where} is not SPD") from exc
        out.append((pos, blocks))
    return out


def _matvec(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``A @ x`` written into ``out``, which is returned.

    ``A @ x`` runs ``csr_matvec`` into a zeroed array, so this is the
    same kernel on the same zeros and the bits are the same; it skips
    the public ``@``, whose Python costs about 7 us a call, a sixth of
    a step on a small mesh.
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, out)
    return out


class BlockSolver:
    """Inverse of the free-dof block ``M_FF`` of the lumped mass, or of a
    matrix with its sparsity.  Damping scales the mass by nodal values
    that commute with it, so one inverse serves every damping and every
    tau.

    The diagonal blocks of ``A`` are gathered batched by size, checked
    SPD (a run's one mass check) and inverted once; the inverses are
    scattered into one sparse matrix, so a solve is one sparse product.
    """

    def __init__(self, A: sp.csr_matrix, dofmap: DofMap):
        batches = _diagonal_blocks(A, dofmap, dofmap.block_id[dofmap.free_idx])
        self._inv = _scatter(A.shape[0],
                             ((pos, np.linalg.inv(b)) for pos, b in batches))
        # exact zeros of the inverses (the whole off-diagonal on
        # structured-quad) only cost products
        self._inv.eliminate_zeros()

    def solve(self, r: np.ndarray) -> np.ndarray:
        return _matvec(self._inv, r, np.empty(len(r)))


def _lumped_pairs(g: CellGroup) -> list[np.ndarray]:
    """Each lumped point's two nodal slots; the other slots vanish there."""
    return [np.array(g.basis.slots_at_qpoint(q))
            for q in range(len(lumped_rule(g.shape).points))]


def element_matrices(g: CellGroup) -> tuple[np.ndarray, np.ndarray]:
    """Lumped mass and stiffness (nc, dim, dim) of every cell of ``g``, the
    pencils of the stability bound; through ``g.l2g`` they sum to the
    global matrices.

    The cell mass is one 2x2 block ``w_q V V^T`` per lumped point, on the
    point's two nodal slots, V their mapped values there, and no other
    entries, so it is SPD.  The stiffness is the div-div form by the same
    rule.
    """
    points, w = g.quadrature("lumped")
    PV = g.scaled_values(points)
    M = np.zeros((g.n, g.basis.dim, g.basis.dim))
    for q, pair in enumerate(_lumped_pairs(g)):
        V = PV[:, pair, q]
        M[:, pair[:, None], pair] = (w[:, q, None, None]
                                     * np.einsum("nak,nbk->nab", V, V))
    DS = g.scaled_divergences(points)
    return M, np.einsum("np,nap,nbp->nab", w, DS, DS)


def cell_forms(dofmap: DofMap) -> list[tuple]:
    """``(M_e, K_e, inverse)`` per group: ``element_matrices`` of its
    distinct cells and the class of each cell (``CellGroup.distinct``)."""
    return [(*element_matrices(d), inverse)
            for d, inverse in (g.distinct() for g in dofmap.groups)]


def assemble_lumped_mass(dofmap: DofMap, forms=None) -> sp.csr_matrix:
    """Lumped mass: one block per mesh vertex (coupling its incident edge
    dofs) and one 2x2 block per cell, each a sum of ``w_q V V^T``, so SPD:
    w_q > 0 as detJ > 0, and V is nonsingular as ``_build_group`` refuses a
    degenerate normal trace.  ``BlockSolver`` checks the blocks it inverts,
    ``verify.check_mass_structure`` every block.  ``forms`` are
    ``cell_forms(dofmap)``, computed here if not given."""
    forms = cell_forms(dofmap) if forms is None else forms
    return _scatter(dofmap.ndof,
                    ((g.l2g[:, pair], Me[:, pair[:, None], pair][cls])
                     for g, (Me, _, cls) in zip(dofmap.groups, forms)
                     for pair in _lumped_pairs(g)))


def assemble_stiffness(dofmap: DofMap, forms=None) -> sp.csr_matrix:
    """div-div stiffness by the lumped rule; ``forms`` as for the mass.

    The lumped rule is exact here (divergences are linear per cell, so
    the integrand has degree at most 2), which the test suite
    double-checks against the oracle rule.
    """
    forms = cell_forms(dofmap) if forms is None else forms
    K = _scatter(dofmap.ndof, ((g.l2g, Ke[cls])
                               for g, (_, Ke, cls) in zip(dofmap.groups, forms)))
    # exact zeros (14% of K_FF at triangle level 3) only cost products
    K.eliminate_zeros()
    return K


# -- boundary handling --------------------------------------------------


@dataclass
class Constraint:
    """The operators of the step on the free dofs: ``K_FF``, ``M_FF``, and
    ``boundary = [K_FB | M_FB]`` on ``rows``, the free dofs coupled to a
    boundary dof."""

    K_FF: sp.csr_matrix
    M_FF: sp.csr_matrix
    rows: np.ndarray
    boundary: sp.csr_matrix


def constrain(dofmap: DofMap, mass: sp.csr_matrix,
              stiffness: sp.csr_matrix) -> Constraint:
    """Free and boundary blocks of K and M.  The mass blocks drop the
    exact zeros the lumped mass stores where two dof normals at a vertex
    are orthogonal (every ``M_FB`` entry on structured-quad); ``K`` has
    none to drop.  ``rows`` are the nonempty rows of ``[K_FB | M_FB]``."""
    free, con = dofmap.free_idx, dofmap.con_idx
    M_F = mass[free]
    M_FF, M_FB = M_F[:, free].tocsr(), M_F[:, con].tocsr()
    del M_F
    M_FF.eliminate_zeros()
    M_FB.eliminate_zeros()
    K_F = stiffness[free]
    boundary = sp.hstack([K_F[:, con], M_FB], format="csr")
    rows = np.flatnonzero(np.diff(boundary.indptr))
    return Constraint(K_FF=K_F[:, free].tocsr(), M_FF=M_FF, rows=rows,
                      boundary=boundary[rows])


# -- global interpolation and evaluation --------------------------------

def interpolate_field(dofmap: DofMap, *fields) -> np.ndarray:
    """Canonical interpolant of smooth fields: the full coefficient vector
    of one field, or one row per field of several.

    Edge dofs come from the linear L2 fit of the normal trace on each
    edge (hence they match the edge moments of each field exactly up to
    quadrature), interior dofs from matching componentwise cell
    averages.  Edge moments use 12 Gauss points, cell averages the
    degree-12 oracle rule.  The fields share every point map and matrix.

    Points are mapped and the fields sampled CELL_CHUNK edges, or cells
    of a group, at a time.  The moments stay whole-mesh products (a BLAS
    product's last bits can depend on its length), and every other
    output is per edge or per cell, so neither the chunk size nor the
    number of fields changes a bit.
    """
    mesh = dofmap.mesh
    coeffs = np.zeros((len(fields), dofmap.ndof))
    nrm = mesh.edge_normals()
    s, w = gauss_01(12)
    E = mesh.n_edges
    un = np.empty((len(fields), E, len(s)))  # normal traces at the points
    for start in range(0, E, CELL_CHUNK):
        chunk = slice(start, start + CELL_CHUNK)
        lo, hi = (mesh.vertices[mesh.edges[chunk, k]] for k in (0, 1))
        pts = lo[:, None, :] + s[None, :, None] * (hi - lo)[:, None, :]
        for k, u in enumerate(fields):
            un[k, chunk] = _dot2(field_at(u, pts), nrm[chunk, None])
    for k, c in enumerate(coeffs):
        m0 = un[k] @ w
        un[k] *= s
        m1 = un[k] @ w
        c[0:2 * E:2] = 4.0 * m0 - 6.0 * m1
        c[1:2 * E:2] = -2.0 * m0 + 6.0 * m1
    del un

    for group in dofmap.groups:
        rule = oracle_rule(group.shape, 12)
        ref = oracle_rule(group.shape)
        refI = np.einsum("m,dmk->dk", ref.weights,
                         group.basis.values(ref.points))  # (dim, 2) integrals
        dim = group.basis.dim
        edge_slots = np.arange(dim - 2)
        for g in group.chunks(CELL_CHUNK):
            x = g.phys_points(rule.points)
            G = np.einsum("nij,kj->nik", g.J, refI[dim - 2:dim])
            for c, u in zip(coeffs, fields):
                # reference weights, then detJ: pre-weighting rounds differently
                Iu = np.einsum("m,nmk->nk", rule.weights,
                               field_at(u, x)) * g.detJ[:, None]
                C_edge = c[g.l2g[:, edge_slots]] * g.scale[:, edge_slots]
                Iu -= np.einsum("ne,nij,ej->ni", C_edge, g.J, refI[edge_slots])
                cb = np.linalg.solve(G, Iu[:, :, None])[:, :, 0]
                c[g.l2g[:, dim - 2]] = cb[:, 0]
                c[g.l2g[:, dim - 1]] = cb[:, 1]
    return coeffs[0] if len(fields) == 1 else coeffs


def snapshot_grid(n: int = 100) -> np.ndarray:
    """Cell-centered uniform sample grid on the unit square, row-major in y:
    point ``iy * n + ix`` is ``((ix + 0.5) / n, (iy + 0.5) / n)``."""
    c = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(c, c)
    return np.column_stack([X.ravel(), Y.ravel()])


def build_sampler(dofmap: DofMap, n: int) -> sp.csr_matrix:
    """Sparse operator mapping coefficients to the first component of the
    field at the points of ``snapshot_grid(n)``, the one snapshots record.

    Each sample point belongs to the first cell containing it, taking the
    groups in ``dofmap.groups`` order (triangles before parallelograms)
    and ascending cell ids within a group; points outside the mesh raise.
    A cell's candidate points are the grid indices inside its bounding
    box, with one index of slack on each side; a candidate's box is
    tested before its point is mapped to the reference cell.
    """
    verts = dofmap.mesh.vertices
    pts = snapshot_grid(n)
    tol = 1e-10
    owned = np.zeros(len(pts), dtype=bool)
    rows, cols, vals = [], [], []
    for g in dofmap.groups:
        lo = verts[g.vids].min(axis=1) - tol
        hi = verts[g.vids].max(axis=1) + tol
        # grid index range [first, stop) per axis: point i lies in the box
        # from ceil(lo n - 1/2) to floor(hi n - 1/2); floor and ceil swapped
        # give one index of slack for round-off.  Clipped before the cast,
        # so that far-out boxes cannot overflow.
        first = np.clip(np.floor(lo * n - 0.5), 0, n).astype(int)
        stop = np.clip(np.ceil(hi * n - 0.5) + 1, 0, n).astype(int)
        nx, ny = (stop - first).T
        cnt = nx * ny
        c = np.repeat(np.arange(g.n), cnt)
        j = np.arange(len(c)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        p = (first[c, 1] + j // nx[c]) * n + first[c, 0] + j % nx[c]
        keep = ~owned[p]
        for k in (0, 1):  # by column: 2-d gathers and axis-1 all() are 10x slower
            keep &= (lo[c, k] <= pts[p, k]) & (pts[p, k] <= hi[c, k])
        c, p = c[keep], p[keep]
        r = _times_J(np.linalg.inv(g.J)[c], pts[p] - g.b[c])
        if g.shape == TRIANGLE:
            ok = (r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(axis=1) <= 1 + tol)
        else:
            ok = np.all((r >= -tol) & (r <= 1 + tol), axis=1)
        # a point on several cells goes to the lowest one
        hit = np.flatnonzero(ok)[np.lexsort((c[ok], p[ok]))]
        hit = hit[np.unique(p[hit], return_index=True)[1]]
        c, p = c[hit], p[hit]
        owned[p] = True
        # the first row of the Piola map (dim, m), as _times_J forms it
        pv = _dot2(g.J[c, 0], g.basis.values(r[hit])) / g.detJ[c] * g.scale[c].T
        rows.append(np.tile(p.astype(np.int32), g.basis.dim))
        cols.append(g.l2g[c].T.ravel().astype(np.int32))
        vals.append(pv.ravel())
    if not owned.all():
        raise AssemblyError(f"{np.sum(~owned)} of {len(pts)} sample points "
                            "outside the mesh")
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(pts), dofmap.ndof)).tocsr()
