"""Hybrid triangle/parallelogram meshes with oriented edge topology.

A mesh stores vertices, counterclockwise cells of three or four vertices
and derived edge tables as numpy arrays.  Cells form one ``(n_cells, 4)``
integer array, padded: column 3 is -1 for a triangle.  Only this module
reads that layout; the package takes cells per shape from
``HybridMesh.shape_groups()`` as cell ids, vertex ids and edge ids.

Edges are undirected vertex pairs ``(lo, hi)`` with ``lo < hi``, numbered
by first appearance as the cells are walked in order (dof numbering and
every output depend on it); the global edge normal is the unit vector
from lo to hi rotated 90 degrees clockwise.  Each cell records its
incident edges; its outward normal on one agrees with the global normal
exactly where the cell runs along it from lo to hi.

Structured generator families produce nested refinements with nominal
mesh size halving per level; the perturbed family jitters interior
vertices of a triangle mesh to break nestedness between levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("structured-triangle", "structured-quad", "hybrid", "perturbed")
MAX_PERTURBATION = np.sqrt(2.0) / 4.0
# below this, squared distances and shoelace sums of vertices stay finite
MAX_COORDINATE = np.sqrt(np.finfo(float).max / 8.0)
# most cells a generated mesh may have: a run peaks at about 3.2 kB per
# cell over the 51 MB its imports take (structured-triangle, base 8: 163 MB
# at level 4, 469-491 MB at level 5, 1,735 MB at level 6), so the cap needs
# about 3.4 GB, and the next level, with four times the cells, about 13.5 GB
MAX_CELLS = 2**20


class MeshError(RuntimeError):
    pass


@dataclass(frozen=True)
class MeshFamily:
    """A refinement family: generator kind plus fixed build parameters.

    Every family meshes the unit square.  ``base_divisions`` sets the
    number of squares per axis at level 0, so the nominal mesh size at
    level ``l`` is ``1 / (base_divisions * 2**l)``.  ``perturbation`` p
    (fraction of h, only for the perturbed kind) lies in [0, sqrt(2)/4),
    which keeps every cell valid: each vertex moves less than p*h <
    h/(2 sqrt 2), and three points that each moved less than half a
    triangle's smallest width (h/sqrt 2 for a grid triangle) cannot
    become collinear.  ``seed`` (perturbed kind only) must be >= 0.
    """

    kind: str
    base_divisions: int = 2
    perturbation: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise MeshError(f"unknown mesh family {self.kind!r}; pick one of {FAMILIES}")
        if self.base_divisions < 1:
            raise MeshError("base_divisions must be at least 1")
        if self.kind == "perturbed" and not 0.0 <= self.perturbation < MAX_PERTURBATION:
            raise MeshError(
                f"perturbation {self.perturbation} out of range; must be in "
                f"[0, sqrt(2)/4 = {MAX_PERTURBATION:.4f})")
        if self.kind == "perturbed" and self.seed < 0:
            raise MeshError(f"seed {self.seed} out of range; the perturbed "
                            "family needs a seed >= 0")

    def h_at(self, level: int) -> float:
        return 1.0 / (self.base_divisions * 2 ** level)


class HybridMesh:
    """Immutable conforming mesh of triangles and/or parallelograms.

    Parameters
    ----------
    vertices : (n, 2) float array
    cells : (n_cells, 4) integer array of counterclockwise vertex ids;
        column 3 is -1 for a triangle
    h_nominal : optional nominal mesh size carried along for reporting

    Derived arrays: ``edges`` (n_edges, 2) as ``(lo, hi)``;
    ``cell_edges`` (n_cells, 4), where local edge j runs from vertex j to
    the next vertex of the cell (-1 in a triangle's column 3), so it is
    traversed forward where ``cells == edges[cell_edges, 0]``;
    ``boundary_edges``, the ascending ids of edges with one cell.  Read
    cells per shape through ``shape_groups()``.
    """

    def __init__(self, vertices, cells, h_nominal: float | None = None):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        bad = np.flatnonzero(~(np.abs(self.vertices) < MAX_COORDINATE).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has non-finite or too large "
                            f"coordinates {tuple(self.vertices[bad[0]].tolist())}")
        self.cells = np.array(cells, dtype=int)
        if self.cells.ndim != 2 or self.cells.shape[1] != 4:
            raise MeshError("cells must be an (n, 4) array, -1 padded")
        self.h_nominal = h_nominal
        self._build_topology()
        self._validate()
        for a in (self.vertices, self.cells, self.edges, self.cell_edges,
                  self.boundary_edges):
            a.setflags(write=False)

    # -- topology ------------------------------------------------------

    def _build_topology(self):
        cells, nv = self.cells, self.n_vertices
        tri = cells[:, 3] < 0
        bad = np.flatnonzero((cells[:, :3] < 0).any(axis=1)
                             | (cells >= nv).any(axis=1) | (cells[:, 3] < -1))
        if len(bad):
            raise MeshError(f"cell {bad[0]} references a vertex out of range")
        if len(cells) == 0:
            raise MeshError("mesh has no cells")
        # (cell, local edge) pairs in cell-major order; local edge j runs
        # from vertex j to the next vertex around the cell
        real = cells >= 0
        nxt = np.where(tri[:, None], cells[:, [1, 2, 0, 0]], cells[:, [1, 2, 3, 0]])
        a, b = cells[real], nxt[real]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inverse = np.unique(lo * nv + hi, return_index=True,
                                      return_inverse=True)
        # renumber edges by first appearance
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        eid = rank[inverse]
        first = np.sort(first)
        self.edges = np.column_stack([lo[first], hi[first]])
        owners = np.bincount(eid)
        crowded = np.flatnonzero(owners > 2)
        if len(crowded):
            e = crowded[0]
            raise MeshError(f"non-manifold edge {tuple(self.edges[e].tolist())} "
                            f"shared by {owners[e]} cells")
        self.boundary_edges = np.flatnonzero(owners == 1)
        self.cell_edges = np.full(cells.shape, -1)
        self.cell_edges[real] = eid

    def shape_groups(self):
        """``(cell_ids, vids, edge_ids)`` per cell size k with cells,
        triangles (k = 3) first; ``vids`` and ``edge_ids`` are (n, k), and
        local edge j runs from ``vids[:, j]`` to the next vertex."""
        tri = self.cells[:, 3] < 0
        for k, ids in ((3, np.flatnonzero(tri)), (4, np.flatnonzero(~tri))):
            if len(ids):
                yield ids, self.cells[ids, :k], self.cell_edges[ids, :k]

    # -- derived geometry ----------------------------------------------

    def edge_vectors(self) -> np.ndarray:
        return self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]

    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.edge_vectors(), axis=1)

    def edge_normals(self) -> np.ndarray:
        """Global unit normals: lo->hi tangent rotated 90 deg clockwise."""
        t = self.edge_vectors()
        t = t / np.linalg.norm(t, axis=1, keepdims=True)
        return np.column_stack([t[:, 1], -t[:, 0]])

    def cell_diameters(self) -> np.ndarray:
        """Largest vertex-to-vertex distance of every cell, (n_cells,)."""
        out = np.empty(self.n_cells)
        for ids, vids, _ in self.shape_groups():
            v = self.vertices[vids]
            out[ids] = np.linalg.norm(v[:, :, None] - v[:, None, :],
                                      axis=-1).max(axis=(1, 2))
        return out

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def h_effective(self) -> float:
        """Stored nominal h, or the largest edge length as a stand-in."""
        if self.h_nominal is not None:
            return self.h_nominal
        return float(self.edge_lengths().max())

    # -- validation ----------------------------------------------------

    def _validate(self):
        """Reject, naming the first offender, a cell that is not
        counterclockwise or not a parallelogram, repeated vertices, cells
        overlapping along an edge, and hanging nodes or gaps."""
        area = np.empty(self.n_cells)
        closure = np.zeros(self.n_cells)
        for ids, vids, _ in self.shape_groups():
            v = self.vertices[vids]
            x, y = v[:, :, 0], v[:, :, 1]
            # shoelace formula; positive for counterclockwise cells
            area[ids] = 0.5 * (np.sum(x * np.roll(y, -1, axis=1), axis=1)
                               - np.sum(y * np.roll(x, -1, axis=1), axis=1))
            if v.shape[1] == 4:
                closure[ids] = np.linalg.norm(
                    v[:, 0] - v[:, 1] + v[:, 2] - v[:, 3], axis=1)
        flat = area <= 0.0
        skew = closure > 1e-12 * self.cell_diameters()
        bad = np.flatnonzero(flat | skew)
        if len(bad):
            ci = bad[0]
            if flat[ci]:
                raise MeshError(f"cell {ci} has non-positive area {area[ci]:.3e}")
            raise MeshError(f"cell {ci} is not a parallelogram "
                            f"(closure defect {closure[ci]:.3e})")

        order = np.lexsort((self.vertices[:, 1], self.vertices[:, 0]))
        same = np.flatnonzero(
            (np.diff(self.vertices[order], axis=0) == 0).all(axis=1))
        if len(same):
            a, b = sorted(order[same[0]:same[0] + 2])
            raise MeshError(f"vertices {a} and {b} share the coordinates "
                            f"{tuple(self.vertices[a].tolist())}")

        # two cells on one edge must traverse it in opposite directions
        real = self.cell_edges >= 0
        eids = self.cell_edges[real]
        forward = self.cells[real] == self.edges[eids, 0]
        flow = np.bincount(eids, weights=np.where(forward, 1, -1))
        flow[self.boundary_edges] = 0.0
        bad = np.flatnonzero(flow)
        if len(bad):
            e = bad[0]
            c = np.flatnonzero((self.cell_edges == e).any(axis=1))
            raise MeshError(f"cells {c[0]} and {c[-1]} traverse edge "
                            f"{tuple(self.edges[e].tolist())} in the same "
                            "direction: duplicated or overlapping cells")

        # a connected planar mesh with b boundary loops has V - E + F = 2 - b
        # (V counts the vertices of cells)
        bnd = self.edges[self.boundary_edges]
        loops = len(np.unique(_components(self.n_vertices, *bnd.T)[bnd]))
        chi = len(np.unique(self.edges)) - self.n_edges + self.n_cells
        if chi != 2 - loops:
            raise MeshError(f"non-conforming mesh (hanging node or gap): "
                            f"V - E + F = {chi}, but {loops} boundary "
                            f"loop(s) need {2 - loops}")


def _components(n, u, v):
    """Smallest vertex id in the component of each of n vertices, for the
    graph with edges (u, v): hook roots onto smaller roots, then jump."""
    label = np.arange(n)
    while True:
        a, b = label[u], label[v]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while (label[label] != label).any():
            label = label[label]
        if (label[u] == label[v]).all():
            return label


# -- structured generators ---------------------------------------------


def _grid(n, quad_columns):
    """Vertices and cells of an n x n grid on the unit square, squares in
    row-major order: a parallelogram (a, b, c, d) in squares of column
    i < quad_columns, else the triangles (a, b, c) and (a, c, d),
    counterclockwise from the lower-left corner a."""
    ticks = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(ticks, ticks)
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, c, d, pad = a + 1, a + n + 2, a + n + 1, np.full_like(a, -1)
    quad = i < quad_columns
    pairs = np.column_stack([a, b, c, np.where(quad, d, -1), a, c, d, pad])
    keep = np.column_stack([np.ones_like(quad), ~quad]).ravel()
    return np.column_stack([X.ravel(), Y.ravel()]), pairs.reshape(-1, 4)[keep]


def grid_size(family: MeshFamily, level: int) -> tuple[int, int]:
    """Grid divisions per axis and quad columns of a family's mesh at a
    level; MeshError for a negative level or one over the cell cap."""
    if level < 0:
        raise MeshError("refinement level must be non-negative")
    # a level has at least 4**level cells, so one above the cap's bit
    # length is refused without forming 2**level
    n = family.base_divisions * 2 ** min(level, MAX_CELLS.bit_length())
    quad_columns = {"structured-quad": n, "hybrid": n // 2}.get(family.kind, 0)
    if n * (2 * n - quad_columns) > MAX_CELLS:
        raise MeshError(f"{family.kind} level {level} at base "
                        f"{family.base_divisions} has more than the cap of "
                        f"{MAX_CELLS:,} cells")
    return n, quad_columns


def generate(family: MeshFamily, level: int) -> HybridMesh:
    """Build the mesh of a family at a refinement level."""
    n, quad_columns = grid_size(family, level)
    h = family.h_at(level)
    verts, cells = _grid(n, quad_columns)
    if family.kind == "perturbed":
        # vertex j * (n + 1) + i is interior unless i or j is 0 or n
        inner = (np.arange(n + 1) > 0) & (np.arange(n + 1) < n)
        interior = np.flatnonzero(np.outer(inner, inner))
        rng = np.random.default_rng(1_000_003 * family.seed + level)
        # uniform in the disc so the displacement itself stays <= p*h
        radius = family.perturbation * h * np.sqrt(rng.random(len(interior)))
        angle = rng.uniform(0.0, 2.0 * np.pi, len(interior))
        verts[interior] += radius[:, None] * np.column_stack(
            [np.cos(angle), np.sin(angle)])
    return HybridMesh(verts, cells, h_nominal=h)


# -- plain-text mesh files ---------------------------------------------


def save_mesh(mesh: HybridMesh, path) -> None:
    """Write a mesh in the plain-text format (header, vertices, cells)."""
    xy = list(map(repr, mesh.vertices.ravel().tolist()))
    lines = [f"vertices {mesh.n_vertices} cells {mesh.n_cells}"]
    lines += map(" ".join, zip(xy[0::2], xy[1::2]))
    lines += ["quad %d %d %d %d" % tuple(c) if c[3] >= 0
              else "tri %d %d %d" % tuple(c[:3]) for c in mesh.cells.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_mesh(path) -> HybridMesh:
    """Read a mesh in the plain-text format written by ``save_mesh``.

    The one reader of mesh files.  It parses one line at a time, skips
    blank lines and raises MeshError naming the first bad line as
    ``file:line``.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    head = lines[0][1].split()
    if (len(head) != 4 or head[0] != "vertices" or head[2] != "cells"
            or not (head[1].isdecimal() and head[3].isdecimal())):
        raise MeshError(f"bad mesh header: {lines[0][1]!r}")
    nv, nc = int(head[1]), int(head[3])
    if len(lines) != 1 + nv + nc:
        raise MeshError(f"expected {1 + nv + nc} lines, found {len(lines)}")
    verts = []
    for i, ln in lines[1:1 + nv]:
        try:
            x, y = (float(t) for t in ln.split())
        except ValueError:
            raise MeshError(f"{path}:{i}: bad vertex line {ln!r}") from None
        verts.append((x, y))
    cells = np.full((nc, 4), -1)
    for row, (i, ln) in enumerate(lines[1 + nv:]):
        parts = ln.split()
        if ({"tri": 4, "quad": 5}.get(parts[0]) != len(parts)
                or not all(p.isdecimal() for p in parts[1:])):
            raise MeshError(f"{path}:{i}: bad cell line {ln!r}")
        ids = [int(p) for p in parts[1:]]
        if max(ids) >= nv:
            raise MeshError(f"{path}:{i}: vertex index out of range in {ln!r}")
        cells[row, :len(ids)] = ids
    return HybridMesh(np.array(verts).reshape(-1, 2), cells)
