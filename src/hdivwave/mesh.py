"""Hybrid triangle/parallelogram meshes with oriented edge topology.

A mesh stores vertices, counterclockwise cells of three or four
vertices, and derived edge tables.  Edges are undirected vertex pairs
``(lo, hi)`` with ``lo < hi``; the global edge normal is the unit vector
from lo to hi rotated 90 degrees clockwise.  Each cell records its
incident edges together with a sign telling whether the cell's outward
normal on that edge agrees with the global normal.

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


class MeshError(RuntimeError):
    pass


@dataclass(frozen=True)
class MeshFamily:
    """A refinement family: generator kind plus fixed build parameters.

    ``base_divisions`` sets the number of cells per axis at level 0, so
    the nominal mesh size at level ``l`` is ``width / (base_divisions *
    2**l)``.  ``perturbation`` p (fraction of h, only for the perturbed
    kind) lies in [0, sqrt(2)/4), which keeps every cell valid on a
    square box: each vertex moves less than p*h < h/(2 sqrt 2), and three
    points that each moved less than half a triangle's smallest width
    (h/sqrt 2 for a grid triangle) cannot become collinear.
    """

    kind: str
    box: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
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

    def h_at(self, level: int) -> float:
        x0, y0, x1, y1 = self.box
        return max(x1 - x0, y1 - y0) / (self.base_divisions * 2 ** level)


class HybridMesh:
    """Immutable conforming mesh of triangles and/or parallelograms.

    Parameters
    ----------
    vertices : (n, 2) float array
    cells : sequence of vertex-index tuples, length 3 (triangle) or
        4 (parallelogram), counterclockwise
    h_nominal : optional nominal mesh size carried along for reporting
    """

    def __init__(self, vertices, cells, h_nominal: float | None = None,
                 validate: bool = True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has non-finite coordinates "
                            f"{tuple(self.vertices[bad[0]].tolist())}")
        self.cells = [tuple(int(v) for v in c) for c in cells]
        self.h_nominal = h_nominal
        self._build_topology()
        if validate:
            self._validate()
        self.vertices.setflags(write=False)
        self.edges.setflags(write=False)

    # -- topology ------------------------------------------------------

    def _build_topology(self):
        nv = len(self.vertices)
        edge_ids: dict[tuple[int, int], int] = {}
        edge_cells: list[list[int]] = []
        cell_edges: list[list[tuple[int, int]]] = []
        for ci, cell in enumerate(self.cells):
            k = len(cell)
            if k not in (3, 4):
                raise MeshError(f"cell {ci} has {k} vertices; only 3 or 4 supported")
            if any(v < 0 or v >= nv for v in cell):
                raise MeshError(f"cell {ci} references a vertex out of range")
            entry = []
            for a, b in zip(cell, cell[1:] + cell[:1]):
                lo, hi = (a, b) if a < b else (b, a)
                eid = edge_ids.setdefault((lo, hi), len(edge_ids))
                if eid == len(edge_cells):
                    edge_cells.append([])
                edge_cells[eid].append(ci)
                sign = 1 if a == lo else -1
                entry.append((eid, sign))
            cell_edges.append(entry)
        for eid, owners in enumerate(edge_cells):
            if len(owners) > 2:
                lo, hi = next(k for k, v in edge_ids.items() if v == eid)
                raise MeshError(
                    f"non-manifold edge ({lo}, {hi}) shared by {len(owners)} cells")
        self.edges = np.array(sorted(edge_ids, key=edge_ids.get), dtype=int)
        if len(self.edges) == 0:
            raise MeshError("mesh has no cells")
        self.cell_edges = cell_edges
        self.edge_cells = edge_cells
        self.boundary_edges = np.array(
            [eid for eid, owners in enumerate(edge_cells) if len(owners) == 1],
            dtype=int)
        self.vertex_edges = [[] for _ in range(nv)]
        for eid, (lo, hi) in enumerate(self.edges):
            self.vertex_edges[lo].append(eid)
            self.vertex_edges[hi].append(eid)

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

    def _shape_groups(self):
        """Cell ids and their (n, k, 2) vertex coordinates, per cell size k."""
        for ids in (self.triangle_ids(), self.quad_ids()):
            if ids:
                ids = np.array(ids)
                yield ids, self.vertices[np.array([self.cells[c] for c in ids])]

    def cell_diameters(self) -> np.ndarray:
        """Largest vertex-to-vertex distance of every cell, (n_cells,)."""
        out = np.empty(self.n_cells)
        for ids, v in self._shape_groups():
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

    def triangle_ids(self) -> list[int]:
        return [i for i, c in enumerate(self.cells) if len(c) == 3]

    def quad_ids(self) -> list[int]:
        return [i for i, c in enumerate(self.cells) if len(c) == 4]

    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.edges[self.boundary_edges].ravel())

    def h_effective(self) -> float:
        """Stored nominal h, or the largest edge length as a stand-in."""
        if self.h_nominal is not None:
            return self.h_nominal
        return float(self.edge_lengths().max())

    # -- validation ----------------------------------------------------

    def _validate(self):
        area = np.empty(self.n_cells)
        closure = np.zeros(self.n_cells)
        for ids, v in self._shape_groups():
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
        if len(bad) == 0:
            return
        ci = bad[0]
        if flat[ci]:
            raise MeshError(f"cell {ci} has non-positive area {area[ci]:.3e}")
        raise MeshError(f"cell {ci} is not a parallelogram "
                        f"(closure defect {closure[ci]:.3e})")


# -- structured generators ---------------------------------------------


def _grid(box, n):
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = lambda i, j: j * (n + 1) + i
    return verts, vid


def _structured_quad(box, n):
    verts, vid = _grid(box, n)
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return verts, cells


def _structured_triangle(box, n):
    verts, vid = _grid(box, n)
    cells = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append((a, b, c))
            cells.append((a, c, d))
    return verts, cells


def _hybrid(box, n):
    verts, vid = _grid(box, n)
    cells = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if i < n // 2:
                cells.append((a, b, c, d))
            else:
                cells.append((a, b, c))
                cells.append((a, c, d))
    return verts, cells


def generate(family: MeshFamily, level: int) -> HybridMesh:
    """Build the mesh of a family at a refinement level."""
    if level < 0:
        raise MeshError("refinement level must be non-negative")
    n = family.base_divisions * 2 ** level
    h = family.h_at(level)
    if family.kind == "structured-quad":
        verts, cells = _structured_quad(family.box, n)
    elif family.kind == "structured-triangle":
        verts, cells = _structured_triangle(family.box, n)
    elif family.kind == "hybrid":
        verts, cells = _hybrid(family.box, n)
    elif family.kind == "perturbed":
        verts, cells = _structured_triangle(family.box, n)
        # vertex j * (n + 1) + i is interior unless i or j is 0 or n
        inner = (np.arange(n + 1) > 0) & (np.arange(n + 1) < n)
        interior = np.flatnonzero(np.outer(inner, inner))
        rng = np.random.default_rng(1_000_003 * family.seed + level)
        # uniform in the disc so the displacement itself stays <= p*h
        radius = family.perturbation * h * np.sqrt(rng.random(len(interior)))
        angle = rng.uniform(0.0, 2.0 * np.pi, len(interior))
        verts = verts.copy()
        verts[interior] += radius[:, None] * np.column_stack(
            [np.cos(angle), np.sin(angle)])
    else:  # pragma: no cover - guarded by MeshFamily
        raise MeshError(f"unknown family kind {family.kind!r}")
    return HybridMesh(verts, cells, h_nominal=h)


# -- plain-text mesh files ---------------------------------------------


def save_mesh(mesh: HybridMesh, path) -> None:
    """Write a mesh in the plain-text format (header, vertices, cells)."""
    lines = [f"vertices {mesh.n_vertices} cells {mesh.n_cells}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for cell in mesh.cells:
        tag = "tri" if len(cell) == 3 else "quad"
        lines.append(tag + " " + " ".join(str(int(v)) for v in cell))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_mesh(path) -> HybridMesh:
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    head = lines[0][1].split()
    if (len(head) != 4 or head[0] != "vertices" or head[2] != "cells"
            or not (head[1].isdigit() and head[3].isdigit())):
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
    cells = []
    for i, ln in lines[1 + nv:]:
        parts = ln.split()
        if ({"tri": 4, "quad": 5}.get(parts[0]) != len(parts)
                or not all(p.isdigit() for p in parts[1:])):
            raise MeshError(f"{path}:{i}: bad cell line {ln!r}")
        cells.append(tuple(int(p) for p in parts[1:]))
    return HybridMesh(np.array(verts).reshape(-1, 2), cells)
