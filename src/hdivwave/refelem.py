"""Reference H(div) elements with quadrature-nodal bases.

Triangles carry the 8-dimensional Raviart-Thomas space of second order,
parallelograms a 10-dimensional BDFM-type space.  Both are spanned by a
nodal basis tied to the lumped quadrature points: every basis function
is nonzero at exactly one quadrature point (a vertex for the edge
functions, the midpoint for the two interior bubbles), so the lumped
mass matrix of a cell decomposes into 2x2 blocks.

Edge basis functions have a linear normal trace supported on a single
edge; the bubbles have vanishing normal trace everywhere.  Cells are
mapped affinely and fields are pushed forward with the contravariant
Piola transform (``assembly.CellGroup``), which preserves both
properties.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QUAD, TRIANGLE

__all__ = ["BasisSlot", "ReferenceBasis", "reference_basis"]


@dataclass(frozen=True)
class BasisSlot:
    """Bookkeeping for one basis function.

    Edge slots record the local edge (pair of local vertex indices, in
    traversal order of the trace parametrization) and which endpoint the
    function is nodal at.  ``qpoint`` indexes the lumped rule point the
    function is nonzero at (0 = midpoint, 1+i = vertex i).
    """

    index: int
    kind: str                      # "edge" or "interior"
    edge: tuple[int, int] | None   # local vertex pair, None for bubbles
    endpoint: int | None           # local vertex index, None for bubbles
    qpoint: int


def _slots(edges: list[tuple[int, int]]) -> tuple[BasisSlot, ...]:
    """Two slots per local edge, nodal at its endpoints in order, then
    the two interior bubbles, nodal at the midpoint."""
    meta = [("edge", e, v, 1 + v) for e in edges for v in e]
    meta += [("interior", None, None, 0)] * 2
    return tuple(BasisSlot(i, *m) for i, m in enumerate(meta))


def _tri_values(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    z = np.zeros_like(x)
    B1 = np.stack([x - x * x, -x * y], axis=-1)
    B2 = np.stack([x * y, y * y - y], axis=-1)
    lam1, lam2, lam3 = 1.0 - x - y, x, y
    # perp-gradients of the barycentric coordinates: (d/dy, -d/dx)
    r1 = np.stack([-np.ones_like(x), np.ones_like(x)], axis=-1)
    r2 = np.stack([z, -np.ones_like(x)], axis=-1)
    r3 = np.stack([np.ones_like(x), z], axis=-1)
    v = np.empty((8, len(x), 2))
    v[0] = lam1[:, None] * r2 + B1 - 2 * B2
    v[1] = lam2[:, None] * r1 + B1 + B2
    v[2] = lam2[:, None] * r3 - 2 * B1 + B2
    v[3] = lam3[:, None] * r2 + B1 - 2 * B2
    v[4] = lam1[:, None] * r3 - 2 * B1 + B2
    v[5] = lam3[:, None] * r1 + B1 + B2
    v[6] = B1
    v[7] = B2
    return v


def _tri_divs(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([
        4.0 - 3.0 * x - 6.0 * y,
        3.0 * y - 3.0 * x - 1.0,
        6.0 * x + 3.0 * y - 2.0,
        2.0 - 3.0 * x - 6.0 * y,
        6.0 * x + 3.0 * y - 4.0,
        1.0 - 3.0 * x + 3.0 * y,
        1.0 - 3.0 * x,
        3.0 * y - 1.0,
    ])


def _quad_values(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    z = np.zeros_like(x)
    bx = x - x * x          # horizontal bubble, x-component
    by = y * y - y          # vertical bubble, y-component
    v = np.empty((10, len(x), 2))
    v[0] = np.stack([x * (x - y), z], axis=-1)
    v[1] = np.stack([x * y - x + x * x, z], axis=-1)
    v[2] = np.stack([z, x * y + y * y - y], axis=-1)
    v[3] = np.stack([z, y * (y - x)], axis=-1)
    v[4] = np.stack([x - x * x - y + x * y, z], axis=-1)
    v[5] = np.stack([2.0 * x + y - x * y - x * x - 1.0, z], axis=-1)
    v[6] = np.stack([z, x + 2.0 * y - x * y - y * y - 1.0], axis=-1)
    v[7] = np.stack([z, y - x + x * y - y * y], axis=-1)
    v[8] = np.stack([bx, z], axis=-1)
    v[9] = np.stack([z, by], axis=-1)
    return v


def _quad_divs(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([
        2.0 * x - y,
        2.0 * x + y - 1.0,
        x + 2.0 * y - 1.0,
        2.0 * y - x,
        1.0 - 2.0 * x + y,
        2.0 - 2.0 * x - y,
        2.0 - x - 2.0 * y,
        1.0 + x - 2.0 * y,
        1.0 - 2.0 * x,
        2.0 * y - 1.0,
    ])


@dataclass(frozen=True)
class ReferenceBasis:
    shape: str
    dim: int
    slots: tuple[BasisSlot, ...]

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Basis values at reference points; shape (dim, npts, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _tri_values(pts) if self.shape == TRIANGLE else _quad_values(pts)

    def divergences(self, pts: np.ndarray) -> np.ndarray:
        """Reference divergences at reference points; shape (dim, npts)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _tri_divs(pts) if self.shape == TRIANGLE else _quad_divs(pts)

    def slots_at_qpoint(self, qpoint: int) -> tuple[int, int]:
        pair = tuple(s.index for s in self.slots if s.qpoint == qpoint)
        assert len(pair) == 2
        return pair  # type: ignore[return-value]


@lru_cache(maxsize=None)
def reference_basis(shape: str) -> ReferenceBasis:
    if shape == TRIANGLE:
        return ReferenceBasis(TRIANGLE, 8, _slots([(0, 1), (1, 2), (0, 2)]))
    if shape == QUAD:
        return ReferenceBasis(QUAD, 10,
                              _slots([(1, 2), (2, 3), (3, 0), (0, 1)]))
    raise ValueError(f"unknown shape {shape!r}")
