"""Quadrature rules on the reference triangle and reference square.

Every rule is a ``QuadRule``: points and weights on the reference cell.
The lumped rule evaluates at the cell midpoint and the vertices with
weights chosen so that the rule is exact for polynomials up to degree 2
(triangle) resp. 3 (parallelogram); it is what makes the mass matrix
block-diagonal.  The oracle rules are conventional high-order rules used
as an independent integrator in tests and error norms; the tests prove
their exactness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TRIANGLE = "triangle"
QUAD = "quad"
SHAPES = (TRIANGLE, QUAD)

# Reference cells: unit triangle (0,0)-(1,0)-(0,1), unit square [0,1]^2
# with vertices ordered counterclockwise from the origin.
REF_VERTICES = {
    TRIANGLE: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    QUAD: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
}
REF_AREA = {TRIANGLE: 0.5, QUAD: 1.0}
REF_MIDPOINT = {
    TRIANGLE: np.array([1.0 / 3.0, 1.0 / 3.0]),
    QUAD: np.array([0.5, 0.5]),
}

# Vertex weight as a fraction of |K|, shared by both shapes; the midpoint
# weight 1 - n_vertices/12 makes the fractions sum to one.
LUMPED_BETA = 1.0 / 12.0

# Degree up to which the lumped rule integrates exactly (affine images).
LUMPED_EXACT_DEGREE = {TRIANGLE: 2, QUAD: 3}


def exact_ref_integral(shape: str, a: int, b: int) -> float:
    """Closed-form integral of x^a y^b over the reference cell."""
    if shape == TRIANGLE:
        return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    if shape == QUAD:
        return 1.0 / ((a + 1) * (b + 1))
    raise ValueError(f"unknown shape {shape!r}")


@dataclass(frozen=True)
class QuadRule:
    """Points (n, 2) and weights (n,) on a reference cell, read-only as
    the rules are cached.

    Weights integrate over the reference cell; a cell of Jacobian
    determinant detJ scales them by detJ.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate_ref(self, f) -> float:
        return float(self.weights @ np.asarray(f(self.points), dtype=float))


@lru_cache(maxsize=None)
def lumped_rule(shape: str, beta: float | None = None) -> QuadRule:
    """The lumped rule for a shape, built once per (shape, beta); its
    weights are fractions of |K| times the reference area.

    ``beta`` overrides the vertex weight ``LUMPED_BETA``; this exists
    purely as a debug knob so the verification suite can demonstrate
    that the exactness checks actually bite.  The midpoint weight is
    renormalized to keep constants exact, so a wrong beta surfaces at
    degree 2.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    if beta is None:
        beta = LUMPED_BETA
    verts = REF_VERTICES[shape]
    pts = np.vstack([REF_MIDPOINT[shape], verts])
    w = np.full(len(pts), beta)
    w[0] = 1.0 - len(verts) * beta
    return QuadRule(pts, w * REF_AREA[shape])


@lru_cache(maxsize=None)
def gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    pts, wts = 0.5 * (x + 1.0), 0.5 * w
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


# Symmetric 12-point triangle rule of degree 6 (three orbits, positive
# weights; weights below are relative to the triangle area).
_TRI6_ORBITS = [
    (0.873821971016996, 0.063089014491502, 0.050844906370207),
    (0.501426509658179, 0.249286745170910, 0.116786275726379),
]
_TRI6_ASYM = (0.636502499121399, 0.310352451033785, 0.053145049844816,
              0.082851075618374)


def _triangle_rule_deg6() -> tuple[np.ndarray, np.ndarray]:
    pts, wts = [], []
    for a, b, w in _TRI6_ORBITS:
        for bary in ((a, b, b), (b, a, b), (b, b, a)):
            pts.append(bary)
            wts.append(w)
    a, b, c, w = _TRI6_ASYM
    for bary in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        pts.append(bary)
        wts.append(w)
    bary = np.array(pts)
    # barycentric (l1, l2, l3) -> cartesian (l2, l3) on the unit triangle
    return bary[:, 1:].copy(), np.array(wts) * REF_AREA[TRIANGLE]


def _triangle_rule_collapsed(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule mapped to the triangle via (u,v) -> (u(1-v), v)."""
    u, wu = gauss_01(n)
    v, wv = gauss_01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv) * (1.0 - V)
    pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    return pts, W.ravel()


@lru_cache(maxsize=None)
def oracle_rule(shape: str, degree: int = 6) -> QuadRule:
    """High-order positive rule on the reference cell, exact to ``degree``."""
    if shape == QUAD:
        x, wx = gauss_01(max(4, (degree + 2) // 2))
        X, Y = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        w = np.outer(wx, wx).ravel()
    elif shape == TRIANGLE and degree <= 6:
        pts, w = _triangle_rule_deg6()
    elif shape == TRIANGLE:
        pts, w = _triangle_rule_collapsed((degree + 3) // 2)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return QuadRule(pts, w)
