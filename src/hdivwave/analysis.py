"""Error norms, quadrature defects, and convergence rates.

Two error measures are reported per run.  The energy error compares the
discrete solution against the exact one,

    ||dt u(T) - v_h||_L2 + ||div(u(T) - u_h)||_L2,

the discrete error compares against the interpolated exact solution,

    (||p1(dt u(T)) - v_h||_h^2 + ||div(I_h u(T) - u_h)||_L2^2)^(1/2),

with p1 the cellwise componentwise linear L2 projection, I_h the
canonical interpolant and ||.||_h the lumped norm.  Both decay with
second order; rates, not absolute values, are what the acceptance tests
pin down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import DofMap, field_at, interpolate_field
from .quadrature import REF_MIDPOINT


def eoc(pairs: list[tuple[float, float]]) -> list[float]:
    """Rates log(e_{i-1}/e_i) / log(h_{i-1}/h_i); NaN where undefined."""
    out = []
    for (h0, e0), (h1, e1) in zip(pairs, pairs[1:]):
        if e0 <= 0 or e1 <= 0 or h0 <= h1:
            out.append(math.nan)
        else:
            out.append(math.log(e0 / e1) / math.log(h0 / h1))
    return out


# -- cellwise linear projection ----------------------------------------


@dataclass
class P1Field:
    """Per-cell linear vector fields c0 + c1 (x - xc) + c2 (y - yc).

    Stored per cell group, aligned with the dofmap's groups; evaluation
    must go through the owning cell since the field jumps across edges.
    """

    coeffs: list[np.ndarray]    # per group (nc, 3, 2)
    centers: list[np.ndarray]   # per group (nc, 2)

    def eval(self, gi: int, phys_pts: np.ndarray) -> np.ndarray:
        """Values at physical points, (nc, m, 2) for group gi."""
        c = self.coeffs[gi]
        rel = phys_pts - self.centers[gi][:, None, :]
        return (c[:, None, 0, :]
                + rel[:, :, 0, None] * c[:, None, 1, :]
                + rel[:, :, 1, None] * c[:, None, 2, :])


def project_p1_field(dofmap: DofMap, f) -> P1Field:
    """Componentwise cellwise L2 projection of a smooth field onto P1."""
    coeffs, centers = [], []
    for g in dofmap.groups:
        points, w = g.quadrature()
        xc = g.phys_points(REF_MIDPOINT[g.shape][None, :])[:, 0, :]
        x = g.phys_points(points)                     # (nc, m, 2)
        fx = field_at(f, x)
        rel = x - xc[:, None, :]
        B = np.stack([np.ones_like(rel[:, :, 0]), rel[:, :, 0], rel[:, :, 1]],
                     axis=-1)                         # (nc, m, 3)
        del rel
        G = np.einsum("nm,nmi,nmj->nij", w, B, B)
        rhs = np.einsum("nm,nmi,nmk->nik", w, B, fx)  # (nc, 3, 2)
        coeffs.append(np.linalg.solve(G, rhs))
        centers.append(xc)
    return P1Field(coeffs=coeffs, centers=centers)


# -- quadrature defect --------------------------------------------------


def sigma_cells(dofmap: DofMap, u, v_coeffs: np.ndarray) -> np.ndarray:
    """Per-cell lumped-minus-exact defect of the mass form.

    ``u`` is a callable field or a P1Field; ``v_coeffs`` a discrete
    field.  Indexed by global cell id.
    """
    out = np.zeros(dofmap.mesh.n_cells)
    for gi, g in enumerate(dofmap.groups):
        acc = np.zeros(g.n)
        for sign, (points, w) in ((1.0, g.quadrature("lumped")),
                                  (-1.0, g.quadrature())):
            if isinstance(u, P1Field):
                uv = u.eval(gi, g.phys_points(points))
            else:
                uv = g.sample(u, points)
            vv = g.eval_values(v_coeffs, points)
            acc += sign * np.einsum("nm,nmk,nmk->n", w, uv, vv)
        out[g.cell_ids] = acc
    return out


def div_norm_cells(dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
    """Per-cell L2 norm of the divergence of a discrete field."""
    out = np.zeros(dofmap.mesh.n_cells)
    for g in dofmap.groups:
        points, w = g.quadrature()
        dv = g.eval_divs(coeffs, points)
        out[g.cell_ids] = np.sqrt(np.einsum("nm,nm->n", w, dv**2))
    return out


# -- global norms -------------------------------------------------------


def field_l2_error(dofmap: DofMap, coeffs: np.ndarray, exact=None) -> float:
    """||u_h - exact||_L2 over the mesh (exact=None gives ||u_h||)."""
    acc = 0.0
    for g in dofmap.groups:
        points, w = g.quadrature()
        vals = g.eval_values(coeffs, points)
        if exact is not None:
            vals -= g.sample(exact, points)
        acc += float(np.einsum("nm,nmk,nmk->", w, vals, vals))
    return math.sqrt(acc)


def div_l2_error(dofmap: DofMap, coeffs: np.ndarray, exact_div=None) -> float:
    """||div u_h - exact_div||_L2 over the mesh."""
    acc = 0.0
    for g in dofmap.groups:
        points, w = g.quadrature()
        dv = g.eval_divs(coeffs, points)
        if exact_div is not None:
            dv -= g.sample(exact_div, points)
        dv **= 2
        acc += float(np.einsum("nm,nm->", w, dv))
    return math.sqrt(acc)


def lumped_l2_error(dofmap: DofMap, coeffs: np.ndarray, p1: P1Field) -> float:
    """Lumped-norm distance between a discrete field and a P1Field."""
    acc = 0.0
    for gi, g in enumerate(dofmap.groups):
        points, w = g.quadrature("lumped")
        diff = g.eval_values(coeffs, points)
        diff -= p1.eval(gi, g.phys_points(points))
        acc += float(np.einsum("nm,nmk,nmk->", w, diff, diff))
    return math.sqrt(acc)


# -- commuting-interpolation residual ----------------------------------


def commuting_residuals(dofmap: DofMap, u, u_div,
                        stiffness) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of (div(u - I_h u), div basis_i) and their scales.

    Returns (r, s) with r_i the residual against global basis function i
    and s_i = ||div basis_i||_L2; the interpolant commutes when
    |r_i| <= tol * s_i for all i.  The load integrals use the degree-12
    oracle rule.
    """
    coeffs = interpolate_field(dofmap, u)
    b = np.zeros(dofmap.ndof)
    for g in dofmap.groups:
        points, w = g.quadrature(degree=12)
        loc = np.einsum("nm,nam->na", w * g.sample(u_div, points),
                        g.scaled_divergences(points))
        np.add.at(b, g.l2g, loc)
    r = b - stiffness @ coeffs
    s = np.sqrt(stiffness.diagonal())
    return r, s


@dataclass(frozen=True)
class ErrorReport:
    h: float
    energy_error: float
    discrete_error: float
    vel_l2: float
    div_l2: float
    vel_h: float
    div_h: float
    eoc_energy: float | None = None
    eoc_discrete: float | None = None


def error_report(dofmap: DofMap, u_coeffs: np.ndarray, v_coeffs: np.ndarray,
                 exact_u, exact_vel, exact_div, h: float) -> ErrorReport:
    """Both error measures for a final-time solution pair; each
    whole-mesh array is let go once its pass is done."""
    vel_l2 = field_l2_error(dofmap, v_coeffs, exact_vel)
    divl2 = div_l2_error(dofmap, u_coeffs, exact_div)
    p1v = project_p1_field(dofmap, exact_vel)
    vel_h = lumped_l2_error(dofmap, v_coeffs, p1v)
    del p1v
    interp = interpolate_field(dofmap, exact_u)
    interp -= u_coeffs
    div_h = div_l2_error(dofmap, interp)
    return ErrorReport(
        h=h,
        energy_error=vel_l2 + divl2,
        discrete_error=math.sqrt(vel_h**2 + div_h**2),
        vel_l2=vel_l2,
        div_l2=divl2,
        vel_h=vel_h,
        div_h=div_h,
    )


def lowest_rate(reports: list[ErrorReport], measure: str) -> tuple[int, float]:
    """Slowest consecutive pair ``i -> i+1`` of attached rates and its rate.

    ``measure`` is "energy" or "discrete"; an undefined rate reads NaN
    and counts as the lowest.
    """
    rates = [getattr(r, "eoc_" + measure) for r in reports[1:]]
    rates = [math.nan if x is None else x for x in rates]
    i = int(np.argmin(rates))
    return i, rates[i]


def attach_rates(reports: list[ErrorReport]) -> list[ErrorReport]:
    """Fill the eoc fields from consecutive report pairs."""
    out = list(reports)
    re = eoc([(r.h, r.energy_error) for r in reports])
    rd = eoc([(r.h, r.discrete_error) for r in reports])
    for i, (a, b) in enumerate(zip(re, rd), start=1):
        out[i] = replace(out[i],
                         eoc_energy=None if math.isnan(a) else a,
                         eoc_discrete=None if math.isnan(b) else b)
    return out
