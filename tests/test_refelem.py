"""Reference bases: nodality, traces, splitting, the Piola map."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdivwave.analysis import project_p1_field
from hdivwave.assembly import (
    AssemblyError,
    _diagonal_blocks,
    assemble_lumped_mass,
    build_dofmap,
    interpolate_field,
)
from hdivwave.mesh import HybridMesh
from hdivwave.quadrature import QUAD, REF_VERTICES, TRIANGLE, lumped_rule
from hdivwave.refelem import reference_basis
from hdivwave.verify import verify_splitting

SHAPES = [TRIANGLE, QUAD]


def ref_edges(shape):
    nv = 3 if shape == TRIANGLE else 4
    return [(i, (i + 1) % nv) for i in range(nv)]


def edge_points_normal(shape, edge, n_samples=7):
    """Points on a reference edge and its outward unit normal."""
    va, vb = (REF_VERTICES[shape][v] for v in edge)
    s = np.linspace(0.05, 0.95, n_samples)
    pts = va[None, :] + s[:, None] * (vb - va)[None, :]
    t = vb - va
    n = np.array([t[1], -t[0]])
    return pts, n / np.linalg.norm(n)


SKEW_J = np.array([[1.3, 0.4], [0.2, 0.9]])
SKEW_B = np.array([0.25, -0.5])


def skewed_dofmap(shape):
    """Dof map of a one-cell mesh: the reference cell mapped by SKEW_J."""
    verts = REF_VERTICES[shape] @ SKEW_J.T + SKEW_B
    cell = [0, 1, 2, 3 if len(verts) == 4 else -1]
    return build_dofmap(HybridMesh(verts, [cell]))


@pytest.mark.parametrize("shape,dim", [(TRIANGLE, 8), (QUAD, 10)])
def test_dimension(shape, dim):
    assert reference_basis(shape).dim == dim


# (index, kind, edge, endpoint, qpoint) of every slot: the local dof order
# that the basis functions, the dof map and every stored output follow
SLOT_TABLES = {
    TRIANGLE: [
        (0, "edge", (0, 1), 0, 1), (1, "edge", (0, 1), 1, 2),
        (2, "edge", (1, 2), 1, 2), (3, "edge", (1, 2), 2, 3),
        (4, "edge", (0, 2), 0, 1), (5, "edge", (0, 2), 2, 3),
        (6, "interior", None, None, 0), (7, "interior", None, None, 0),
    ],
    QUAD: [
        (0, "edge", (1, 2), 1, 2), (1, "edge", (1, 2), 2, 3),
        (2, "edge", (2, 3), 2, 3), (3, "edge", (2, 3), 3, 4),
        (4, "edge", (3, 0), 3, 4), (5, "edge", (3, 0), 0, 1),
        (6, "edge", (0, 1), 0, 1), (7, "edge", (0, 1), 1, 2),
        (8, "interior", None, None, 0), (9, "interior", None, None, 0),
    ],
}


@pytest.mark.parametrize("shape", SHAPES)
def test_slot_table(shape):
    assert [(s.index, s.kind, s.edge, s.endpoint, s.qpoint)
            for s in reference_basis(shape).slots] == SLOT_TABLES[shape]


@pytest.mark.parametrize("shape", SHAPES)
def test_two_slots_per_quadrature_point(shape):
    basis = reference_basis(shape)
    rule = lumped_rule(shape)
    seen = []
    for q in range(len(rule.points)):
        pair = basis.slots_at_qpoint(q)
        assert len(pair) == 2
        seen.extend(pair)
    assert sorted(seen) == list(range(basis.dim))


@pytest.mark.parametrize("shape", SHAPES)
def test_nodality_at_foreign_points(shape):
    basis = reference_basis(shape)
    rule = lumped_rule(shape)
    vals = basis.values(rule.points)
    for q in range(len(rule.points)):
        own = set(basis.slots_at_qpoint(q))
        for i in range(basis.dim):
            mag = np.linalg.norm(vals[i, q])
            if i in own:
                assert mag > 1e-3
            else:
                assert mag <= 1e-13, f"slot {i} not zero at point {q}"


@pytest.mark.parametrize("shape", SHAPES)
def test_normal_traces_live_on_own_edge_only(shape):
    basis = reference_basis(shape)
    for i, slot in enumerate(basis.slots):
        for edge in ref_edges(shape):
            pts, n = edge_points_normal(shape, edge)
            trace = basis.values(pts)[i] @ n
            if slot.kind == "interior" or set(edge) != set(slot.edge):
                assert np.max(np.abs(trace)) <= 1e-13, (
                    f"slot {i} leaks onto edge {edge}")


@pytest.mark.parametrize("shape", SHAPES)
def test_normal_traces_are_linear(shape):
    basis = reference_basis(shape)
    for i, slot in enumerate(basis.slots):
        if slot.kind == "interior":
            continue
        pts, n = edge_points_normal(shape, slot.edge, n_samples=9)
        trace = basis.values(pts)[i] @ n
        s = np.linspace(0.05, 0.95, 9)
        fit = np.polynomial.polynomial.polyfit(s, trace, 1)
        resid = trace - np.polynomial.polynomial.polyval(s, fit)
        assert np.max(np.abs(resid)) <= 1e-12
        assert np.max(np.abs(trace)) > 1e-3


@pytest.mark.parametrize("shape", SHAPES)
def test_divergences_match_finite_differences(shape):
    basis = reference_basis(shape)
    rng = np.random.default_rng(0)
    pts = 0.2 + 0.4 * rng.random((5, 2))
    h = 1e-6
    div = basis.divergences(pts)
    dx = (basis.values(pts + [h, 0]) - basis.values(pts - [h, 0])) / (2 * h)
    dy = (basis.values(pts + [0, h]) - basis.values(pts - [0, h])) / (2 * h)
    assert_allclose(div, dx[:, :, 0] + dy[:, :, 1], atol=5e-6)


def test_piola_scaling():
    det = np.linalg.det(SKEW_J)
    step = 1e-6
    ref_pts = np.array([[0.2, 0.3], [0.4, 0.1], [0.25, 0.5]])
    rng = np.random.default_rng(1)
    for shape in SHAPES:
        dofmap = skewed_dofmap(shape)
        g = dofmap.groups[0]
        assert_allclose(g.J[0], SKEW_J, rtol=1e-15)
        basis = reference_basis(shape)
        c = rng.standard_normal(dofmap.ndof)
        C = g.local_coeffs(c)[0]
        ref_v = np.einsum("d,dmk->mk", C, basis.values(ref_pts))
        ref_d = C @ basis.divergences(ref_pts)
        assert_allclose(g.eval_values(c, ref_pts)[0], ref_v @ SKEW_J.T / det,
                        rtol=1e-14)
        divs = g.eval_divs(c, ref_pts)[0]
        assert_allclose(divs, ref_d / det, rtol=1e-14)
        # physical divergence by central differences along x and y; a
        # physical step e_k is the reference step J^-1 e_k
        dref = np.linalg.inv(SKEW_J) * step
        fd = sum((g.eval_values(c, ref_pts + dref[:, k])[0, :, k]
                  - g.eval_values(c, ref_pts - dref[:, k])[0, :, k]) / (2 * step)
                 for k in range(2))
        assert_allclose(divs, fd, atol=1e-6 * np.abs(divs).max())


def test_piola_rejects_inverted_map(monkeypatch):
    # past the mesh check, which refuses a clockwise cell first
    monkeypatch.setattr(HybridMesh, "_validate", lambda mesh: None)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = HybridMesh(verts, [(0, 1, 2, -1), (0, 3, 2, -1)])
    with pytest.raises(AssemblyError, match="inverted cell 1"):
        build_dofmap(mesh)


def test_local_quad_constant_gives_area():
    for shape in SHAPES:
        g = skewed_dofmap(shape).groups[0]
        x, y = g.phys_points(REF_VERTICES[shape])[0].T
        shoelace = 0.5 * (x @ np.roll(y, -1) - y @ np.roll(x, -1))
        rule = lumped_rule(shape)
        assert np.sum(g.detJ[0] * rule.weights) == pytest.approx(shoelace,
                                                                 rel=1e-13)


@pytest.mark.parametrize("shape", SHAPES)
def test_interpolate_reproduces_linears(shape):
    dofmap = skewed_dofmap(shape)

    def u(pts):
        return np.column_stack([1.0 + 2 * pts[:, 0] - pts[:, 1],
                                0.5 - pts[:, 0] + 3 * pts[:, 1]])

    c = interpolate_field(dofmap, u)
    g = dofmap.groups[0]
    ref_pts = np.array([[0.2, 0.3], [0.4, 0.1], [0.25, 0.5]])
    assert_allclose(g.eval_values(c, ref_pts)[0],
                    u(g.phys_points(ref_pts)[0]), atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_splitting_rank_eight(shape):
    rep = verify_splitting(shape)
    assert rep.rank == 8
    assert rep.smallest_singular_value > 1e-2
    assert rep.bubble_div_smin > 1e-2


@pytest.mark.parametrize("shape", SHAPES)
def test_local_mass_blocks_spd(shape):
    # one cell: a 2x2 block per vertex (two incident edges) and one for
    # the interior dofs, one block per lumped quadrature point
    dofmap = skewed_dofmap(shape)
    batches = _diagonal_blocks(assemble_lumped_mass(dofmap), dofmap,
                               dofmap.block_id)
    assert [blocks.shape[1:] for _, blocks in batches] == [(2, 2)]
    blocks = batches[0][1]
    assert len(blocks) == len(lumped_rule(shape).points)
    assert_allclose(blocks, blocks.transpose(0, 2, 1), rtol=1e-13)
    assert np.all(np.linalg.eigvalsh(blocks) > 0)


@pytest.mark.parametrize("shape", SHAPES)
def test_project_p1_reproduces_linears(shape):
    dofmap = skewed_dofmap(shape)

    def u(pts):
        return np.column_stack([2.0 - pts[:, 0] + 0.5 * pts[:, 1],
                                1.0 + pts[:, 0]])

    p1 = project_p1_field(dofmap, u)
    phys = dofmap.groups[0].phys_points(np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert_allclose(p1.eval(0, phys)[0], u(phys[0]), atol=1e-12)
