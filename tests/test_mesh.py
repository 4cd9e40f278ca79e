"""Mesh generation: topology counts, orientation, refinement, file I/O."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hdivwave.mesh import (
    FAMILIES,
    HybridMesh,
    MeshError,
    MeshFamily,
    generate,
    load_mesh,
    save_mesh,
)


def signed_area(verts, cell):
    xy = verts[list(cell)]
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_structured_quad_2x2_counts():
    mesh = generate(MeshFamily("structured-quad", base_divisions=2), 0)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 4
    assert len(mesh.edges) == 12
    assert len(mesh.boundary_edges) == 8


def test_structured_triangle_2x2x2_counts():
    mesh = generate(MeshFamily("structured-triangle", base_divisions=2), 0)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    assert len(mesh.edges) == 16


def test_interior_vertices_have_six_incident_edges():
    mesh = generate(MeshFamily("structured-triangle", base_divisions=4), 0)
    incidence = np.zeros(mesh.n_vertices, dtype=int)
    for lo, hi in mesh.edges:
        incidence[lo] += 1
        incidence[hi] += 1
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    for eid in mesh.boundary_edges:
        on_boundary[list(mesh.edges[eid])] = True
    assert np.all(incidence[~on_boundary] == 6)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_cells_counterclockwise(kind):
    mesh = generate(MeshFamily(kind, base_divisions=4), 0)
    for cell in mesh.cells:
        assert signed_area(mesh.vertices, cell) > 0


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_edges_sorted_lo_hi(kind):
    mesh = generate(MeshFamily(kind, base_divisions=4), 0)
    for lo, hi in mesh.edges:
        assert lo < hi


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_interior_edges_have_opposite_signs(kind):
    mesh = generate(MeshFamily(kind, base_divisions=4), 1)
    signs = {}
    for cid, edges in enumerate(mesh.cell_edges):
        for eid, sign in edges:
            signs.setdefault(eid, []).append(sign)
    for eid, ss in signs.items():
        if eid in mesh.boundary_edges:
            assert len(ss) == 1
        else:
            assert len(ss) == 2
            assert ss[0] == -ss[1]


def test_parallelogram_closure():
    mesh = generate(MeshFamily("hybrid", base_divisions=4), 1)
    quads = [c for c in mesh.cells if len(c) == 4]
    assert quads
    for cell in quads:
        v = mesh.vertices[list(cell)]
        diam = max(np.linalg.norm(v[i] - v[j])
                   for i in range(4) for j in range(i + 1, 4))
        defect = np.linalg.norm(v[0] - v[1] + v[2] - v[3])
        assert defect <= 1e-12 * diam


def test_hybrid_mixes_shapes():
    mesh = generate(MeshFamily("hybrid", base_divisions=4), 0)
    sizes = {len(c) for c in mesh.cells}
    assert sizes == {3, 4}


def test_nominal_h_halves_per_level():
    fam = MeshFamily("structured-triangle", base_divisions=4)
    h0 = generate(fam, 0).h_nominal
    assert h0 == pytest.approx(0.25)
    for level in (1, 2, 3):
        assert generate(fam, level).h_nominal == pytest.approx(
            h0 / 2**level, rel=1e-15)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), level=st.integers(0, 2))
def test_perturbed_never_inverts(seed, level):
    fam = MeshFamily("perturbed", base_divisions=4, perturbation=0.2,
                     seed=seed)
    mesh = generate(fam, level)
    for cell in mesh.cells:
        assert signed_area(mesh.vertices, cell) > 0


def test_perturbed_keeps_boundary_vertices():
    base = generate(MeshFamily("structured-triangle", base_divisions=4), 1)
    pert = generate(MeshFamily("perturbed", base_divisions=4, seed=5), 1)
    on_boundary = np.zeros(base.n_vertices, dtype=bool)
    for eid in base.boundary_edges:
        on_boundary[list(base.edges[eid])] = True
    assert_allclose(pert.vertices[on_boundary], base.vertices[on_boundary],
                    atol=1e-15)
    assert np.max(np.abs(pert.vertices - base.vertices)) > 1e-3


def test_perturbation_bounded_by_fraction_of_h():
    frac = 0.2
    base = generate(MeshFamily("structured-triangle", base_divisions=4), 1)
    pert = generate(MeshFamily("perturbed", base_divisions=4,
                               perturbation=frac, seed=7), 1)
    shift = np.linalg.norm(pert.vertices - base.vertices, axis=1)
    assert np.max(shift) <= frac * pert.h_nominal + 1e-15


def test_inverted_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        HybridMesh(verts, [(0, 2, 1)])


def test_first_bad_cell_is_named():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [2.0, 1.2]])
    cells = [(0, 1, 2), (1, 4, 5, 2), (0, 3, 2)]
    with pytest.raises(MeshError, match="cell 1 is not a parallelogram"):
        HybridMesh(verts, cells)
    with pytest.raises(MeshError, match="cell 2 has non-positive area"):
        HybridMesh(verts, [cells[0], (1, 4, 5), cells[2]])


def test_cell_diameters_are_grid_diagonals():
    mesh = generate(MeshFamily("hybrid", base_divisions=4), 1)
    assert_allclose(mesh.cell_diameters(), np.sqrt(2) / 8, rtol=1e-15)


def test_unknown_family_rejected():
    with pytest.raises(MeshError):
        generate(MeshFamily("moebius"), 0)


def test_save_load_roundtrip(tmp_path):
    mesh = generate(MeshFamily("hybrid", base_divisions=2), 1)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert_allclose(back.vertices, mesh.vertices, rtol=1e-16)
    assert back.cells == mesh.cells
    assert np.array_equal(back.edges, mesh.edges)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices 3\n0 0\n1 0\n0 1\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_load_rejects_bad_cell_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices 3 cells 1\n0 0\n1 0\n0 1\npentagon 0 1 2\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_h_effective_matches_nominal_for_generated():
    for kind in sorted(FAMILIES):
        mesh = generate(MeshFamily(kind, base_divisions=4), 1)
        assert mesh.h_effective() == pytest.approx(mesh.h_nominal)
