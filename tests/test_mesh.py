"""Mesh generation: topology counts, orientation, refinement, file I/O."""
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

import hdivwave.mesh as mesh_module
from hdivwave.mesh import (
    FAMILIES,
    MAX_PERTURBATION,
    HybridMesh,
    MeshError,
    MeshFamily,
    _components,
    generate,
    load_mesh,
    save_mesh,
)


def signed_area(verts, cell):
    xy = verts[[v for v in cell if v >= 0]]
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
    for eids, cell_signs in zip(mesh.cell_edges, mesh.cell_signs):
        for eid, sign in zip(eids[eids >= 0], cell_signs[eids >= 0]):
            signs.setdefault(eid, []).append(sign)
    for eid, ss in signs.items():
        if eid in mesh.boundary_edges:
            assert len(ss) == 1
        else:
            assert len(ss) == 2
            assert ss[0] == -ss[1]


def test_parallelogram_closure():
    mesh = generate(MeshFamily("hybrid", base_divisions=4), 1)
    quads = [c for c in mesh.cells if c[3] >= 0]
    assert quads
    for cell in quads:
        v = mesh.vertices[list(cell)]
        diam = max(np.linalg.norm(v[i] - v[j])
                   for i in range(4) for j in range(i + 1, 4))
        defect = np.linalg.norm(v[0] - v[1] + v[2] - v[3])
        assert defect <= 1e-12 * diam


def test_hybrid_mixes_shapes():
    mesh = generate(MeshFamily("hybrid", base_divisions=4), 0)
    sizes = {vids.shape[1] for _, vids, _ in mesh.shape_groups()}
    assert sizes == {3, 4}


def test_nominal_h_halves_per_level():
    fam = MeshFamily("structured-triangle", base_divisions=4)
    h0 = generate(fam, 0).h_nominal
    assert h0 == pytest.approx(0.25)
    for level in (1, 2, 3):
        assert generate(fam, level).h_nominal == pytest.approx(
            h0 / 2**level, rel=1e-15)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), level=st.integers(0, 2),
       perturbation=st.floats(0.0, MAX_PERTURBATION, exclude_max=True))
def test_perturbed_never_inverts(seed, level, perturbation):
    fam = MeshFamily("perturbed", base_divisions=4, perturbation=perturbation,
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
        HybridMesh(verts, [(0, 2, 1, -1)])


@pytest.mark.parametrize("verts, cells, message", [
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [(0, 1, 2, -1)],
     "vertices must be an (n, 2) array"),
    ([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)],
     "cells must be an (n, 4) array, -1 padded"),
    ([[0, 0], [1, 0], [0, 1]], [(0, 1, 3, -1)],
     "cell 0 references a vertex out of range"),
    ([[0, 0], [1, 0], [0, 1]], [(0, 1, 2, -1), (0, 2, 1, -2)],
     "cell 1 references a vertex out of range"),
], ids=["vertices-n-by-3", "cells-n-by-3", "index-past-the-end",
        "bad-padding"])
def test_malformed_arrays_rejected(verts, cells, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        HybridMesh(verts, cells)


def test_first_bad_cell_is_named():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [2.0, 1.2]])
    cells = [(0, 1, 2, -1), (1, 4, 5, 2), (0, 3, 2, -1)]
    with pytest.raises(MeshError, match="cell 1 is not a parallelogram"):
        HybridMesh(verts, cells)
    with pytest.raises(MeshError, match="cell 2 has non-positive area"):
        HybridMesh(verts, [cells[0], (1, 4, 5, -1), cells[2]])


def test_mesh_copies_its_inputs():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2, -1]])
    mesh = HybridMesh(verts, cells)
    assert verts.flags.writeable and cells.flags.writeable
    assert not mesh.vertices.flags.writeable and not mesh.cells.flags.writeable


def test_cell_diameters_are_grid_diagonals():
    mesh = generate(MeshFamily("hybrid", base_divisions=4), 1)
    assert_allclose(mesh.cell_diameters(), np.sqrt(2) / 8, rtol=1e-15)


@pytest.mark.parametrize("perturbation", [0.36, 0.45, -0.1, float("nan")])
def test_perturbation_outside_range_rejected(perturbation):
    with pytest.raises(MeshError, match="out of range"):
        MeshFamily("perturbed", perturbation=perturbation)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_rejected_naming_the_seed(seed):
    with pytest.raises(MeshError, match=f"seed {seed} out of range"):
        MeshFamily("perturbed", seed=seed)
    # the structured families draw no random numbers and ignore the seed
    MeshFamily("hybrid", seed=seed)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_size_cap_counts_the_cells_exactly(monkeypatch, kind):
    # base 3 makes hybrid split an odd number of columns
    family = MeshFamily(kind, base_divisions=3)
    n_cells = generate(family, 1).n_cells
    monkeypatch.setattr(mesh_module, "MAX_CELLS", n_cells)
    assert generate(family, 1).n_cells == n_cells
    monkeypatch.setattr(mesh_module, "MAX_CELLS", n_cells - 1)
    with pytest.raises(MeshError, match=f"{kind} level 1 at base 3 has more "
                                        f"than the cap of {n_cells - 1} cells"):
        generate(family, 1)


def test_unknown_family_rejected():
    with pytest.raises(MeshError):
        generate(MeshFamily("moebius"), 0)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(FAMILIES)), base=st.integers(2, 5),
       level=st.integers(0, 2), seed=st.integers(0, 10_000))
def test_save_load_roundtrip(tmp_path_factory, kind, base, level, seed):
    mesh = generate(MeshFamily(kind, base_divisions=base, seed=seed), level)
    path = tmp_path_factory.mktemp("roundtrip") / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.edges, mesh.edges)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    again = path.with_name("again.txt")
    save_mesh(back, again)
    assert again.read_bytes() == path.read_bytes()


TOKENS = st.one_of(
    st.sampled_from(["-1", "0", "3", "99", "99999999999999999999", "1e400",
                     "nan", "-0.0", "0.5", "tri", "quad", "cells", "\u00b2",
                     "\u0661", "1_0", "\t", "\x0c", "\r", "\u2028", "\xa0"]),
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(codec="utf-8", exclude_categories=("Z", "C")),
            min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_corrupted_mesh_file_loads_or_raises_mesh_error(tmp_path_factory, kind,
                                                       data):
    """A saved file cut short, or with one token replaced, loads to a valid
    mesh or raises MeshError."""
    path = tmp_path_factory.mktemp("corrupt") / "mesh.txt"
    save_mesh(generate(MeshFamily(kind, base_divisions=2), 0), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if data.draw(st.booleans(), label="truncate"):
        lines = lines[:data.draw(st.integers(0, len(lines) - 1), label="keep")]
    else:
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        parts = lines[i].split()
        parts[data.draw(st.integers(0, len(parts) - 1), label="token")] = \
            data.draw(TOKENS, label="replacement")
        lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        mesh = load_mesh(path)
    except MeshError:
        return
    mesh._validate()


LAYOUTS = {
    "saved": lambda lines: "\n".join(lines) + "\n",
    "spaced": lambda lines: "\n\n".join(f" \t{ln}  " for ln in lines)
                            .replace(" ", "\t  ") + "\n \n",
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_bulk_parse_takes_every_plain_layout(tmp_path, kind, layout):
    """load_mesh reads a saved file, and the same lines spread out by
    blank lines, tabs and spaces, back to the saved arrays."""
    mesh = generate(MeshFamily(kind, base_divisions=2, seed=1), 1)
    save_mesh(mesh, tmp_path / "mesh.txt")
    lines = (tmp_path / "mesh.txt").read_text(encoding="utf-8").splitlines()
    (tmp_path / "layout.txt").write_text(LAYOUTS[layout](lines),
                                         encoding="utf-8")
    assert_loads_to(tmp_path / "layout.txt", mesh.vertices, mesh.cells)


def assert_loads_to(path, vertices, cells):
    mesh = load_mesh(path)
    for got, want in ((mesh.vertices, np.array(vertices, dtype=float)),
                      (mesh.cells, np.array(cells))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def small_file(*edits, header="vertices 3 cells 1"):
    lines = [header, "0 0", "1 0", "0 1", "tri 0 1 2"]
    for i, line in edits:
        lines[i] = line
    return "\n".join(lines) + "\n"


# what small_file() loads to
SMALL = ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2, -1]])

# (file, its arrays or the exact MeshError message with {path})
EDGE_FILES = {
    "valid": (small_file(), SMALL),
    "no-cells": (small_file(header="vertices 3 cells 0")[:-10],
                 "mesh has no cells"),
    "empty-mesh": ("vertices 0 cells 0\n", "mesh has no cells"),
    "underscore": (small_file((1, "0 1_0.5e-3")),
                   ([[0.0, 0.0105]] + SMALL[0][1:], SMALL[1])),
    "nan-inf": (small_file((2, "nan -inf")),
                "vertex 1 has non-finite or too large coordinates (nan, -inf)"),
    "leading-zeros": (small_file((4, "tri 000 01 2")), SMALL),
    "negative-id": (small_file((4, "tri 0 1 -1")),
                    "{path}:5: bad cell line 'tri 0 1 -1'"),
    "plus-id": (small_file((4, "tri 0 1 +2")),
                "{path}:5: bad cell line 'tri 0 1 +2'"),
    "id-out-of-range": (small_file((4, "tri 0 1 3")),
                        "{path}:5: vertex index out of range in 'tri 0 1 3'"),
    "huge-id": (small_file((4, "tri 0 1 99999999999999999999")),
                "{path}:5: vertex index out of range in "
                "'tri 0 1 99999999999999999999'"),
    "float-id": (small_file((4, "tri 0 1 2.0")),
                 "{path}:5: bad cell line 'tri 0 1 2.0'"),
    "quad-of-three": (small_file((4, "quad 0 1 2")),
                      "{path}:5: bad cell line 'quad 0 1 2'"),
    "tri-of-four": (small_file((4, "tri 0 1 2 0")),
                    "{path}:5: bad cell line 'tri 0 1 2 0'"),
    "pentagon": (small_file((4, "pentagon 0 1 2")),
                 "{path}:5: bad cell line 'pentagon 0 1 2'"),
    "shifted-token": (small_file((1, "0 0 1"), (2, "0")),
                      "{path}:2: bad vertex line '0 0 1'"),
    "bad-float": (small_file((3, "0x1 1")), "{path}:4: bad vertex line '0x1 1'"),
    "bad-header": (small_file(header="vertices 3 cell 1"),
                   "bad mesh header: 'vertices 3 cell 1'"),
    "long-header": (small_file(header="vertices 3 cells 1 x"),
                    "bad mesh header: 'vertices 3 cells 1 x'"),
    "negative-count": (small_file(header="vertices -3 cells 1"),
                       "bad mesh header: 'vertices -3 cells 1'"),
    "too-many-lines": (small_file() + "0 0\n", "expected 5 lines, found 6"),
    "too-few-lines": (small_file()[:-10], "expected 5 lines, found 4"),
    "empty": ("", "{path}: empty mesh file"),
    "blank": (" \t\n\n", "{path}: empty mesh file"),
    "unicode-digit": (small_file(header="vertices \u0663 cells 1"), SMALL),
    "nbsp": (small_file((1, "0\xa00")), SMALL),
    "form-feed": (small_file((1, "0\x0c0")), "expected 5 lines, found 6"),
    "line-separator": (small_file((4, "tri 0 1\u20282")),
                       "expected 5 lines, found 6"),
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_bulk_parse_agrees_with_the_line_loop_on_edge_files(tmp_path, name):
    """load_mesh on each edge file: its arrays, or its exact message."""
    text, want = EDGE_FILES[name]
    path = tmp_path / "mesh.txt"
    path.write_text(text, encoding="utf-8")
    if isinstance(want, str):
        with pytest.raises(MeshError) as err:
            load_mesh(path)
        assert str(err.value) == want.format(path=path)
    else:
        assert_loads_to(path, *want)



def load_outcome(path):
    """load_mesh's arrays, or its MeshError message without the file name,
    line number and quoted line, which differ between layouts.  repr
    puts a line holding a single quote in double quotes."""
    try:
        mesh = load_mesh(path)
    except MeshError as err:
        msg = re.sub(re.escape(str(path)) + r"(:\d+)?: ", "", str(err))
        return re.split("['\"]", msg)[0]
    mesh._validate()
    return mesh.vertices, mesh.cells


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_bulk_parse_agrees_with_the_line_loop_on_corrupted_files(
        tmp_path_factory, kind, data):
    """A saved file with one token replaced, inserted or dropped, or one
    line replaced by a token: a message naming ``file:line`` names a bad
    line at or after the edit, and the same lines spread out as in
    LAYOUTS["spaced"] load to the same arrays or fail the same way."""
    tmp = tmp_path_factory.mktemp("corrupt")
    save_mesh(generate(MeshFamily(kind, base_divisions=2), 0), tmp / "mesh.txt")
    lines = (tmp / "mesh.txt").read_text(encoding="utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    parts = lines[i].split()
    edit = data.draw(st.sampled_from(["replace", "insert", "drop", "line"]),
                     label="edit")
    token = data.draw(TOKENS, label="token")
    j = data.draw(st.integers(0, len(parts) - 1), label="token index")
    if edit == "replace":
        parts[j] = token
    elif edit == "insert":
        parts.insert(j, token)
    elif edit == "drop":
        del parts[j]
    else:
        parts = [token]
    lines[i] = " ".join(parts)
    saved, spaced = tmp / "saved.txt", tmp / "spaced.txt"
    saved.write_text(LAYOUTS["saved"](lines), encoding="utf-8")
    spaced.write_text(LAYOUTS["spaced"](lines), encoding="utf-8")
    try:
        load_mesh(saved)
    except MeshError as err:
        named = re.match(re.escape(str(saved)) + r":(\d+): ", str(err))
        if named:
            n = int(named.group(1))
            # text mode reads "\r" as a line end, as load_mesh does
            bad = saved.read_text(encoding="utf-8").splitlines()[n - 1]
            assert n > i and str(err).endswith(repr(bad.strip()))
    want, got = load_outcome(saved), load_outcome(spaced)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_save_writes_the_line_format(tmp_path, kind):
    mesh = generate(MeshFamily(kind, base_divisions=3, seed=2), 1)
    save_mesh(mesh, tmp_path / "mesh.txt")
    lines = [f"vertices {mesh.n_vertices} cells {mesh.n_cells}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    for cell in mesh.cells.tolist():
        k = 3 if cell[3] < 0 else 4
        lines.append(("tri " if k == 3 else "quad ")
                     + " ".join(map(str, cell[:k])))
    assert (tmp_path / "mesh.txt").read_text(encoding="utf-8") \
        == "\n".join(lines) + "\n"


def per_cell_topology(mesh):
    """Edges, boundary edges and per-cell edge ids and signs from a dict
    loop over cells, edges numbered by first appearance; oracle."""
    ids, owners, cell_edges, cell_signs = {}, [], [], []
    for cell in mesh.cells.tolist():
        cell = [v for v in cell if v >= 0]
        row_e, row_s = [-1] * 4, [0] * 4
        for j, (a, b) in enumerate(zip(cell, cell[1:] + cell[:1])):
            e = ids.setdefault((min(a, b), max(a, b)), len(ids))
            if e == len(owners):
                owners.append(0)
            owners[e] += 1
            row_e[j], row_s[j] = e, (1 if a < b else -1)
        cell_edges.append(row_e)
        cell_signs.append(row_s)
    return (np.array(list(ids)), np.flatnonzero(np.array(owners) == 1),
            np.array(cell_edges), np.array(cell_signs))


@pytest.mark.parametrize("kind, base", [(k, 4) for k in sorted(FAMILIES)]
                         + [("hybrid", 3)])
def test_topology_matches_per_cell_oracle(kind, base):
    mesh = generate(MeshFamily(kind, base_divisions=base, seed=1), 1)
    edges, boundary, cell_edges, cell_signs = per_cell_topology(mesh)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.boundary_edges, boundary)
    assert np.array_equal(mesh.cell_edges, cell_edges)
    assert np.array_equal(mesh.cell_signs, cell_signs)
    seen, sizes = [], []
    for ids, vids, eids in mesh.shape_groups():
        k = vids.shape[1]
        sizes.append(k)
        assert np.all((mesh.cells[ids, 3] >= 0) == (k == 4))
        assert np.array_equal(vids, mesh.cells[ids, :k])
        assert np.array_equal(eids, cell_edges[ids, :k])
        seen.append(ids)
    assert sizes == sorted(sizes)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(mesh.n_cells))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_components_match_scipy(n, data):
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=60)
    u, v = np.array(data.draw(pairs), dtype=int).reshape(-1, 2).T
    label = _components(n, u, v)
    graph = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    count, ref = connected_components(graph, directed=False)
    assert len(np.unique(label)) == count
    for i in range(n):
        assert label[i] == np.flatnonzero(ref == ref[i]).min()


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@pytest.mark.parametrize("verts, cells, names", [
    (SQUARE[:3], [(0, 1, 2, -1), (0, 1, 2, -1)],
     "cells 0 and 1 traverse edge (0, 1) in the same direction"),
    (SQUARE, [(0, 1, 2, -1), (0, 1, 3, -1)],
     "cells 0 and 1 traverse edge (0, 1) in the same direction"),
    # vertex 4 halves edge 1-2 of the square: 8 of 9 edges on the boundary
    (SQUARE + [[1.0, 0.5], [2.0, 0.5]],
     [(0, 1, 2, 3), (1, 5, 4, -1), (4, 5, 2, -1)],
     "V - E + F = 0, but 1 boundary loop(s) need 1"),
    # the second triangle repeats vertices 0 and 2 instead of sharing them
    (SQUARE + [[0.0, 0.0], [1.0, 1.0]], [(0, 1, 2, -1), (4, 5, 3, -1)],
     "vertices 0 and 4 share the coordinates (0.0, 0.0)"),
], ids=["duplicate-cell", "overlapping-cells", "hanging-node",
        "repeated-vertex"])
def test_nonconforming_mesh_rejected(verts, cells, names):
    with pytest.raises(MeshError, match=re.escape(names)):
        HybridMesh(np.array(verts), cells)


def test_annulus_is_conforming():
    # 3 x 3 quads without the middle one: V - E + F = 0, two boundary loops
    quads = generate(MeshFamily("structured-quad", base_divisions=3), 0)
    mesh = HybridMesh(quads.vertices, np.delete(quads.cells, 4, axis=0))
    assert len(mesh.boundary_edges) == 16


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
