import csv

import numpy as np
import pytest

from hdivwave.assembly import BlockSolver, build_dofmap
from hdivwave.mesh import MeshFamily, generate


def linear_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([0.3 + 0.7 * x - 0.2 * y, -0.1 + 0.4 * x + 0.9 * y])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


# one PASS/FAIL line per acceptance criterion, re-emitted after the run
# (terminal summary escapes pytest's stdout capture)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tri_mesh():
    return generate(MeshFamily("structured-triangle", base_divisions=4), 0)


@pytest.fixture(scope="session")
def quad_mesh():
    return generate(MeshFamily("structured-quad", base_divisions=4), 0)


@pytest.fixture(scope="session")
def hybrid_mesh():
    return generate(MeshFamily("hybrid", base_divisions=4), 0)


@pytest.fixture(scope="session")
def perturbed_mesh():
    return generate(MeshFamily("perturbed", base_divisions=4, seed=3), 0)


@pytest.fixture(scope="session")
def tri_dofmap(tri_mesh):
    return build_dofmap(tri_mesh)


@pytest.fixture(scope="session")
def quad_dofmap(quad_mesh):
    return build_dofmap(quad_mesh)


@pytest.fixture(scope="session")
def hybrid_dofmap(hybrid_mesh):
    return build_dofmap(hybrid_mesh)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def block_solver_builds(monkeypatch):
    """The ``BlockSolver`` instances built during the test, in order."""
    builds = []
    init = BlockSolver.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockSolver, "__init__", counting_init)
    return builds
