import numpy as np
import pytest

from hdivwave.assembly import BlockSolver, build_dofmap
from hdivwave.mesh import MeshFamily, generate

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
