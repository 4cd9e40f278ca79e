"""Mass-lumped H(div)-conforming solver for the damped acoustic wave equation.

Second-order elements on hybrid triangle/parallelogram meshes with a
vertex-plus-midpoint quadrature whose points double as degrees of
freedom, giving a block-diagonal mass matrix and explicit leapfrog time
stepping.
"""
from .mesh import HybridMesh, MeshError, MeshFamily, generate, load_mesh, save_mesh
from .quadrature import QuadRule, lumped_rule, oracle_rule
from .refelem import ReferenceBasis, reference_basis
from .assembly import (
    DofMap,
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    interpolate_field,
)
from .timeloop import InstabilityError, LeapfrogSolver, WaveState, stable_tau
from .analysis import ErrorReport, eoc, error_report, sigma_cells
from .driver import BENCHMARKS, PlaneWave, ZeroData, convergence_study, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "BENCHMARKS",
    "DofMap",
    "ErrorReport",
    "HybridMesh",
    "InstabilityError",
    "LeapfrogSolver",
    "MeshError",
    "MeshFamily",
    "PlaneWave",
    "QuadRule",
    "ReferenceBasis",
    "WaveState",
    "ZeroData",
    "assemble_lumped_mass",
    "assemble_stiffness",
    "build_dofmap",
    "convergence_study",
    "eoc",
    "error_report",
    "generate",
    "interpolate_field",
    "load_mesh",
    "lumped_rule",
    "oracle_rule",
    "reference_basis",
    "run_benchmark",
    "save_mesh",
    "sigma_cells",
    "stable_tau",
    "__version__",
]
