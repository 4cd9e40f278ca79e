"""The discrete spectrum: lumping keeps the frequencies at order h^4.

With zero normal trace on the unit square, ``K_FF x = lambda M_FF x`` is
the grad-div eigenproblem.  Its nonzero eigenvalues are
``pi^2 (m^2 + n^2)``, with eigenfunctions ``grad cos(m pi x) cos(n pi y)``;
the divergence-free kernel gives the eigenvalues below 1, which are
dropped.  An eigenvalue error is the square of the energy error (Babuska
and Osborn, "Eigenvalue problems", 1991), so the lowest eigenvalues
converge at rate 4 with the consistent mass.  The lumped mass keeps that
rate on every family; a wrong vertex weight (``LUMPED_BETA``) drops it
to about 2.
"""
import numpy as np
import pytest
from scipy.linalg import eigh

from hdivwave.assembly import (
    assemble_lumped_mass,
    assemble_stiffness,
    build_dofmap,
    constrain,
)
from hdivwave.mesh import FAMILIES, MeshFamily, generate
from test_assembly import assemble_consistent_mass

# the six lowest nonzero eigenvalues: (m, n) = (1, 0), (0, 1), (1, 1),
# (2, 0), (0, 2) and (2, 1)
EXACT = np.pi ** 2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0, 5.0])
LEVELS = (0, 1, 2)
# lumped over consistent error at level 2, as measured: lumping costs
# accuracy on triangles and none on parallelograms
RATIO = {"structured-triangle": 12.3, "structured-quad": 0.80,
         "hybrid": 1.40, "perturbed": 12.3}


def spectrum_error(dofmap, mass):
    """Largest relative error of the six lowest nonzero eigenvalues of
    ``K_FF x = lambda M_FF x``, by a dense solve."""
    con = constrain(dofmap, mass, assemble_stiffness(dofmap))
    lam = eigh(con.K_FF.toarray(), con.M_FF.toarray(), eigvals_only=True)
    lam = lam[lam >= 1.0][:len(EXACT)]
    return np.max(np.abs(lam - EXACT) / EXACT)


@pytest.fixture(scope="module", params=FAMILIES)
def errors(request):
    """Family, lumped errors at LEVELS (base 2, mesh seed 0) and the
    consistent error at the finest level."""
    family = MeshFamily(request.param, base_divisions=2, seed=0)
    dofmaps = [build_dofmap(generate(family, lv)) for lv in LEVELS]
    lumped = [spectrum_error(d, assemble_lumped_mass(d)) for d in dofmaps]
    fine = dofmaps[-1]
    return (request.param, np.array(lumped),
            spectrum_error(fine, assemble_consistent_mass(fine)))


def test_lumped_spectrum_converges_at_fourth_order(errors):
    # measured 1->2: 3.83 to 4.09; 2.06 to 2.29 with LUMPED_BETA 1/16
    _, lumped, _ = errors
    rates = np.log2(lumped[:-1] / lumped[1:])
    assert rates[-1] >= 3.5, f"rates {rates}"


def test_lumped_to_consistent_error_ratio(errors):
    kind, lumped, consistent = errors
    ratio = lumped[-1] / consistent
    assert RATIO[kind] / 2 <= ratio <= 2 * RATIO[kind], f"ratio {ratio:.3g}"
