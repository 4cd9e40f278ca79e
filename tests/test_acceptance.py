"""Acceptance criteria: the convergence criterion, its rate rule on
meshes without symmetry, the lumping error alone on those meshes, and
one case per check of the property suite that ``hdivwave verify`` runs.

Each test appends exactly one PASS/FAIL line to the summary block that
conftest prints after the run, then asserts; a property case records the
check's own detail.  The convergence study in the first test and the
lumping-error line are the expensive parts (about ten seconds each); the
property checks take under a second together.
"""

import math
import time

import numpy as np
import pytest

from hdivwave.analysis import eoc
from hdivwave.driver import PlaneWave, run_benchmark
from hdivwave.mesh import MeshFamily
from hdivwave.verify import CHECKS

from conftest import ACCEPTANCE_LINES
from test_timeloop import plane_wave_runs

# Published benchmark table: key k -> reported error on a quasi-uniform mesh
# whose maximum cell diameter is 2^-k.  The table's source is not in this
# repository; the key is read as a diameter because the structured-triangle
# error divided by the entry at the equal *spacing* 2^-k tends to 2.03,
# which is (sqrt 2)^2: the factor a second-order error picks up from the
# sqrt(2) between spacing and diameter on these meshes.  Matched by diameter
# the ratio tends to 1.
REFERENCE_TABLE = {3: 0.270790, 4: 0.060266, 5: 0.016328, 6: 0.004343}

A1_FAMILIES = ("structured-triangle", "structured-quad", "hybrid")
A1_LEVELS = (0, 1, 2, 3)          # spacing 2^-3 .. 2^-6 with 8 base divisions
RATE_FLOOR, RATE_WINDOW = 1.8, (1.8, 2.2)
REFERENCE_FACTOR = 5.0
MIN_REFERENCE_LEVELS = 3
PERTURBED_SEEDS = (0, 1, 2)
LUMPING_LEVELS, LUMPING_TAU, LUMPING_T = (0, 1, 2), 0.001, 1.5


def record(ok: bool, name: str, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


@pytest.fixture(scope="session")
def convergence_matrix():
    """Reports, runtimes and maximum cell diameters for the three families."""
    out = {}
    for kind in A1_FAMILIES:
        fam = MeshFamily(kind, base_divisions=8)
        reports, seconds, diameters = [], [], []
        for level in A1_LEVELS:
            t0 = time.perf_counter()
            res = run_benchmark(fam, level, PlaneWave(), tau=0.001, T=2.0)
            seconds.append(time.perf_counter() - t0)
            reports.append(res.report)
            diameters.append(res.mesh.cell_diameters().max())
        out[kind] = (reports, seconds, diameters)
    return out


def rate_problems(label: str, hs, errors) -> tuple[list[float], list[str]]:
    """Observed orders on consecutive levels and what breaks the rate rule.

    Every pair must converge at least at RATE_FLOOR: the error decays no
    slower than h^2.  Only the finest pair must lie in RATE_WINDOW, since
    the error tends to h^2 asymptotically; on the coarsest level the
    benchmark pulse has about one cell per standard deviation, and the
    first pairs are steeper than 2.
    """
    rates = eoc(list(zip(hs, errors)))
    problems = [f"{label} EOC {r:.3f} on levels {i}->{i + 1} below "
                f"{RATE_FLOOR}" for i, r in enumerate(rates)
                if not r >= RATE_FLOOR]
    lo, hi = RATE_WINDOW
    if not lo <= rates[-1] <= hi:
        problems.append(
            f"{label} EOC {rates[-1]:.3f} on finest levels "
            f"{len(rates) - 1}->{len(rates)} outside [{lo}, {hi}]")
    return rates, problems


def reference_at(diameter: float) -> float | None:
    """Table error at a maximum cell diameter, log-log interpolated between
    the neighbouring entries; None outside the table (no extrapolation)."""
    keys = sorted(REFERENCE_TABLE)
    k = -math.log2(diameter)
    if not keys[0] <= k <= keys[-1]:
        return None
    logs = [math.log(REFERENCE_TABLE[j]) for j in keys]
    return math.exp(float(np.interp(k, keys, logs)))


def reference_problems(diameters, errors) -> tuple[dict[int, float],
                                                   list[str]]:
    """Two-sided error/reference ratio per level and what breaks the gate.

    Levels whose diameter lies outside the table are not compared; at
    least MIN_REFERENCE_LEVELS must be, so the gate never passes empty.
    """
    ratios = {}
    for level, (d, e) in enumerate(zip(diameters, errors)):
        ref = reference_at(d)
        if ref is not None:
            ratios[level] = max(e / ref, ref / e)
    problems = [f"triangle level {level} error/reference ratio {r:.2f} "
                f"exceeds {REFERENCE_FACTOR:g}"
                for level, r in ratios.items() if not r <= REFERENCE_FACTOR]
    if len(ratios) < MIN_REFERENCE_LEVELS:
        problems.append(
            f"only {len(ratios)} triangle levels within the table's "
            f"diameters (need {MIN_REFERENCE_LEVELS})")
    return ratios, problems


def test_convergence_benchmark(convergence_matrix):
    problems = []
    rates = {}
    for kind in A1_FAMILIES:
        reports, _, _ = convergence_matrix[kind]
        hs = [r.h for r in reports]
        for tag, get in (("energy", lambda r: r.energy_error),
                         ("discrete", lambda r: r.discrete_error)):
            rates[kind, tag], found = rate_problems(
                f"{kind} {tag}", hs, [get(r) for r in reports])
            problems += found

    tri_reports, _, tri_diameters = convergence_matrix["structured-triangle"]
    ratios, found = reference_problems(
        tri_diameters, [r.discrete_error for r in tri_reports])
    problems += found

    slowest = max(convergence_matrix[k][1][-1] for k in A1_FAMILIES)
    if slowest > 180.0:
        problems.append(f"finest level took {slowest:.0f}s (limit 180s)")

    summary = ("EOC lowest, finest " + " ".join(
        f"{kind.split('-')[-1]}[{min(rates[kind, 'energy']):.3f}/"
        f"{min(rates[kind, 'discrete']):.3f}, "
        f"{rates[kind, 'energy'][-1]:.3f}/{rates[kind, 'discrete'][-1]:.3f}]"
        for kind in A1_FAMILIES)
        + "; triangle error/reference at diameter " + " ".join(
            f"L{level} {r:.2f}" for level, r in ratios.items())
        + f"; finest level {slowest:.0f}s")
    record(not problems, "convergence (reference table)", summary)
    assert not problems, "; ".join(problems)


def test_convergence_on_meshes_without_symmetry():
    """The standing rate rule on the perturbed family, whose cells carry
    no symmetry for an error cancellation to rest on, at three mesh
    seeds; the standing criterion above is unchanged."""
    problems, summary = [], []
    for seed in PERTURBED_SEEDS:
        fam = MeshFamily("perturbed", base_divisions=8, perturbation=0.2,
                         seed=seed)
        reports = [run_benchmark(fam, level, PlaneWave(), tau=0.001,
                                 T=2.0).report for level in A1_LEVELS]
        hs = [r.h for r in reports]
        rates = {}
        for tag, get in (("energy", lambda r: r.energy_error),
                         ("discrete", lambda r: r.discrete_error)):
            rates[tag], found = rate_problems(
                f"perturbed seed {seed} {tag}", hs, [get(r) for r in reports])
            problems += found
        summary.append(
            f"seed {seed}[{min(rates['energy']):.3f}/"
            f"{min(rates['discrete']):.3f}, {rates['energy'][-1]:.3f}/"
            f"{rates['discrete'][-1]:.3f}]")
    record(not problems, "convergence (perturbed meshes)",
           "EOC lowest, finest " + " ".join(summary))
    assert not problems, "; ".join(problems)


def test_lumping_error_converges_on_meshes_without_symmetry():
    """The lumping error alone: the lumped scheme against the same
    leapfrog with the consistent mass, from the same start, in the
    lumped mass norm at the last step, on the perturbed mesh seeds of
    the rate rule.  Only the rate floor applies: the finest pair here is
    the coarse 1->2."""
    problems, summary = [], []
    for seed in PERTURBED_SEEDS:
        fam = MeshFamily("perturbed", base_divisions=8, perturbation=0.2,
                         seed=seed)
        errors = []
        for level in LUMPING_LEVELS:
            u, ref, M_FF = plane_wave_runs(
                fam, level, LUMPING_TAU, round(LUMPING_T / LUMPING_TAU),
                consistent=True)
            errors.append(math.sqrt((u - ref) @ (M_FF @ (u - ref))))
        rates = eoc([(2.0 ** -level, e) for level, e in
                     zip(LUMPING_LEVELS, errors)])
        problems += [f"perturbed seed {seed} lumping error EOC {r:.3f} on "
                     f"levels {i}->{i + 1} below {RATE_FLOOR}"
                     for i, r in enumerate(rates) if not r >= RATE_FLOOR]
        summary.append(f"seed {seed}[" + ", ".join(f"{r:.2f}" for r in rates)
                       + f"; level-2 error {errors[-1]:.2e}]")
    record(not problems, "lumping error (perturbed meshes)",
           "EOC " + " ".join(summary))
    assert not problems, "; ".join(problems)


def test_convergence_gates_reject_synthetic_failures():
    hs = [2.0 ** -(3 + level) for level in A1_LEVELS]
    h = np.array(hs)

    _, found = rate_problems("first order", hs, list(h))
    assert found and "levels 0->1 below" in found[0]
    steep_start = h**2
    steep_start[0] *= 4                       # rates 4, 2, 2
    assert rate_problems("steep start", hs, list(steep_start))[1] == []
    third_finest = h**2
    third_finest[-1] = third_finest[-2] / 8   # rates 2, 2, 3
    _, found = rate_problems("third order", hs, list(third_finest))
    assert found == ["third order EOC 3.000 on finest levels 2->3 "
                     "outside [1.8, 2.2]"]

    assert reference_at(2.0 ** -4) == pytest.approx(REFERENCE_TABLE[4])
    diameters = [math.sqrt(2) * x for x in hs]
    refs = [reference_at(d) for d in diameters]
    assert refs[0] is None                    # coarser than the table
    assert reference_problems(
        diameters, [r or 1.0 for r in refs]) == ({1: 1.0, 2: 1.0, 3: 1.0}, [])
    for scale in (6.0, 1 / 6):
        ratios, found = reference_problems(
            diameters, [scale * r if r else 1.0 for r in refs])
        assert len(found) == 3 and all(
            r == pytest.approx(6.0) for r in ratios.values())
    _, found = reference_problems(diameters[:3], [r or 1.0 for r in refs[:3]])
    assert found == ["only 2 triangle levels within the table's diameters "
                     "(need 3)"]


@pytest.mark.parametrize("check", CHECKS,
                         ids=lambda c: c.__name__.removeprefix("check_"))
def test_property(check):
    result = check()
    record(result.passed, result.name, result.detail)
    assert result.passed, result.detail
