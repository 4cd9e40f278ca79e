"""Error norms, quadrature-defect functional, and EOC computation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdivwave.analysis import (
    ErrorReport,
    div_l2_error,
    div_norm_cells,
    eoc,
    error_report,
    field_l2_error,
    lowest_rate,
    lumped_l2_error,
    project_p1_field,
    rates,
    sigma_cells,
)
from hdivwave.assembly import build_dofmap, interpolate_field
from hdivwave.mesh import MeshFamily, generate
from hdivwave.verify import exp_field, smooth_div, smooth_field

from conftest import linear_field

# published convergence table this implementation is benchmarked against
TABLE_ROWS = [(2**-3, 0.270790), (2**-4, 0.060266), (2**-5, 0.016328),
              (2**-6, 0.004343), (2**-7, 0.001046)]
TABLE_RATES = [2.17, 1.88, 1.91, 2.06]


# ----------------------------------------------------------------------- eoc

def test_eoc_reproduces_published_rates():
    assert eoc(TABLE_ROWS[:2]) == pytest.approx([2.17], abs=0.005)
    assert eoc(TABLE_ROWS[1:3]) == pytest.approx([1.88], abs=0.005)
    # the published table rounds errors to 6 decimals but computed its rates
    # from unrounded values, so the tail rate needs the wider bracket
    assert eoc(TABLE_ROWS) == pytest.approx(TABLE_RATES, abs=0.0075)


def test_eoc_exact_halving_is_first_order():
    rates = eoc([(0.5, 0.1), (0.25, 0.05), (0.125, 0.025)])
    assert_allclose(rates, [1.0, 1.0], atol=1e-12)


def test_eoc_zero_error_reported_as_nan():
    rates = eoc([(0.5, 0.1), (0.25, 0.0)])
    assert len(rates) == 1 and math.isnan(rates[0])


def test_eoc_length_and_single_pair():
    assert eoc([(0.5, 0.1)]) == []
    assert len(eoc(TABLE_ROWS)) == len(TABLE_ROWS) - 1


# --------------------------------------------------------- sigma functional

def test_sigma_vanishes_for_constants():
    dofmap = build_dofmap(generate(MeshFamily("hybrid"), 1))
    u = lambda p: np.broadcast_to([0.7, -0.3], p.shape)
    v = interpolate_field(dofmap, lambda p: np.broadcast_to([1.0, 2.0], p.shape))
    assert np.max(np.abs(sigma_cells(dofmap, project_p1_field(dofmap, u),
                                     v))) <= 1e-13


def test_sigma_vanishes_on_parallelograms():
    dofmap = build_dofmap(generate(MeshFamily("structured-quad"), 2))
    p1u = project_p1_field(dofmap, smooth_field)
    v = interpolate_field(dofmap, smooth_field)
    assert np.max(np.abs(sigma_cells(dofmap, p1u, v))) <= 1e-12


def test_sigma_is_bilinear_in_u():
    dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), 1))
    v = interpolate_field(dofmap, smooth_field)
    u1 = lambda p: np.column_stack([np.exp(p[:, 0]), p[:, 1] ** 3])
    u2 = lambda p: np.column_stack([np.cos(p[:, 1]), p[:, 0] * p[:, 1]])
    combo = lambda p: 2.0 * u1(p) - 0.5 * u2(p)
    def sigma_h(u):
        return float(np.sum(sigma_cells(dofmap, project_p1_field(dofmap, u),
                                        v)))

    lhs = sigma_h(combo)
    rhs = 2.0 * sigma_h(u1) - 0.5 * sigma_h(u2)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_sigma_normalized_decay_on_triangles():
    # exp_field's divergence is bounded away from zero, so every cell
    # normalizes; check_sigma_defect gates the rate, not that it does
    worst = []
    for level in range(3):
        dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), level))
        p1u = project_p1_field(dofmap, exp_field)
        v = interpolate_field(dofmap, exp_field)
        defect = np.abs(sigma_cells(dofmap, p1u, v))
        scale = div_norm_cells(dofmap, v)
        assert scale.min() > 0
        worst.append(float(np.max(defect / scale)))
    rates = [np.log2(worst[i] / worst[i + 1]) for i in range(2)]
    assert min(rates) >= 1.8


# --------------------------------------------------------------- error norms

def test_field_norm_of_constant():
    dofmap = build_dofmap(generate(MeshFamily("hybrid"), 1))
    c = interpolate_field(dofmap, lambda p: np.broadcast_to([3.0, 4.0], p.shape))
    assert field_l2_error(dofmap, c) == pytest.approx(5.0, rel=1e-12)


def test_divergence_norm_and_error_on_linears():
    dofmap = build_dofmap(generate(MeshFamily("structured-quad"), 1))
    c = interpolate_field(dofmap, linear_field)
    assert div_l2_error(dofmap, c) == pytest.approx(1.6, rel=1e-12)
    exact_div = lambda p: np.full(len(p), 1.6)
    assert div_l2_error(dofmap, c, exact_div=exact_div) <= 1e-12


def test_lumped_distance_to_own_projection():
    dofmap = build_dofmap(generate(MeshFamily("hybrid"), 1))
    c_lin = interpolate_field(dofmap, linear_field)
    p1_lin = project_p1_field(dofmap, linear_field)
    assert lumped_l2_error(dofmap, c_lin, p1_lin) <= 1e-12
    c = interpolate_field(dofmap, smooth_field)
    p1 = project_p1_field(dofmap, smooth_field)
    assert lumped_l2_error(dofmap, c, p1) > 1e-6


def test_p1_projection_reproduces_linears():
    dofmap = build_dofmap(generate(MeshFamily("perturbed", seed=5), 1))
    p1 = project_p1_field(dofmap, linear_field)
    for gi, g in enumerate(dofmap.groups):
        ref = np.array([[1 / 3, 1 / 3], [0.2, 0.1], [0.6, 0.3]])
        phys = g.phys_points(ref)
        vals = p1.eval(gi, phys)
        exact = linear_field(phys.reshape(-1, 2)).reshape(vals.shape)
        assert_allclose(vals, exact, atol=1e-12)


# -------------------------------------------------------------- error report

def test_error_report_zero_state_is_zero():
    dofmap = build_dofmap(generate(MeshFamily("structured-triangle"), 1))
    z = np.zeros(dofmap.ndof)
    zf = lambda p: np.zeros((len(p), 2))
    zd = lambda p: np.zeros(len(p))
    rep = error_report(dofmap, z, z, zf, zf, zd, h=0.25)
    for name in ("energy_error", "discrete_error", "vel_l2", "div_l2",
                 "vel_h", "div_h"):
        assert getattr(rep, name) == 0.0


def test_error_report_on_interpolants_second_order():
    vel = lambda p: 0.3 * np.column_stack([np.cos(p[:, 0] + p[:, 1]),
                                           np.sin(p[:, 0] - p[:, 1])])
    reports = []
    for level in range(3):
        fam = MeshFamily("structured-triangle")
        dofmap = build_dofmap(generate(fam, level))
        u_c = interpolate_field(dofmap, smooth_field)
        v_c = interpolate_field(dofmap, vel)
        rep = error_report(dofmap, u_c, v_c, smooth_field, vel, smooth_div,
                           h=fam.h_at(level))
        for name in ("energy_error", "discrete_error", "vel_l2", "div_l2",
                     "vel_h", "div_h"):
            assert getattr(rep, name) >= 0
        reports.append(rep)
    for a, b in zip(reports, reports[1:]):
        assert np.log2(a.energy_error / b.energy_error) >= 1.8
        assert np.log2(a.discrete_error / b.discrete_error) >= 1.8


def test_rates_fill_consecutive_pairs():
    mk = lambda h, e: ErrorReport(h=h, energy_error=e, discrete_error=e / 2,
                                  vel_l2=0, div_l2=0, vel_h=0, div_h=0)
    reports = [mk(0.5, 0.4), mk(0.25, 0.1)]
    for measure in ("energy", "discrete"):
        got = rates(reports, measure)
        assert got[0] is None
        assert got[1] == pytest.approx(2.0, abs=1e-12)


def test_lowest_rate_takes_the_slowest_pair():
    assert lowest_rate([(0.5, 0.4), (0.25, 0.1), (0.125, 0.05)]) == (
        1, pytest.approx(1.0, abs=1e-12))
    i, rate = lowest_rate([(0.5, 0.4), (0.25, 0.0), (0.125, 0.05)])
    assert i == 0 and math.isnan(rate)
