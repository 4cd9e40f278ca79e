"""Lumped and oracle quadrature rules on the reference cells."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hdivwave.quadrature import (
    LUMPED_BETA,
    LUMPED_EXACT_DEGREE,
    QUAD,
    REF_AREA,
    REF_MIDPOINT,
    REF_VERTICES,
    TRIANGLE,
    exact_ref_integral,
    gauss_01,
    lumped_rule,
    oracle_rule,
)
from hdivwave.verify import check_exactness


def closed_form_integral(shape, a, b):
    # independent of the package: unit triangle a!b!/(a+b+2)!, unit square
    # 1/((a+1)(b+1))
    if shape == TRIANGLE:
        return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    return 1.0 / ((a + 1) * (b + 1))


def lumped_integral(rule, f):
    vals = f(rule.points[:, 0], rule.points[:, 1])
    return float(rule.weights @ vals)


def test_point_layout():
    for shape in (TRIANGLE, QUAD):
        rule = lumped_rule(shape)
        assert_allclose(rule.points[0], REF_MIDPOINT[shape])
        assert_allclose(rule.points[1:], REF_VERTICES[shape])


def test_weights_sum_to_one_and_are_positive():
    for shape in (TRIANGLE, QUAD):
        # as fractions of |K|
        rule = lumped_rule(shape)
        assert np.all(rule.weights > 0)
        assert_allclose(rule.weights.sum() / REF_AREA[shape], 1.0, rtol=1e-15)


def test_stated_weights():
    tri = lumped_rule(TRIANGLE)
    quad = lumped_rule(QUAD)
    # the paper states them as fractions of |K|
    assert_allclose(tri.weights / REF_AREA[TRIANGLE],
                    [3 / 4, 1 / 12, 1 / 12, 1 / 12], rtol=1e-15)
    assert_allclose(quad.weights / REF_AREA[QUAD],
                    [2 / 3, 1 / 12, 1 / 12, 1 / 12, 1 / 12], rtol=1e-15)
    assert LUMPED_BETA == pytest.approx(1 / 12)


@pytest.mark.parametrize("shape", [TRIANGLE, QUAD])
def test_monomial_exactness(shape):
    rule = lumped_rule(shape)
    deg = LUMPED_EXACT_DEGREE[shape]
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            got = lumped_integral(rule, lambda x, y: x**a * y**b)
            want = closed_form_integral(shape, a, b)
            assert got == pytest.approx(want, rel=1e-12), f"x^{a} y^{b}"


def test_exact_ref_integral_matches_closed_form():
    for shape in (TRIANGLE, QUAD):
        for a in range(7):
            for b in range(7 - a):
                assert exact_ref_integral(shape, a, b) == pytest.approx(
                    closed_form_integral(shape, a, b), rel=1e-14)


def test_triangle_misintegrates_cubics():
    rule = lumped_rule(TRIANGLE)
    got = lumped_integral(rule, lambda x, y: x**3)
    assert got == pytest.approx(1 / 18, rel=1e-13)
    assert closed_form_integral(TRIANGLE, 3, 0) == pytest.approx(1 / 20)
    assert got != pytest.approx(1 / 20, rel=1e-3)


def test_square_misintegrates_quartics():
    rule = lumped_rule(QUAD)
    got = lumped_integral(rule, lambda x, y: x**4)
    assert got == pytest.approx(5 / 24, rel=1e-13)
    assert closed_form_integral(QUAD, 4, 0) == pytest.approx(1 / 5)
    assert got != pytest.approx(1 / 5, rel=1e-3)


def test_beta_override_breaks_degree_two():
    # negative control: the stated vertex weight is not a free parameter
    rule = lumped_rule(TRIANGLE, beta=1 / 10)
    got = lumped_integral(rule, lambda x, y: x**2)
    want = closed_form_integral(TRIANGLE, 2, 0)
    assert abs(got - want) > 1e-3 * abs(want)
    # constants stay exact because the midpoint weight is renormalized
    assert lumped_integral(rule, lambda x, y: np.ones_like(x)) == pytest.approx(
        0.5, rel=1e-14)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_nonfinite_beta_fails_the_exactness_check(beta):
    with np.errstate(invalid="ignore"):
        assert check_exactness(beta_override=beta).passed is False


def test_unknown_shape_raises():
    with pytest.raises(ValueError):
        lumped_rule("hexagon")


def assert_positive_and_exact(rule, shape, degree, rel):
    # the one proof of the oracle rules: nothing checks them as they are built
    assert np.all(rule.weights > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(rule.weights @ (rule.points[:, 0]**a
                                        * rule.points[:, 1]**b))
            want = closed_form_integral(shape, a, b)
            assert got == pytest.approx(want, rel=rel), f"x^{a} y^{b}"


@pytest.mark.parametrize("shape", [TRIANGLE, QUAD])
def test_oracle_rule_degree_six(shape):
    assert_positive_and_exact(oracle_rule(shape, degree=6), shape, 6, 1e-13)


@pytest.mark.parametrize("shape", [TRIANGLE, QUAD])
def test_oracle_rule_degree_twelve(shape):
    assert_positive_and_exact(oracle_rule(shape, degree=12), shape, 12, 1e-12)


@pytest.mark.parametrize("degree", [6, 12])
@pytest.mark.parametrize("shape", [TRIANGLE, QUAD])
def test_oracle_rule_is_shared_read_only(shape, degree):
    # cached: an edit in place would reach every later error norm
    rule = oracle_rule(shape, degree)
    assert oracle_rule(shape, degree) is rule
    for a in (rule.points, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_gauss_01_exactness():
    for n in (1, 2, 6, 12):
        x, w = gauss_01(n)
        # built once, and shared read-only
        assert gauss_01(n)[0] is x and not x.flags.writeable
        assert not w.flags.writeable
        assert np.all((x > 0) & (x < 1))
        for k in range(2 * n):
            assert float(w @ x**k) == pytest.approx(1 / (k + 1), rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(st.floats(-10, 10), min_size=6, max_size=6))
def test_lumped_exact_on_random_quadratics(coeffs):
    # any element of P2 integrates exactly on the triangle
    c = np.asarray(coeffs)

    def f(x, y):
        return (c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y
                + c[5] * y * y)

    rule = lumped_rule(TRIANGLE)
    want = sum(c[i] * closed_form_integral(TRIANGLE, a, b)
               for i, (a, b) in enumerate(
                   [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]))
    assert lumped_integral(rule, f) == pytest.approx(want, rel=1e-12,
                                                     abs=1e-12)
