"""Jet and NormalSeries arithmetic against direct polynomial evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdtn.jets import Jet, NormalSeries
from maxdtn.errors import ZeroConstantTerm

VARS = ("x2", "x3")


def _poly_jet(coef2, coef3, const, order=6):
    x2 = Jet.variable("x2", 0.3, VARS, order)
    x3 = Jet.variable("x3", -0.2, VARS, order)
    return const + coef2 * x2 + coef3 * x3 + x2 * x3 - 0.5 * x2 * x2


def _poly_direct(coef2, coef3, const, x2, x3):
    return const + coef2 * x2 + coef3 * x3 + x2 * x3 - 0.5 * x2 * x2


def test_evaluate_matches_direct():
    j = _poly_jet(1.5, -2.0, 0.7)
    for d2, d3 in [(0.0, 0.0), (0.01, -0.02), (0.1, 0.05)]:
        want = _poly_direct(1.5, -2.0, 0.7, 0.3 + d2, -0.2 + d3)
        got = j.evaluate(x2=d2, x3=d3)
        assert abs(got - want) < 1e-13


def test_value_and_coefficient():
    j = _poly_jet(1.5, -2.0, 0.7)
    assert abs(j.value - _poly_direct(1.5, -2.0, 0.7, 0.3, -0.2)) < 1e-14
    assert abs(j.coefficient(x2=1, x3=1) - 1.0) < 1e-14
    assert abs(j.coefficient(x2=2) + 0.5) < 1e-14


def test_derivative():
    j = _poly_jet(1.5, -2.0, 0.7)
    d = j.derivative("x2")
    # d/dx2 = 1.5 + x3 - x2 at the base point
    assert abs(d.value - (1.5 + (-0.2) - 0.3)) < 1e-14


def test_invert_roundtrip():
    j = _poly_jet(0.4, 0.1, 2.0)
    one = j * j.invert()
    assert abs(one.value - 1.0) < 1e-13
    assert one.max_abs() < 1.0 + 1e-12
    err = (one - 1.0).max_abs()
    assert err < 1e-12


def test_invert_zero_constant_raises():
    x2 = Jet.variable("x2", 0.0, VARS, 4)
    with pytest.raises(ZeroConstantTerm):
        (x2 - 0.0).invert()


def test_sqrt_upper_squares_back():
    j = _poly_jet(0.2, -0.1, 1.0 + 2.0j)
    r = j.sqrt_upper()
    assert r.value.imag > 0.0
    assert (r * r - j).max_abs() < 1e-12


def test_trig_identity():
    j = _poly_jet(0.5, 0.3, 0.9)
    s, c = j.sin(), j.cos()
    assert (s * s + c * c - 1.0).max_abs() < 1e-12


def test_exp_derivative_consistency():
    j = _poly_jet(0.5, 0.3, 0.2)
    e = j.exp()
    # d/dx2 exp(j) = exp(j) * dj/dx2
    lhs = e.derivative("x2")
    rhs = e * j.derivative("x2")
    assert (lhs - rhs).max_abs() < 1e-11


def test_truncate():
    j = _poly_jet(1.0, 1.0, 1.0, order=6)
    t = j.truncate(1)
    # first-order data survive: d/dx2 at the base is 1.0 + x3 - x2
    assert abs(t.coefficient(x2=1) - j.coefficient(x2=1)) < 1e-14
    assert abs(t.coefficient(x2=1) - (1.0 - 0.2 - 0.3)) < 1e-14
    assert t.order == 1


def test_mixed_order_operands_truncate_to_the_weaker():
    # products and sums of jets of different orders read only the entries
    # of degree <= the weaker order, with any table layout of the stronger
    rng = np.random.default_rng(5)

    def random_jet(order):
        shape = (order + 1,) * 2
        coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coef[np.add.outer(np.arange(order + 1), np.arange(order + 1)) > order] = 0.0
        return Jet(VARS, order, coef)

    for hi, lo in ((6, 2), (3, 0), (8, 7)):
        a, b = random_jet(hi), random_jet(lo)
        a_lo, b_lo = a.truncate(lo), b.truncate(lo)
        for got, want in ((a * b, a_lo * b_lo), (b * a, b_lo * a_lo),
                          (a + b, a_lo + b_lo), (b - a, b_lo - a_lo)):
            assert got.order == lo
            assert np.max(np.abs(got.coef - want.coef)) < 1e-13
    with pytest.raises(ValueError):
        Jet.constant(1.0, VARS, 2) * Jet.constant(1.0, ("x2",), 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.lists(st.floats(-2, 2), min_size=3, max_size=3))
def test_distributive_law(p, q):
    x2 = Jet.variable("x2", 0.1, VARS, 4)
    a = p[0] + p[1] * x2 + p[2] * x2 * x2
    b = q[0] + q[1] * x2 + q[2] * x2 * x2
    c = 1.3 - 0.4 * x2
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert (lhs - rhs).max_abs() < 1e-10


def test_normal_series_product():
    x2 = Jet.variable("x2", 0.3, VARS, 4)
    c0 = 1.0 + 0.2 * x2
    c1 = 0.5 * x2
    s = NormalSeries([c0, c1, c0 * 0.1])
    t = NormalSeries([c1 + 2.0, c0, c1])
    prod = s * t
    # x1^1 coefficient: c0*c0 + c1*(c1+2)
    want = c0 * c0 + c1 * (c1 + 2.0)
    assert (prod.coeffs[1] - want).max_abs() < 1e-12


def test_normal_series_invert():
    x2 = Jet.variable("x2", 0.3, VARS, 4)
    s = NormalSeries([2.0 + 0.1 * x2, 0.3 * x2, x2 * 0.0])
    one = s * s.invert()
    assert abs(one.coeffs[0].value - 1.0) < 1e-13
    for c in one.coeffs[1:]:
        assert c.max_abs() < 1e-12


def test_normal_series_dx1():
    x2 = Jet.variable("x2", 0.3, VARS, 4)
    s = NormalSeries([x2 * 0.0 + 1.0, 2.0 + 0.0 * x2, 3.0 + 0.0 * x2])
    d = s.dx1()
    assert abs(d.coeffs[0].value - 2.0) < 1e-14
    assert abs(d.coeffs[1].value - 6.0) < 1e-14


def test_normal_series_eval_x1():
    x2 = Jet.variable("x2", 0.3, VARS, 4)
    s = NormalSeries([x2 * 0.0 + 1.0, x2 * 0.0 + 2.0, x2 * 0.0 - 1.0])
    v = s.eval_x1(0.1)
    assert abs(v.value - (1.0 + 0.2 - 0.01)) < 1e-13
