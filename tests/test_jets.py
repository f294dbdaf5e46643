"""Jet and NormalSeries arithmetic against direct polynomial evaluation."""

import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdtn import cli, jets
from maxdtn.config import RunConfig
from maxdtn.jets import VARS, Jet, NormalSeries
from maxdtn.errors import AmbiguousBranch, ZeroConstantTerm


def _poly_jet(coef2, coef3, const, order=6):
    x2 = Jet.variable("x2", 0.3, order)
    x3 = Jet.variable("x3", -0.2, order)
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
    x2 = Jet.variable("x2", 0.0, 4)
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


def test_truncate():
    j = _poly_jet(1.0, 1.0, 1.0, order=6)
    t = j.truncate(1)
    # first-order data survive: d/dx2 at the base is 1.0 + x3 - x2
    assert abs(t.coefficient(x2=1) - j.coefficient(x2=1)) < 1e-14
    assert abs(t.coefficient(x2=1) - (1.0 - 0.2 - 0.3)) < 1e-14
    assert t.order == 1


def _size(order):
    return (order + 1) * (order + 2) // 2


def test_storage_is_a_degree_prefix():
    # coefficients of degree <= o in degree order, x2^i x3^j at position
    # d(d+1)/2 + i with d = i + j: a truncation is a prefix
    for order in range(9):
        assert Jet.constant(1.0, order).coef.shape == (_size(order),)
    j = _random_jet(np.random.default_rng(11), (), 6)
    for k in range(7):
        assert np.array_equal(j.truncate(k).coef, j.coef[:_size(k)])
    for d in range(7):
        for i in range(d + 1):
            assert j.coefficient(x2=i, x3=d - i) == j.coef[d * (d + 1) // 2 + i]


def test_mixed_order_operands_truncate_to_the_weaker():
    # products and sums of jets of different orders read only the entries
    # of degree <= the weaker order: bitwise those of the truncated operands
    rng = np.random.default_rng(5)

    def random_jet(order):
        shape = (_size(order),)
        return Jet(order, rng.normal(size=shape) + 1j * rng.normal(size=shape))

    for hi, lo in ((6, 2), (3, 0), (8, 7)):
        a, b = random_jet(hi), random_jet(lo)
        a_lo, b_lo = a.truncate(lo), b.truncate(lo)
        for got, want in ((a * b, a_lo * b_lo), (b * a, b_lo * a_lo),
                          (a + b, a_lo + b_lo), (b - a, b_lo - a_lo)):
            assert got.order == lo
            assert np.array_equal(got.coef, want.coef)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.lists(st.floats(-2, 2), min_size=3, max_size=3))
def test_distributive_law(p, q):
    x2 = Jet.variable("x2", 0.1, 4)
    a = p[0] + p[1] * x2 + p[2] * x2 * x2
    b = q[0] + q[1] * x2 + q[2] * x2 * x2
    c = 1.3 - 0.4 * x2
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert (lhs - rhs).max_abs() < 1e-10


def test_normal_series_product():
    x2 = Jet.variable("x2", 0.3, 4)
    c0 = 1.0 + 0.2 * x2
    c1 = 0.5 * x2
    s = NormalSeries([c0, c1, c0 * 0.1])
    t = NormalSeries([c1 + 2.0, c0, c1])
    prod = s * t
    # x1^1 coefficient: c0*c0 + c1*(c1+2)
    want = c0 * c0 + c1 * (c1 + 2.0)
    assert (prod.coeffs[1] - want).max_abs() < 1e-12


def test_normal_series_invert():
    x2 = Jet.variable("x2", 0.3, 4)
    s = NormalSeries([2.0 + 0.1 * x2, 0.3 * x2, x2 * 0.0])
    one = s * s.invert()
    assert abs(one.coeffs[0].value - 1.0) < 1e-13
    for c in one.coeffs[1:]:
        assert c.max_abs() < 1e-12


# -- batched jets --------------------------------------------------------

BATCHES = st.sampled_from([(3,), (2, 3)])


def _random_jet(rng, batch, order, const=None):
    shape = batch + (_size(order),)
    coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if const is not None:
        coef[..., 0] = const
    return Jet(order, coef)


def _assert_elementwise(got, batch, op, *operands):
    # every element of a batched result equals, bit for bit, op on that
    # element's operands (unbatched operands broadcast)
    assert got.batch == batch
    for idx in np.ndindex(*batch):
        want = op(*(x[idx] if isinstance(x, Jet) and x.batch else x for x in operands))
        assert want.batch == () and got.order == want.order
        assert np.array_equal(got[idx].coef, want.coef)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=BATCHES,
       orders=st.tuples(st.integers(0, 6), st.integers(0, 6)), both=st.booleans())
def test_batched_ring_ops_match_elementwise(seed, batch, orders, both):
    # bitwise, with mixed orders and a batched x batched or batched x
    # unbatched pair in either order
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, batch, orders[0])
    b = _random_jet(rng, batch if both else (), orders[1])
    c = complex(*rng.normal(size=2))
    for op in (operator.mul, operator.add, operator.sub):
        _assert_elementwise(op(a, b), batch, op, a, b)
        _assert_elementwise(op(b, a), batch, op, b, a)
    _assert_elementwise(-a, batch, operator.neg, a)
    _assert_elementwise(c * a, batch, operator.mul, c, a)
    _assert_elementwise(a * 2.5, batch, operator.mul, a, 2.5)
    _assert_elementwise(a + c, batch, operator.add, a, c)
    _assert_elementwise(1.0 - a, batch, operator.sub, 1.0, a)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=BATCHES, order=st.integers(1, 7))
def test_batched_calculus_matches_elementwise(seed, batch, order):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, batch, order)
    for var in VARS:
        _assert_elementwise(a.derivative(var), batch, Jet.derivative, a, var)
    for lower in range(order):
        _assert_elementwise(a.truncate(lower), batch, Jet.truncate, a, lower)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=BATCHES, order=st.integers(0, 6))
def test_batched_series_match_elementwise(seed, batch, order):
    # per-element series coefficients (the constant terms differ by element)
    # are computed in the unbatched jet's scalar arithmetic: bitwise equal
    rng = np.random.default_rng(seed)
    const = 1.0 + 0.5 * (rng.uniform(size=batch) + 1j * rng.uniform(size=batch))
    a = _random_jet(rng, batch, order, const=const)
    for f in (Jet.invert, Jet.sqrt_upper, Jet.sin, Jet.cos):
        _assert_elementwise(f(a), batch, f, a)
    series = [rng.normal(size=batch) + 1j * rng.normal(size=batch) for _ in range(order + 1)]
    got = a.compose_series(series)
    for idx in np.ndindex(*batch):
        want = a[idx].compose_series([s[idx] for s in series])
        assert np.array_equal(got[idx].coef, want.coef)


def test_batched_value_and_views():
    rng = np.random.default_rng(3)
    a = _random_jet(rng, (2, 3), 4)
    assert a.value.shape == (2, 3)
    assert a.value[1, 2] == a[1, 2].value == a[1][2].value
    assert isinstance(a[0, 1].value, complex)
    assert a[1].batch == (3,)
    with pytest.raises(IndexError):
        a[0, 0][0]
    # numpy arrays of the batch shape act as one scalar per element
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal((w * a).coef, (a * w).coef)
    assert np.array_equal((a + w).value, a.value + w)


def test_getitem_indexes_batch_axes_only():
    # Ellipsis and None index batch axes: an order-1 jet of batch (2, 3)
    # keeps all three coefficients of each element
    rng = np.random.default_rng(6)
    j = Jet(1, rng.normal(size=(2, 3, 3)))
    last = j[..., 0]
    assert last.batch == (2,) and last.order == 1
    assert np.array_equal(last.coef, j.coef[:, 0, :])
    new = j[..., None]
    assert new.batch == (2, 3, 1) and np.array_equal(new.coef[..., 0, :], j.coef)
    assert j[None].batch == (1, 2, 3)
    gathered = j[..., [2, 0]]
    assert gathered.batch == (2, 2)
    assert np.array_equal(gathered.coef, j.coef[:, [2, 0], :])
    with pytest.raises(IndexError):
        j[0, 0, 0]


@pytest.mark.parametrize("batch,bad", [((3,), (1,)), ((2, 3), (1, 2))],
                         ids=["3", "2x3"])
def test_batched_zero_constant_raises(batch, bad):
    rng = np.random.default_rng(4)
    const = np.ones(batch, dtype=complex)
    const[bad] = 0.0
    a = _random_jet(rng, batch, 3, const=const)
    with pytest.raises(ZeroConstantTerm, match=re.escape(f"batch index {bad}")):
        a.invert()
    const = np.full(batch, 1j)
    const[bad] = 2.0   # on the cut [0, +inf) of sqrt_upper
    with pytest.raises(AmbiguousBranch, match=re.escape(f"batch index {bad}")):
        _random_jet(rng, batch, 3, const=const).sqrt_upper()


def test_product_plan_cache_is_bounded():
    # the plans' index tables scale with the batch, so the cache is bounded;
    # a default dtn-compare builds 21 plans, and a second one builds none
    assert jets._product_plan.cache_info().maxsize == 256
    cli.cmd_dtn_compare(RunConfig())
    misses = jets._product_plan.cache_info().misses
    cli.cmd_dtn_compare(RunConfig())
    assert jets._product_plan.cache_info().misses == misses
