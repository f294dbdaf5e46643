"""Branch conventions, vector algebra on the component axis, and the dense solve oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdtn.errors import AmbiguousBranch
from maxdtn.jets import Jet
from maxdtn.numerics import cross, dot, lift, sqrt_upper

from dense_oracle import Singular, cross_solve_oracle, skew


def test_sqrt_upper_branch():
    for w in (1 + 2j, 1 - 2j, -3 + 0.1j, -3 - 0.1j, -4 + 0j, 2j, -2j):
        r = sqrt_upper(w)
        assert r.imag > 0.0
        assert abs(r * r - w) < 1e-13 * max(1.0, abs(w))


def test_sqrt_upper_rejects_branch_cut():
    with pytest.raises(AmbiguousBranch):
        sqrt_upper(4.0)
    with pytest.raises(AmbiguousBranch):
        sqrt_upper(4.0 + 0.0j)


def test_sqrt_upper_array():
    w = np.array([1 + 2j, -5 + 0j, 0.3 - 0.7j])
    r = sqrt_upper(w)
    assert np.all(r.imag > 0)
    assert np.max(np.abs(r * r - w)) < 1e-13


def test_cross_dot_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.max(np.abs(cross(a, b) - np.cross(a, b))) < 1e-14
    assert abs(dot(a, b) - a @ b) < 1e-14
    # a batch of vectors: the last axis holds the components
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    assert cross(a, b).shape == (4, 3) and dot(a, b).shape == (4,)
    assert np.max(np.abs(cross(a, b) - np.cross(a, b))) < 1e-14
    assert np.max(np.abs(dot(a, b) - np.einsum("pi,pi->p", a, b))) < 1e-14
    # jets of batch (2, 3, 3): bitwise the component-wise formulas on the
    # jets of each component
    a, b = (Jet(3, rng.normal(size=(2, 3, 3, 10)) + 1j * rng.normal(size=(2, 3, 3, 10)))
            for _ in range(2))
    u, v = ([w[..., i] for i in range(3)] for w in (a, b))
    want = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    got = cross(a, b)
    assert got.batch == (2, 3, 3)
    for i in range(3):
        assert np.array_equal(got[..., i].coef, want[i].coef)
    got = dot(a, b)
    assert got.batch == (2, 3)
    assert np.array_equal(got.coef, (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]).coef)


def test_vector_helpers():
    # vectors combine by +, -, * ; lift gives a scalar per point its
    # trailing axis against them, and leaves a number alone
    a, b = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])
    assert np.array_equal(a + b, [1.5, 1.0, 5.0])
    assert np.array_equal(a - b, [0.5, 3.0, 1.0])
    assert lift(2.0) == 2.0
    assert np.array_equal(lift(2.0) * a, [2.0, 4.0, 6.0])
    s = np.array([2.0, -1.0])
    assert np.array_equal(lift(s) * a, [[2.0, 4.0, 6.0], [-1.0, -2.0, -3.0]])
    x = Jet.variable("x2", 0.5, 2)
    v = Jet.stack([x, 2.0 * x, 0.0 * x])
    assert v.batch == (3,) and lift(x).batch == (1,)
    assert np.array_equal((lift(x) * v).value, [0.25, 0.5, 0.0])


def test_skew_matches_cross():
    rng = np.random.default_rng(1)
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    S = np.array(skew(list(v)))
    assert np.max(np.abs(S @ w - np.cross(v, w))) < 1e-14


def test_outer_and_matvec():
    # a matrix applied to a vector is dot over the column axis
    a, b = np.array([1.0, 2.0, 0.0]), np.array([3.0, -1.0, 1.0])
    M = np.outer(a, b)
    v = dot(M, np.ones(3)[..., None, :])
    want = np.outer(a, b) @ np.ones(3)
    assert np.max(np.abs(v - want)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_oracle_vs_numpy_solve(seed):
    rng = np.random.default_rng(seed)
    n = 6
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    x, cond = cross_solve_oracle(m, rhs)
    ref = np.linalg.solve(m, rhs)
    assert np.linalg.norm(x - ref) < 1e-10 * np.linalg.norm(ref)
    assert cond > 0.0


def test_oracle_refinement_beats_ill_conditioning():
    # Hilbert-like matrix: cond ~ 1e8 at n = 7, refinement keeps the
    # forward error near machine level
    n = 7
    m = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)],
                 dtype=complex)
    x_true = np.arange(1, n + 1, dtype=complex)
    rhs = m @ x_true
    x, _ = cross_solve_oracle(m, rhs)
    assert np.linalg.norm(x - x_true) < 1e-8 * np.linalg.norm(x_true)


def test_oracle_singular():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(Singular):
        cross_solve_oracle(m, np.ones(3, dtype=complex))


def test_oracle_shape_check():
    with pytest.raises(ValueError):
        cross_solve_oracle(np.eye(3), np.ones(2, dtype=complex))
