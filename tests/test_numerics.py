"""Branch conventions, vector algebra helpers, and the dense solve oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxdtn.errors import AmbiguousBranch
from maxdtn.numerics import cross, dot, matvec, sqrt_upper, vadd, vscale, vsub

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
    got = np.array(cross(list(a), list(b)))
    assert np.max(np.abs(got - np.cross(a, b))) < 1e-14
    assert abs(dot(list(a), list(b)) - a @ b) < 1e-14


def test_vector_helpers():
    a, b = [1.0, 2.0, 3.0], [0.5, -1.0, 2.0]
    assert vadd(a, b) == [1.5, 1.0, 5.0]
    assert vsub(a, b) == [0.5, 3.0, 1.0]
    assert vscale(2.0, a) == [2.0, 4.0, 6.0]


def test_skew_matches_cross():
    rng = np.random.default_rng(1)
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    S = np.array(skew(list(v)))
    assert np.max(np.abs(S @ w - np.cross(v, w))) < 1e-14


def test_outer_and_matvec():
    a, b = [1.0, 2.0, 0.0], [3.0, -1.0, 1.0]
    M = [[x * y for y in b] for x in a]
    v = matvec(M, [1.0, 1.0, 1.0])
    want = np.outer(a, b) @ np.ones(3)
    assert np.max(np.abs(np.array(v) - want)) < 1e-14


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
