"""Frequency bookkeeping, principal symbols, and the low-frequency cutoff."""

import numpy as np
import pytest

from maxdtn.errors import RealFrequency, ZeroFrequencyCovector
from maxdtn.geometry import MediaField, SurfaceChart
from maxdtn.spectral import (C0_DEFAULT, SpectralParameter, calB, cutoff_eta,
                             cutoff_eta_prime, m0_matrix, m_matrix, rho,
                             split_lambda, symbol_m)


@pytest.mark.parametrize("lam", [5 + 2j, -5 + 2j, 3 - 7j, 0.1 + 0.4j, 100 + 1j])
def test_split_lambda_invariants(lam):
    sp = split_lambda(lam)
    assert abs(sp.z - sp.h * lam) < 1e-15 * abs(lam)
    assert abs(max(abs(sp.z.real), abs(sp.z.imag)) - 1.0) < 1e-14
    assert abs(sp.theta - abs(sp.z.imag)) < 1e-15


def test_split_lambda_real_raises():
    with pytest.raises(RealFrequency):
        split_lambda(4.0)


def test_rho_branch_and_square():
    sp = split_lambda(5 + 2j)
    for r0 in (0.5, 5.0, 500.0):
        rv = rho(r0, sp, 2.0)
        assert rv.imag > 0.0
        assert abs(rv * rv - (sp.z ** 2 * 2.0 - r0)) < 1e-13 * max(1.0, r0)


def test_calB_rank_one():
    beta = np.array([0.0, 1.2, -0.7])
    B = calB(beta)
    r0 = beta @ beta
    assert np.max(np.abs(B @ B - r0 * B)) < 1e-13
    assert np.linalg.matrix_rank(B) == 1


def test_m_matrix_eigenstructure():
    z, mu0 = (1 + 0.4j), 1.3
    beta = np.array([0.0, 1.2, -0.7])
    r0 = beta @ beta
    rv = complex(np.sqrt(z ** 2 * 2.0 - r0))
    if rv.imag <= 0:
        rv = -rv
    M = m_matrix(z, mu0, rv, beta)
    # beta direction: eigenvalue (rho + r0/rho)/(z mu0)
    got = M @ beta
    want = (rv + r0 / rv) / (z * mu0) * beta
    assert np.max(np.abs(got - want)) < 1e-13
    # any direction orthogonal to beta: eigenvalue rho/(z mu0)
    v = np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(M @ v - rv / (z * mu0) * v)) < 1e-13


def test_m0_matrix_value_and_guard():
    z, mu0 = (1 + 0.4j), 1.3
    beta = np.array([0.0, 2.0, 0.0])
    M0 = m0_matrix(z, mu0, 4.0, beta)
    # perpendicular eigenvalue i sqrt(r0)/(z mu0); beta eigenvalue 0
    v = np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(M0 @ v - 2j / (z * mu0) * v)) < 1e-13
    assert np.max(np.abs(M0 @ beta)) < 1e-13
    with pytest.raises(ZeroFrequencyCovector):
        m0_matrix(z, mu0, 0.0, beta)


def test_m_matrix_batched():
    z, mu0 = (1 + 0.4j), 1.0
    beta = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    rv = np.array([1 + 1j, 0.5 + 2j])
    M = m_matrix(z, mu0, rv, beta)
    assert M.shape == (2, 3, 3)
    single = m_matrix(z, mu0, rv[1], beta[1])
    assert np.max(np.abs(M[1] - single)) < 1e-14


def test_symbol_m_media_scaling():
    # scaling mu by c changes m only through mu0 and rho
    sp = split_lambda(5 + 2j)
    chart = SurfaceChart.sphere(1.0)
    x = (1.1, 0.4, 0.8, -0.3)
    m1 = symbol_m(sp, chart, MediaField.constant(2.0, 1.0))(*x)
    m2 = symbol_m(sp, chart, MediaField.constant(1.0, 2.0))(*x)
    # eps*mu identical so rho agrees; entries differ exactly by the mu0 ratio
    assert np.max(np.abs(2.0 * m2 - m1)) < 1e-13


def test_symbol_m0_flags():
    # m, unlike its flattening m0, reads eps: media differing only in eps
    # give different matrices
    sp = split_lambda(5 + 2j)
    chart = SurfaceChart.sphere(1.0)
    x = (1.1, 0.4, 0.8, -0.3)
    assert not np.array_equal(symbol_m(sp, chart, MediaField.constant(2.0, 1.3))(*x),
                              symbol_m(sp, chart, MediaField.constant(5.0, 1.3))(*x))


def test_cutoff_eta_plateaus():
    assert cutoff_eta(0.5 * C0_DEFAULT) == 1.0
    assert cutoff_eta(C0_DEFAULT) == 1.0
    assert cutoff_eta(2.0 * C0_DEFAULT) == 0.0
    assert cutoff_eta(5.0 * C0_DEFAULT) == 0.0
    mid = cutoff_eta(1.5 * C0_DEFAULT)
    assert 0.0 < mid < 1.0


def test_cutoff_eta_monotone():
    r = np.linspace(0.0, 3.0 * C0_DEFAULT, 400)
    v = cutoff_eta(r)
    assert np.all(np.diff(v) <= 1e-12)


def test_cutoff_eta_prime_matches_fd():
    r = np.linspace(1.05 * C0_DEFAULT, 1.95 * C0_DEFAULT, 50)
    d = 1e-6
    fd = (cutoff_eta(r + d) - cutoff_eta(r - d)) / (2 * d)
    assert np.max(np.abs(cutoff_eta_prime(r) - fd)) < 1e-7
