"""Discrete quantization on the grid: exactness, norms, and warnings."""

import warnings

import numpy as np
import pytest

from maxdtn.quantizer import (AliasWarning, ConvergenceWarning,
                              _flat, _nyquist_mass, boundedness_check,
                              composition_defect, operator_norm, quantize)


def test_identity_symbol_exact():
    op = quantize(lambda x1, x2, s1, s2: 1.0 + 0.0 * x1 + 0.0 * s1, 0.1, 8)
    assert np.array_equal(op.matrix, np.eye(64, dtype=complex))
    assert operator_norm(op.matrix) == 1.0


def test_constant_symbol_exact():
    op = quantize(lambda x1, x2, s1, s2: (2.0 - 1.0j) + 0.0 * x1 + 0.0 * s1,
                  0.1, 8)
    assert np.array_equal(op.matrix, (2.0 - 1.0j) * np.eye(64, dtype=complex))


def test_multiplication_symbol_is_diagonal():
    a = lambda x1, x2, s1, s2: np.cos(x1) + np.sin(2 * x2) + 0.0 * s1
    op = quantize(a, 0.1, 8)
    assert np.count_nonzero(op.matrix - np.diag(np.diag(op.matrix))) == 0
    x = np.arange(8) * (2 * np.pi / 8)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    want = (np.cos(X1) + np.sin(2 * X2)).ravel()
    assert np.max(np.abs(np.diag(op.matrix) - want)) < 1e-14


def test_multiplier_symbol_on_plane_waves():
    # a pure xi-symbol acts on e^{i k x} by multiplication with a(h k)
    h, n = 0.25, 8
    a = lambda x1, x2, s1, s2: 1.0 / (1.0 + s1 ** 2 + 0.5 * s2 ** 2) + 0.0 * x1
    op = quantize(a, h, n)
    x = np.arange(n) * (2 * np.pi / n)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    for k1, k2 in [(0, 0), (1, 0), (2, 3), (-3, 1)]:
        v = np.exp(1j * (k1 * X1 + k2 * X2)).ravel()
        want = a(0, 0, h * k1, h * k2) * v
        assert np.max(np.abs(op.matrix @ v - want)) < 1e-12


def test_mixed_symbol_matches_direct_sum():
    # independent assembly of the quantization formula on a small grid
    h, n = 0.2, 4
    rng = np.random.default_rng(14)
    c = rng.normal(size=4)

    def a(x1, x2, s1, s2):
        return (c[0] + c[1] * np.cos(x1) + c[2] * np.sin(s2)
                + c[3] * np.cos(x2) * np.sin(s1))

    op = quantize(a, h, n)
    x = np.arange(n) * (2 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    pts = [(x[i], x[j]) for i in range(n) for j in range(n)]
    freqs = [(k[i], k[j]) for i in range(n) for j in range(n)]
    M = np.zeros((n * n, n * n), dtype=complex)
    for r, (x1, x2) in enumerate(pts):
        for cc, (y1, y2) in enumerate(pts):
            s = 0.0j
            for (k1, k2) in freqs:
                s += (a(x1, x2, h * k1, h * k2)
                      * np.exp(1j * (k1 * (x1 - y1) + k2 * (x2 - y2))))
            M[r, cc] = s / (n * n)
    assert np.max(np.abs(op.matrix - M)) < 1e-11


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(15)
    for _ in range(5):
        M = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        ref = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(operator_norm(M) - ref) < 1e-6 * ref


def test_alias_warning():
    n = 8
    # mixed symbol with all its spatial mass at the Nyquist band
    with pytest.warns(AliasWarning):
        quantize(lambda x1, x2, s1, s2:
                 np.cos((n // 2) * x1) * (1.0 + 0.1 * np.sin(s1)), 0.1, n)


def test_alias_warning_odd_grid():
    # odd n: the band is the two frequencies +-(n - 1)/2
    n = 9
    with pytest.warns(AliasWarning):
        quantize(lambda x1, x2, s1, s2:
                 np.cos((n // 2) * x2) * (1.0 + 0.1 * np.sin(s1)), 0.1, n)


@pytest.mark.parametrize("n", [8, 9])
def test_nyquist_mass_matches_full_fft(n):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    spec = np.fft.fft2(A.reshape(n, n, n * n), axes=(0, 1))
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    top = (k[:, None] >= n // 2) | (k[None, :] >= n // 2)
    mass, total = _nyquist_mass(A, n)
    assert abs(mass - np.sum(np.abs(spec[top, :]) ** 2)) <= 1e-12 * mass
    assert abs(total - np.sum(np.abs(spec) ** 2)) <= 1e-12 * total


def _dense_quantization(a, h, n):
    # the quantization formula as a product of two n^2 x n^2 DFT tables
    X1, X2, K1, K2 = _flat(n)
    A = np.broadcast_to(a(X1[:, None], X2[:, None], h * K1[None, :],
                          h * K2[None, :]), (n * n, n * n))
    G = np.exp(1j * (X1[:, None] * K1[None, :] + X2[:, None] * K2[None, :]))
    H = np.exp(-1j * (K1[:, None] * X1[None, :] + K2[:, None] * X2[None, :]))
    return (A * G) @ H / (n * n)


@pytest.mark.parametrize("n", [5, 16, 32])
def test_fft_assembly_matches_dense_product(n):
    mixed = lambda x1, x2, s1, s2: (np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
                                    + np.cos(x2) * s1 ** 2)
    multiplier = lambda x1, x2, s1, s2: 1.0 / (1.0 + s1 ** 2 + 0.3j * s2) + 0.0 * x1
    for a in (mixed, multiplier):
        want = _dense_quantization(a, 0.1, n)
        got = quantize(a, 0.1, n).matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_multiplier_field():
    h, n = 0.1, 8
    op = quantize(lambda x1, x2, s1, s2: np.sin(s1) + 2.0 + 0.0 * x1, h, n)
    _, _, K1, _ = _flat(n)
    assert np.array_equal(op.multiplier, np.sin(h * K1) + 2.0)
    assert quantize(lambda x1, x2, s1, s2: 3.0 + 0.0 * x1, h, n).multiplier is not None
    assert quantize(lambda x1, x2, s1, s2: np.cos(x1) + 0.0 * s1, h, n).multiplier is None
    assert quantize(lambda x1, x2, s1, s2: np.cos(x1) * np.sin(s2), h, n).multiplier is None


def test_multiplier_norm_matches_svd():
    def factory(h, th):
        def a(x1, x2, s1, s2):
            w = np.sqrt(complex(1.0, th) ** 2 - (s1 ** 2 + s2 ** 2))
            return 1.0 / np.where(w.imag > 0.0, w, -w) + 0.0 * x1
        return a
    rows, _ = boundedness_check(factory, [0.1], (0.1, 0.4), n=16)
    for h, th, norm in rows:
        ref = np.linalg.svd(quantize(factory(h, th), h, 16).matrix,
                            compute_uv=False)[0]
        assert abs(norm - ref) <= 1e-12 * ref


def test_operator_norm_warns_when_unconverged():
    # top two singular values 9e-5 apart: 300 iterations do not separate them
    M = np.diag([1.0, 1.0 - 9e-5, 0.5])
    with pytest.warns(ConvergenceWarning):
        operator_norm(M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(operator_norm(np.diag([1.0, 0.5, 0.25])) - 1.0) < 1e-9


def test_smooth_symbol_no_warning(recwarn):
    quantize(lambda x1, x2, s1, s2: np.cos(x1) + 0.0 * s1, 0.1, 16)
    assert not any(isinstance(w.message, AliasWarning) for w in recwarn.list)


def test_grid_budget():
    with pytest.raises(ValueError):
        quantize(lambda x1, x2, s1, s2: 1.0, 0.1, 65)


def test_composition_defect_first_order():
    a = lambda x1, x2, s1, s2: np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
    b = lambda x1, x2, s1, s2: np.cos(x2) * (1.0 + 0.4 * np.sin(s2 - 0.2))
    hs = [2.0 ** -k for k in range(3, 8)]
    defects, slope = composition_defect(a, b, hs, n=16)
    assert np.all(np.array(defects) > 0.0)
    assert 0.6 <= slope <= 1.4


def test_composition_commuting_pair_is_exact():
    # x-only times xi-only in that order composes exactly on the grid
    a = lambda x1, x2, s1, s2: np.cos(x1) + 0.0 * s1
    b = lambda x1, x2, s1, s2: np.sin(s1) + 0.0 * x1
    defects, slope = composition_defect(a, b, [0.25, 0.125], n=8)
    assert np.all(np.array(defects) < 1e-13)
    assert np.isnan(slope)
