"""Discrete semiclassical quantization on the flat 2-torus.

Left quantization on a periodic n x n grid: the operator multiplies the
k-th Fourier coefficient by a(x', h k) and transforms back, realized as a
dense n^2 x n^2 matrix (this module exists to verify norm and composition
estimates, not for performance).  Pure multiplication and pure multiplier
symbols short-circuit to their exact matrices so the algebraic invariants
hold to the last bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class AliasWarning(UserWarning):
    """Symbol carries non-negligible mass at the highest grid frequencies."""


@dataclass
class GridOperator:
    """Dense realization of Op_h(a) on the n x n periodic grid."""
    n: int
    h: float
    matrix: np.ndarray


def _grid(n):
    x = np.arange(n) * (2.0 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)          # integer frequencies
    return x, k


def _flat(n):
    x, k = _grid(n)
    X1, X2 = [v.ravel() for v in np.meshgrid(x, x, indexing="ij")]
    K1, K2 = [v.ravel() for v in np.meshgrid(k, k, indexing="ij")]
    return X1, X2, K1, K2


def quantize(a, h, n):
    """Dense matrix of the left quantization of ``a(x1, x2, xi1, xi2)``.

    ``a`` must broadcast over numpy arrays; it is sampled at the grid
    points x' and the scaled frequencies xi' = h k.  Emits
    :class:`AliasWarning` when more than 1e-8 of the symbol's spatial
    spectral mass sits in the highest-frequency band of the grid.
    """
    if n > 64:
        raise ValueError("dense quantizer budget is n <= 64")
    X1, X2, K1, K2 = _flat(n)
    A = np.asarray(a(X1[:, None], X2[:, None],
                     h * K1[None, :], h * K2[None, :]), dtype=complex)
    if A.shape != (n * n, n * n):
        A = np.broadcast_to(A, (n * n, n * n)).copy()
    # exact short-circuits: constants and pure multiplication operators
    if np.ptp(A.real) == 0.0 and np.ptp(A.imag) == 0.0:
        return GridOperator(n, h, A[0, 0] * np.eye(n * n, dtype=complex))
    if np.all(A == A[:, :1]):
        return GridOperator(n, h, np.diag(A[:, 0]))
    _alias_check(A, n)
    G = np.exp(1j * (X1[:, None] * K1[None, :] + X2[:, None] * K2[None, :]))
    H = np.exp(-1j * (K1[:, None] * X1[None, :] + K2[:, None] * X2[None, :]))
    M = (A * G) @ H / (n * n)
    return GridOperator(n, h, M)


def _alias_check(A, n):
    spec = np.fft.fft2(A.reshape(n, n, n * n), axes=(0, 1))
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    top = (k[:, None] >= n // 2) | (k[None, :] >= n // 2)
    mass = np.sum(np.abs(spec[top, :]) ** 2)
    total = np.sum(np.abs(spec) ** 2)
    if total > 0.0 and mass > 1e-8 * total:
        warnings.warn(
            f"{mass / total:.2e} of spatial spectral mass at the Nyquist band",
            AliasWarning, stacklevel=3)


def operator_norm(M, iters=300, tol=1e-9, seed=0):
    """Spectral norm by power iteration on M* M (deterministic seed)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=M.shape[1]) + 1j * rng.normal(size=M.shape[1])
    v /= np.linalg.norm(v)
    Mh = M.conj().T
    s_old = 0.0
    for _ in range(iters):
        w = M @ v
        v = Mh @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        s = math.sqrt(nv)
        if abs(s - s_old) <= tol * max(s, 1.0):
            return float(np.linalg.norm(M @ v))
        s_old = s
    return float(np.linalg.norm(M @ v))


def composition_defect(a, b, h_list, n=32):
    """Norms ||Op(a)Op(b) - Op(ab)|| per h and the fitted log-log slope.

    Returns (defects, slope); the slope fit drops values at the numerical
    floor so an exactly-commuting pair reports slope nan with zero defects.
    """
    defects = []
    for h in h_list:
        Ma = quantize(a, h, n).matrix
        Mb = quantize(b, h, n).matrix
        Mab = quantize(lambda x1, x2, s1, s2:
                       a(x1, x2, s1, s2) * b(x1, x2, s1, s2), h, n).matrix
        defects.append(operator_norm(Ma @ Mb - Mab))
    defects = np.array(defects)
    keep = defects > 1e-13
    if np.count_nonzero(keep) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(h_list)[keep]),
                                 np.log(defects[keep]), 1)[0])
    else:
        slope = float("nan")
    return defects, slope


def boundedness_check(symbol_factory, h_list, thetas, n=32):
    """Operator norms over an (h, theta) sweep and the fitted theta exponent.

    ``symbol_factory(h, theta)`` returns the symbol callable for that cell.
    Rows are (h, theta, norm); the exponent is the mean over h of the
    per-h slope of log(norm) against log(theta).
    """
    rows = []
    for h in h_list:
        for th in thetas:
            op = quantize(symbol_factory(h, th), h, n)
            rows.append((h, th, operator_norm(op.matrix)))
    slopes = []
    for h in h_list:
        pts = [(math.log(th), math.log(r)) for (hh, th, r) in rows
               if hh == h and r > 0.0]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slopes.append(np.polyfit(xs, ys, 1)[0])
    exponent = float(np.mean(slopes)) if slopes else float("nan")
    return rows, exponent
