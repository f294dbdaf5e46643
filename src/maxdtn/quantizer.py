"""Discrete semiclassical quantization on the flat 2-torus.

Left quantization on a periodic n x n grid: the operator multiplies the
k-th Fourier coefficient by a(x', h k) and transforms back, realized as a
dense n^2 x n^2 matrix.  Row j of that matrix is a cyclic shift of the
2-D FFT of the symbol's row a(x_j, h k), so assembly costs n^2 FFTs of
size n x n.  Pure multiplication and multiplier symbols (a constant is
both) short-circuit to their exact matrices so the algebraic invariants hold
to the last bit; a pure multiplier is a circulant of norm max |a(h k)|.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np


class AliasWarning(UserWarning):
    """Symbol carries non-negligible mass at the highest grid frequencies."""


class ConvergenceWarning(UserWarning):
    """Power iteration stopped at its iteration cap before meeting tol."""


@dataclass
class GridOperator:
    """Dense realization of Op_h(a) on the n x n periodic grid.

    ``multiplier`` holds the grid values a(h k), in the order of the
    matrix columns' frequencies, when the symbol does not depend on x
    (the operator is then a circulant of norm max |a(h k)|), else None.
    """
    n: int
    h: float
    matrix: np.ndarray
    multiplier: Optional[np.ndarray]


def _grid(n):
    x = np.arange(n) * (2.0 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)          # integer frequencies
    return x, k


def _flat(n):
    x, k = _grid(n)
    X1, X2 = [v.ravel() for v in np.meshgrid(x, x, indexing="ij")]
    K1, K2 = [v.ravel() for v in np.meshgrid(k, k, indexing="ij")]
    return X1, X2, K1, K2


@functools.lru_cache(maxsize=8)
def _gather_index(n, per_row):
    """Flat index taking FFT values to the n^2 x n^2 quantization matrix.

    For integer k, e^{-i k.(x_m - x_j)} = e^{-2 pi i k.(m - j)/n}, so row
    j of the matrix is the 2-D FFT of the symbol's row j read at m - j,
    the index taken mod n on each axis.  With ``per_row`` the index points
    into the stacked spectra of all n^2 rows, else into one spectrum
    shared by every row.
    """
    j = np.arange(n, dtype=np.int32)
    shift = (j[None, :] - j[:, None]) % n            # [j, m] -> m - j mod n
    idx = shift[:, None, :, None] * n + shift[None, :, None, :]
    if per_row:
        idx = idx + (np.arange(n * n, dtype=np.int32) * (n * n)).reshape(n, n, 1, 1)
    idx = idx.reshape(n * n, n * n)
    idx.flags.writeable = False
    return idx


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
    # exact short-circuits: pure multiplication operators (a constant sets
    # multiplier too) and pure multipliers (the symbol does not depend on x)
    if np.all(A == A[:, :1]):
        const = np.all(A[:, 0] == A[0, 0])
        return GridOperator(n, h, np.diag(A[:, 0]), A[0].copy() if const else None)
    if np.all(A == A[:1, :]):
        spec = np.fft.fft2(A[0].reshape(n, n), norm="forward")
        return GridOperator(n, h, np.take(spec, _gather_index(n, False)),
                            A[0].copy())
    _alias_check(A, n)
    spec = np.fft.fft2(A.reshape(n * n, n, n), norm="forward")
    return GridOperator(n, h, np.take(spec, _gather_index(n, True)), None)


def _nyquist_mass(A, n):
    """Spatial spectral mass of A in the Nyquist band, and its total mass.

    The band is |k| >= n // 2 on either spatial axis: one frequency per
    axis for even n, two for odd n.  Only those coefficients are formed,
    as weighted sums over one axis, with Parseval over the other; the
    total is n^2 sum |A|^2, also by Parseval.
    """
    A = A.reshape(n, n, n * n)
    x = np.arange(n)
    band = np.flatnonzero(np.abs(np.fft.fftfreq(n, d=1.0 / n)) >= n // 2)
    W = np.exp(-2j * np.pi * np.outer(band, x) / n)      # (band, x)
    S1 = (W @ A.reshape(n, -1)).reshape(len(band), n, -1)  # axis-1 band
    S2 = W @ A                                           # axis-2 band
    corner = W @ S1                                      # counted twice

    def sq(v):
        return np.vdot(v, v).real

    mass = n * (sq(S1) + sq(S2)) - sq(corner)
    return mass, n * n * sq(A)


def _alias_check(A, n):
    mass, total = _nyquist_mass(A, n)
    if total > 0.0 and mass > 1e-8 * total:
        warnings.warn(
            f"{mass / total:.2e} of spatial spectral mass at the Nyquist band",
            AliasWarning, stacklevel=3)


def operator_norm(M, iters=300, tol=1e-9, seed=0):
    """Spectral norm by power iteration on M* M (deterministic seed).

    Emits :class:`ConvergenceWarning` when ``iters`` run out before two
    successive estimates agree to ``tol``; the last estimate is returned.
    The estimate is ||M v|| / ||v||: the iterate's length is not assumed 1.
    """
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
            return float(np.linalg.norm(M @ v) / np.linalg.norm(v))
        s_old = s
    warnings.warn(f"power iteration stopped after {iters} iterations "
                  f"without meeting tol = {tol:g}", ConvergenceWarning,
                  stacklevel=2)
    return float(np.linalg.norm(M @ v) / np.linalg.norm(v))


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
    Rows are (h, theta, norm); a multiplier's norm is exact, max |a(h k)|,
    and only an x-dependent symbol's comes from power iteration.  The
    exponent is the mean over h of the per-h slope of log(norm) against
    log(theta).
    """
    rows = []
    for h in h_list:
        for th in thetas:
            op = quantize(symbol_factory(h, th), h, n)
            norm = (float(np.max(np.abs(op.multiplier)))
                    if op.multiplier is not None else operator_norm(op.matrix))
            rows.append((h, th, norm))
    slopes = []
    for h in h_list:
        pts = [(math.log(th), math.log(r)) for (hh, th, r) in rows
               if hh == h and r > 0.0]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slopes.append(np.polyfit(xs, ys, 1)[0])
    exponent = float(np.mean(slopes)) if slopes else float("nan")
    return rows, exponent
