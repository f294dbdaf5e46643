"""Discrete semiclassical quantization on the flat 2-torus.

Left quantization on a periodic n x n grid: the operator multiplies the
k-th Fourier coefficient by a(x', h k) and transforms back.  On the grid it
factors as Op_h(a) = K F, with F the forward 2-D FFT (normalized by n^2)
and K[j, k] = a(x_j, h k) e^{i k.x_j} the sampled symbol times a phase
table.  ``quantize`` realizes it as a dense n^2 x n^2 matrix, row j being
the FFT of K's row j.  ``composition_defect`` assembles no operator
matrix: it applies Op(a)Op(b) - Op(ab) and its adjoint through the
factors, so no n^2 x n^2 product is formed.  A norm that is not read
exactly comes from Lanczos on M* M with full reorthogonalization, stopped
when the relative Ritz residual is at most ``POWER_TOL``.  Pure
multiplication and multiplier symbols (a constant is both) short-circuit
in ``quantize`` to their exact matrices so the algebraic invariants hold
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
    """Lanczos stopped at its step cap before meeting tol."""


#: Lanczos on M* M: step cap, bound on the relative Ritz residual,
#: starting-vector seed
POWER_ITERS, POWER_TOL, POWER_SEED = 300, 1e-9, 0


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
    if n > 64:
        raise ValueError("dense quantizer budget is n <= 64")
    x = np.arange(n) * (2.0 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)          # integer frequencies
    return x, k


def _flat(n):
    x, k = _grid(n)
    X1, X2 = [v.ravel() for v in np.meshgrid(x, x, indexing="ij")]
    K1, K2 = [v.ravel() for v in np.meshgrid(k, k, indexing="ij")]
    return X1, X2, K1, K2


def _sample(a, h, n):
    """The symbol on the grid, A[j, k] = a(x_j, h k), and its kind (see
    :func:`_kind`)."""
    X1, X2, K1, K2 = _flat(n)
    A = np.asarray(a(X1[:, None], X2[:, None],
                     h * K1[None, :], h * K2[None, :]), dtype=complex)
    if A.shape != (n * n, n * n):
        A = np.broadcast_to(A, (n * n, n * n)).copy()
    return A, _kind(A, n, stacklevel=4)


def _kind(A, n, stacklevel):
    """The kind of the sampled symbol A, warning when it aliases.

    The kind is "multiplication" when A does not vary along k (a constant
    included), "multiplier" when it does not vary along x, else "mixed".
    A mixed symbol emits :class:`AliasWarning` when more than 1e-8 of its
    spatial spectral mass sits in the highest-frequency band of the grid;
    ``stacklevel`` counts from this function to the user's call.
    """
    # a varying first row (column) rules a kind out before the full scan
    if np.all(A[0] == A[0, 0]) and np.all(A == A[:, :1]):
        return "multiplication"
    if np.all(A[:, 0] == A[0, 0]) and np.all(A == A[:1, :]):
        return "multiplier"
    mass, total = _nyquist_mass(A, n)
    if total > 0.0 and mass > 1e-8 * total:
        warnings.warn(
            f"{mass / total:.2e} of spatial spectral mass at the Nyquist band",
            AliasWarning, stacklevel=stacklevel)
    return "mixed"


def _phases(n):
    """E[j, k] = e^{i k.x_j} on the flattened grid, an n^2 x n^2 array.

    Broadcast from the n x n table e^{2 pi i (j k mod n) / n}, whose
    reduced exponent keeps the argument of exp below 2 pi.
    """
    _, k = _grid(n)
    j = np.arange(n)
    t = np.exp(2j * np.pi * (np.outer(j, k.astype(int)) % n) / n)
    return (t[:, None, :, None] * t[None, :, None, :]).reshape(n * n, n * n)


@functools.lru_cache(maxsize=8)
def _gather_index(n):
    """Flat index taking one spectrum to the n^2 x n^2 circulant.

    For integer k, e^{-i k.(x_m - x_j)} = e^{-2 pi i k.(m - j)/n}, so row
    j of a multiplier's matrix is the 2-D FFT of its symbol read at m - j,
    the index taken mod n on each axis.
    """
    j = np.arange(n, dtype=np.int32)
    shift = (j[None, :] - j[:, None]) % n            # [j, m] -> m - j mod n
    idx = (shift[:, None, :, None] * n + shift[None, :, None, :]).reshape(n * n, n * n)
    idx.flags.writeable = False
    return idx


def quantize(a, h, n):
    """Dense matrix of the left quantization of ``a(x1, x2, xi1, xi2)``.

    ``a`` must broadcast over numpy arrays; it is sampled at the grid
    points x' and the scaled frequencies xi' = h k.  Emits
    :class:`AliasWarning` when more than 1e-8 of the symbol's spatial
    spectral mass sits in the highest-frequency band of the grid.
    """
    A, kind = _sample(a, h, n)
    if kind == "multiplication":
        const = np.all(A[:, 0] == A[0, 0])
        return GridOperator(n, h, np.diag(A[:, 0]), A[0].copy() if const else None)
    if kind == "multiplier":
        spec = np.fft.fft2(A[0].reshape(n, n), norm="forward")
        return GridOperator(n, h, np.take(spec, _gather_index(n)), A[0].copy())
    K = (A * _phases(n)).reshape(n * n, n, n)
    return GridOperator(n, h, np.fft.fft2(K, norm="forward").reshape(n * n, n * n),
                        None)


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


def _power_norm(apply, adjoint, size):
    """Largest singular value of a map given as (apply, adjoint) callables.

    Lanczos on adjoint(apply(.)) from the seeded vector, the basis kept as
    one (k, size) array and each new vector fully reorthogonalized by two
    classical Gram-Schmidt passes.  ``POWER_TOL`` bounds the relative Ritz
    residual of the largest Ritz value; the rule is :func:`operator_norm`'s.
    """
    rng = np.random.default_rng(POWER_SEED)
    w = rng.normal(size=size) + 1j * rng.normal(size=size)
    beta = np.linalg.norm(w)
    V = np.empty((min(POWER_ITERS, size), size), dtype=complex)   # the basis
    alphas, betas = [], []
    for k in range(POWER_ITERS):
        V[k] = w / beta
        w = adjoint(apply(V[k]))
        alpha = 0.0
        for _ in range(2):                         # classical Gram-Schmidt, twice
            c = V[:k + 1].conj() @ w
            w -= c @ V[:k + 1]
            alpha += c[k].real
        beta = np.linalg.norm(w)
        alphas.append(alpha)
        betas.append(beta)
        evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], 1)
                                      + np.diag(betas[:-1], -1))
        theta, s = evals[-1], evecs[:, -1]
        # a small Ritz residual, or an invariant (or full) Krylov space,
        # where theta is exact
        if (beta * abs(s[-1]) <= POWER_TOL * theta
                or beta <= np.finfo(float).eps * theta or k + 1 == size):
            break
    else:
        warnings.warn(f"Lanczos stopped after {POWER_ITERS} steps without "
                      f"meeting tol = {POWER_TOL:g}", ConvergenceWarning,
                      stacklevel=3)
    y = s @ V[:k + 1]                              # the Ritz vector
    return float(np.linalg.norm(apply(y)) / np.linalg.norm(y))


def operator_norm(M):
    """Spectral norm by Lanczos on M* M, fully reorthogonalized.

    The start vector is seeded by ``POWER_SEED``.  Lanczos stops when the
    Ritz residual of the largest Ritz value theta of M* M is at most
    ``POWER_TOL * theta``, or when the Krylov space is invariant.
    Emits :class:`ConvergenceWarning` when ``POWER_ITERS`` steps run out
    first; the last estimate is returned.  The estimate is ||M y|| / ||y||
    at the Ritz vector y, so it is exact for an isometry.
    """
    Mh = M.conj().T
    return _power_norm(lambda v: M @ v, lambda w: Mh @ w, M.shape[1])


def _defect_operator(Ka, Kb, Kab, n):
    """D = Op(a)Op(b) - Op(ab) = Ka F Kb F - Kab F and its adjoint, as maps.

    F^H is the inverse FFT, and K^H w is formed as conj(conj(w) K), so no
    conjugate transpose of a factor is copied.
    """
    def fft(v):
        return np.fft.fft2(v.reshape(n, n), norm="forward").ravel()

    def ifft(w):
        return np.fft.ifft2(w.reshape(n, n)).ravel()

    def kh(K, w):
        return (w.conj() @ K).conj()

    def apply(v):
        u = fft(v)
        return Ka @ fft(Kb @ u) - Kab @ u

    def adjoint(w):
        return ifft(kh(Kb, ifft(kh(Ka, w))) - kh(Kab, w))

    return apply, adjoint


def composition_defect(a, b, h_list, n=32):
    """Norms ||Op(a)Op(b) - Op(ab)|| per h and the fitted log-log slope.

    Each norm comes from Lanczos with full reorthogonalization, stopped by
    the relative Ritz residual (as in :func:`operator_norm`), on the
    factored defect: Op(c) = K_c F with K_c the sampled symbol times the
    phase table, so one step costs six n^2-length matrix-vector products
    and four FFTs, and no n^2 x n^2 product is formed.  a and b are
    sampled once per h and ab's samples are their product; the samples
    are multiplied by the phases in place, so a and b must return new
    arrays, as any numpy expression of their arguments does.  Every mixed
    symbol among a, b and ab is checked for aliasing as in
    :func:`quantize`.  Returns (defects, slope); the slope fit drops values
    at the numerical floor so an exactly-commuting pair reports slope nan
    with zero defects.
    """
    E = _phases(n)                 # raises past the budget, before sampling
    defects = []
    for h in h_list:
        Ka, Kb = _sample(a, h, n)[0], _sample(b, h, n)[0]
        Kab = Ka * Kb                  # ab's samples, checked as _sample's are
        _kind(Kab, n, stacklevel=3)
        Ka *= E
        Kb *= E
        Kab *= E
        defects.append(_power_norm(*_defect_operator(Ka, Kb, Kab, n), n * n))
        del Ka, Kb, Kab                  # freed before the next h is sampled
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
    and only an x-dependent symbol's comes from :func:`operator_norm`.  The
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
