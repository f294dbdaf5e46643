"""Discrete semiclassical quantization on the flat 2-torus.

Left quantization on a periodic n x n grid: the operator multiplies the
k-th Fourier coefficient by a(x', h k) and transforms back.  On the grid it
factors as Op_h(a) = K F, with F the forward 2-D FFT (normalized by n^2)
and K[j, k] = a(x_j, h k) e^{i k.x_j} the sampled symbol times a phase
table.  A symbol is sampled on the broadcast grid and kept at the shape
numpy returns, so one that reads two of its four variables costs n^2
samples, not n^4.  ``quantize`` realizes it as a dense n^2 x n^2 matrix,
row j being the FFT of K's row j.  ``composition_defect`` forms no
n^2 x n^2 factor: it applies Op(a)Op(b) - Op(ab) and its adjoint through
FFTs and the samples, an apply of K being a contraction over the axes the
samples carry with the n x n phase table of one grid axis (only samples
that carry all four axes, n^4 values already, make K).  A norm that
is not read exactly comes from Lanczos on M* M with full
reorthogonalization, stopped when the relative Ritz residual is at most
``POWER_TOL``; a composition defect also stops at the rounding floor of
the difference it forms.  Pure multiplication and multiplier symbols (a
constant is both) short-circuit in ``quantize`` to their exact matrices so
the algebraic invariants hold to the last bit; a pure multiplier is a
circulant of norm max |a(h k)|, which ``boundedness_check`` reads from the
samples with no matrix formed.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

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
    """Dense realization of Op_h(a) on the n x n periodic grid."""
    n: int
    h: float
    matrix: np.ndarray


def _grid(n):
    if n > 64:
        raise ValueError("dense quantizer budget is n <= 64")
    x = np.arange(n) * (2.0 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)          # integer frequencies
    return x, k


def _sample(a, h, n):
    """The symbol on the grid, A[j1, j2, k1, k2] = a(x_j, h k), and its kind
    (see :func:`_kind`).

    ``a`` is called on the broadcast grid, each variable along its own axis,
    and A keeps the shape numpy returns, a size-one axis where ``a`` does
    not depend on that variable (a Python scalar gives (1, 1, 1, 1)).
    """
    x, k = _grid(n)
    A = np.asarray(a(x[:, None, None, None], x[None, :, None, None],
                     h * k[None, None, :, None], h * k[None, None, None, :]),
                   dtype=complex)
    np.broadcast_to(A, (n,) * 4)        # raises on a shape off the grid
    A = A.reshape((1,) * (4 - A.ndim) + A.shape)
    return A, _kind(A, n, stacklevel=4)


def _kind(A, n, stacklevel):
    """The kind of the sampled symbol A, warning when it aliases.

    A has the grid's four axes (x1, x2, k1, k2), any of them of size one.
    The kind is decided by values: "multiplication" when A does not vary
    along k (a constant included), "multiplier" when it does not vary along
    x, else "mixed".  A mixed symbol emits :class:`AliasWarning` when more
    than 1e-8 of its spatial spectral mass sits in the highest-frequency
    band of the grid; ``stacklevel`` counts from this function to the
    user's call.
    """
    if np.all(A == A[:, :, :1, :1]):
        return "multiplication"
    if np.all(A == A[:1, :1]):
        return "multiplier"
    mass, total = _nyquist_mass(A, n)
    if total > 0.0 and mass > 1e-8 * total:
        warnings.warn(
            f"{mass / total:.2e} of spatial spectral mass at the Nyquist band",
            AliasWarning, stacklevel=stacklevel)
    return "mixed"


def _phase_table(n):
    """t[j, k] = e^{i k x_j} on one grid axis, the frequencies in FFT order.

    Formed as e^{2 pi i (j k mod n) / n}, whose reduced exponent keeps the
    argument of exp below 2 pi.
    """
    _, k = _grid(n)
    return np.exp(2j * np.pi * (np.outer(np.arange(n), k.astype(int)) % n) / n)


def _phases(n):
    """E[j1, j2, k1, k2] = t[j1, k1] t[j2, k2] on the grid's four axes, n^4
    values (see :func:`_phase_table`).  Flattened to n^2 x n^2, row j and
    column k, it is the phase table of ``K = A E``.
    """
    t = _phase_table(n)
    return t[:, None, :, None] * t[None, :, None, :]


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


def _mixed_matrix(A, n):
    """The n^2 x n^2 matrix K F from the samples A: row j is the FFT of
    row j of K = A E."""
    # not A * _phases(n): numpy may reuse a temporary right operand as the
    # output and swap the factors, and a complex product rounds differently
    # with its factors swapped
    K = np.multiply(A, _phases(n)).reshape(n * n, n, n)
    return np.fft.fft2(K, norm="forward").reshape(n * n, n * n)


def quantize(a, h, n):
    """Dense matrix of the left quantization of ``a(x1, x2, xi1, xi2)``.

    ``a`` must broadcast over numpy arrays; it is sampled at the grid
    points x' and the scaled frequencies xi' = h k.  Emits
    :class:`AliasWarning` when more than 1e-8 of the symbol's spatial
    spectral mass sits in the highest-frequency band of the grid.
    """
    A, kind = _sample(a, h, n)
    if kind == "mixed":
        return GridOperator(n, h, _mixed_matrix(A, n))
    if kind == "multiplication":
        diag = np.broadcast_to(A[:, :, 0, 0], (n, n)).ravel()    # a(x_j)
        return GridOperator(n, h, np.diag(diag))
    spec = np.fft.fft2(np.broadcast_to(A[0, 0], (n, n)), norm="forward")   # of a(h k)
    return GridOperator(n, h, np.take(spec, _gather_index(n)))


def _nyquist_mass(A, n):
    """Spatial spectral mass of A in the Nyquist band, and its total mass.

    A has the grid's four axes, any of them of size one, and the masses are
    those of A broadcast to the full grid.  The band is |k| >= n // 2 on
    either spatial axis: one frequency per axis for even n, two for odd n.
    Only those coefficients are formed, as weighted sums over one axis,
    with Parseval over the other; the total is n^2 sum |A|^2, also by
    Parseval.  A size-one spatial axis puts no mass in its band, and every
    sum is multiplied by the number of grid points that share one sample.
    """
    d1, d2 = A.shape[:2]
    copies = n ** 4 // A.size
    A = A.reshape(d1, d2, -1)
    x = np.arange(n)
    band = np.flatnonzero(np.abs(np.fft.fftfreq(n, d=1.0 / n)) >= n // 2)
    W = np.exp(-2j * np.pi * np.outer(band, x) / n)      # (band, x)

    def sq(v):
        return np.vdot(v, v).real

    s1 = s2 = corner = 0.0
    if d1 == n:                                          # axis-1 band
        S1 = (W @ A.reshape(n, -1)).reshape(len(band), d2, -1)
        s1 = sq(S1)
        if d2 == n:
            corner = sq(W @ S1)                          # counted twice
    if d2 == n:                                          # axis-2 band
        s2 = sq(W @ A)
    return copies * (n * (s1 + s2) - corner), copies * (n * n * sq(A))


def _power_norm(apply, adjoint, size, scale):
    """Largest singular value of a map given as (apply, adjoint) callables.

    Lanczos on adjoint(apply(.)) from the seeded vector, the basis kept as
    one (k, size) array and each new vector fully reorthogonalized by two
    classical Gram-Schmidt passes.  ``POWER_TOL`` bounds the relative Ritz
    residual of the largest Ritz value; the rule is :func:`operator_norm`'s.
    A map that forms a difference passes ``scale``, a one-element list into
    which each apply writes the size of the terms it subtracts per unit
    input (else None): Lanczos then also stops when theta + beta, which
    bounds ||A* A v_k|| and so also the part of A* A the Krylov space has
    not yet resolved, is at most the square of sqrt(size) * eps times it,
    the rounding floor of that difference.
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
        # a small Ritz residual, an invariant (or full) Krylov space, where
        # theta is exact, or theta and the unresolved rest at the rounding floor
        floor = 0.0 if scale is None else math.sqrt(size) * np.finfo(float).eps * scale[0]
        if (beta * abs(s[-1]) <= POWER_TOL * theta
                or beta <= np.finfo(float).eps * theta or k + 1 == size
                or theta + beta <= floor * floor):
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
    return _power_norm(lambda v: M @ v, lambda w: _adjoint(lambda u: u @ M, w),
                       M.shape[1], None)


def _adjoint(transpose, w):
    """M^H w as conj(M^T conj(w)), ``transpose`` applying M^T, so that no
    conjugate of M is formed."""
    return transpose(w.conj()).conj()


def _factor(S, t):
    """K and K^T of Op(c) = K F, as maps on n x n arrays, from c's samples S.

    K[j, k] = S[j, k] t[j1, k1] t[j2, k2], so (K u)[j] sums S t t u over
    k1 and k2: one contraction over the axes S carries, its path found
    here, once.  A symbol of x1 and xi2 alone costs n^3 per apply.  Only
    samples that carry all four axes are n^4 values already: K, no larger,
    is formed from them and applied by dense products, which run faster
    than any contraction of the same n^4 cost.
    """
    if 1 not in S.shape:
        n = len(t)
        K = S * t[:, None, :, None]
        K *= t[None, :, None, :]
        K = K.reshape(n * n, n * n)
        return (lambda u: (K @ u.ravel()).reshape(n, n),
                lambda w: (w.ravel() @ K).reshape(n, n))
    sub = "".join(ax for ax, d in zip("abcd", S.shape) if d != 1)
    C = S.reshape([d for d in S.shape if d != 1])
    maps = []
    for spec in (sub + ",ac,bd,cd->ab", sub + ",ac,bd,ab->cd"):
        # the last t stands in for the n x n input
        path = np.einsum_path(spec, C, t, t, t, optimize="optimal")[0]
        maps.append(functools.partial(np.einsum, spec, C, t, t, optimize=path))
    return maps


def _defect_operator(A, B, AB, n, scale):
    """D = Op(a)Op(b) - Op(ab) = Ka F Kb F - Kab F and its adjoint, as maps.

    A, B and AB are the samples of a, b and ab at their broadcast shapes;
    each factor K is applied by :func:`_factor`, and only one whose samples
    carry all four axes is formed.  F^H is the inverse FFT.  Each apply writes
    max(||Ka F Kb F v||, ||Kab F v||) / ||v|| to ``scale[0]``, a
    one-element list (see :func:`_power_norm`).
    """
    t = _phase_table(n)
    (ka, kat), (kb, kbt), (kab, kabt) = (_factor(S, t) for S in (A, B, AB))

    def fft(v):
        return np.fft.fft2(v.reshape(n, n), norm="forward")

    def apply(v):
        u = fft(v)
        ab, c = ka(fft(kb(u))), kab(u)
        scale[0] = max(np.linalg.norm(ab), np.linalg.norm(c)) / np.linalg.norm(v)
        return (ab - c).ravel()

    def adjoint(w):
        w = w.reshape(n, n)
        return np.fft.ifft2(_adjoint(kbt, np.fft.ifft2(_adjoint(kat, w)))
                            - _adjoint(kabt, w)).ravel()

    return apply, adjoint


def composition_defect(a, b, h_list, n=32):
    """Norms ||Op(a)Op(b) - Op(ab)|| per h and the fitted log-log slope.

    Each norm comes from Lanczos with full reorthogonalization, stopped by
    the relative Ritz residual (as in :func:`operator_norm`) or once both
    the estimate and the part not yet resolved are under n eps times the
    larger of ||Op(a)Op(b) v|| and ||Op(ab) v|| per unit v, where they are
    rounding noise; it runs on the
    factored defect: Op(c) = K_c F with K_c the sampled symbol times the
    phase table.  No n^2 x n^2 factor is formed; an apply of K_c, or of
    its adjoint, is a contraction over the axes the samples carry (see
    :func:`_factor`, which forms K_c only from samples that carry all four
    axes), and one step costs six of them and four FFTs.  a and
    b are sampled once per h at their own broadcast shape (see
    :func:`_sample`), and ab's samples are their product at its broadcast
    shape.  Every mixed symbol among a, b and ab is checked for aliasing
    as in :func:`quantize`.  Returns (defects, slope); the slope fit drops values
    at the numerical floor so an exactly-commuting pair reports slope nan
    with zero defects.
    """
    _grid(n)                       # raises past the budget, before sampling
    defects = []
    for h in h_list:
        A, B = _sample(a, h, n)[0], _sample(b, h, n)[0]
        AB = A * B                     # ab's samples, checked as _sample's are
        _kind(AB, n, stacklevel=3)
        scale = [0.0]
        defects.append(_power_norm(*_defect_operator(A, B, AB, n, scale), n * n, scale))
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
    Each symbol is sampled once.  Rows are (h, theta, norm); the norm of a
    multiplier, or of a multiplication, is exact, max |a| read from the
    samples with no matrix formed, and only a mixed symbol is assembled and
    its norm taken by :func:`operator_norm`.  The exponent is the mean over
    h of the per-h slope of log(norm) against log(theta).
    """
    rows = []
    for h in h_list:
        for th in thetas:
            A, kind = _sample(symbol_factory(h, th), h, n)
            # a circulant's norm is max |a(h k)|, a diagonal's max |a(x_j)|
            norm = (operator_norm(_mixed_matrix(A, n)) if kind == "mixed"
                    else float(np.max(np.abs(A))))
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
