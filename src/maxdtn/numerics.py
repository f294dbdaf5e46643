"""Complex vector/matrix arithmetic and the upper-half-plane square root.

Vectors are length-3 sequences whose components may be python/numpy scalars,
numpy arrays (batched evaluation), or jets; the bilinear (non-conjugated)
pairing is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousBranch, Singular

#: absolute floor below which magnitudes are treated as zero
TINY = 1e-300


def sqrt_upper(w):
    """Square root with image in the open upper half plane.

    Accepts complex scalars, numpy arrays, or any object exposing a
    ``sqrt_upper`` method (jets).  Raises
    :class:`AmbiguousBranch` for arguments on [0, +inf) where both branches
    have Im = 0.
    """
    if hasattr(w, "sqrt_upper"):
        return w.sqrt_upper()
    w = np.asarray(w, dtype=complex)
    on_cut = (w.imag == 0.0) & (w.real >= 0.0)
    if np.any(on_cut):
        raise AmbiguousBranch(
            "sqrt_upper on the branch cut [0, +inf); caller must keep Im != 0 or Re < 0"
        )
    s = np.sqrt(w)
    s = np.where(s.imag > 0.0, s, -s)
    if s.ndim == 0:
        return complex(s)
    return s


def cross(a, b):
    """Cross product of two 3-component sequences (any scalar ring)."""
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def dot(a, b):
    """Bilinear pairing <a,b> = sum_j a_j b_j (no conjugation)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vadd(a, b):
    return [a[0] + b[0], a[1] + b[1], a[2] + b[2]]


def vsub(a, b):
    return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]


def vscale(c, a):
    return [c * a[0], c * a[1], c * a[2]]


def matvec(m, v):
    """Apply a 3x3 nested-list matrix to a 3-vector."""
    return [dot(m[0], v), dot(m[1], v), dot(m[2], v)]


def skew(v):
    """Antisymmetric matrix of v, i.e. skew(v) @ w == v x w."""
    zero = 0.0 * v[0]
    return [
        [zero, -v[2], v[1]],
        [v[2], zero, -v[0]],
        [-v[1], v[0], zero],
    ]


def _lu_factor(a):
    """In-place partial-pivot LU of a list of rows; returns (lu, perm).

    Plain complex arithmetic: the oracle factors small dense systems one
    at a time, where per-call array overhead would dominate.
    """
    n = len(a)
    perm = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if abs(a[p][k]) < TINY:
            raise Singular(f"pivot {abs(a[p][k]):.3e} below floor at column {k}")
        if p != k:
            a[k], a[p] = a[p], a[k]
            perm[k], perm[p] = perm[p], perm[k]
        row = a[k]
        pivot = row[k]
        for i in range(k + 1, n):
            r = a[i]
            f = r[k] = r[k] / pivot
            for j in range(k + 1, n):
                r[j] -= f * row[j]
    return a, perm


def _lu_solve(lu, perm, rhs):
    n = len(lu)
    b = [complex(rhs[i]) for i in perm]
    for k in range(n):
        for i in range(k + 1, n):
            b[i] -= lu[i][k] * b[k]
    for k in range(n - 1, -1, -1):
        row = lu[k]
        acc = b[k]
        for j in range(k + 1, n):
            acc -= row[j] * b[j]
        b[k] = acc / row[k]
    return np.array(b)


def cross_solve_oracle(m, rhs, refine=2):
    """Direct dense solve with partial pivoting (independent oracle).

    Parameters are a square complex matrix and a right-hand side; returns
    ``(x, cond_estimate)``.  Raises :class:`Singular` when a pivot falls
    below the absolute floor.  A couple of iterative-refinement sweeps with
    extended-precision residuals keep the forward error near machine level
    even for moderately ill-conditioned systems.  Used as the reference for
    the closed-form cross-system solver; deliberately self-contained.
    """
    a0 = np.array(m, dtype=complex)
    b = np.array(rhs, dtype=complex)
    n = a0.shape[0]
    if a0.shape != (n, n) or b.shape != (n,):
        raise ValueError("square matrix and matching rhs required")
    norm_a = np.max(np.sum(np.abs(a0), axis=1))
    lu, perm = _lu_factor(a0.tolist())
    x = _lu_solve(lu, perm, b)
    a_ld = a0.astype(np.clongdouble)
    b_ld = b.astype(np.clongdouble)
    for _ in range(refine):
        r = b_ld - a_ld @ x.astype(np.clongdouble)
        x = x + _lu_solve(lu, perm, r.astype(complex))
    # crude condition estimate: back-solve norm against a unit probe
    y = _lu_solve(lu, perm, np.ones(n, dtype=complex))
    cond = norm_a * np.max(np.abs(y))
    return x, float(cond)
