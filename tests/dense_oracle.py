"""Dense LU oracle for the cross-product system, kept apart from the package.

The closed-form cross-system solver is checked against a direct dense solve
with partial pivoting and iterative refinement, written here in plain complex
arithmetic so that the reference shares no code with what it checks.
"""

import numpy as np

from maxdtn.errors import MaxdtnError


class Singular(MaxdtnError):
    """Pivot underflow in the dense linear solver."""

#: absolute floor below which magnitudes are treated as zero
TINY = 1e-300


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
