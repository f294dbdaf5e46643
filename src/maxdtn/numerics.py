"""Complex vector/matrix arithmetic and the upper-half-plane square root.

Vectors are length-3 sequences whose components may be python/numpy scalars,
numpy arrays (batched evaluation), or jets; the bilinear (non-conjugated)
pairing is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousBranch


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
