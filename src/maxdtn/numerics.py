"""Complex 3-vector arithmetic and the upper-half-plane square root.

A vector is one numpy array, or one jet, whose last (batch) axis holds its
three components; ``+``, ``-`` and ``*`` combine vectors, and a scalar that
meets one (number, array or jet) gets its trailing axis from :func:`lift`.
The bilinear (non-conjugated) pairing is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousBranch
from .jets import _SCALARS

#: the components after and before each one, cyclically
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


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


def lift(s):
    """A scalar (per point) against vectors: one trailing axis of length 1."""
    return s if isinstance(s, _SCALARS) else s[..., None]


def cross(a, b):
    """Cross product over the last axis of two vectors (arrays or jets)."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def dot(a, b):
    """Bilinear pairing <a,b> = sum_j a_j b_j (no conjugation), summed left
    to right; ``dot(m, v[..., None, :])`` applies a matrix m to v."""
    p = a * b
    return p[..., 0] + p[..., 1] + p[..., 2]
