"""Spectral-parameter bookkeeping and the principal boundary symbols.

Houses the (h, z, theta) split of the frequency, the root symbol rho with
its upper-half-plane branch, the rank-one matrix B built from beta, the
principal impedance symbol m, the matrix of its large-frequency flattening
m0, and the low-frequency cutoff eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RealFrequency, ZeroFrequencyCovector
from .geometry import beta_pointwise
from .jets import _at
from .numerics import sqrt_upper

#: cutoff scale of eta (the transition sits in r0 in [C0, 2*C0])
C0_DEFAULT = 10.0


@dataclass(frozen=True)
class SpectralParameter:
    lam: complex
    h: float
    z: complex
    theta: float


def split_lambda(lam):
    """Split a complex frequency into (h, z, theta).

    h is the reciprocal of the dominant part of lambda, z = h*lambda, and
    theta = |Im z|; by construction max(|Re z|, |Im z|) = 1.  An array of
    frequencies gives arrays of its shape, a scalar gives scalars.
    """
    lam = np.asarray(lam, dtype=complex)
    real = lam.imag == 0.0
    if real.any():
        raise RealFrequency("Im lambda = 0: theta > 0 is required" + _at(real))
    h = 1.0 / np.maximum(np.abs(lam.real), np.abs(lam.imag))
    z = h * lam
    return SpectralParameter(lam=lam[()], h=h[()], z=z[()], theta=np.abs(z.imag)[()])


def rho(r0, sp: SpectralParameter, eps0mu0):
    """Root symbol sqrt(z^2 eps0 mu0 - r0) with Im rho > 0.

    Generic over scalars, arrays, and jets (r0 and eps0mu0 from the same ring).
    """
    return sqrt_upper(sp.z ** 2 * eps0mu0 - r0)


def calB(beta):
    """Rank-one matrix B = beta beta^T (Bg = <beta,g> beta), batched over points."""
    return beta[..., :, None] * beta[..., None, :]


def m_matrix(z, mu0, rho_val, beta):
    """Assemble m = (z mu0)^{-1} (rho I + rho^{-1} B), batched over points."""
    beta = np.asarray(beta)
    B = calB(beta)
    eye = np.eye(3)
    r = np.asarray(rho_val, dtype=complex)[..., None, None]
    denom = (z * np.asarray(mu0, dtype=complex))[..., None, None]
    return (r * eye + B / r) / denom


def m0_matrix(z, mu0, r0, beta):
    """Flattened symbol m0 = i (z mu0)^{-1} sqrt(r0) (I - r0^{-1} B)."""
    r0 = np.asarray(r0, dtype=float)
    if np.any(r0 <= 0.0):
        raise ZeroFrequencyCovector("m0 requires r0 > 0")
    B = calB(np.asarray(beta))
    eye = np.eye(3)
    s = np.sqrt(r0)[..., None, None]
    denom = (z * np.asarray(mu0, dtype=complex))[..., None, None]
    return 1j * (s * eye - B / s) / denom


def symbol_m(sp: SpectralParameter, chart, media):
    """Principal DtN symbol m as a function of (x2, x3, xi2, xi3)."""

    def fn(x2, x3, xi2, xi3):
        beta, r0 = beta_pointwise(chart, x2, x3, xi2, xi3)
        eps0, mu0 = media.boundary_values(chart, x2, x3)
        rv = rho(r0, sp, eps0 * mu0)
        return m_matrix(sp.z, mu0, rv, beta)

    return fn


# ---------------------------------------------------------------------------
# cutoff

def _bump_sigma(t):
    """exp(-1/t) for t > 0, 0 otherwise (vectorized, overflow-safe)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_sigma_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def cutoff_eta(r0):
    """Smooth cutoff: 1 for r0 <= C0, 0 for r0 >= 2*C0, C^inf in between."""
    t = np.asarray(r0, dtype=float) / C0_DEFAULT
    A = _bump_sigma(2.0 - t)
    B = _bump_sigma(t - 1.0)
    out = np.where(A + B > 0.0, A / np.where(A + B > 0.0, A + B, 1.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def cutoff_eta_prime(r0):
    """d eta / d r0."""
    t = np.asarray(r0, dtype=float) / C0_DEFAULT
    A = _bump_sigma(2.0 - t)
    B = _bump_sigma(t - 1.0)
    dA = -_bump_sigma_prime(2.0 - t)
    dB = _bump_sigma_prime(t - 1.0)
    s = A + B
    out = np.where(s > 0.0, (dA * B - A * dB) / np.where(s > 0.0, s * s, 1.0), 0.0) / C0_DEFAULT
    if out.ndim == 0:
        return float(out)
    return out


__all__ = [
    "SpectralParameter", "split_lambda", "rho", "calB", "m_matrix",
    "m0_matrix", "symbol_m",
    "cutoff_eta", "cutoff_eta_prime", "C0_DEFAULT",
]
