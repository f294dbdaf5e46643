"""Phase recursion for the complex eikonal equation in the normal variable.

The phase is an x1-polynomial phi = sum_k x1^k phi_k with jet-valued
coefficients; phi_0 has gradient -xi' and phi_1 = rho.  Each next coefficient
comes from zeroing the x1^k coefficient of <gamma grad phi, gamma grad phi>
- z^2 eps mu, dividing by 2 rho (k+1) (the factor (k+1) accounts for
d/dx1 acting on x1^{k+1}).  The series psi = gamma grad phi
(``PhaseSeries.psi_series``) also drives the transport recursion.

A "flattened" variant replaces rho by i sqrt(r0) and drops the z^2 eps mu
term; it feeds the high-frequency corrector of the boundary symbol.  The
pointwise checks take every x1 of an array in one call.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DegenerateRho, OutsideRetainedRegion
from .geometry import GammaSeries, _sqrt_pos, beta_jets, gamma_pointwise
from .jets import VARS, Jet, NormalSeries
from .numerics import dot, matvec, sqrt_upper

log = logging.getLogger(__name__)

#: initial delta of the retained region x1 <= 2 delta min(1, |rho|^3)
DELTA_DEFAULT = 0.1
#: points of (0, x1_max] at which the lower bound on Im phi is checked
IMAG_SAMPLES = 40


class PhaseSeries:
    """Phase coefficients phi_k (jets) at a fixed cotangent base point."""

    def __init__(self, gs: GammaSeries, sp, xiprime, phis, rho_jet, media,
                 flattened=False):
        self.gs = gs
        self.sp = sp
        self.base = gs.base
        self.xiprime = tuple(xiprime)
        self.phis = list(phis)           # phi_k, k = 0..deg (deg = len-1)
        self.rho_jet = rho_jet
        self.rho = rho_jet.value
        self.media = media
        self.N = len(phis)
        self.delta = DELTA_DEFAULT
        self.flattened = flattened

    def x1_max(self):
        return 2.0 * self.delta * min(1.0, abs(self.rho) ** 3)

    def grad_series(self, n1=None):
        """grad_x phi = (d/dx1 phi, d2 phi, d3 phi) as a NormalSeries 3-vector."""
        n1 = n1 or self.N
        zero = self.phis[0] * 0.0
        dx1 = [(k + 1) * self.phis[k + 1] for k in range(self.N - 1)] or [zero]
        d2 = [p.derivative("x2") for p in self.phis]
        d3 = [p.derivative("x3") for p in self.phis]

        def pad(cs):
            cs = list(cs[:n1])
            while len(cs) < n1:
                cs.append(cs[0] * 0.0)
            return NormalSeries(cs)

        return [pad(dx1), pad(d2), pad(d3)]

    def grad_at(self, x1):
        """grad_x phi at (base, x1): shape x1.shape + (3,) for scalar or array x1."""
        x1 = np.asarray(x1, dtype=float)
        d1 = sum(k * self.phis[k].value * x1 ** (k - 1) for k in range(1, self.N))
        d2 = sum(self.phis[k].derivative("x2").value * x1 ** k for k in range(self.N))
        d3 = sum(self.phis[k].derivative("x3").value * x1 ** k for k in range(self.N))
        return np.stack([d1, d2, d3], axis=-1)

    def phi_value(self, x1):
        """phi at (base, x1) minus the constant phi_0 term (which is 0 at base)."""
        return sum(self.phis[k].value * x1 ** k for k in range(self.N))

    def psi_series(self, n1):
        """psi = gamma grad phi as a NormalSeries 3-vector of length n1."""
        return matvec(self.gs.gamma, self.grad_series(n1))

    def imag_lower_bound_ok(self):
        x1s = np.linspace(0.0, self.x1_max(), IMAG_SAMPLES + 1)[1:]
        return bool(np.all(self.phi_value(x1s).imag >= x1s * self.rho.imag / 2.0 - 1e-13))

    def retained(self, x1, closed):
        """x1 as an array in (0, x1_max], or [0, x1_max] when ``closed``;
        raises OutsideRetainedRegion naming the first x1 outside."""
        x1 = np.asarray(x1, dtype=float)
        outside = ~(((x1 >= 0.0) if closed else (x1 > 0.0)) & (x1 <= self.x1_max()))
        if outside.any():
            raise OutsideRetainedRegion(f"x1={x1[outside][0]} outside "
                                        f"{'[' if closed else '('}0, {self.x1_max():.3g}]")
        return x1


def eikonal_coeffs(gs: GammaSeries, media, sp, xiprime, N, flattened=False):
    """Solve the eikonal recursion at the base point of gs.

    Produces phi_0..phi_N, zeroing the x1-coefficients of the defect through
    order N-1, so the pointwise residual is O(x1^N).  With ``flattened=True``
    the frequency term is dropped and rho is replaced by i sqrt(r0); the
    result is media-independent.
    """
    if gs.n1 < N:
        raise ValueError("GammaSeries too short for the requested phase order")
    beta = beta_jets(gs, xiprime)
    r0 = dot(beta, beta)
    if flattened:
        if r0.value.real <= 0.0:
            raise DegenerateRho("flattened phase requires r0 > 0")
        rho_jet = 1j * _sqrt_pos(r0)
        epsmu = None
    else:
        eps_s, mu_s = media.normal_series(gs)
        epsmu = eps_s * mu_s
        rho_jet = sqrt_upper(sp.z ** 2 * epsmu.coeffs[0] - r0)
    if abs(rho_jet.value) < 1e-14:
        raise DegenerateRho("|rho| below 1e-14 at the phase base point")

    # phi_0 = -<xi', x' - base>: gradient -xi' in (x2, x3)
    x2, x3 = (Jet.variable(v, 0.0, gs.order) for v in VARS)
    phi0 = Jet.constant(0.0, gs.order) - xiprime[0] * x2 - xiprime[1] * x3

    phis = [phi0, rho_jet]
    inv_2rho = (2.0 * rho_jet).invert()
    zero = phi0 * 0.0
    for k in range(1, N):
        # S_k with phi_{k+1} = 0
        ps = PhaseSeries(gs, sp, xiprime, phis + [zero], rho_jet, media, flattened)
        psi = ps.psi_series(k + 1)
        S = dot(psi, psi)
        Sk = S.coeffs[k]
        rhs = -Sk if flattened else sp.z ** 2 * epsmu.coeffs[k] - Sk
        phis.append((rhs * inv_2rho) * (1.0 / (k + 1)))

    ps = PhaseSeries(gs, sp, xiprime, phis[:N + 1], rho_jet, media, flattened)
    while not flattened and not ps.imag_lower_bound_ok():
        ps.delta *= 0.5
        log.warning("phase positivity violated; delta halved to %g at base %s",
                    ps.delta, ps.base)
        if ps.delta < 1e-8:
            raise DegenerateRho("Im phi lower bound unattainable")
    return ps


def eikonal_residual(ps: PhaseSeries, x1):
    """<gamma grad phi, gamma grad phi> - z^2 eps mu at (base, x1), exactly.

    gamma, eps, mu are evaluated pointwise in closed form (not from series),
    so the value honestly measures the truncation error of the phase.  A
    scalar x1 gives a complex, an array one value per element.
    """
    x1 = ps.retained(x1, closed=False)
    gs = ps.gs
    b2, b3 = gs.base
    v = (gamma_pointwise(gs.chart, b2, b3, x1) @ ps.grad_at(x1)[..., None])[..., 0]
    out = np.sum(v * v, axis=-1)
    if not ps.flattened:
        eps, mu = ps.media.values_at(gs.chart, b2, b3, x1)
        out = out - ps.sp.z ** 2 * eps * mu
    return complex(out) if out.ndim == 0 else out
