"""Phase recursion for the complex eikonal equation in the normal variable.

The phase is an x1-polynomial phi = sum_k x1^k phi_k with jet-valued
coefficients; phi_0 has gradient -xi' and phi_1 = rho.  Each next coefficient
comes from zeroing the x1^k coefficient of <gamma grad phi, gamma grad phi>
- z^2 eps mu, dividing by 2 rho (k+1) (the factor (k+1) accounts for
d/dx1 acting on x1^{k+1}).  The recursion forms each coefficient psi_k of
psi = gamma grad phi once, first with phi_{k+1} = 0 and then completed by
nu (k+1) phi_{k+1}; the completed coefficients (``PhaseSeries.psis``) also
drive the transport recursion.

A "flattened" variant replaces rho by i sqrt(r0) and drops the z^2 eps mu
term; it feeds the high-frequency corrector of the boundary symbol.  The
pointwise checks take every x1 of an array in one call.

One build covers a batch of cotangent points at one GammaSeries: z and the
components of xi' may be arrays of one point shape P, and every phase jet
then carries the batch P + (1,) (the trailing axis meets the basis axis of
the transport amplitudes).  Scalars keep unbatched jets.  The checks are
per element: a degenerate rho names its point, and delta is halved only
where the lower bound on Im phi fails.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DegenerateRho, OrderBudgetExceeded, OutsideRetainedRegion
from .geometry import GammaSeries, _not_positive, _sqrt_pos, beta_jets, gamma_pointwise
from .jets import VARS, Jet, _at
from .numerics import dot, matvec, sqrt_upper, vadd, vscale

log = logging.getLogger(__name__)

#: initial delta of the retained region x1 <= 2 delta min(1, |rho|^3)
DELTA_DEFAULT = 0.1
#: points of (0, x1_max] at which the lower bound on Im phi is checked
IMAG_SAMPLES = 40


def _per_point(v):
    """A point quantity (z or a component of xi') as a jet's per-element
    scalar: a scalar stays one, an array of point shape P gets a trailing
    axis of 1."""
    return v if np.ndim(v) == 0 else np.asarray(v)[..., None]


def _at_point(mask):
    """jets._at naming the point of a per-point mask of shape P + (1,)."""
    return _at(mask[..., 0] if np.ndim(mask) else mask)


class PhaseSeries:
    """Phase coefficients phi_k (jets) at a fixed cotangent base point, with
    the x1-coefficients psi_k of psi = gamma grad phi (jet 3-vectors) and
    the x1-coefficients eps_k, mu_k of the media along the normal.

    For a batch of points, rho and delta are arrays of shape P + (1,); the
    pointwise checks (``grad_at``, ``retained``, the residuals) take an
    unbatched phase.
    """

    def __init__(self, gs: GammaSeries, sp, xiprime, beta, phis, psis, rho_jet, media,
                 media_series, flattened):
        self.gs = gs
        self.sp = sp
        self.z = _per_point(sp.z)
        self.base = gs.base
        self.xiprime = tuple(xiprime)
        self.beta = beta
        self.phis = list(phis)           # phi_k, k = 0..deg (deg = len-1)
        self.psis = list(psis)           # psi_k, k = 0..deg-1
        self.rho_jet = rho_jet
        self.rho = rho_jet.value
        self.media = media
        self.eps_k, self.mu_k = (m.coeffs for m in media_series)
        self.N = len(phis)
        self.delta = DELTA_DEFAULT
        self.flattened = flattened

    @property
    def points(self):
        """Point shape P of the batch (``()`` for one point)."""
        return np.shape(self.rho)[:-1]

    def x1_max(self):
        return 2.0 * self.delta * np.minimum(1.0, np.abs(self.rho) ** 3)

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

    def imag_lower_bound_ok(self):
        """Im phi >= x1 Im rho / 2 on (0, x1_max], per point."""
        x1s = np.linspace(0.0, self.x1_max(), IMAG_SAMPLES + 1)[1:]
        return np.all(self.phi_value(x1s).imag >= x1s * np.imag(self.rho) / 2.0 - 1e-13,
                      axis=0)

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
    order N-1, so the pointwise residual is O(x1^N), and psi_0..psi_{N-1}.
    With ``flattened=True`` the frequency term is dropped and rho is replaced
    by i sqrt(r0); the result is media-independent.  ``sp.z`` and the
    components of ``xiprime`` broadcast to the point shape of the batch
    (module docstring).
    """
    if gs.n1 < N:
        raise OrderBudgetExceeded("GammaSeries too short for the requested phase order")
    # phi_k, k < N, is differentiated; it has order gs.order - k + 1 for k >= 2
    if gs.order < max(1, N - 1):
        raise OrderBudgetExceeded(f"GammaSeries of order {gs.order} below the order "
                                  f"{max(1, N - 1)} that a phase of order N = {N} differentiates")
    xi = [_per_point(x) for x in xiprime]
    beta = beta_jets(gs, xi)
    r0 = dot(beta, beta)
    # the transport recursion reads these too, also for the flattened phase
    eps_s, mu_s = media.normal_series(gs)
    z2 = _per_point(sp.z) ** 2
    if flattened:
        bad = _not_positive(r0.value)
        if np.any(bad):
            raise DegenerateRho("flattened phase requires a real r0 > 0" + _at_point(bad))
        rho_jet = 1j * _sqrt_pos(r0)
    else:
        epsmu = eps_s * mu_s
        rho_jet = sqrt_upper(z2 * epsmu.coeffs[0] - r0)
    small = np.abs(rho_jet.value) < 1e-14
    if np.any(small):
        raise DegenerateRho("|rho| below 1e-14 at the phase base point" + _at_point(small))

    # phi_0 = -<xi', x' - base>: gradient -xi' in (x2, x3)
    x2, x3 = (Jet.variable(v, 0.0, gs.order) for v in VARS)
    phi0 = Jet.constant(0.0, gs.order) - xi[0] * x2 - xi[1] * x3

    gam = [gs.gamma_k(m) for m in range(N)]
    phis = [phi0, rho_jet]
    grads, psis = [], []     # (grad phi)_m = ((m+1) phi_{m+1}, d2 phi_m, d3 phi_m)
    inv_2rho = (2.0 * rho_jet).invert()
    for k in range(N):
        # psi_k with phi_{k+1} = 0: only gamma_0's first column, nu, meets it
        d2, d3 = (phis[k].derivative(v) for v in VARS)
        psi = [gam[0][i][1] * d2 + gam[0][i][2] * d3 for i in range(3)]
        for ell in range(1, k + 1):
            psi = vadd(psi, matvec(gam[ell], grads[k - ell]))
        if k >= 1:
            # S_k, the x1^k coefficient of <psi, psi>, with phi_{k+1} = 0
            Sk = 2.0 * dot(psis[0], psi)
            for i in range(1, k):
                Sk = Sk + dot(psis[i], psis[k - i])
            rhs = -Sk if flattened else z2 * epsmu.coeffs[k] - Sk
            phis.append((rhs * inv_2rho) * (1.0 / (k + 1)))
        d1 = (k + 1) * phis[k + 1]
        psis.append(vadd(psi, vscale(d1, gs.nu)))
        grads.append([d1, d2, d3])

    ps = PhaseSeries(gs, sp, xiprime, beta, phis, psis, rho_jet, media, (eps_s, mu_s),
                     flattened)
    ok = flattened or ps.imag_lower_bound_ok()
    while not np.all(ok):
        ps.delta = np.where(ok, ps.delta, 0.5 * ps.delta)[()]
        log.warning("phase positivity violated; delta halved to %g at base %s%s",
                    np.min(ps.delta), ps.base, _at_point(~ok))
        if np.any(ps.delta < 1e-8):
            raise DegenerateRho("Im phi lower bound unattainable" + _at_point(ps.delta < 1e-8))
        ok = ps.imag_lower_bound_ok()
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
