"""Closed-form solver for the algebraic cross-product system.

With psi0 = rho*nu - beta, the system in (a, b) is

    psi0 x a - z*mu0*b = a#,
    psi0 x b + z*eps0*a = b#,
    nu x a = g,

where <beta,nu> = <g,nu> = 0 and rho^2 + r0 = z^2*eps0*mu0.  The tangential
part of a is -nu x g; the normal component and b follow in closed form.
nu x b has its own cancellation-free closed form because the transport
recursion consumes it directly.

All operations are ring-generic: components may be scalars, numpy arrays
(batched), or jets.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRho
from .numerics import cross, dot, vadd, vscale, vsub

#: largest accepted |<beta,nu>| (|<g,nu>|) relative to max(1, max |beta_i|)
TANGENCY_TOL = 1e-13


class CrossSystemInput:
    """Validated input bundle for the cross-product system.

    Validation is performed on numeric values only (batched arrays included);
    jet-valued inputs are accepted as-is since the recursion guarantees the
    orthogonality constraints structurally.
    """

    __slots__ = ("rho", "nu", "beta", "z", "eps0", "mu0", "a_sharp", "b_sharp", "g")

    def __init__(self, rho, nu, beta, z, eps0, mu0, a_sharp, b_sharp, g):
        self.rho = rho
        self.nu = nu
        self.beta = beta
        self.z = z
        self.eps0 = eps0
        self.mu0 = mu0
        self.a_sharp = a_sharp
        self.b_sharp = b_sharp
        self.g = g
        self._validate()

    def _validate(self):
        def numeric(v):
            return isinstance(v, (int, float, complex, np.number, np.ndarray))

        def abs_max(v):
            return np.abs(np.asarray(v)).max()

        if all(numeric(c) for c in self.nu):
            if np.any(np.abs(np.asarray(self.rho)) < 1e-14):
                raise DegenerateRho("|rho| below 1e-14")
            scale_b = max(1.0, float(abs_max(self.beta)))
            if abs_max(dot(self.beta, self.nu)) > TANGENCY_TOL * scale_b:
                raise ValueError("<beta,nu> != 0: input rejected, not projected")
            if all(numeric(c) for c in self.g):
                scale_g = max(1.0, float(abs_max(self.g)))
                if abs_max(dot(self.g, self.nu)) > TANGENCY_TOL * scale_g:
                    raise ValueError("<g,nu> != 0: input rejected, not projected")


class CrossSystem:
    """The system's left-hand side at fixed (rho, nu, beta, z, mu0).

    Holds 1/rho, 1/(z mu0) and psi0, so a recursion that solves many
    right-hand sides against one left-hand side inverts nothing twice.
    """

    __slots__ = ("rho", "nu", "beta", "inv_rho", "inv_rho2", "zmu_inv_rho2",
                 "inv_zmu", "psi0")

    def __init__(self, rho, nu, beta, z, mu0):
        self.rho, self.nu, self.beta = rho, nu, beta
        self.inv_rho = 1.0 / rho if not hasattr(rho, "invert") else rho.invert()
        self.inv_rho2 = self.inv_rho * self.inv_rho
        zmu = z * mu0
        self.zmu_inv_rho2 = zmu * self.inv_rho2
        self.inv_zmu = 1.0 / zmu if not hasattr(zmu, "invert") else zmu.invert()
        self.psi0 = vsub(vscale(rho, nu), beta)

    def solve(self, a_sharp, b_sharp, g):
        """Return (a, b, nu_cross_b) for the right-hand side (a#, b#, g).

        None stands for a zero a#, b# or g, and the crosses and dots of that
        term are skipped; at least one of the three must be given.
        """
        rho, nu, beta = self.rho, self.nu, self.beta
        # normal component of a
        nu_a = None
        if g is not None:
            nu_x_g = cross(nu, g)
            nu_a = self.inv_rho * dot(nu, cross(beta, g))
        if a_sharp is not None:
            t = self.inv_rho2 * dot(cross(beta, a_sharp), nu)
            nu_a = -t if nu_a is None else nu_a - t
        if b_sharp is not None:
            t = self.zmu_inv_rho2 * dot(b_sharp, nu)
            nu_a = t if nu_a is None else nu_a + t
        a = vscale(nu_a, nu)
        # z*mu0 * (nu x b) = rho*(nu x g) - <nu,a>*beta - nu x a#
        if g is None:
            zmu_nxb = vscale(-nu_a, beta)
        else:
            a = vadd(vscale(-1.0, nu_x_g), a)
            zmu_nxb = vsub(vscale(rho, nu_x_g), vscale(nu_a, beta))
        b = cross(self.psi0, a)
        if a_sharp is not None:
            b = vsub(b, a_sharp)
            zmu_nxb = vsub(zmu_nxb, cross(nu, a_sharp))
        return a, vscale(self.inv_zmu, b), vscale(self.inv_zmu, zmu_nxb)


def solve_cross_system(inp: CrossSystemInput):
    """Return (a, b, nu_cross_b) solving the system.

    nu_cross_b is computed from its own closed form rather than as
    cross(nu, b), avoiding a cancellation-prone product at large |rho|.
    """
    return CrossSystem(inp.rho, inp.nu, inp.beta, inp.z, inp.mu0).solve(
        inp.a_sharp, inp.b_sharp, inp.g)
