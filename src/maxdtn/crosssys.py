"""Closed-form solver for the algebraic cross-product system.

With psi0 = rho*nu - beta, the system in (a, b) is

    psi0 x a - z*mu0*b = a#,
    psi0 x b + z*eps0*a = b#,
    nu x a = g,

where <beta,nu> = <g,nu> = 0 and rho^2 + r0 = z^2*eps0*mu0.  The tangential
part of a is -nu x g; the normal component and b follow in closed form.
nu x b has its own cancellation-free closed form because the transport
recursion consumes it directly.

Every vector is one numpy array or one jet whose last axis holds the three
components (:mod:`maxdtn.numerics`); leading axes batch points, and a scalar
(rho, z, mu0) of a batch carries the batch shape without that axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRho
from .jets import Jet
from .numerics import cross, dot, lift

#: largest accepted |<beta,nu>| (|<g,nu>|) of a point relative to
#: max(1, max_i |beta_i|) (max(1, max_i |g_i|)) of that point
TANGENCY_TOL = 1e-13


class CrossSystemInput:
    """Validated input bundle for the cross-product system.

    nu, beta, a_sharp, b_sharp and g are array_like with a last axis of 3
    components, or jets with a last batch axis of 3; rho is a number or an
    array of the points' shape.  Numeric inputs are validated point by
    point; jet-valued inputs are accepted as-is since the recursion
    guarantees the orthogonality constraints structurally.
    """

    __slots__ = ("rho", "nu", "beta", "z", "eps0", "mu0", "a_sharp", "b_sharp", "g")

    def __init__(self, rho, nu, beta, z, eps0, mu0, a_sharp, b_sharp, g):
        def vector(v):
            return v if isinstance(v, Jet) else np.asarray(v)

        self.rho = rho
        self.nu, self.beta = vector(nu), vector(beta)
        self.z = z
        self.eps0 = eps0
        self.mu0 = mu0
        self.a_sharp, self.b_sharp, self.g = vector(a_sharp), vector(b_sharp), vector(g)
        self._validate()

    def _validate(self):
        if isinstance(self.nu, Jet):
            return
        if np.any(np.abs(np.asarray(self.rho)) < 1e-14):
            raise DegenerateRho("|rho| below 1e-14")
        for name, v in (("beta", self.beta), ("g", self.g)):
            if isinstance(v, Jet):
                continue
            scale = np.maximum(1.0, np.max(np.abs(v), axis=-1))
            if np.any(np.abs(dot(v, self.nu)) > TANGENCY_TOL * scale):
                raise ValueError(f"<{name},nu> != 0: input rejected, not projected")


class CrossSystem:
    """The system's left-hand side at fixed (rho, nu, beta, z, mu0).

    Holds 1/rho, 1/(z mu0) and psi0, so a recursion that solves many
    right-hand sides against one left-hand side inverts nothing twice;
    ``rho`` and 1/(z mu0) are kept lifted against the vectors.
    """

    __slots__ = ("rho", "nu", "beta", "inv_rho", "inv_rho2", "zmu_inv_rho2",
                 "inv_zmu", "psi0")

    def __init__(self, rho, nu, beta, z, mu0):
        self.nu, self.beta = nu, beta
        self.inv_rho = 1.0 / rho if not hasattr(rho, "invert") else rho.invert()
        self.inv_rho2 = self.inv_rho * self.inv_rho
        zmu = z * mu0
        self.zmu_inv_rho2 = zmu * self.inv_rho2
        self.inv_zmu = lift(1.0 / zmu if not hasattr(zmu, "invert") else zmu.invert())
        self.rho = lift(rho)
        self.psi0 = self.rho * nu - beta

    def solve(self, a_sharp, b_sharp, g):
        """Return (a, b, nu_cross_b) for the right-hand side (a#, b#, g).

        None stands for a zero a#, b# or g, and the crosses and dots of that
        term are skipped; at least one of the three must be given.
        """
        nu, beta = self.nu, self.beta
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
        nu_a = lift(nu_a)
        a = nu_a * nu
        # z*mu0 * (nu x b) = rho*(nu x g) - <nu,a>*beta - nu x a#
        if g is None:
            zmu_nxb = -nu_a * beta
        else:
            a = a - nu_x_g
            zmu_nxb = self.rho * nu_x_g - nu_a * beta
        b = cross(self.psi0, a)
        if a_sharp is not None:
            b = b - a_sharp
            zmu_nxb = zmu_nxb - cross(nu, a_sharp)
        return a, self.inv_zmu * b, self.inv_zmu * zmu_nxb


def solve_cross_system(inp: CrossSystemInput):
    """Return (a, b, nu_cross_b) solving the system.

    nu_cross_b is computed from its own closed form rather than as
    cross(nu, b), avoiding a cancellation-prone product at large |rho|.
    """
    return CrossSystem(inp.rho, inp.nu, inp.beta, inp.z, inp.mu0).solve(
        inp.a_sharp, inp.b_sharp, inp.g)
