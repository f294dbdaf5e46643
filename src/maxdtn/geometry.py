"""Boundary charts, normal geodesic coordinates, and media fields.

A chart supplies the boundary embedding s(x') and the inward unit normal
nu(x'); interior points are y = s(x') + x1*nu(x').  The matrix gamma is the
inverse transpose of the Jacobian dy/dx, expanded as a power series in x1
with jet-valued coefficients.  It is formed as the dual basis of the
Jacobian's columns (nu, j2, j3) by two cross products and one series
inverse (:class:`GammaSeries`); its first column is nu exactly.

Two evaluation paths coexist: jet arithmetic (for the series recursions) and
closed-form vectorized numpy (for large random identity sweeps and residual
checks).  Both keep a 3-vector as one jet or array whose last axis holds the
components (:mod:`maxdtn.numerics`).
"""

from __future__ import annotations

import numpy as np

from .errors import FocalDegeneracy, ZeroConstantTerm
from .jets import VARS, Jet, NormalSeries, _at
from .numerics import cross, dot, lift

# ---------------------------------------------------------------------------
# scalar functions (jets or numpy arrays/scalars)

def _not_positive(c):
    """Mask of the values c that are not positive reals (up to rounding)."""
    return (np.abs(np.imag(c)) > 1e-13 * (1 + np.abs(c))) | (np.real(c) <= 0.0)


def _sqrt_pos(u):
    """Positive square root; for jets, series continuation off a positive value."""
    if isinstance(u, Jet):
        c = u.value
        bad = _not_positive(c)
        if np.any(bad):
            raise ZeroConstantTerm(
                "positive-branch sqrt needs a positive real constant term" + _at(bad))
        return u.sqrt_series(np.sqrt(np.real(c)), np.real(c))
    return np.sqrt(u)


# ---------------------------------------------------------------------------
# charts

class SurfaceChart:
    """Analytic boundary patch with inward unit normal.

    Kinds: ``plane`` (s = (0, x2, x3), nu = e1), ``sphere`` (radius R,
    spherical angles x' = (colatitude, azimuth)), ``ellipsoid`` (semi-axes
    a, b, c, same angles).  The normal points into the enclosed region.
    """

    def __init__(self, kind, params, domain):
        self.kind = kind
        self.params = dict(params)
        self.domain = domain  # ((x2_min, x2_max), (x3_min, x3_max))

    @classmethod
    def plane(cls):
        return cls("plane", {}, ((-10.0, 10.0), (-10.0, 10.0)))

    @classmethod
    def sphere(cls, radius=1.0):
        return cls("sphere", {"radius": float(radius)},
                   ((0.3, np.pi - 0.3), (-np.pi, np.pi)))

    @classmethod
    def ellipsoid(cls, a, b, c):
        return cls("ellipsoid", {"a": float(a), "b": float(b), "c": float(c)},
                   ((0.3, np.pi - 0.3), (-np.pi, np.pi)))

    def _axes(self):
        if self.kind == "sphere":
            r = self.params["radius"]
            return r, r, r
        return self.params["a"], self.params["b"], self.params["c"]

    # -- embedding as jets -----------------------------------------------
    def embed(self, x2, x3):
        """s(x') as a jet 3-vector from the coordinate jets x2, x3."""
        if self.kind == "plane":
            zero = 0.0 * x2
            return Jet.stack([zero, x2 + 0.0 * x3, x3 + 0.0 * x2])
        a, b, c = self._axes()
        st, ct = x2.sin(), x2.cos()
        sp, cp = x3.sin(), x3.cos()
        return Jet.stack([a * st * cp, b * st * sp, c * ct])

    def embed_jets(self, base, order):
        x2 = Jet.variable("x2", base[0], order)
        x3 = Jet.variable("x3", base[1], order)
        return self.embed(x2, x3)

    def random_points(self, n, rng, margin=0.0):
        (lo2, hi2), (lo3, hi3) = self.domain
        x2 = rng.uniform(lo2 + margin, hi2 - margin, size=n)
        x3 = rng.uniform(lo3 + margin, hi3 - margin, size=n)
        return x2, x3

    # -- pointwise frame (vectorized closed forms) ----------------------
    def frame(self, x2, x3):
        """Pointwise geometry: embedding, tangents, inward normal, its derivatives.

        Returns a dict of arrays shaped (..., 3): s, t2, t3, nu, dnu2, dnu3.
        """
        x2 = np.asarray(x2, dtype=float)
        x3 = np.asarray(x3, dtype=float)
        shape = np.broadcast(x2, x3).shape
        if self.kind == "plane":
            zero = np.zeros(shape)
            one = np.ones(shape)
            s = np.stack([zero, x2 + zero, x3 + zero], axis=-1)
            t2 = np.stack([zero, one, zero], axis=-1)
            t3 = np.stack([zero, zero, one], axis=-1)
            nu = np.stack([one, zero, zero], axis=-1)
            dz = np.zeros(shape + (3,))
            return {"s": s, "t2": t2, "t3": t3, "nu": nu, "dnu2": dz, "dnu3": dz}
        a, b, c = self._axes()
        st, ct = np.sin(x2), np.cos(x2)
        sp, cp = np.sin(x3), np.cos(x3)
        s = np.stack([a * st * cp, b * st * sp, c * ct], axis=-1)
        t2 = np.stack([a * ct * cp, b * ct * sp, -c * st], axis=-1)
        t3 = np.stack([-a * st * sp, b * st * cp, np.zeros(shape)], axis=-1)
        # inward normal via the gradient of the implicit quadric
        w = np.array([1.0 / a ** 2, 1.0 / b ** 2, 1.0 / c ** 2])
        grad = s * w
        dg2 = t2 * w
        dg3 = t3 * w
        gn = np.sqrt(np.sum(grad * grad, axis=-1, keepdims=True))
        nu = -grad / gn
        dgn2 = np.sum(grad * dg2, axis=-1, keepdims=True) / gn
        dgn3 = np.sum(grad * dg3, axis=-1, keepdims=True) / gn
        dnu2 = -dg2 / gn + grad * dgn2 / gn ** 2
        dnu3 = -dg3 / gn + grad * dgn3 / gn ** 2
        return {"s": s, "t2": t2, "t3": t3, "nu": nu, "dnu2": dnu2, "dnu3": dnu3}

    def normal_jets(self, base, s):
        """Inward unit normal as a jet 3-vector at the base point, one order
        below the embedding jet 3-vector ``s`` there.  Raises FocalDegeneracy
        where the tangents span no plane, |s2 x s3| <= 1e-12 (|s2|^2 + |s3|^2)."""
        if self.kind == "plane":
            return Jet.constant(np.array([1.0, 0.0, 0.0]), s.order - 1)
        s2, s3 = s.derivative("x2"), s.derivative("x3")
        raw = cross(s2, s3)
        size = np.linalg.norm(s2.value) ** 2 + np.linalg.norm(s3.value) ** 2
        if np.linalg.norm(raw.value) <= 1e-12 * size:
            raise FocalDegeneracy(f"no normal at base {tuple(base)}: the tangents "
                                  f"span no plane")
        cand = raw * lift(_sqrt_pos(dot(raw, raw)).invert())
        # fix the inward sign from the pointwise frame
        ref = self.frame(base[0], base[1])["nu"]
        return (1.0 if ref @ cand.value.real > 0 else -1.0) * cand

    def jacobian_series(self, base, s, n1, order):
        """Columns of dy/dx from the embedding jet 3-vector ``s`` of order
        ``order + 2``: the normal nu (a jet 3-vector, x1-independent) and the
        NormalSeries of jet 3-vectors t2 + x1 dnu2, t3 + x1 dnu3."""
        nu = self.normal_jets(base, s)
        return (nu.truncate(order),) + tuple(
            NormalSeries.linear(s.derivative(var).truncate(order), nu.derivative(var), n1)
            for var in VARS)


# ---------------------------------------------------------------------------
# gamma series

class GammaSeries:
    """gamma(x) = (dy/dx)^{-T} as an x1-series of jet-valued 3x3 matrices.

    The columns of dy/dx are nu, j2 = t2 + x1 dnu2 and j3 = t3 + x1 dnu3, and
    nu is a unit normal to j2 and j3.  So gamma's columns are their dual
    basis: nu, (j3 x nu)/det and (nu x j2)/det, with det = <nu x j2, j3>.
    Column 0 is nu exactly, with no x1 term.  The coefficient of x1^k is one
    jet of batch (3, 3), (row, column) (``gamma_k``).  The normal ``nu`` and
    the embedding s(x') are kept as jet 3-vectors; the embedding has order
    ``order + 2``, and every series at the base point reads its prefix.
    Raises FocalDegeneracy where the chart has no normal, or where |det| at
    the base is at most 1e-12 |j2||j3|.
    """

    def __init__(self, chart, base, n1, order):
        self.chart = chart
        self.base = tuple(float(v) for v in base)
        self.n1 = int(n1)
        self.order = int(order)
        self.embedding = chart.embed_jets(self.base, self.order + 2)
        nu, j2, j3 = chart.jacobian_series(self.base, self.embedding, self.n1, self.order)
        nu_x_j2 = cross(nu, j2)
        det = dot(nu_x_j2, j3)
        scale = np.linalg.norm(j2.value) * np.linalg.norm(j3.value)
        if abs(det.value) <= 1e-12 * scale:
            raise FocalDegeneracy(f"Jacobian determinant {abs(det.value):.3e} at base "
                                  f"{self.base}, against |j2||j3| = {scale:.3e}")
        inv_det = lift(det.invert())
        cols = (cross(j3, nu) * inv_det, nu_x_j2 * inv_det)
        zero = 0.0 * nu
        self._k = [Jet.stack([nu if k == 0 else zero] + [c.coeffs[k] for c in cols])
                   for k in range(self.n1)]
        self.nu = nu

    def gamma_k(self, k):
        """Coefficient matrix of x1^k: one jet of batch (3, 3), (row, column)."""
        return self._k[k]


# ---------------------------------------------------------------------------
# pointwise gamma / beta (vectorized)

def gamma_pointwise(chart, x2, x3, x1=0.0):
    """gamma(x) = (dy/dx)^{-T} exactly, batched over points."""
    fr = chart.frame(x2, x3)
    x1 = np.asarray(x1, dtype=float)[..., None]
    j2 = fr["t2"] + x1 * fr["dnu2"]
    j3 = fr["t3"] + x1 * fr["dnu3"]
    nu = np.broadcast_to(fr["nu"], j2.shape)     # against an array x1
    jac = np.stack([nu, j2, j3], axis=-1)  # columns
    return np.linalg.inv(jac).swapaxes(-1, -2)


def beta_from_gamma(g0, xi2, xi3):
    """beta = xi2*gamma0 zeta2 + xi3*gamma0 zeta3 from gamma(x', 0), batched."""
    return (np.asarray(xi2)[..., None] * g0[..., :, 1]
            + np.asarray(xi3)[..., None] * g0[..., :, 2])


def beta_pointwise(chart, x2, x3, xi2, xi3):
    """beta = xi2*gamma0 zeta2 + xi3*gamma0 zeta3 and r0 = <beta,beta>, batched."""
    beta = beta_from_gamma(gamma_pointwise(chart, x2, x3), xi2, xi3)
    r0 = np.sum(beta * beta, axis=-1)
    return beta, r0


def beta_jets(gs: GammaSeries, xiprime):
    """beta as a jet 3-vector (tangential variables of the series); components
    of xiprime of a point shape P give the batch P + (3,)."""
    g0 = gs.gamma_k(0)
    return lift(xiprime[0]) * g0[..., 1] + lift(xiprime[1]) * g0[..., 2]


# ---------------------------------------------------------------------------
# media

def _f_constant(p, y):
    return p["value"] + 0.0 * y[..., 0]


def _f_affine(p, y):
    return p["c0"] + p["g1"] * y[..., 0] + p["g2"] * y[..., 1] + p["g3"] * y[..., 2]


#: the closed forms a ScalarField names
_FORMULAS = {"constant": _f_constant, "affine": _f_affine}


class ScalarField:
    """Positive scalar coefficient field given by a named closed form."""

    def __init__(self, formula, **params):
        if formula not in _FORMULAS:
            raise ValueError(f"unknown media formula {formula!r}")
        self.formula = formula
        self.params = params

    def __call__(self, y):
        """Evaluate at points y whose last axis holds the 3 components: an
        array, or a NormalSeries of jet 3-vectors."""
        return _FORMULAS[self.formula](self.params, y)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"ScalarField({self.formula}, {inner})"


class MediaField:
    """Pair of permittivity/permeability fields eps(x), mu(x)."""

    def __init__(self, eps: ScalarField, mu: ScalarField):
        self.eps = eps
        self.mu = mu

    @classmethod
    def constant(cls, eps, mu):
        return cls(ScalarField("constant", value=float(eps)),
                   ScalarField("constant", value=float(mu)))

    def boundary_values(self, chart, x2, x3):
        s = chart.frame(x2, x3)["s"]
        return self.eps(s), self.mu(s)

    def values_at(self, chart, x2, x3, x1):
        fr = chart.frame(x2, x3)
        x1 = np.asarray(x1, dtype=float)[..., None]
        p = fr["s"] + x1 * fr["nu"]
        return self.eps(p), self.mu(p)

    def normal_series(self, gs: GammaSeries):
        """(eps, mu) as NormalSeries with jet coefficients along y = s + x1 nu."""
        y = NormalSeries.linear(gs.embedding.truncate(gs.order), gs.nu, gs.n1)
        return self.eps(y), self.mu(y)
