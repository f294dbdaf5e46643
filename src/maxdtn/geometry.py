"""Boundary charts, normal geodesic coordinates, and media fields.

A chart supplies the boundary embedding s(x') and the inward unit normal
nu(x'); interior points are y = s(x') + x1*nu(x').  The matrix gamma is the
inverse transpose of the Jacobian dy/dx, expanded as a power series in x1
with jet-valued coefficients; its first column is nu exactly.

Two evaluation paths coexist: jet arithmetic (for the series recursions) and
closed-form vectorized numpy (for large random identity sweeps and residual
checks), sharing one set of ring-generic formulas.
"""

from __future__ import annotations

import numpy as np

from .errors import FocalDegeneracy, ZeroConstantTerm
from .jets import Jet, NormalSeries
from .numerics import cross, dot

# ---------------------------------------------------------------------------
# ring-generic scalar functions (jets or numpy arrays/scalars)

def _sin(u):
    return u.sin() if isinstance(u, Jet) else np.sin(u)


def _cos(u):
    return u.cos() if isinstance(u, Jet) else np.cos(u)


def _exp(u):
    return u.exp() if isinstance(u, (Jet, NormalSeries)) else np.exp(u)


def _sqrt_pos(u):
    """Positive square root; for jets, series continuation off a positive value."""
    if isinstance(u, Jet):
        c = u.value
        if abs(c.imag) > 1e-13 * (1 + abs(c)) or c.real <= 0.0:
            raise ZeroConstantTerm("positive-branch sqrt needs a positive real constant term")
        return u.sqrt_series(np.sqrt(c.real), c.real)
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

    # -- embedding, generic over the scalar ring ------------------------
    def embed(self, x2, x3):
        """s(x') as a 3-component list; x2, x3 may be jets or arrays."""
        if self.kind == "plane":
            zero = 0.0 * x2
            return [zero, x2 + 0.0 * x3, x3 + 0.0 * x2]
        a, b, c = self._axes()
        st, ct = _sin(x2), _cos(x2)
        sp, cp = _sin(x3), _cos(x3)
        return [a * st * cp, b * st * sp, c * ct]

    def embed_jets(self, base, vars=("x2", "x3"), order=8):
        x2 = Jet.variable("x2", base[0], vars, order)
        x3 = Jet.variable("x3", base[1], vars, order)
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

    def normal_jets(self, base, vars=("x2", "x3"), order=8):
        """Inward unit normal as a 3-vector of jets at the base point."""
        if self.kind == "plane":
            one = Jet.constant(1.0, vars, order)
            zero = one * 0.0
            return [one, zero, zero]
        s = self.embed_jets(base, vars, order + 1)
        t2 = [c.derivative("x2") for c in s]
        t3 = [c.derivative("x3") for c in s]
        raw = cross(t2, t3)
        nrm = _sqrt_pos(dot(raw, raw))
        cand = [c / nrm for c in raw]
        # fix the inward sign from the pointwise frame
        ref = self.frame(base[0], base[1])["nu"]
        sign = 1.0 if sum(ref[i] * cand[i].value.real for i in range(3)) > 0 else -1.0
        return [sign * c for c in cand]

    def jacobian_series(self, base, n1, vars=("x2", "x3"), order=8):
        """Columns of dy/dx as NormalSeries 3-vectors: (nu, t2 + x1 dnu2, t3 + x1 dnu3)."""
        s = self.embed_jets(base, vars, order + 2)
        nu = self.normal_jets(base, vars, order + 1)
        cols = [[NormalSeries.constant(c.truncate(order), n1) for c in nu]]
        for var in ("x2", "x3"):
            t = [c.derivative(var).truncate(order + 1) for c in s]
            dnu = [c.derivative(var) for c in nu]
            col = []
            for i in range(3):
                entry = NormalSeries.constant(t[i].truncate(order), n1)
                if n1 > 1:
                    entry.coeffs[1] = dnu[i].truncate(order)
                col.append(entry)
            cols.append(col)
        return cols


# ---------------------------------------------------------------------------
# gamma series

def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adjugate3(m):
    a = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            a[i][j] = minor if (i + j) % 2 == 0 else -minor
    return a


class GammaSeries:
    """gamma(x) = (dy/dx)^{-T} as an x1-series of jet-valued 3x3 matrices."""

    def __init__(self, chart, base, n1, order=8, vars=("x2", "x3")):
        self.chart = chart
        self.base = tuple(float(v) for v in base)
        self.n1 = int(n1)
        self.order = int(order)
        self.vars = tuple(vars)
        cols = chart.jacobian_series(self.base, self.n1, self.vars, order)
        jac = [[cols[j][i] for j in range(3)] for i in range(3)]  # rows of J
        det = _det3(jac)
        if abs(det.value) < 1e-12:
            raise FocalDegeneracy(
                f"Jacobian determinant {abs(det.value):.3e} at base {self.base}")
        try:
            inv_det = det.invert()
        except ZeroConstantTerm as exc:
            raise FocalDegeneracy(str(exc)) from exc
        adj = _adjugate3(jac)
        # gamma = (J^{-1})^T = (adj(J)/det)^T; adj already indexed as inverse
        self.gamma = [[adj[j][i] * inv_det for j in range(3)] for i in range(3)]
        self.nu = [self.gamma[i][0].coeffs[0] for i in range(3)]

    def gamma_k(self, k):
        """Jet-valued coefficient matrix of x1^k."""
        return [[self.gamma[i][j].coeffs[k] for j in range(3)] for i in range(3)]

    def gamma0_value(self):
        return np.array([[self.gamma[i][j].coeffs[0].value for j in range(3)]
                         for i in range(3)])


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
    """beta as a 3-vector of jets (tangential variables of the series)."""
    g0 = gs.gamma_k(0)
    return [xiprime[0] * g0[i][1] + xiprime[1] * g0[i][2] for i in range(3)]


# ---------------------------------------------------------------------------
# media

_FORMULAS = {}


def _register(name):
    def deco(fn):
        _FORMULAS[name] = fn
        return fn
    return deco


@_register("constant")
def _f_constant(p, y):
    return p["value"] + 0.0 * y[0]


@_register("affine")
def _f_affine(p, y):
    return p["c0"] + p["g1"] * y[0] + p["g2"] * y[1] + p["g3"] * y[2]


@_register("gauss")
def _f_gauss(p, y):
    return p["c0"] + p["amp"] * _exp(dot(y, y) * (-1.0 / p["width"] ** 2))


class ScalarField:
    """Positive scalar coefficient field given by a registered closed form."""

    def __init__(self, formula, **params):
        if formula not in _FORMULAS:
            raise ValueError(f"unknown media formula {formula!r}")
        self.formula = formula
        self.params = params

    def __call__(self, y):
        """Evaluate at a 3-component point (arrays, jets, or series)."""
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
        fr = chart.frame(x2, x3)
        y = [fr["s"][..., i] for i in range(3)]
        return self.eps(y), self.mu(y)

    def values_at(self, chart, x2, x3, x1):
        fr = chart.frame(x2, x3)
        x1 = np.asarray(x1, dtype=float)[..., None]
        p = fr["s"] + x1 * fr["nu"]
        y = [p[..., i] for i in range(3)]
        return self.eps(y), self.mu(y)

    def normal_series(self, gs: GammaSeries):
        """(eps, mu) as NormalSeries with jet coefficients along y = s + x1 nu."""
        s = gs.chart.embed_jets(gs.base, gs.vars, gs.order)
        nu = gs.nu
        y = []
        for i in range(3):
            comp = NormalSeries.constant(s[i].truncate(gs.order), gs.n1)
            if gs.n1 > 1:
                comp.coeffs[1] = nu[i].truncate(gs.order)
            y.append(comp)
        return self.eps(y), self.mu(y)
