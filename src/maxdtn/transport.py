"""Amplitude transport recursion and the boundary impedance symbol.

The two-form amplitude pair (a, b) is expanded in powers of h and of the
normal variable x1; each coefficient pair (a_{j,k}, b_{j,k}) solves the
algebraic cross-product system whose right-hand sides collect lower x1-order
terms and tangential derivatives of the previous h-level.  Everything is
linear in the boundary datum f~, so one pass of the recursion carries the
three coordinate basis vectors together: every amplitude entry is a jet with
a batch axis of size 3 (one column of the table per element), while the
geometry, the media and the phase stay unbatched and broadcast against it.
A phase built for a batch of points P (batch P + (1,), see
:mod:`maxdtn.eikonal`) gives amplitudes of batch P + (3,) and a symbol of
matrices P + (3, 3), every element as its own point's build.

Two schemes are provided.  The "literal" scheme gauges the tangential part
of a_{j,k} to zero for k >= 1; it satisfies the mu-equations exactly but
leaves an O(1) solvability defect in the eps-equations at levels j >= 1
(the defect belongs to the remainder of the expansion, not to the retained
coefficients).  The default "consistent" scheme instead determines the
tangential part of a_{j,k} (k >= 1) from the cokernel condition of the
level-(j+1) system at order k-1 -- the power-series form of the transport
equations -- so that both equations hold through all retained orders.  That
condition is affine in the datum g = nu x a_{j,k} = p1 tau0 + p2 tau1: the
slot enters the level-(j+1), order-(k-1) right-hand side only through the
curl term 1j*k*(nu x a_{j,k}, nu x b_{j,k}), and the cross-system solve
returns nu x b in closed form.  The slot's data are solved once with g = 0,
giving the defect's constant part d0; the solutions for g = tau0 and
g = tau1 with zero data give its slopes m1, m2, and depend on neither the
slot nor the basis datum, so the table solves them once.  A 2x2 system gives
(p1, p2); the solve being linear, the same weights combine the three
solutions into the slot.  The level-(j+1), order-(k-1) right-hand side
formed for that choice is kept and later completed by the curl term alone.
Levels are built with a staircase of x1-orders (deeper h-levels get fewer)
so every retained coefficient identity closes.  A zero term of a
right-hand side or datum is passed to the solve as None and costs nothing:
slot (0,0) has no right-hand side, and every slot without a solvability
choice has datum zero.

The table truncates its inputs (psi_k, rho, nu, beta, the gamma columns,
eps_k, mu_k) once, to the order T its recursion consumes; its readers take
slot values and first tangential derivatives, so every slot keeps order >= 1.
Each h-level differentiates the level below once, and the consistent
solvability choice at (j, k) differentiates the level-j slots below k: slot
(j, k) has order T - j - k, and T = N + J.  Without that choice (literal
scheme, or J = 0) it has order T - j, and T = J + 1.  A jet product's
coefficients of degree <= d are bitwise those of its operands cut to d, so
every slot value, derivative, symbol and residual is that of an untruncated
build.

The boundary symbol is m + h*mtilde: m comes from the (0,0) block, and the
first-order corrector combines a commutator term n (from the two-point
normal factor in the datum) with the (1,0) block.  These two blocks are all
the symbol reads, so a table with N = 1, J = 1 (slots (0,0), (0,1) and
(1,0)) serves it.  The high-frequency flattened corrector (media-independent
after scaling by mu0) uses the literal scheme with rho replaced by
i sqrt(r0), from an N = 2 flattened phase and such a table, and is built on
first read; the full corrector used for per-mode convergence comparisons
keeps rho and the consistent scheme.  The pointwise residual contracts the
basis axis with the datum f~ and takes every x1 of an array in one call.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .crosssys import CrossSystem
from .eikonal import PhaseSeries, eikonal_coeffs
from .errors import OrderBudgetExceeded
from .geometry import GammaSeries, beta_from_gamma, gamma_pointwise
from .numerics import cross, dot, vadd, vscale, vsub
from .spectral import calB, cutoff_eta, cutoff_eta_prime, m0_matrix

#: sign of the first-order commutator coefficient in n; fixed by the
#: quantization convention (kernel exp(-(i/h)<x'-y',xi'>)) and validated
#: against the exact per-mode impedances on the ball.
COMM_COEF = 1j

#: the three basis data as one batch: component c holds (e_0[c], e_1[c], e_2[c])
_BASIS = list(np.eye(3))
#: constant antisymmetric basis: iota_nu = sum_j nu_j * I_j
I_MATS = [np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]),
          np.array([[0.0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]]),
          np.array([[0.0, -1.0, 0], [1.0, 0, 0], [0, 0, 0]])]


def _plus(u, v):
    """u + v for 3-vectors, None standing for a zero u."""
    return v if u is None else vadd(u, v)


def _minus(u, v):
    """u - v for 3-vectors, None standing for a zero u."""
    return [-c for c in v] if u is None else vsub(u, v)


def _grad_cross(gamma_cols, vec):
    """(gamma nabla') x vec = sum_{m=2,3} col_m(gamma) x d_m(vec) (jet path)."""
    out = [None, None, None]
    for col, var in ((1, "x2"), (2, "x3")):
        dv = [c.derivative(var) for c in vec]
        term = cross(gamma_cols[col], dv)
        for i in range(3):
            out[i] = term[i] if out[i] is None else out[i] + term[i]
    return out


def _input_order(N, J, scheme):
    """Taylor order of the inputs the recursion consumes (module docstring)."""
    return J + 1 if scheme == "literal" or J == 0 else N + J


class AmplitudeTable:
    """Amplitude coefficients of the three basis data: batched[name][(j,k)].

    ``name`` is "a", "b" or "nu_cross_b" (nu x b from the dedicated closed
    form).  Levels j = 0..J carry x1-orders k = 0..K[j]-1 with
    K[j] = N + J - j.  Every entry is a jet 3-vector whose jets carry the
    basis index i as their batch axis; ``.value`` of the components gives
    the base-point numbers.  The table holds the datum-independent series
    of the recursion too, cut to the order :func:`_input_order`, and the
    two tau solutions of the solvability choice, solved on first use;
    :func:`transport_coeffs` fills its slots, sum(K) solves in all (two
    more for the tau pair of a consistent table).
    """

    def __init__(self, ps: PhaseSeries, N, J, scheme, media_corrections):
        gs = ps.gs
        self.ps = ps
        self.gs = gs
        self.sp = ps.sp
        self.N = N
        self.J = J
        self.K = {j: N + J - j for j in range(J + 1)}
        self.scheme = scheme
        ntot = self.K[0]
        if gs.n1 < ntot or len(ps.psis) < ntot:
            raise OrderBudgetExceeded("phase/gamma series too short for transport order")
        order = _input_order(N, J, scheme)

        def cut(jets):
            return [c.truncate(order) for c in jets]

        self.psis = [cut(p) for p in ps.psis[:ntot]]
        self.eps_k, self.mu_k = cut(ps.eps_k[:ntot]), cut(ps.mu_k[:ntot])
        self.media_corrections = media_corrections
        self.nu = cut(gs.nu)
        beta = cut(ps.beta)
        self.z = ps.z
        self.system = CrossSystem(ps.rho_jet.truncate(order), self.nu, beta, self.z,
                                  self.mu_k[0])
        self.gcols = [[cut(gs.gamma[i][c].coeffs[m] for i in range(3)) for c in range(3)]
                      for m in range(ntot)]
        self.g0 = vscale(-1.0, cross(self.nu, _BASIS))
        # tangential covector basis for the datum of a_{j,k}, k >= 1
        self.tau = (beta, cross(self.nu, beta))
        self.r0 = np.real(dot(beta, beta).value)
        self.a, self.b, self.nxb = {}, {}, {}
        self.batched = {"a": self.a, "b": self.b, "nu_cross_b": self.nxb}
        self._partial = {}

    def matrix(self, which, j, k):
        """A_{j,k} or B_{j,k} as a numeric array of shape P + (3, 3)
        (columns = basis data)."""
        vec = self.batched["a" if which == "A" else "b"][(j, k)]
        return np.moveaxis(np.array([comp.value for comp in vec]), 0, -2)

    def iota_nu_B(self, j):
        """iota_nu B_{j,0} from the dedicated nu x b closed forms, P + (3, 3)."""
        return np.moveaxis(np.array([comp.value for comp in self.nxb[(j, 0)]]), 0, -2)

    def rhs(self, j, k):
        """(a#, b#) at slot (j,k) from the stored slots, (None, None) when no
        term enters (slot (0,0)).  While slot (j-1, k+1) is not stored, its
        curl term is left out and the sums are kept; the first call after it
        is stored adds that term alone."""
        a, b = self.a, self.b
        if (j, k) in self._partial and (j - 1, k + 1) in a:
            a_sh, b_sh = self._partial.pop((j, k))
            w = 1j * (k + 1)
            return (vadd(a_sh, vscale(w, cross(self.nu, a[(j - 1, k + 1)]))),
                    vadd(b_sh, vscale(w, cross(self.nu, b[(j - 1, k + 1)]))))
        a_sh = b_sh = None
        z = self.z
        for ell in range(k):
            a_sh = _minus(a_sh, cross(self.psis[k - ell], a[(j, ell)]))
            b_sh = _minus(b_sh, cross(self.psis[k - ell], b[(j, ell)]))
            if self.media_corrections:
                a_sh = vadd(a_sh, vscale(z * self.mu_k[k - ell], b[(j, ell)]))
                b_sh = vsub(b_sh, vscale(z * self.eps_k[k - ell], a[(j, ell)]))
        if j >= 1:
            for ell in range(k + 1):
                ga = _grad_cross(self.gcols[k - ell], a[(j - 1, ell)])
                gb = _grad_cross(self.gcols[k - ell], b[(j - 1, ell)])
                if (j - 1, ell + 1) in a:
                    exa = cross(self.gcols[k - ell][0], a[(j - 1, ell + 1)])
                    exb = cross(self.gcols[k - ell][0], b[(j - 1, ell + 1)])
                    for c in range(3):
                        ga[c] = ga[c] + (ell + 1) * exa[c]
                        gb[c] = gb[c] + (ell + 1) * exb[c]
                a_sh = _plus(a_sh, vscale(1j, ga))
                b_sh = _plus(b_sh, vscale(1j, gb))
            if (j - 1, k + 1) not in a:
                self._partial[(j, k)] = (a_sh, b_sh)
        return a_sh, b_sh

    @cached_property
    def cokernel(self):
        """Test vectors u1 = beta x nu and u2 = psi0 x u1 (both with
        <psi0,u> = 0), each with its b-weight (z eps0)^{-1} psi0 x u."""
        psi0 = self.system.psi0
        u1 = cross(self.system.beta, self.nu)
        u2 = cross(psi0, u1)
        inv_zeps0 = (self.z * self.eps_k[0]).invert()
        return ((u1, vscale(inv_zeps0, u2)), (u2, vscale(inv_zeps0, cross(psi0, u2))))

    def defect(self, a_sh, b_sh):
        """Cokernel components of the system right-hand side.

        The system is solvable iff a# + (z eps0)^{-1} b# x psi0 is parallel
        to psi0, i.e. both pairings with the u-basis vanish.
        """
        return [dot(u, a_sh) + dot(w, b_sh) for u, w in self.cokernel]

    @cached_property
    def tau_solutions(self):
        """(a, b, nu x b) for the data g = tau0 and g = tau1 with a# = b# = 0:
        the slopes of the solvability choice, the same at every slot."""
        return [self.system.solve(None, None, t) for t in self.tau]

    @cached_property
    def tau_curls(self):
        """Cokernel components of the curl terms (nu x a, nu x b) of the two
        tau solutions, indexed [tau][component]."""
        return [self.defect(t, sol[2]) for t, sol in zip(self.tau, self.tau_solutions)]

    def solve_slot(self, j, k, a_sh, b_sh):
        """(a, b, nu x b) of slot (j,k): datum g0 at (0,0), the solvability
        choice for k >= 1, else zero.  A point with r0 < 1e-12 has no
        tangential basis and takes datum zero."""
        flat = np.asarray(self.r0 < 1e-12)
        if k == 0 or self.scheme == "literal" or j == self.J or np.all(flat):
            return self.system.solve(a_sh, b_sh, self.g0 if j == k == 0 else None)
        # the level-(j+1), order-(k-1) defect is d0 + p1 m1 + p2 m2 for
        # g = p1 tau0 + p2 tau1 (module docstring); rhs() leaves slot (j,k) out
        data = self.system.solve(a_sh, b_sh, None)
        rest = self.defect(*self.rhs(j + 1, k - 1))
        d0 = [rest[r] + 1j * k * dot(w, data[2]) for r, (_, w) in enumerate(self.cokernel)]
        m = [[1j * k * self.tau_curls[c][r] for c in range(2)] for r in range(2)]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        # weights 0 where flat: the slot is the solution of the data there
        inv_det = (det + flat.astype(float)).invert() * (~flat).astype(float)
        p1 = (m[0][1] * d0[1] - m[1][1] * d0[0]) * inv_det
        p2 = (m[1][0] * d0[0] - m[0][0] * d0[1]) * inv_det
        # the solve is linear in (a#, b#, g): the slot combines the solutions
        return tuple([d + p1 * t0 + p2 * t1 for d, t0, t1 in zip(*vecs)]
                     for vecs in zip(data, *self.tau_solutions))


def transport_coeffs(ps: PhaseSeries, media, N, J=None, scheme="consistent",
                     media_corrections=True):
    """Solve the transport recursion at the base point of ps.

    Levels j = 0..J (default N-1) with x1-orders k < N + J - j.  The
    flattened phase forces the literal scheme with constant-trace media.
    One pass carries the three basis data as a batch of size 3.  ``media``
    must be the phase's own media object, else ``ValueError``: their series
    along the normal are read from ``ps``, formed once by :func:`eikonal_coeffs`.
    """
    if media is not ps.media:
        raise ValueError(f"transport_coeffs got the media object {media!r}, but "
                         f"the phase was built with {ps.media!r}")
    J = N - 1 if J is None else J
    if ps.flattened:
        media_corrections = False
        scheme = "literal"
    tab = AmplitudeTable(ps, N, J, scheme, media_corrections)
    for s in range(N + J):
        for j in range(min(s, J) + 1):
            k = s - j
            if k >= tab.K[j]:
                continue
            slot = tab.solve_slot(j, k, *tab.rhs(j, k))
            tab.a[(j, k)], tab.b[(j, k)], tab.nxb[(j, k)] = slot
    return tab


# ---------------------------------------------------------------------------
# boundary symbol

def _mat(v):
    """A per-point number (point shape P) against matrices of shape P + (3, 3)."""
    return np.asarray(v)[..., None, None]


def _outer(u, v):
    """Outer products u_i v_j of 3-vectors, batched over points."""
    return u[..., :, None] * v[..., None, :]


def _dxi_ingredients(gs: GammaSeries, xiprime):
    """beta (P + (3,)), r0, and their xi'-gradients at the base point (numeric)."""
    g0 = gs.gamma0_value().real
    t2, t3 = g0[:, 1], g0[:, 2]
    beta = beta_from_gamma(g0, *xiprime)
    r0 = np.sum(beta * beta, axis=-1)
    dbeta = [t2, t3]
    dr0 = [2.0 * np.sum(beta * t, axis=-1) for t in dbeta]
    return beta, r0, dbeta, dr0


def _dxi_m(z, mu0, beta, r0, dbeta, dr0, rho):
    """xi'-gradient of m = (z mu0)^{-1}(rho I + rho^{-1} B)."""
    eye = np.eye(3)
    out = []
    B = calB(beta)
    rho = _mat(rho)
    for db, dr in zip(dbeta, dr0):
        drho = -_mat(dr) / (2.0 * rho)
        dB = _outer(db, beta) + _outer(beta, db)
        out.append((drho * eye - drho / rho ** 2 * B + dB / rho) / _mat(z * mu0))
    return out


def _dxi_m0_cut(z, mu0, beta, r0, dbeta, dr0):
    """xi'-gradient of (1-eta) m0, m0 = i(z mu0)^{-1}(sqrt(r0) I - r0^{-1/2} B)."""
    eye = np.eye(3)
    B = calB(beta)
    s = np.sqrt(r0)
    m0 = m0_matrix(z, mu0, r0, beta)
    cut = 1.0 - cutoff_eta(r0)
    dcut_dr0 = -cutoff_eta_prime(r0)
    out = []
    for db, dr in zip(dbeta, dr0):
        ds = dr / (2.0 * s)
        dB = _outer(db, beta) + _outer(beta, db)
        dm0 = 1j * (_mat(ds) * eye + _mat(ds / r0) * B - dB / _mat(s)) / _mat(z * mu0)
        out.append(_mat(cut) * dm0 + _mat(dcut_dr0 * dr) * m0)
    return out


def _commutator_n(gs: GammaSeries, dm_list):
    """n = COMM_COEF * sum_j sum_alpha d^alpha nu_j d^alpha_xi(sym) iota_nu I_j."""
    nu_val = np.array([c.value.real for c in gs.nu])
    iota = np.zeros((3, 3))
    for j in range(3):
        iota += nu_val[j] * I_MATS[j]
    n = np.zeros(dm_list[0].shape, dtype=complex)
    for j in range(3):
        dnu = [gs.nu[j].derivative("x2").value.real, gs.nu[j].derivative("x3").value.real]
        for alpha in range(2):
            n += COMM_COEF * dnu[alpha] * (dm_list[alpha] @ iota @ I_MATS[j])
    return n


class BoundarySymbol:
    """Boundary impedance symbol data at one cotangent point, or at each of
    a batch of them (matrices of shape P + (3, 3))."""

    def __init__(self, m, m_tilde_full, n, ps: PhaseSeries, mu0, dxi):
        self.m = m
        self.m_tilde_full = m_tilde_full  # n + iota_nu B_{1,0}
        self.n = n
        self._ps, self._mu0, self._dxi = ps, mu0, dxi

    @cached_property
    def m_tilde(self):
        """Flattened corrector n_flat + flattened iota_nu B_{1,0}, built on
        first read from an N = 2 flattened phase and an N = 1, J = 1 table,
        which hold the (1,0) block and nothing past it: cutoff m0 in the
        commutator; zero at r0 = 0 (a batch with r0 = 0 at some points only
        raises ZeroFrequencyCovector)."""
        ps, r0 = self._ps, self._dxi[1]
        if not np.any(r0 > 0.0):
            return np.zeros(np.shape(r0) + (3, 3), dtype=complex)
        n_flat = _commutator_n(ps.gs, _dxi_m0_cut(ps.sp.z, self._mu0, *self._dxi))
        ps_flat = eikonal_coeffs(ps.gs, ps.media, ps.sp, ps.xiprime, N=2, flattened=True)
        t_flat = transport_coeffs(ps_flat, ps.media, N=1, J=1)
        return n_flat + _mat(1.0 - cutoff_eta(r0)) * t_flat.iota_nu_B(1)


def boundary_symbol(table: AmplitudeTable):
    """Assemble the boundary symbol m + h m_tilde from the blocks iota_nu B_{j,0}.

    Returns a BoundarySymbol with the principal block m (= iota_nu B_{0,0})
    and the full corrector m_tilde_full = n + iota_nu B_{1,0}; its flattened
    corrector m_tilde is built when first read.  A table of a batch of points
    gives matrices of shape P + (3, 3).
    """
    ps = table.ps
    dxi = _dxi_ingredients(table.gs, ps.xiprime)
    mu0 = table.mu_k[0].value
    rho = np.reshape(ps.rho, ps.points)
    n_full = _commutator_n(table.gs, _dxi_m(table.sp.z, mu0, *dxi, rho))
    m_tilde_full = n_full + table.iota_nu_B(1) if table.J >= 1 else n_full
    return BoundarySymbol(table.iota_nu_B(0), m_tilde_full, n_full, ps, mu0, dxi)


# ---------------------------------------------------------------------------
# residuals

def _amplitude_at(table, name, j, w, pw, dpw, gam):
    """Level-j amplitude ``name`` of datum w, and (gamma nabla) x it, at x1^k = pw."""
    K = table.K[j]
    # [k, component, (value, d2, d3)], contracted over the basis batch axis
    c = np.array([[[comp.value, comp.derivative("x2").value,
                    comp.derivative("x3").value]
                   for comp in table.batched[name][(j, k)]] for k in range(K)]) @ w
    pw, dpw = pw[..., :K, None], dpw[..., :K, None]
    val, d2, d3 = (np.sum(pw * c[..., i], axis=-2) for i in range(3))
    grads = (np.sum(dpw * c[..., 0], axis=-2), d2, d3)
    return val, sum(np.cross(gam[..., :, m], grads[m]) for m in range(3))


def maxwell_residual(table: AmplitudeTable, x1, h, ftilde=(1.0, 0.0, 0.0)):
    """Amplitude-level residuals of the first-order system at (base, x1).

    Returns (V1, V2): the residuals of the mu- and eps-equations at
    amplitude level for the datum ftilde, evaluated with exact pointwise
    gamma, eps, mu, each of shape x1.shape + (3,) for scalar or array x1.
    Both decay like O(x1^N) + O(h^(J+1)) for the consistent scheme.
    """
    ps = table.ps
    gs = table.gs
    x1 = ps.retained(x1, closed=True)
    b2, b3 = gs.base
    gam = gamma_pointwise(gs.chart, b2, b3, x1)
    eps, mu = (np.asarray(v)[..., None] for v in ps.media.values_at(gs.chart, b2, b3, x1))
    gphi = (gam @ ps.grad_at(x1)[..., None])[..., 0]
    k = np.arange(table.K[0])
    pw = x1[..., None] ** k
    dpw = k * x1[..., None] ** np.maximum(k - 1, 0)
    z = table.sp.z
    V1, V2 = np.zeros((2,) + x1.shape + (3,), complex)
    for j in range(table.J + 1):
        av, curl_a = _amplitude_at(table, "a", j, ftilde, pw, dpw, gam)
        bv, curl_b = _amplitude_at(table, "b", j, ftilde, pw, dpw, gam)
        V1 += h ** j * (1j * np.cross(gphi, av) - 1j * z * mu * bv)
        V2 += h ** j * (1j * np.cross(gphi, bv) + 1j * z * eps * av)
        if j < table.J:     # the curl of level j enters the level-(j+1) equations
            V1 += h ** (j + 1) * curl_a
            V2 += h ** (j + 1) * curl_b
    return V1, V2
