"""Amplitude transport recursion and the boundary impedance symbol.

The two-form amplitude pair (a, b) is expanded in powers of h and of the
normal variable x1; each coefficient pair (a_{j,k}, b_{j,k}) solves the
algebraic cross-product system whose right-hand sides collect lower x1-order
terms and tangential derivatives of the previous h-level.  Everything is
linear in the boundary datum f~, so the table is assembled column-by-column
on the three coordinate basis vectors, with jet-valued entries carrying the
tangential dependence.

Two schemes are provided.  The "literal" scheme gauges the tangential part
of a_{j,k} to zero for k >= 1; it satisfies the mu-equations exactly but
leaves an O(1) solvability defect in the eps-equations at levels j >= 1
(the defect belongs to the remainder of the expansion, not to the retained
coefficients).  The default "consistent" scheme instead determines the
tangential part of a_{j,k} (k >= 1) from the cokernel condition of the
level-(j+1) system at order k-1 -- the power-series form of the transport
equations -- so that both equations hold through all retained orders.
Levels are built with a staircase of x1-orders (deeper h-levels get fewer)
so every retained coefficient identity closes.

The boundary symbol is m + h*mtilde: m comes from the (0,0) block, and the
first-order corrector combines a commutator term n (from the two-point
normal factor in the datum) with the (1,0) block.  The high-frequency
flattened corrector (media-independent after scaling by mu0) uses the
literal scheme with rho replaced by i sqrt(r0); the full corrector used for
per-mode convergence comparisons keeps rho and the consistent scheme.
"""

from __future__ import annotations

import numpy as np

from .crosssys import CrossSystem
from .eikonal import PhaseSeries, eikonal_coeffs
from .errors import OrderBudgetExceeded, OutsideRetainedRegion
from .geometry import GammaSeries, beta_jets, gamma_pointwise
from .numerics import cross, dot, vadd, vscale, vsub
from .spectral import cutoff_eta, cutoff_eta_prime

#: sign of the first-order commutator coefficient in n; fixed by the
#: quantization convention (kernel exp(-(i/h)<x'-y',xi'>)) and validated
#: against the exact per-mode impedances on the ball.
COMM_COEF = 1j

_BASIS = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
#: constant antisymmetric basis: iota_nu = sum_j nu_j * I_j
I_MATS = [np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]),
          np.array([[0.0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]]),
          np.array([[0.0, -1.0, 0], [1.0, 0, 0], [0, 0, 0]])]


class AmplitudeTable:
    """Amplitude coefficients per basis datum: a[i][(j,k)], b[i][(j,k)].

    Levels j = 0..J carry x1-orders k = 0..K[j]-1 with K[j] = N + J - j.
    ``nu_cross_b[i][(j,k)]`` holds nu x b from the dedicated closed form.
    All entries are jet 3-vectors; ``.value`` of the components gives the
    base-point numbers.
    """

    def __init__(self, ps: PhaseSeries, N, J, a, b, nu_cross_b, psis,
                 media_series, scheme):
        self.ps = ps
        self.gs = ps.gs
        self.sp = ps.sp
        self.N = N
        self.J = J
        self.K = {j: N + J - j for j in range(J + 1)}
        self.a = a
        self.b = b
        self.nu_cross_b = nu_cross_b
        self.psis = psis
        self.eps_k, self.mu_k = media_series
        self.scheme = scheme

    def matrix(self, which, j, k):
        """A_{j,k} or B_{j,k} as a numeric 3x3 array (columns = basis data)."""
        table = self.a if which == "A" else self.b
        cols = [[comp.value for comp in table[i][(j, k)]] for i in range(3)]
        return np.array(cols).T

    def iota_nu_B(self, j):
        """iota_nu B_{j,0} from the dedicated nu x b closed forms."""
        cols = [[comp.value for comp in self.nu_cross_b[i][(j, 0)]] for i in range(3)]
        return np.array(cols).T

    def apply(self, ftilde, j, k):
        """a_{j,k} and b_{j,k} as jet 3-vectors for a numeric datum ftilde."""
        av = [sum(ftilde[i] * self.a[i][(j, k)][c] for i in range(3)) for c in range(3)]
        bv = [sum(ftilde[i] * self.b[i][(j, k)][c] for i in range(3)) for c in range(3)]
        return av, bv


def _psi_coeffs(ps: PhaseSeries, n):
    """psi_k = [x1^k] gamma grad phi as jet 3-vectors, k = 0..n-1."""
    gs = ps.gs
    grad = ps.grad_series(n1=n)
    psi = [None] * n
    for k in range(n):
        comp = []
        for i in range(3):
            acc = None
            for ell in range(k + 1):
                term = sum(gs.gamma[i][j].coeffs[ell] * grad[j].coeffs[k - ell]
                           for j in range(3))
                acc = term if acc is None else acc + term
            comp.append(acc)
        psi[k] = comp
    return psi


def _grad_cross(gamma_cols, vec):
    """(gamma nabla') x vec = sum_{m=2,3} col_m(gamma) x d_m(vec) (jet path)."""
    out = [None, None, None]
    for col, var in ((1, "x2"), (2, "x3")):
        dv = [c.derivative(var) for c in vec]
        term = cross(gamma_cols[col], dv)
        for i in range(3):
            out[i] = term[i] if out[i] is None else out[i] + term[i]
    return out


class _Recursion:
    """State of the transport build: the datum-independent series, shared by
    the three basis columns, and the slots (a, b, nu x b) of the current one."""

    def __init__(self, ps, media, N, J, media_corrections):
        gs = ps.gs
        self.gs = gs
        self.sp = ps.sp
        self.N = N
        self.J = J
        self.K = {j: N + J - j for j in range(J + 1)}
        ntot = self.K[0]
        if gs.n1 < ntot or len(ps.phis) < ntot + 1:
            raise OrderBudgetExceeded("phase/gamma series too short for transport order")
        self.psis = _psi_coeffs(ps, ntot)
        eps_s, mu_s = media.normal_series(gs)
        self.eps_k, self.mu_k = eps_s.coeffs, mu_s.coeffs
        self.media_corrections = media_corrections
        self.nu = gs.nu
        self.beta = beta_jets(gs, ps.xiprime)
        self.rho = ps.rho_jet
        self.z = ps.sp.z
        self.inv_zeps0 = (self.z * self.eps_k[0]).invert()
        self.system = CrossSystem(self.rho, self.nu, self.beta, self.z, self.mu_k[0])
        self.psi0 = self.system.psi0
        self.gcols = [[[gs.gamma[i][c].coeffs[m] for i in range(3)] for c in range(3)]
                      for m in range(ntot)]
        self.zero = self.nu[0] * 0.0
        self.zerov = [self.zero] * 3
        # cokernel test vectors: u and psi0 x u with <psi0,u> = 0
        u1 = cross(self.beta, self.nu)
        self.u_basis = (u1, cross(self.psi0, u1))
        # tangential covector basis for the datum of a_{j,k}, k >= 1
        self.tau = (self.beta, cross(self.nu, self.beta))
        self.r0 = dot(self.beta, self.beta).value.real
        self.a = {}
        self.b = {}
        self.nxb = {}

    def rhs(self, j, k, extra=None):
        """(a#, b#) at slot (j,k); ``extra`` supplies a trial (a,b) pair for
        a not-yet-stored slot referenced by the level-(j-1) curl term."""
        a, b = self.a, self.b
        if extra is not None:
            a = dict(a); b = dict(b)
            slot, av, bv = extra
            a[slot] = av
            b[slot] = bv
        a_sh = self.zerov
        b_sh = self.zerov
        z = self.z
        for ell in range(k):
            a_sh = vsub(a_sh, cross(self.psis[k - ell], a[(j, ell)]))
            b_sh = vsub(b_sh, cross(self.psis[k - ell], b[(j, ell)]))
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
                a_sh = vadd(a_sh, vscale(1j, ga))
                b_sh = vadd(b_sh, vscale(1j, gb))
        return a_sh, b_sh

    def defect(self, a_sh, b_sh):
        """Cokernel components of the system right-hand side.

        The system is solvable iff a# + (z eps0)^{-1} b# x psi0 is parallel
        to psi0, i.e. both pairings with the u-basis vanish.
        """
        out = []
        for u in self.u_basis:
            out.append(dot(u, a_sh) + self.inv_zeps0 * dot(cross(self.psi0, u), b_sh))
        return out

    def solve_slot(self, j, k, a_sh, b_sh, g):
        return self.system.solve(a_sh, b_sh, g)

    def tangential_datum(self, j, k, a_sh, b_sh, scheme):
        """Datum g for slot (j,k): bc at k=0, else the solvability choice."""
        if k == 0 or scheme == "literal" or j == self.J or self.r0 < 1e-12:
            return self.zerov
        # the defect of level j+1 at order k-1 is linear in g through the
        # curl term k*(nu x a_{j,k}, nu x b_{j,k}); solve the 2x2 system
        vals = []
        for g in (self.zerov, self.tau[0], self.tau[1]):
            av, bv, _ = self.solve_slot(j, k, a_sh, b_sh, g)
            ra, rb = self.rhs(j + 1, k - 1, extra=((j, k), av, bv))
            vals.append(self.defect(ra, rb))
        d0 = vals[0]
        m = [[vals[c + 1][r] - d0[r] for c in range(2)] for r in range(2)]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inv_det = det.invert()
        p1 = (m[0][1] * d0[1] - m[1][1] * d0[0]) * inv_det
        p2 = (m[1][0] * d0[0] - m[0][0] * d0[1]) * inv_det
        return vadd(vscale(p1, self.tau[0]), vscale(p2, self.tau[1]))


def transport_coeffs(ps: PhaseSeries, media, N, J=None, scheme="consistent",
                     media_corrections=True):
    """Solve the transport recursion at the base point of ps.

    Levels j = 0..J (default N-1) with x1-orders k < N + J - j.  The
    flattened phase forces the literal scheme with constant-trace media.
    """
    J = N - 1 if J is None else J
    if ps.flattened:
        media_corrections = False
        scheme = "literal"
    a = [dict() for _ in range(3)]
    b = [dict() for _ in range(3)]
    nxb = [dict() for _ in range(3)]
    rec = _Recursion(ps, media, N, J, media_corrections)
    for i, e in enumerate(_BASIS):
        rec.a, rec.b, rec.nxb = {}, {}, {}
        g0 = vscale(-1.0, cross(rec.nu, list(e)))
        for s in range(N + J):
            for j in range(min(s, J) + 1):
                k = s - j
                if k >= rec.K[j]:
                    continue
                a_sh, b_sh = rec.rhs(j, k)
                if k == 0:
                    g = g0 if j == 0 else rec.zerov
                else:
                    g = rec.tangential_datum(j, k, a_sh, b_sh, scheme)
                ajk, bjk, nxbjk = rec.solve_slot(j, k, a_sh, b_sh, g)
                rec.a[(j, k)], rec.b[(j, k)], rec.nxb[(j, k)] = ajk, bjk, nxbjk
        a[i], b[i], nxb[i] = rec.a, rec.b, rec.nxb
    return AmplitudeTable(ps, N, J, a, b, nxb, rec.psis,
                          (rec.eps_k, rec.mu_k), scheme)


# ---------------------------------------------------------------------------
# boundary symbol

def _dxi_ingredients(gs: GammaSeries, xiprime):
    """beta, r0, and their xi'-gradients at the base point (numeric)."""
    g0 = gs.gamma0_value().real
    t2, t3 = g0[:, 1], g0[:, 2]
    beta = xiprime[0] * t2 + xiprime[1] * t3
    r0 = float(beta @ beta)
    dbeta = [t2, t3]
    dr0 = [2.0 * float(beta @ t) for t in dbeta]
    return beta, r0, dbeta, dr0


def _dxi_m(z, mu0, beta, r0, dbeta, dr0, rho):
    """xi'-gradient of m = (z mu0)^{-1}(rho I + rho^{-1} B)."""
    eye = np.eye(3)
    out = []
    B = np.outer(beta, beta)
    for db, dr in zip(dbeta, dr0):
        drho = -dr / (2.0 * rho)
        dB = np.outer(db, beta) + np.outer(beta, db)
        out.append((drho * eye - drho / rho ** 2 * B + dB / rho) / (z * mu0))
    return out


def _dxi_m0_cut(z, mu0, beta, r0, dbeta, dr0, C0):
    """xi'-gradient of (1-eta) m0, m0 = i(z mu0)^{-1}(sqrt(r0) I - r0^{-1/2} B)."""
    eye = np.eye(3)
    B = np.outer(beta, beta)
    s = np.sqrt(r0)
    m0 = 1j * (s * eye - B / s) / (z * mu0)
    cut = 1.0 - cutoff_eta(r0, C0)
    dcut_dr0 = -cutoff_eta_prime(r0, C0)
    out = []
    for db, dr in zip(dbeta, dr0):
        ds = dr / (2.0 * s)
        dB = np.outer(db, beta) + np.outer(beta, db)
        dm0 = 1j * (ds * eye + ds / r0 * B - dB / s) / (z * mu0)
        out.append(cut * dm0 + dcut_dr0 * dr * m0)
    return out


def _commutator_n(gs: GammaSeries, dm_list):
    """n = COMM_COEF * sum_j sum_alpha d^alpha nu_j d^alpha_xi(sym) iota_nu I_j."""
    nu_val = np.array([c.value.real for c in gs.nu])
    iota = np.zeros((3, 3))
    for j in range(3):
        iota += nu_val[j] * I_MATS[j]
    n = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        dnu = [gs.nu[j].derivative("x2").value.real, gs.nu[j].derivative("x3").value.real]
        for alpha in range(2):
            n += COMM_COEF * dnu[alpha] * (dm_list[alpha] @ iota @ I_MATS[j])
    return n


class BoundarySymbol:
    """Boundary impedance symbol data at one cotangent point."""

    def __init__(self, m, m_tilde, m_tilde_full, n, B_flat, M_h, table):
        self.m = m
        self.m_tilde = m_tilde            # n + B_flat (flattened corrector)
        self.m_tilde_full = m_tilde_full  # n_full + iota_nu B_{1,0}
        self.n = n
        self.B_flat = B_flat
        self.M_h = M_h
        self.table = table


def boundary_symbol(table: AmplitudeTable, J=1, C0=10.0):
    """Assemble the truncated boundary symbol sum_j h^j iota_nu B_{j,0}.

    Returns a BoundarySymbol with the principal block m (= iota_nu B_{0,0}),
    the flattened corrector m_tilde = n + B_flat_{1,0}, and the full
    corrector m_tilde_full = n_full + iota_nu B_{1,0}.
    """
    ps = table.ps
    gs = table.gs
    sp = table.sp
    h = sp.h
    J = min(J, table.J)
    M_h = sum(h ** j * table.iota_nu_B(j) for j in range(J + 1))
    m_block = table.iota_nu_B(0)

    xi = ps.xiprime
    beta, r0, dbeta, dr0 = _dxi_ingredients(gs, xi)
    mu0 = table.mu_k[0].value
    z = sp.z

    # full corrector: commutator with the full m plus the (1,0) block
    dm = _dxi_m(z, mu0, beta, r0, dbeta, dr0, ps.rho)
    n_full = _commutator_n(gs, dm)
    m_tilde_full = n_full + table.iota_nu_B(1) if table.J >= 1 else n_full

    # flattened corrector: cutoff m0 in the commutator, flattened (1,0) block
    if r0 > 0.0:
        dm0 = _dxi_m0_cut(z, mu0, beta, r0, dbeta, dr0, C0)
        n_flat = _commutator_n(gs, dm0)
        ps_flat = eikonal_coeffs(gs, table.ps.media, sp, xi, N=3, flattened=True)
        t_flat = transport_coeffs(ps_flat, table.ps.media, N=2, J=1)
        B_flat = (1.0 - cutoff_eta(r0, C0)) * t_flat.iota_nu_B(1)
        m_tilde = n_flat + B_flat
    else:
        n_flat = np.zeros((3, 3), dtype=complex)
        B_flat = np.zeros((3, 3), dtype=complex)
        m_tilde = n_flat
    return BoundarySymbol(m_block, m_tilde, m_tilde_full, n_full, B_flat, M_h, table)


# ---------------------------------------------------------------------------
# residuals and the normal cutoff

def _poly_eval(table, i, j, x1):
    """a_j, b_j for basis i at numeric x1, plus tangential-derivative arrays."""
    av = np.zeros(3, complex)
    bv = np.zeros(3, complex)
    dav = np.zeros((3, 3), complex)  # dav[m] = d_m a (m=0: x1)
    dbv = np.zeros((3, 3), complex)
    for k in range(table.K[j]):
        ak = table.a[i][(j, k)]
        bk = table.b[i][(j, k)]
        w = x1 ** k
        for c in range(3):
            av[c] += w * ak[c].value
            bv[c] += w * bk[c].value
            if k >= 1:
                dav[0, c] += k * x1 ** (k - 1) * ak[c].value
                dbv[0, c] += k * x1 ** (k - 1) * bk[c].value
            dav[1, c] += w * ak[c].derivative("x2").value
            dav[2, c] += w * ak[c].derivative("x3").value
            dbv[1, c] += w * bk[c].derivative("x2").value
            dbv[2, c] += w * bk[c].derivative("x3").value
    return av, bv, dav, dbv


def maxwell_residual(table: AmplitudeTable, x1, h, ftilde=(1.0, 0.0, 0.0)):
    """Amplitude-level residuals of the first-order system at (base, x1).

    Returns (V1, V2): the residuals of the mu- and eps-equations at
    amplitude level, evaluated with exact pointwise gamma, eps, mu.
    Both decay like O(x1^N) + O(h^(J+1)) for the consistent scheme.
    """
    ps = table.ps
    gs = table.gs
    sp = table.sp
    if not (0.0 <= x1 <= ps.x1_max()):
        raise OutsideRetainedRegion(f"x1={x1} outside [0, {ps.x1_max():.3g}]")
    b2, b3 = gs.base
    gam = gamma_pointwise(gs.chart, b2, b3, x1)
    eps, mu = ps.media.values_at(gs.chart, b2, b3, x1)
    grad_phi = np.array([
        sum(k * ps.phis[k].value * x1 ** (k - 1) for k in range(1, len(ps.phis))),
        sum(ps.phis[k].derivative("x2").value * x1 ** k for k in range(len(ps.phis))),
        sum(ps.phis[k].derivative("x3").value * x1 ** k for k in range(len(ps.phis))),
    ])
    gphi = gam @ grad_phi
    z = sp.z
    V1 = np.zeros(3, complex)
    V2 = np.zeros(3, complex)
    prev_curl_a = prev_curl_b = None
    for j in range(table.J + 1):
        av = np.zeros(3, complex); bv = np.zeros(3, complex)
        dav = np.zeros((3, 3), complex); dbv = np.zeros((3, 3), complex)
        for i in range(3):
            w = ftilde[i]
            if w == 0.0:
                continue
            a_i, b_i, da_i, db_i = _poly_eval(table, i, j, x1)
            av += w * a_i; bv += w * b_i; dav += w * da_i; dbv += w * db_i
        curl_a = np.zeros(3, complex)
        curl_b = np.zeros(3, complex)
        for mcol in range(3):
            curl_a += np.cross(gam[:, mcol], dav[mcol])
            curl_b += np.cross(gam[:, mcol], dbv[mcol])
        V1 += h ** j * (1j * np.cross(gphi, av) - 1j * z * mu * bv)
        V2 += h ** j * (1j * np.cross(gphi, bv) + 1j * z * eps * av)
        if j >= 1:
            V1 += h ** j * prev_curl_a
            V2 += h ** j * prev_curl_b
        prev_curl_a, prev_curl_b = curl_a, curl_b
    return V1, V2


def _bump(t):
    """1 for t <= 1, 0 for t >= 2, smooth monotone in between."""
    t = np.asarray(t, dtype=float)
    up = np.where(2.0 - t > 0, np.exp(-1.0 / np.maximum(2.0 - t, 1e-300)), 0.0)
    dn = np.where(t - 1.0 > 0, np.exp(-1.0 / np.maximum(t - 1.0, 1e-300)), 0.0)
    out = up / (up + dn + (up + dn == 0.0))
    return float(out) if out.ndim == 0 else out


def cutoff_chi(x1, rho, delta):
    """Normal cutoff: 1 for x1 <= delta*min(1,|rho|^3), 0 beyond twice that."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    r3 = abs(rho) ** 3
    return _bump(np.asarray(x1) / delta) * _bump(np.asarray(x1) / (r3 * delta))
