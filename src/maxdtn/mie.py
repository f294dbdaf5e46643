"""Exact per-mode impedances on the ball (separated-variables oracle).

Riccati-Bessel functions psi_l(x) = x j_l(x) and chi_l(x) = -x y_l(x) are
evaluated for complex argument by regime-switched recurrences (psi: series
near zero, a downward continued fraction elsewhere, element by element over
an array of arguments; chi: upward).  The exact
interior impedance of each vector spherical mode is a ratio of psi_l and its
derivative; it serves as the reference the boundary-symbol eigenvalues are
tested against.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InteriorResonance
from .geometry import GammaSeries, SurfaceChart, MediaField, beta_pointwise
from .eikonal import eikonal_coeffs
from .spectral import split_lambda, rho as rho_symbol
from .transport import transport_coeffs, boundary_symbol

#: global sign convention: the impedance is the one whose high-frequency
#: limit on the perpendicular (TE) polarization is rho / (z mu0) with
#: Im rho > 0.  Shared by the transmission determinants so both sides of a
#: two-media matching use the same orientation of the normal.
IMPEDANCE_SIGN = 1.0

#: |Im x| beyond which the returned pair is left scaled by e^{-|Im x|}
_SCALE_THRESHOLD = 300.0


@dataclass(frozen=True)
class RiccatiPair:
    """(psi, dpsi) scaled by e^{-log_scale}; true values are psi*e^{log_scale}.

    The fields are Python scalars for a scalar argument and arrays of the
    argument's shape for an array argument.
    """
    psi: complex
    dpsi: complex
    log_scale: float


def _sin_cos_scaled(x):
    """(sin x, cos x) * e^{-|Im x|}, overflow-free for any Im x."""
    s = np.abs(np.imag(x))
    ep = np.exp(1j * x - s)     # modulus e^{-Im x - s} <= 1
    em = np.exp(-1j * x - s)    # modulus e^{ Im x - s} <= 1
    return (ep - em) / 2j, (ep + em) / 2.0


def _psi_series(ell, x, terms=120):
    """Taylor evaluation of (psi_ell, psi_ell', log_scale) on an array x.

    The x^{ell+1} prefactor is kept in log form, so large ell and small |x|
    cannot underflow silently: it is folded into the values (log_scale =
    |Im x|) where its log modulus is within 300 of |Im x|, and otherwise
    returned as log_scale.
    """
    # psi_ell = x^{ell+1}/(2ell+1)!! * sum_k c_k t^k,  t = -x^2/2,
    # c_0 = 1, c_k = c_{k-1} / (k (2ell+2k+1))
    t = -x * x / 2.0
    c = 1.0
    S = np.ones_like(x)
    dS = np.full_like(x, ell + 1.0)   # derivative sum: (ell+1+2k) c_k t^k
    tk = np.ones_like(x)
    for k in range(1, terms):
        c = c / (k * (2.0 * ell + 2.0 * k + 1.0))
        tk = tk * t
        term = c * tk
        S += term
        dS += (ell + 1.0 + 2.0 * k) * term
        # a term below 1e-20 |S| no longer changes S in double precision
        if np.all(np.abs(term) < 1e-20 * np.abs(S)):
            break
    dS = dS / x
    # log prefactor: (ell+1) log x - log (2ell+1)!!
    log_dd = math.lgamma(2.0 * ell + 2.0) - ell * math.log(2.0) - math.lgamma(ell + 1.0)
    log_pref = (ell + 1.0) * np.log(x) - log_dd
    s = np.abs(x.imag)
    shift = log_pref.real - s
    near = np.abs(shift) < _SCALE_THRESHOLD
    fac = np.exp(np.where(near, shift, 0.0) + 1j * log_pref.imag)
    return S * fac, dS * fac, np.where(near, s, log_pref.real)


#: the ratio product is brought back into [1e-150, 1e150] every this many
#: orders; 32 factors of at least ~1e-3 each cannot underflow in between
_RENORM_EVERY = 32

#: orders per block of the precomputed (2n-1)/x table (bounds its memory)
_BLOCK = 16


def _sweep(ell, x):
    """psi pair on an array x by the downward log-derivative continued fraction.

    D_n = psi_n'/psi_n obeys D_{n-1} = n/x - 1/(D_n + n/x); running it
    downward from well past max(ell, |x|) is stable for complex x (the
    upward three-term recurrence is not once the argument leaves the real
    axis).  It is run on E_n = D_n + n/x, for which it reads E_{n-1} =
    (2n-1)/x - 1/E_n.  One sweep, started at the index the largest |x| of
    the batch needs, serves every element (starting higher only converges
    further).  psi_ell itself is psi_0 = sin x times the ratios
    psi_n/psi_{n-1} = 1/E_n, n = 1..ell, whose product is renormalized into
    an exponent accumulator so neither deep decay nor growth can overflow.

    Returns (psi, dpsi, log_scale, mismatch); mismatch compares the sweep's
    own D_0 = E_0 with cot x and flags a failed recurrence.  A denominator
    E_n that rounds to zero makes the element non-finite, and its mismatch
    NaN.
    """
    ax_max = float(np.max(np.abs(x)))
    start = max(ell, int(ax_max)) + 25 + int(4.0 * ax_max ** (1.0 / 3.0))
    orders = np.arange(start, 0, -1)
    E = start / x
    prod = np.ones_like(x)
    log_extra = np.zeros(x.shape)
    E_ell = E
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in range(0, start, _BLOCK):
            block = orders[b:b + _BLOCK]
            for n, step in zip(block.tolist(), (2 * block[:, None] - 1) / x):
                ratio = np.reciprocal(E)
                if n <= ell:
                    prod *= ratio
                    if n % _RENORM_EVERY == 0:
                        m = np.abs(prod)
                        far = (m > 1e150) | (m < 1e-150)
                        if far.any():
                            prod[far] /= m[far]
                            log_extra[far] += np.log(m[far])
                E = step - ratio
                if n - 1 == ell:
                    E_ell = E
        sn, cs = _sin_cos_scaled(x)
        mismatch = np.abs(E * sn - cs) / np.maximum(np.abs(sn), np.abs(cs))
    log_scale = np.abs(x.imag) + log_extra
    if ell == 0:
        return sn, cs, log_scale, mismatch
    psi = sn * prod
    return psi, psi * (E_ell - ell / x), log_scale, mismatch


def riccati_bessel(ell, x):
    """First-kind Riccati-Bessel pair (psi_ell(x), psi_ell'(x)) for complex x.

    ``x`` is a scalar or an array; the returned :class:`RiccatiPair` holds
    scalars or arrays of the same shape.  Each element is evaluated in its
    own regime: x = 0 exactly, the Taylor series for |x| < max(1e-2,
    0.2 sqrt(ell+1)), and otherwise one downward continued-fraction sweep
    shared by the whole batch, whose own order-0 member is checked against
    cot x (disagreement beyond 1e-8, or a non-finite sweep, switches that
    element to the series).
    Where the magnitude exponent stays within 300 (always when |Im x| <= 300
    and psi is of moderate size) the true values are returned with
    ``log_scale = 0``; otherwise the pair is returned scaled by
    e^{-log_scale}, with log_scale = |Im x| plus any renormalizing exponent.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=complex))
    psi = np.zeros(xa.shape, dtype=complex)
    dpsi = np.zeros(xa.shape, dtype=complex)
    ls = np.zeros(xa.shape)
    ax = np.abs(xa)
    zero = xa == 0.0
    series = ~zero & ((ax < 0.2 * math.sqrt(ell + 1.0)) | (ax < 1e-2))
    sweep = ~zero & ~series
    if sweep.any():
        p, d, l, mismatch = _sweep(ell, xa[sweep])
        psi[sweep], dpsi[sweep], ls[sweep] = p, d, l
        series[sweep] = ~(mismatch <= 1e-8)
    if series.any():
        psi[series], dpsi[series], ls[series] = _psi_series(ell, xa[series])
    if ell == 0:
        dpsi[zero] = 1.0
    fold = np.abs(ls) <= _SCALE_THRESHOLD
    fac = np.exp(np.where(fold, ls, 0.0))
    psi *= fac
    dpsi *= fac
    ls[fold] = 0.0
    if np.ndim(x) == 0:
        return RiccatiPair(complex(psi[0]), complex(dpsi[0]), float(ls[0]))
    return RiccatiPair(psi, dpsi, ls)


def riccati_second(ell, x):
    """Second-kind pair (chi_ell(x), chi_ell'(x)), chi_l = -x y_l(x).

    The forward recurrence is stable for chi at every order (it is the
    dominant solution), so a single branch suffices.
    """
    x = complex(x)
    s = abs(x.imag)
    sn, cs = _sin_cos_scaled(x)
    pm, p = sn, cs               # chi_{-1} = -sin x ... chi_0 = cos x
    pm = -sn
    for n in range(ell):
        pm, p = p, (2.0 * n + 1.0) / x * p - pm
    dchi = pm - (ell / x) * p if ell > 0 else -sn
    if s <= _SCALE_THRESHOLD:
        fac = math.exp(s)
        return RiccatiPair(p * fac, dchi * fac, 0.0)
    return RiccatiPair(p, dchi, s)


@dataclass(frozen=True)
class ModeImpedance:
    ell: int
    pol: str                     # "TE" | "TM"
    lam: complex
    value: complex
    resonant: bool = False


#: relative floor under which a mode denominator counts as resonant
_RESONANCE_FLOOR = 1e-12


def exact_mode_impedance(ell, lam, eps, mu, R, pol):
    """Exact interior impedance of the (ell, pol) mode of the ball of radius R.

    TE: Z = i sqrt(eps/mu) psi'(kR)/psi(kR); TM: Z = -i sqrt(eps/mu)
    psi(kR)/psi'(kR), with k = lam sqrt(eps mu).  Raises
    :class:`InteriorResonance` when the denominator of the ratio falls under
    1e-12 of the pair's scale (reported, never regularized).
    """
    lam = complex(lam)
    k = lam * cmath.sqrt(eps * mu)
    x = k * R
    rp = riccati_bessel(ell, x)
    scale = max(abs(rp.psi), abs(rp.dpsi))
    imp = 1j * cmath.sqrt(eps / mu) * IMPEDANCE_SIGN
    if pol == "TE":
        if abs(rp.psi) < _RESONANCE_FLOOR * scale:
            raise InteriorResonance(f"psi_{ell}({x:.6g}) vanishes (TE mode)")
        val = imp * rp.dpsi / rp.psi
    elif pol == "TM":
        if abs(rp.dpsi) < _RESONANCE_FLOOR * scale:
            raise InteriorResonance(f"psi_{ell}'({x:.6g}) vanishes (TM mode)")
        val = -imp * rp.psi / rp.dpsi
    else:
        raise ValueError("pol must be 'TE' or 'TM'")
    return ModeImpedance(ell=ell, pol=pol, lam=lam, value=val)


# ---------------------------------------------------------------------------
# per-mode comparison against the boundary symbol


def _symbol_eigenvalues(sp, chart, media, base, r0_target, order):
    """(TE, TM) eigenvalues of the truncated boundary symbol at fixed r0.

    The covector is aligned with the first coordinate direction; TE is the
    tangential direction perpendicular to beta, TM the beta direction.
    """
    beta_unit, g = beta_pointwise(chart, base[0], base[1], 1.0, 0.0)
    s = math.sqrt(r0_target / g)
    xi = (s, 0.0)
    gs = GammaSeries(chart, base, n1=3, order=6)
    ps = eikonal_coeffs(gs, media, sp, xi, N=3)
    tab = transport_coeffs(ps, media, N=2, J=1)
    sym = boundary_symbol(tab)
    M = sym.m if order == 0 else sym.m + sp.h * sym.m_tilde_full
    nu = np.array([c.value for c in gs.nu])
    beta = np.array(beta_unit) * s
    bhat = (beta / np.linalg.norm(beta.real)).astype(complex)
    phat = np.cross(nu.real, bhat.real).astype(complex)
    blk = np.array([[u @ M @ v for v in (phat, bhat)] for u in (phat, bhat)])
    w, V = np.linalg.eig(blk)
    if abs(V[0, 0]) >= abs(V[0, 1]):
        te, tm = w[0], w[1]
    else:
        te, tm = w[1], w[0]
    return te, tm


def dtn_compare(ell_list, lam, media, R=1.0, orders=(0, 1)):
    """Exact mode impedances vs boundary-symbol eigenvalues on the ball.

    ``media`` is either a MediaField of constant fields or an (eps, mu) pair.
    Each row covers one (ell, pol): the exact value and the relative error of
    every requested truncation order at r0 = h^2 ell(ell+1)/R^2.  Modes at an
    interior resonance are skipped and flagged.  Requires theta >= h^{2/5}
    (the admissible-frequency region of the symbol estimates).
    """
    if isinstance(media, tuple):
        eps0, mu0 = media
        media = MediaField.constant(eps0, mu0)
    chart = SurfaceChart.sphere(R)
    base = (math.pi / 2.0, 0.0)
    eps0, mu0 = media.boundary_values(chart, base[0], base[1])
    sp = split_lambda(lam)
    if sp.theta < sp.h ** 0.4:
        raise ConfigError(
            f"theta={sp.theta:.3g} below h^(2/5)={sp.h ** 0.4:.3g}: "
            "outside the admissible frequency region")
    rows = []
    for ell in ell_list:
        r0 = sp.h ** 2 * ell * (ell + 1.0) / R ** 2
        cache = {}
        for pol in ("TE", "TM"):
            row = {"ell": ell, "pol": pol,
                   "lam_re": lam.real, "lam_im": lam.imag}
            try:
                exact = exact_mode_impedance(ell, lam, eps0, mu0, R, pol).value
            except InteriorResonance:
                row.update(resonant=True, exact=None)
                rows.append(row)
                continue
            row.update(resonant=False, exact=exact)
            for order in orders:
                if order not in cache:
                    cache[order] = _symbol_eigenvalues(
                        sp, chart, media, base, r0, order)
                te, tm = cache[order]
                pred = te if pol == "TE" else tm
                row[f"err_order{order}"] = abs(pred - exact) / max(abs(exact), 1e-30)
            rows.append(row)
    return rows
