"""Exact per-mode impedances on the ball (separated-variables oracle).

The first-kind Riccati-Bessel function psi_l(x) = x j_l(x) is evaluated
for complex argument, orders and arguments broadcast together, by regime
switching (a series near zero, a downward continued fraction elsewhere);
every pair comes back normalized by a power of two, its magnitude carried
in ``log_scale``.  The exact interior impedance of each vector spherical
mode is a ratio of psi_l and its derivative (:func:`mode_ratio`); it serves
as the reference the boundary-symbol eigenvalues are tested against.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InteriorResonance
from .geometry import GammaSeries, SurfaceChart, MediaField, beta_pointwise
from .eikonal import eikonal_coeffs
from .spectral import split_lambda
from .transport import transport_coeffs, boundary_symbol

#: global sign convention: the impedance is the one whose high-frequency
#: limit on the perpendicular (TE) polarization is rho / (z mu0) with
#: Im rho > 0.  Shared by the transmission determinants so both sides of a
#: two-media matching use the same orientation of the normal.
IMPEDANCE_SIGN = 1.0

#: cap on the terms of the small-|x| Taylor series
_SERIES_TERMS = 120


@dataclass(frozen=True)
class RiccatiPair:
    """(psi, dpsi) scaled by e^{-log_scale}; true values are psi*e^{log_scale}.

    Normalized: max(|psi|, |dpsi|) lies in [1, 2) unless both vanish (then
    log_scale = 0).  Python scalars for a scalar order and argument, else
    arrays of their broadcast shape.
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


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _psi_series(ell, x):
    """Taylor evaluation of (psi_ell, psi_ell') e^{-log_scale} and log_scale
    on an array x, with ``ell`` an integer array of x's shape (one order per
    element).

    The x^{ell+1}/(2ell+1)!! prefactor is kept in log form and its modulus
    returned as log_scale, so large ell and small |x| cannot underflow.
    """
    # psi_ell = x^{ell+1}/(2ell+1)!! * sum_k c_k t^k,  t = -x^2/2,
    # c_0 = 1, c_k = c_{k-1} / (k (2ell+2k+1))
    ell = ell.astype(float)
    t = -x * x / 2.0
    c = np.ones(x.shape)
    S = np.ones_like(x)
    dS = (ell + 1.0).astype(complex)   # derivative sum: (ell+1+2k) c_k t^k
    tk = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
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
    log_dd = (_lgamma(2.0 * ell + 2.0) - ell * math.log(2.0)
              - _lgamma(ell + 1.0)).astype(float)
    log_pref = (ell + 1.0) * np.log(x) - log_dd
    phase = np.exp(1j * log_pref.imag)
    return S * phase, dS * phase, log_pref.real


#: the ratio product is brought back into [1e-150, 1e150] every this many
#: orders; 32 factors of at least ~1e-3 each cannot underflow in between
_RENORM_EVERY = 32

#: orders per block of the precomputed (2n-1)/x table, and arguments per
#: sweep (together they bound the sweep's memory)
_BLOCK = 4
_CHUNK = 1024


def _sweep(ells, x):
    """psi pairs of the orders ``ells`` on a 1-d array x by the downward
    log-derivative continued fraction; arrays of shape (len(ells), x.size).

    D_n = psi_n'/psi_n obeys D_{n-1} = n/x - 1/(D_n + n/x); running it
    downward from well past max(ell, |x|) is stable for complex x (the
    upward three-term recurrence is not once the argument leaves the real
    axis).  It is run on E_n = D_n + n/x, for which it reads E_{n-1} =
    (2n-1)/x - 1/E_n.  One sweep, started at the index the largest order
    and the largest |x| of the batch need, passes through every order below
    its start (starting higher only converges further), so it serves every
    order and element at once.  psi_n itself is psi_0 = sin x times the
    ratios psi_k/psi_{k-1} = 1/E_k, k = 1..n, whose running product is
    renormalized into an exponent accumulator every _RENORM_EVERY orders
    so neither deep decay nor growth can overflow.

    Returns (psi, dpsi, log_scale, mismatch); mismatch, one per element,
    compares the sweep's own D_0 = E_0 with cot x and flags a failed
    recurrence.  A denominator E_n that rounds to zero makes the element
    non-finite, and its mismatch NaN.
    """
    top = int(ells.max())
    ax_max = float(np.max(np.abs(x)))
    start = max(top, int(ax_max)) + 25 + int(4.0 * ax_max ** (1.0 / 3.0))
    orders = np.arange(start, 0, -1)
    E = start / x
    Es = np.empty((top + 1,) + x.shape, dtype=complex)   # E_0 .. E_top
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in range(0, start, _BLOCK):
            block = orders[b:b + _BLOCK]
            for n, step in zip(block.tolist(), (2 * block[:, None] - 1) / x):
                if n <= top:
                    Es[n] = E
                E = step - np.reciprocal(E)
        Es[0] = E
        sn, cs = _sin_cos_scaled(x)
        mismatch = np.abs(E * sn - cs) / np.maximum(np.abs(sn), np.abs(cs))
        # running products prod_{k<=n} 1/E_k (row 0 is the empty product),
        # accumulated a block of orders at a time; the row that starts the
        # next block is renormalized, and its exponent carried upward
        prod = np.reciprocal(Es)
        prod[0] = 1.0
        log_extra = np.zeros(prod.shape)
        for b in range(0, top + 1, _RENORM_EVERY):
            blk = prod[b:b + _RENORM_EVERY + 1]
            np.multiply.accumulate(blk, axis=0, out=blk)
            if b + _RENORM_EVERY < top:
                m = np.abs(blk[-1])
                far = (m > 1e150) | (m < 1e-150)
                if far.any():
                    blk[-1, far] /= m[far]
                    log_extra[b + _RENORM_EVERY:, far] += np.log(m[far])
        psi = sn * prod[ells]
        dpsi = psi * (Es[ells] - ells[:, None] / x)
        dpsi[ells == 0] = cs
    log_scale = np.abs(x.imag) + log_extra[ells]
    return psi, dpsi, log_scale, mismatch


def riccati_bessel(ell, x):
    """First-kind Riccati-Bessel pairs (psi_ell(x), psi_ell'(x)) for complex x.

    ``ell`` (nonnegative integer orders; ValueError naming any other) and
    ``x`` broadcast together like numpy operands, giving arrays of the
    broadcast shape, or Python scalars when both are scalars.  Each (order,
    element) is evaluated in its own regime: x = 0 exactly, the Taylor
    series for |x| < 0.2 sqrt(ell+1), and otherwise a downward
    continued-fraction sweep, run once per element of ``x`` up to the
    largest order and shared by every order and by up to _CHUNK arguments
    of similar |x|.  The sweep's own order-0 member is checked against
    cot x (disagreement beyond 1e-8, or a non-finite sweep, switches that
    element's orders above 0 to the series; order 0 is sin x, cos x
    exactly).  Every pair is then scaled by a power of two into
    max(|psi|, |psi'|) in [1, 2); true values are psi e^{log_scale}.
    """
    ell_in = np.asarray(ell)
    bad = ~((ell_in >= 0) & (ell_in % 1 == 0))
    if bad.any():
        raise ValueError(f"orders must be nonnegative integers, got {ell_in[bad]}")
    ell_in = ell_in.astype(int)
    x_in = np.asarray(x, dtype=complex)
    shape = np.broadcast_shapes(ell_in.shape, x_in.shape)
    ells, which = np.unique(ell_in, return_inverse=True)
    xa = x_in.ravel()
    psi = np.zeros((ells.size, xa.size), dtype=complex)
    dpsi = np.zeros_like(psi)
    ls = np.zeros(psi.shape)
    zero = xa == 0.0
    series = ~zero & (np.abs(xa) < 0.2 * np.sqrt(ells[:, None] + 1.0))
    cols = np.flatnonzero(~zero & ~series.all(axis=0))
    if len(cols) > _CHUNK:
        # chunks of similar |x| need similar sweep lengths
        cols = cols[np.argsort(np.abs(xa[cols]))]
    for at in range(0, len(cols), _CHUNK):
        part = cols[at:at + _CHUNK]
        p, d, l, mismatch = _sweep(ells, xa[part])
        psi[:, part], dpsi[:, part], ls[:, part] = p, d, l
        # psi_0 = sin x needs no recurrence, so order 0 never falls back
        series[:, part] |= ~(mismatch <= 1e-8) & (ells > 0)[:, None]
    if series.any():
        rows, elems = np.nonzero(series)
        psi[series], dpsi[series], ls[series] = _psi_series(ells[rows], xa[elems])
    if zero.any():
        dpsi[np.ix_(ells == 0, zero)] = 1.0
    # exact power-of-two normalization, subnormals too; a zero pair keeps k = 0
    big = np.maximum(np.abs(psi), np.abs(dpsi))
    k = np.where(big > 0.0, np.frexp(big)[1] - 1, 0)
    for f in (psi, dpsi):
        f.real, f.imag = np.ldexp(f.real, -k), np.ldexp(f.imag, -k)
    ls += k * math.log(2.0)
    if not shape:
        return RiccatiPair(complex(psi[0, 0]), complex(dpsi[0, 0]), float(ls[0, 0]))
    at = (np.broadcast_to(which.reshape(ell_in.shape), shape),
          np.broadcast_to(np.arange(xa.size).reshape(x_in.shape), shape))
    return RiccatiPair(psi[at], dpsi[at], ls[at])


def mode_ratio(pol, psi, dpsi):
    """The one TE/TM rule, (sign, num, den): TE (i, psi', psi), TM (-i, psi,
    psi'), the sign times IMPEDANCE_SIGN.  The impedance is sign sqrt(eps/mu)
    num/den and the two-media determinant sign (w1 num1 den2 - w2 num2 den1).
    """
    pol = np.asarray(pol)
    te = pol == "TE"
    if not (te | (pol == "TM")).all():
        raise ValueError("pol must be 'TE' or 'TM'")
    return (np.where(te, 1j, -1j) * IMPEDANCE_SIGN,
            np.where(te, dpsi, psi), np.where(te, psi, dpsi))


#: relative floor under which a mode denominator counts as resonant
_RESONANCE_FLOOR = 1e-12


def _impedances(ell, x, eps, mu, pol):
    """Impedances of the (ell, pol) modes at x = kR, broadcast together, and
    the mask of the resonant ones (denominator under 1e-12 of its pair)."""
    rp = riccati_bessel(ell, x)
    sign, num, den = mode_ratio(pol, rp.psi, rp.dpsi)
    resonant = np.abs(den) < _RESONANCE_FLOOR * np.maximum(np.abs(num), np.abs(den))
    with np.errstate(divide="ignore", invalid="ignore"):
        return sign * cmath.sqrt(eps / mu) * num / den, resonant


def exact_mode_impedance(ell, lam, eps, mu, R, pol):
    """Exact interior impedances of the (ell, pol) modes of the ball of radius R.

    TE: Z = i sqrt(eps/mu) psi'(kR)/psi(kR); TM: Z = -i sqrt(eps/mu)
    psi(kR)/psi'(kR), with k = lam sqrt(eps mu) (:func:`mode_ratio`).
    ``ell``, ``lam`` and ``pol`` broadcast together; scalars give a scalar.
    Raises :class:`InteriorResonance`, naming the first resonant (ell, pol,
    x), when a denominator falls under 1e-12 of its pair's scale (reported,
    never regularized).
    """
    x = np.asarray(lam, dtype=complex) * cmath.sqrt(eps * mu) * R
    Z, resonant = _impedances(ell, x, eps, mu, pol)
    if resonant.any():
        i = tuple(np.argwhere(resonant)[0])
        el, p, at = (np.broadcast_to(v, resonant.shape)[i] for v in (ell, pol, x))
        raise InteriorResonance(f"(ell={el}, {p}) mode denominator vanishes at x = {at:.6g}")
    return Z[()]


# ---------------------------------------------------------------------------
# per-mode comparison against the boundary symbol


#: truncation orders compared: m, then m + h m_tilde_full
ORDERS = (0, 1)


def _symbol_eigenvalues(sp, chart, media, base, r0_target):
    """(TE, TM) eigenvalues of the truncated boundary symbol at fixed r0, as
    an array indexed by (order in ORDERS, polarization, point of ``sp`` and
    ``r0_target``), all read from one batched symbol build.

    The covector is aligned with the first coordinate direction; TE is the
    tangential direction perpendicular to beta, TM the beta direction.
    """
    beta_unit, g = beta_pointwise(chart, base[0], base[1], 1.0, 0.0)
    s = np.sqrt(r0_target / g)
    gs = GammaSeries(chart, base, n1=2, order=3)
    ps = eikonal_coeffs(gs, media, sp, (s, 0.0), N=2)
    sym = boundary_symbol(transport_coeffs(ps, media, N=1, J=1))
    nu = np.array([c.value for c in gs.nu]).real
    bhat = beta_unit / np.linalg.norm(beta_unit)
    proj = np.array([np.cross(nu, bhat), bhat], dtype=complex)
    out = []
    for M in (sym.m, sym.m + sp.h[:, None, None] * sym.m_tilde_full):
        w, V = np.linalg.eig(proj @ M @ proj.T)
        te_first = np.abs(V[:, 0, 0]) >= np.abs(V[:, 0, 1])
        out.append((np.where(te_first, w[:, 0], w[:, 1]), np.where(te_first, w[:, 1], w[:, 0])))
    return np.array(out)


def dtn_compare(ell, lam, media, R=1.0):
    """Exact mode impedances vs boundary-symbol eigenvalues on the ball.

    ``ell`` and ``lam`` broadcast together like the operands of
    :func:`exact_mode_impedance`; ``media`` is the (eps, mu) pair of the
    constant media.  Each row covers one (ell, lam, pol), in the broadcast
    order with TE before TM: the exact value and the relative error of every
    truncation order in ORDERS at r0 = h^2 ell(ell+1)/R^2.  The exact values
    come from one Riccati-Bessel call and the symbols of every (ell, lam)
    from one batched build at one GammaSeries; modes at an interior
    resonance are flagged from its mask and get no errors (an (ell, lam)
    with both modes resonant is left out of the build).  Requires theta >=
    h^{2/5} at every lam (the admissible-frequency region of the symbol
    estimates), else ConfigError naming the first lam outside.
    """
    eps0, mu0 = media
    media = MediaField.constant(eps0, mu0)
    chart = SurfaceChart.sphere(R)
    base = (math.pi / 2.0, 0.0)
    x = np.asarray(lam, dtype=complex) * cmath.sqrt(eps0 * mu0) * R
    ell, lam, x = (np.ravel(v) for v in np.broadcast_arrays(ell, lam, x))
    sp = split_lambda(lam)
    outside = sp.theta < sp.h ** 0.4
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise ConfigError(
            f"theta={sp.theta[i]:.3g} below h^(2/5)={sp.h[i] ** 0.4:.3g} at lam={lam[i]:.6g}: "
            "outside the admissible frequency region")
    pols = ("TE", "TM")
    Z, resonant = _impedances(ell[:, None], x[:, None], eps0, mu0, np.array(pols))
    build = ~resonant.all(axis=1)
    pred = np.zeros((len(ORDERS), len(pols), len(ell)), dtype=complex)
    if build.any():
        r0 = sp.h[build] ** 2 * ell[build] * (ell[build] + 1.0) / R ** 2
        pred[..., build] = _symbol_eigenvalues(split_lambda(lam[build]), chart, media, base, r0)
    rows = []
    for i in range(len(ell)):
        for p, pol in enumerate(pols):
            row = {"ell": int(ell[i]), "pol": pol,
                   "lam_re": float(lam[i].real), "lam_im": float(lam[i].imag)}
            if resonant[i, p]:
                row.update(resonant=True, exact=None)
            else:
                exact = complex(Z[i, p])
                row.update(resonant=False, exact=exact)
                for o, order in enumerate(ORDERS):
                    row[f"err_order{order}"] = abs(pred[o, p, i] - exact) / max(abs(exact), 1e-30)
            rows.append(row)
    return rows
