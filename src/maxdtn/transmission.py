"""Two-media mode determinants and the eigenvalue-free region scan.

For a ball coated by two media meeting at the interface r = R, the
interior transmission eigenvalues of a given spherical mode are the zeros
of a denominator-cleared determinant built from the two Riccati-Bessel
pairs.  Zeros are counted by adaptive winding numbers on rectangles and
located by subdivision plus Newton polishing; a region scan certifies a
parabolic frequency region free of eigenvalues and calibrates its
constant.  The matching two-media boundary symbol T = w*T_tilde and its
approximate inverse T_1 live here as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentMedia, ContourThroughZero
from .mie import IMPEDANCE_SIGN, riccati_bessel
from .numerics import sqrt_upper

#: default exponent of the parabolic region boundary Im = C (Re + 1)^p
REGION_EXPONENT = 5.0 / 7.0


@dataclass
class TransmissionConfig:
    """Two constant media (eps, mu, c) sharing the interface r = R."""
    eps1: float
    mu1: float
    c1: float
    eps2: float
    mu2: float
    c2: float
    R: float = 1.0
    exponent: float = REGION_EXPONENT

    def __post_init__(self):
        for name in ("eps1", "mu1", "c1", "eps2", "mu2", "c2", "R"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        k1, k2 = self.c1 / self.mu1, self.c2 / self.mu2
        if abs(k1 - k2) > 1e-12 * max(k1, k2):
            warnings.warn(
                "c1/mu1 != c2/mu2: outside the hypotheses under which the "
                "parabolic eigenvalue-free region is established",
                stacklevel=2)
        if abs(self.eps1 * self.mu1 - self.eps2 * self.mu2) <= 1e-12 * (
                self.eps1 * self.mu1):
            warnings.warn(
                "eps1*mu1 == eps2*mu2: coincident wave speeds, outside the "
                "hypotheses of the eigenvalue-free region",
                stacklevel=2)

    @property
    def n1(self):
        return math.sqrt(self.eps1 * self.mu1)

    @property
    def n2(self):
        return math.sqrt(self.eps2 * self.mu2)

    @property
    def w1(self):
        """Weight c1 sqrt(eps1/mu1) of medium 1 in the mode determinants."""
        return self.c1 * math.sqrt(self.eps1 / self.mu1)

    @property
    def w2(self):
        return self.c2 * math.sqrt(self.eps2 / self.mu2)


#: overall factor of each polarization's determinant
_POL_SIGN = {"TE": 1j * IMPEDANCE_SIGN, "TM": -1j * IMPEDANCE_SIGN}


def _pairs(cfg: TransmissionConfig, ell, lam):
    """Riccati-Bessel pairs at x1 = lam n1 R and x2 = lam n2 R in one call.

    Returns (x, psi, dpsi, log_scale): x, psi and dpsi carry a leading axis
    of length 2 (medium 1, medium 2) over lam's shape; log_scale is the
    pairs' summed exponent.
    """
    lam = np.asarray(lam, dtype=complex)
    x = np.stack([lam * (cfg.n1 * cfg.R), lam * (cfg.n2 * cfg.R)])
    rp = riccati_bessel(ell, x)
    return x, rp.psi, rp.dpsi, rp.log_scale[0] + rp.log_scale[1]


def _products(cfg: TransmissionConfig, pol, psi, dpsi):
    """The two cleared products (t1, t2); the determinant is sign (t1 - t2)."""
    if pol == "TE":
        return cfg.w1 * dpsi[0] * psi[1], cfg.w2 * dpsi[1] * psi[0]
    return cfg.w1 * psi[0] * dpsi[1], cfg.w2 * psi[1] * dpsi[0]


def mode_determinant(cfg: TransmissionConfig, ell, lam, pol, scaled=False):
    """Denominator-cleared determinant whose zeros are the (ell, pol)
    transmission eigenvalues.

    TE: i (c1 sqrt(eps1/mu1) psi'(x1) psi(x2) - c2 sqrt(eps2/mu2) psi'(x2) psi(x1)),
    TM: -i (c1 sqrt(eps1/mu1) psi(x1) psi'(x2) - c2 sqrt(eps2/mu2) psi(x2) psi'(x1)),
    with x_j = lam n_j R; entire in lam.  With ``scaled=True`` returns
    ``(value, relative_magnitude, log_scale)`` where the true determinant is
    value * e^{log_scale} and relative_magnitude is |value| over the larger
    of the two cleared products (the honest distance-to-zero measure).

    ``lam`` is a scalar or an array; every returned quantity has its shape,
    and all of x1 and x2 are evaluated in one :func:`riccati_bessel` call.
    """
    if pol not in _POL_SIGN:
        raise ValueError("pol must be 'TE' or 'TM'")
    _, psi, dpsi, log_scale = _pairs(cfg, ell, lam)
    t1, t2 = _products(cfg, pol, psi, dpsi)
    val = _POL_SIGN[pol] * (t1 - t2)
    if scaled:
        mag = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-300)
        return val[()], (np.abs(val) / mag)[()], log_scale[()]
    return (val * np.exp(log_scale))[()]


def _value_and_slope(cfg: TransmissionConfig, ell, lam, pol):
    """Scaled determinant and its lam-derivative, sharing one log-scale.

    The determinant is bilinear in the two pairs (psi(x_j), psi'(x_j)), so
    its derivative replaces one pair at a time by dx_j/dlam (psi', psi''),
    with psi'' = (ell(ell+1)/x^2 - 1) psi from the Riccati-Bessel equation.
    """
    x, psi, dpsi, _ = _pairs(cfg, ell, lam)
    ddpsi = (ell * (ell + 1.0) / (x * x) - 1.0) * psi
    t1, t2 = _products(cfg, pol, psi, dpsi)
    slope = 0.0
    for j, nR in enumerate((cfg.n1 * cfg.R, cfg.n2 * cfg.R)):
        p, d = psi.copy(), dpsi.copy()
        p[j], d[j] = nR * dpsi[j], nR * ddpsi[j]
        s1, s2 = _products(cfg, pol, p, d)
        slope = slope + (s1 - s2)
    sign = _POL_SIGN[pol]
    return sign * (t1 - t2), sign * slope


# ---------------------------------------------------------------------------
# winding numbers


_NEARZERO_REL = 1e-10

#: fraction of a box by which contours are moved off a zero, and the
#: number of positions tried (the first one unmoved)
_JITTER = 1e-3
_ATTEMPTS = 5


def _wrap(d):
    """Phase differences wrapped into [-pi, pi]."""
    return d - 2.0 * math.pi * np.round(d / (2.0 * math.pi))


def _origin_order(cfg: TransmissionConfig, ell, pol):
    """Order of the determinant's zero at lam = 0.

    psi_ell(x) = O(x^{ell+1}) makes both cleared products O(lam^{2ell+1}),
    with leading coefficients proportional to w1 n2 and w2 n1 (TE) or to
    w1 n1 and w2 n2 (TM).  When those agree (for TE exactly when c1/mu1 =
    c2/mu2) the lam^{2ell+1} terms cancel, and the next term, proportional
    to n1^2 - n2^2, gives order 2ell+3.
    """
    if pol == "TE":
        a, b = cfg.w1 * cfg.n2, cfg.w2 * cfg.n1
    else:
        a, b = cfg.w1 * cfg.n1, cfg.w2 * cfg.n2
    return 2 * ell + (3 if abs(a - b) <= 1e-12 * max(a, b) else 1)


def count_zeros(cfg: TransmissionConfig, ell, pol, rect, max_depth=24):
    """Number of determinant zeros inside a closed rectangle, by winding.

    ``rect`` is (re0, re1, im0, im1).  Edges are sampled adaptively until
    every phase step is below 0.8 rad; a sample whose relative magnitude
    drops under 1e-10 after three refinement levels raises
    :class:`ContourThroughZero` (the caller should perturb the rectangle).
    The seed knots of all four edges are one determinant evaluation, and so
    are the midpoints of each refinement level.

    The phase followed is that of D(lam) / lam^m, m the order of the zero
    at lam = 0: near the origin the phase of D itself turns m times faster
    than the seeding assumes and a seed step can alias by whole turns.  The
    m zeros at the origin are added back when the rectangle encloses it; a
    rectangle with the origin on its edge raises.
    """
    re0, re1, im0, im1 = rect
    encloses_origin = re0 < 0.0 < re1 and im0 < 0.0 < im1
    if not encloses_origin and re0 <= 0.0 <= re1 and im0 <= 0.0 <= im1:
        raise ContourThroughZero(f"lam = 0 lies on the edge of {rect}")
    order = _origin_order(cfg, ell, pol)
    corners = [complex(re0, im0), complex(re1, im0),
               complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    # the determinant's phase turns at speed <= ~(n1+n2) R |dlam|, so seed
    # each edge well below a full turn per segment before refining
    per_unit = 2.5 * (cfg.n1 + cfg.n2) * cfg.R
    knots = []
    for za, zb in zip(corners[:-1], corners[1:]):
        nseed = max(8, int(math.ceil(abs(zb - za) * per_unit)))
        knots.append(za + (zb - za) * np.arange(nseed) / nseed)
    knots = np.concatenate(knots + [corners[-1:]])
    val, rel, _ = mode_determinant(cfg, ell, knots, pol, scaled=True)
    a, b, va, vb, ra, rb = knots[:-1], knots[1:], val[:-1], val[1:], rel[:-1], rel[1:]
    total = 0.0
    for depth in range(max_depth + 1):
        if depth >= 3:
            hit = np.minimum(ra, rb) < _NEARZERO_REL
            if hit.any():
                i = int(np.argmax(hit))
                r = min(ra[i], rb[i])
                raise ContourThroughZero(
                    f"determinant {r:.2e} of scale on the contour near {a[i]:.6g}")
        d = _wrap(np.angle(vb) - np.angle(va) - order * _wrap(np.angle(b) - np.angle(a)))
        fine = np.abs(d) <= 0.8
        total += float(np.sum(d[fine]))
        if fine.all():
            break
        if depth == max_depth:
            i = int(np.argmin(fine))
            raise ContourThroughZero(
                f"phase step {d[i]:.2f} rad unresolved at depth {depth} near {a[i]:.6g}")
        a, b, va, vb, ra, rb = (v[~fine] for v in (a, b, va, vb, ra, rb))
        m = 0.5 * (a + b)
        vm, rm, _ = mode_determinant(cfg, ell, m, pol, scaled=True)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        ra, rb = np.concatenate([ra, rm]), np.concatenate([rm, rb])
    n = total / (2.0 * math.pi)
    if abs(n - round(n)) > 0.25:
        raise ContourThroughZero(f"non-integer winding {n:.3f} on {rect}")
    return int(round(n)) + (order if encloses_origin else 0)


def _count_safe(cfg, ell, pol, rect):
    """count_zeros, enlarging the rectangle by k * _JITTER of its size on
    contour hits (k < _ATTEMPTS).  Returns (count, rectangle counted)."""
    re0, re1, im0, im1 = rect
    for k in range(_ATTEMPTS):
        g = _JITTER * k * max(re1 - re0, im1 - im0)
        r = (re0 - g, re1 + g, im0 - g, im1 + g)
        try:
            return count_zeros(cfg, ell, pol, r), r
        except ContourThroughZero:
            if k == _ATTEMPTS - 1:
                raise
    raise AssertionError("unreachable")


def _newton(cfg, ell, pol, z0, tol=1e-11, maxit=60):
    z = complex(z0)
    for _ in range(maxit):
        f0, der = _value_and_slope(cfg, ell, z, pol)
        if der == 0.0:
            break
        step = complex(f0 / der)
        z -= step
        if abs(step) < tol * max(1.0, abs(z)):
            break
    return z


def _split(cfg, ell, pol, rect, n):
    """Four children partitioning ``rect`` exactly, with their counts.

    The bisection lines start at the centre and move by k * _JITTER of the
    box (k < _ATTEMPTS) whenever a child contour passes through a zero or the
    children's counts do not add up to the parent's ``n``.
    """
    re0, re1, im0, im1 = rect
    for k in range(_ATTEMPTS):
        rm = 0.5 * (re0 + re1) + _JITTER * k * (re1 - re0)
        im = 0.5 * (im0 + im1) + _JITTER * k * (im1 - im0)
        children = [(re0, rm, im0, im), (rm, re1, im0, im),
                    (re0, rm, im, im1), (rm, re1, im, im1)]
        try:
            counts = [count_zeros(cfg, ell, pol, c) for c in children]
        except ContourThroughZero:
            continue
        if sum(counts) == n:
            return list(zip(children, counts))
    raise ContourThroughZero(
        f"(ell={ell}, {pol}): no split of {rect} gives children counting "
        f"its {n} zeros")


def locate_zeros(cfg: TransmissionConfig, ell, pol, rect, box_tol=1e-3):
    """All zeros in a rectangle by recursive subdivision + Newton polish.

    Each box is split into four children that partition it exactly, so a
    zero is found in one leaf only; the number of zeros returned equals the
    winding count of the rectangle (raises :class:`ContourThroughZero`
    otherwise).
    """
    count, root = _count_safe(cfg, ell, pol, rect)
    out = []
    stack = [(root, count)]
    while stack:
        r, n = stack.pop()
        if n == 0:
            continue
        re0, re1, im0, im1 = r
        if max(re1 - re0, im1 - im0) < box_tol:
            z = _newton(cfg, ell, pol, complex(0.5 * (re0 + re1), 0.5 * (im0 + im1)))
            out.extend([z] * n)
            continue
        stack.extend(_split(cfg, ell, pol, r, n))
    if len(out) != count:
        raise ContourThroughZero(
            f"(ell={ell}, {pol}): located {len(out)} zeros in {rect}, "
            f"counted {count}")
    return sorted(out, key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# region scan and calibration


@dataclass
class TileReport:
    re0: float
    re1: float
    im0: float
    im1: float
    ell: int
    pol: str
    winding: int
    violators: list = field(default_factory=list)


def region_scan(cfg: TransmissionConfig, ell_max, re_max, C,
                im_max=None, n_tiles=12):
    """Winding counts over the region Re in (0, re_max],
    Im >= C (Re + 1)^exponent (capped at im_max).

    Tiles extend slightly below the curved boundary so the union covers the
    region; any zero found in a tile is located and kept as a violator only
    when it actually lies above the curve.  Returns the list of per-tile,
    per-mode reports; the region is certified free when no report carries a
    violator.
    """
    p = cfg.exponent
    if im_max is None:
        im_max = C * (re_max + 1.0) ** p + 10.0
    edges = np.linspace(0.0, re_max, n_tiles + 1)
    tiles = []
    for a, b in zip(edges[:-1], edges[1:]):
        im0 = C * (a + 1.0) ** p
        if im0 < im_max:
            tiles.append((float(a), float(b), float(im0), float(im_max)))
    hull = (tiles[0][0], tiles[-1][1], min(t[2] for t in tiles), im_max)
    reports = []
    for ell in range(1, ell_max + 1):
        for pol in ("TE", "TM"):
            # one bounding contour first: winding 0 there certifies every
            # tile at once (counts are nonnegative)
            if _count_safe(cfg, ell, pol, hull)[0] == 0:
                reports.extend(TileReport(*t, ell, pol, 0) for t in tiles)
                continue
            for rect in tiles:
                n = _count_safe(cfg, ell, pol, rect)[0]
                rep = TileReport(*rect, ell, pol, n)
                if n > 0:
                    zs = locate_zeros(cfg, ell, pol, rect)
                    rep.violators = [z for z in zs
                                     if z.imag >= C * (z.real + 1.0) ** p - 1e-9]
                reports.append(rep)
    return reports


def region_is_free(reports):
    return not any(r.violators for r in reports)


def calibrate_C(cfg: TransmissionConfig, ell_max, re_max, C_hi=8.0,
                tol=0.05, n_tiles=12):
    """Smallest C (to within tol) whose parabolic region is zero-free.

    Plain bisection on C; the returned value carries a one-tol safety
    margin so the certified region stays clear of the last violator found.
    """
    if not region_is_free(region_scan(cfg, ell_max, re_max, C_hi, n_tiles=n_tiles)):
        raise ValueError(f"region not zero-free even at C = {C_hi}")
    lo, hi = 0.0, C_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if region_is_free(region_scan(cfg, ell_max, re_max, mid, n_tiles=n_tiles)):
            hi = mid
        else:
            lo = mid
    return hi + tol


# ---------------------------------------------------------------------------
# two-media boundary symbol


def symbol_T(cfg: TransmissionConfig, sp, r0, beta):
    """(T, w, T_tilde, T_1) of the two-media matching at cotangent points.

    T = kappa (rho1 - rho2)(I - (rho1 rho2)^{-1} B) with kappa = c1/mu1;
    w = z^2 kappa (eps1 mu1 - eps2 mu2); T_tilde = T / w; and the
    approximate inverse T_1 = <xi'>^{-1} (rho1 + rho2)(I + (rho1 rho2 -
    r0)^{-1} B), so T_1 T_tilde = <xi'>^{-1} I.  Batched: r0 of shape
    (...) and beta of shape (..., 3) give matrices of shape (..., 3, 3).
    Raises :class:`CoincidentMedia` when eps1 mu1 == eps2 mu2 (w = 0).
    """
    dm = cfg.eps1 * cfg.mu1 - cfg.eps2 * cfg.mu2
    if abs(dm) <= 1e-12 * (cfg.eps1 * cfg.mu1):
        raise CoincidentMedia("eps1*mu1 == eps2*mu2: w vanishes")
    z = sp.z
    kappa = cfg.c1 / cfg.mu1
    r0 = np.asarray(r0)[..., None, None]
    rho1 = sqrt_upper(z * z * cfg.eps1 * cfg.mu1 - r0)
    rho2 = sqrt_upper(z * z * cfg.eps2 * cfg.mu2 - r0)
    beta = np.asarray(beta, dtype=complex)
    B = beta[..., :, None] * beta[..., None, :]
    eye = np.eye(3)
    T = kappa * (rho1 - rho2) * (eye - B / (rho1 * rho2))
    w = z * z * kappa * dm
    T_tilde = T / w
    bracket = np.sqrt(1.0 + np.real(r0))
    T1 = (rho1 + rho2) * (eye + B / (rho1 * rho2 - r0)) / bracket
    return T, w, T_tilde, T1
