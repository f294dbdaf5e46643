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
from typing import ClassVar

import numpy as np

from .errors import CoincidentMedia, ContourThroughZero
from .mie import mode_ratio, riccati_bessel
from .numerics import sqrt_upper
from .spectral import calB

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
    exponent: ClassVar[float] = REGION_EXPONENT

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


def _pairs(cfg: TransmissionConfig, ell, lam):
    """Riccati-Bessel pairs at x1 = lam n1 R and x2 = lam n2 R in one call.

    Returns (x, pair): x carries a leading axis of length 2 (medium 1,
    medium 2) over lam's shape, and each field of the pair is x broadcast
    against ``ell``.
    """
    lam = np.asarray(lam, dtype=complex)
    x = np.stack([lam * (cfg.n1 * cfg.R), lam * (cfg.n2 * cfg.R)])
    return x, riccati_bessel(ell, x)


def _products(cfg: TransmissionConfig, pol, psi, dpsi):
    """(sign, t1, t2) of :func:`mode_ratio` over the media axis of psi, dpsi:
    the determinant is sign (t1 - t2), t1 = w1 num1 den2, t2 = w2 num2 den1."""
    sign, num, den = mode_ratio(pol, psi, dpsi)
    return sign, cfg.w1 * (num[0] * den[1]), cfg.w2 * (num[1] * den[0])


def mode_determinant(cfg: TransmissionConfig, ell, lam, pol):
    """Denominator-cleared determinant whose zeros are the (ell, pol)
    transmission eigenvalues, as ``(value, relative_magnitude, log_scale)``.

    TE: i (c1 sqrt(eps1/mu1) psi'(x1) psi(x2) - c2 sqrt(eps2/mu2) psi'(x2) psi(x1)),
    TM: -i (c1 sqrt(eps1/mu1) psi(x1) psi'(x2) - c2 sqrt(eps2/mu2) psi(x2) psi'(x1)),
    with x_j = lam n_j R; entire in lam.  The true determinant is
    value * e^{log_scale}, and relative_magnitude is |value| over the larger
    of the two cleared products (the honest distance-to-zero measure).  The
    pairs are normalized, so neither product can underflow.

    ``ell``, ``lam`` and ``pol`` broadcast together, so one call evaluates
    many modes at many points; every returned quantity has the broadcast
    shape.  Each element of ``lam`` is swept once by :func:`riccati_bessel`
    for every order, which all the modes share (give the modes their own
    axis, and lam is evaluated once for all of them).
    """
    ell, pol = np.asarray(ell), np.asarray(pol)
    lam = np.asarray(lam, dtype=complex)
    shape = np.broadcast_shapes(ell.shape, lam.shape, pol.shape)
    # lam at the full rank keeps the medium axis in front of every other
    _, rp = _pairs(cfg, ell, lam.reshape((1,) * (len(shape) - lam.ndim) + lam.shape))
    sign, t1, t2 = _products(cfg, pol, rp.psi, rp.dpsi)
    val = sign * (t1 - t2)
    log_scale = np.broadcast_to(rp.log_scale[0] + rp.log_scale[1], val.shape)
    mag = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-300)
    return val[()], (np.abs(val) / mag)[()], log_scale[()]


def _value_and_slope(cfg: TransmissionConfig, ell, lam, pol):
    """Scaled determinant and its lam-derivative, sharing one log-scale.

    The determinant is bilinear in the two pairs (psi(x_j), psi'(x_j)), so
    its derivative replaces one pair at a time by dx_j/dlam (psi', psi''),
    with psi'' = (ell(ell+1)/x^2 - 1) psi from the Riccati-Bessel equation.
    """
    x, rp = _pairs(cfg, ell, lam)
    psi, dpsi = rp.psi, rp.dpsi
    ddpsi = (ell * (ell + 1.0) / (x * x) - 1.0) * psi
    sign, t1, t2 = _products(cfg, pol, psi, dpsi)
    slope = 0.0
    for j, nR in enumerate((cfg.n1 * cfg.R, cfg.n2 * cfg.R)):
        p, d = psi.copy(), dpsi.copy()
        p[j], d[j] = nR * dpsi[j], nR * ddpsi[j]
        _, s1, s2 = _products(cfg, pol, p, d)
        slope = slope + (s1 - s2)
    return sign * (t1 - t2), sign * slope


# ---------------------------------------------------------------------------
# winding numbers


_NEARZERO_REL = 1e-10

#: fraction of a box by which contours are moved off a zero, and the
#: number of positions tried (the first one unmoved)
_JITTER = 1e-3
_ATTEMPTS = 5

#: bisection levels of one refinement round (it cuts a segment into
#: 2^_AHEAD equal pieces), the refinement levels of a contour edge (a
#: whole number of rounds), and the box size at which locate_zeros
#: polishes a box's zeros by Newton from its centre
_AHEAD = 4
_MAX_DEPTH = 6 * _AHEAD
_BOX_TOL = 1e-3

#: relative step at which Newton polishing stops, and its iteration cap
_NEWTON_TOL, _NEWTON_MAXIT = 1e-11, 60


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


def _knots(cfg: TransmissionConfig, rect):
    """Seed knots of a rectangle's contour, counter-clockwise, closed."""
    re0, re1, im0, im1 = rect
    corners = np.array([complex(re0, im0), complex(re1, im0),
                        complex(re1, im1), complex(re0, im1), complex(re0, im0)])
    # the determinant's phase turns at speed <= ~(n1+n2) R |dlam|, so seed
    # each edge well below a full turn per segment before refining
    per_unit = 2.5 * (cfg.n1 + cfg.n2) * cfg.R
    dz = np.diff(corners)
    nseed = np.maximum(8, np.ceil(np.abs(dz) * per_unit).astype(int))
    edge = np.repeat(np.arange(4), nseed)
    k = np.arange(len(edge)) - np.repeat(np.cumsum(nseed) - nseed, nseed)
    return np.append(corners[edge] + dz[edge] * k / nseed[edge], corners[-1])


def _count_batch(cfg: TransmissionConfig, jobs):
    """Winding counts of many (ell, pol, rect) jobs, as count_zeros makes
    each alone; one entry per job, its count or the ContourThroughZero that
    count_zeros would raise for it.  Raises ValueError for a rectangle
    (re0, re1, im0, im1) that is not finite with re0 < re1 and im0 < im1.

    Every job follows its own segments and its own phase, but the seed
    knots of all jobs are one determinant evaluation (every mode at every
    distinct rectangle's knots, so jobs on one contour share them), and so
    is each refinement round: it cuts every unresolved segment of every job
    into 2^_AHEAD equal pieces, evaluates their interior points in one call
    and leaves the pieces to the next round to judge.  A job that hits a
    zero drops out with its error; the others go on.
    """
    out = [None] * len(jobs)
    order = np.array([_origin_order(cfg, ell, pol) for ell, pol, _ in jobs])
    encloses = [re0 < 0.0 < re1 and im0 < 0.0 < im1 for _, _, (re0, re1, im0, im1) in jobs]
    # seeds: every mode at every distinct rectangle's knots, one call
    modes, rects = {}, {}
    size = 0
    for j, (ell, pol, rect) in enumerate(jobs):
        re0, re1, im0, im1 = rect
        if not (all(map(math.isfinite, rect)) and re0 < re1 and im0 < im1):
            raise ValueError(f"rectangle {rect} is not finite with re0 < re1 and im0 < im1")
        if not encloses[j] and re0 <= 0.0 <= re1 and im0 <= 0.0 <= im1:
            out[j] = ContourThroughZero(f"lam = 0 lies on the edge of {rect}")
            continue
        modes.setdefault((ell, pol), len(modes))
        if rect not in rects:
            rects[rect] = size, _knots(cfg, rect)
            size += len(rects[rect][1])
    if not modes:
        return out
    ells = np.array([ell for ell, _, _ in jobs])
    pols = np.array([pol for _, pol, _ in jobs])
    lam = np.concatenate([k for _, k in rects.values()])
    val, rel, _ = mode_determinant(cfg, np.array([e for e, _ in modes])[:, None], lam,
                                   np.array([p for _, p in modes])[:, None])
    job, row, ia = [], [], []
    for j, (ell, pol, rect) in enumerate(jobs):
        if out[j] is None:
            off, k = rects[rect]
            ia.append(off + np.arange(len(k) - 1))
            row.append(np.full(len(k) - 1, modes[ell, pol]))
            job.append(np.full(len(k) - 1, j))
    job, row, ia = np.concatenate(job), np.concatenate(row), np.concatenate(ia)
    a, b, va, vb = lam[ia], lam[ia + 1], val[row, ia], val[row, ia + 1]
    ra, rb = rel[row, ia], rel[row, ia + 1]
    total = np.zeros(len(jobs))
    for depth in range(0, _MAX_DEPTH + 1, _AHEAD):
        failed = {}
        if depth:
            low = np.minimum(ra, rb)
            for i in np.nonzero(low < _NEARZERO_REL)[0].tolist():
                failed.setdefault(int(job[i]), ContourThroughZero(
                    f"determinant {low[i]:.2e} of scale on the contour near {a[i]:.6g}"))
        d = _wrap(np.angle(vb) - np.angle(va) - order[job] * _wrap(np.angle(b) - np.angle(a)))
        fine = np.abs(d) <= 0.8
        if depth == _MAX_DEPTH:
            for i in np.nonzero(~fine)[0].tolist():
                failed.setdefault(int(job[i]), ContourThroughZero(
                    f"phase step {d[i]:.2f} rad unresolved at depth {depth} near {a[i]:.6g}"))
        keep = ~fine
        if failed:
            for j, exc in failed.items():
                out[j] = exc
            live = ~np.isin(job, list(failed))
            fine &= live
            keep &= live
        total += np.bincount(job[fine], weights=d[fine], minlength=len(jobs))
        if not keep.any():
            break
        a, b, va, vb, ra, rb, job = (v[keep] for v in (a, b, va, vb, ra, rb, job))
        # the round: 2^_AHEAD equal pieces, each ending where the next begins
        pts = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 2 ** _AHEAD + 1)
        pts[:, -1] = b
        vm, rm, _ = mode_determinant(cfg, ells[job][:, None], pts[:, 1:-1], pols[job][:, None])
        v, r = np.column_stack([va, vm, vb]), np.column_stack([ra, rm, rb])
        a, b = pts[:, :-1].ravel(), pts[:, 1:].ravel()
        va, vb, ra, rb = v[:, :-1].ravel(), v[:, 1:].ravel(), r[:, :-1].ravel(), r[:, 1:].ravel()
        job = np.repeat(job, 2 ** _AHEAD)
    for j, (_, _, rect) in enumerate(jobs):
        if out[j] is not None:
            continue
        n = total[j] / (2.0 * math.pi)
        if abs(n - round(n)) > 0.25:
            out[j] = ContourThroughZero(f"non-integer winding {n:.3f} on {rect}")
        else:
            out[j] = int(round(n)) + (int(order[j]) if encloses[j] else 0)
    return out


def count_zeros(cfg: TransmissionConfig, ell, pol, rect):
    """Number of determinant zeros inside a closed rectangle, by winding.

    ``rect`` is (re0, re1, im0, im1), finite with re0 < re1 and im0 < im1
    (ValueError otherwise).  Edges are sampled adaptively until every phase
    step is below 0.8 rad: the seed knots of all four edges are one
    evaluation, and each round after them cuts every unresolved segment into
    2^_AHEAD equal pieces, evaluated in one call.  A piece end of relative
    magnitude under 1e-10 raises :class:`ContourThroughZero` (the caller
    should perturb the rectangle).

    The phase followed is that of D(lam) / lam^m, m the order of the zero
    at lam = 0: near the origin the phase of D itself turns m times faster
    than the seeding assumes and a seed step can alias by whole turns.  The
    m zeros at the origin are added back when the rectangle encloses it; a
    rectangle with the origin on its edge raises.
    """
    n, = _count_batch(cfg, [(ell, pol, rect)])
    if isinstance(n, ContourThroughZero):
        raise n
    return n


def _count_safe(cfg, jobs):
    """_count_batch of (ell, pol, rect) jobs, enlarging the rectangle of a
    job that hits a zero by k * _JITTER of its size (k < _ATTEMPTS) and
    counting those jobs again together.  Returns one (count, rectangle
    counted) per job; raises the first job's error after the last attempt.
    """
    out = [None] * len(jobs)
    for k in range(_ATTEMPTS):
        todo = [j for j, o in enumerate(out) if o is None]
        if not todo:
            break
        trial = []
        for j in todo:
            ell, pol, (re0, re1, im0, im1) = jobs[j]
            g = _JITTER * k * max(re1 - re0, im1 - im0)
            trial.append((ell, pol, (re0 - g, re1 + g, im0 - g, im1 + g)))
        for j, (_, _, r), n in zip(todo, trial, _count_batch(cfg, trial)):
            if not isinstance(n, ContourThroughZero):
                out[j] = (n, r)
            elif k == _ATTEMPTS - 1:
                raise n
    return out


def _newton(cfg, ell, pol, box, confined):
    """Newton's method from the centre of ``box``: the iterate where a step
    falls below _NEWTON_TOL relative, if the determinant's relative
    magnitude there is below _NEARZERO_REL, else None.  When ``confined``
    it gives up (None) as soon as an iterate leaves the open box.
    """
    re0, re1, im0, im1 = box
    z = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    for _ in range(_NEWTON_MAXIT):
        f0, der = _value_and_slope(cfg, ell, z, pol)
        if der == 0.0:
            return None
        step = complex(f0 / der)
        z -= step
        if confined and not (re0 < z.real < re1 and im0 < z.imag < im1):
            return None
        if abs(step) < _NEWTON_TOL * max(1.0, abs(z)):
            _, rel, _ = mode_determinant(cfg, ell, z, pol)
            return z if rel < _NEARZERO_REL else None
    return None


def _split(cfg, ell, pol, rect, n):
    """Four children partitioning ``rect`` exactly, with their counts.

    The four children are counted in one batch.  The bisection lines start
    at the centre and move by k * _JITTER of the box (k < _ATTEMPTS)
    whenever a child contour passes through a zero or the children's counts
    do not add up to the parent's ``n``.
    """
    re0, re1, im0, im1 = rect
    for k in range(_ATTEMPTS):
        rm = 0.5 * (re0 + re1) + _JITTER * k * (re1 - re0)
        im = 0.5 * (im0 + im1) + _JITTER * k * (im1 - im0)
        children = [(re0, rm, im0, im), (rm, re1, im0, im),
                    (re0, rm, im, im1), (rm, re1, im, im1)]
        counts = _count_batch(cfg, [(ell, pol, c) for c in children])
        if any(isinstance(c, ContourThroughZero) for c in counts):
            continue
        if sum(counts) == n:
            return list(zip(children, counts))
    raise ContourThroughZero(
        f"(ell={ell}, {pol}): no split of {rect} gives children counting "
        f"its {n} zeros")


def locate_zeros(cfg: TransmissionConfig, ell, pol, rect):
    """All zeros in a rectangle by recursive subdivision + Newton polish.

    A box counted to hold one zero keeps Newton's result from its centre
    when every iterate stays inside the box: the count makes it the box's
    zero.  Any other box is split into four children that partition it
    exactly, so a zero is found in one leaf only, down to leaves smaller
    than _BOX_TOL, polished by Newton from their centre.  The zeros
    returned are zeros of the determinant, as many as the winding count of
    the rectangle (raises :class:`ContourThroughZero` otherwise).
    """
    (count, root), = _count_safe(cfg, [(ell, pol, rect)])
    return _locate(cfg, ell, pol, root, count)


def _locate(cfg, ell, pol, root, count):
    """locate_zeros on a rectangle ``root`` already counted to hold ``count``."""
    out = []
    stack = [(root, count)]
    while stack:
        r, n = stack.pop()
        if n == 0:
            continue
        re0, re1, im0, im1 = r
        leaf = max(re1 - re0, im1 - im0) < _BOX_TOL
        if n == 1 or leaf:
            z = _newton(cfg, ell, pol, r, confined=not leaf)
            if z is not None:
                out.extend([z] * n)
                continue
            if leaf:
                raise ContourThroughZero(
                    f"(ell={ell}, {pol}): Newton from the centre of {r} reaches "
                    f"no zero of the determinant")
        stack.extend(_split(cfg, ell, pol, r, n))
    if len(out) != count:
        raise ContourThroughZero(
            f"(ell={ell}, {pol}): located {len(out)} zeros in {root}, "
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


#: height of the scanned band above the curve's top, the number of tiles
#: across Re, the upper end and step of the bisection in calibrate_C, and
#: the slack by which a located zero below the curve still counts as a
#: violator
_IM_MARGIN = 10.0
_N_TILES = 12
_C_HI = 8.0
_C_TOL = 0.05
_SLACK = 1e-9


def region_scan(cfg: TransmissionConfig, ell_max, re_max, C):
    """Winding counts over the region Re in (0, re_max],
    Im >= C (Re + 1)^exponent, capped _IM_MARGIN above the curve's top.

    Tiles extend slightly below the curved boundary so the union covers the
    region; any zero found in a tile is located and kept as a violator only
    when it actually lies above the curve.  Returns the list of per-tile,
    per-mode reports; the region is certified free when no report carries a
    violator.  Raises ValueError unless ell_max >= 1, re_max > 0 and C > 0:
    no other scan can certify anything.
    """
    if not (ell_max >= 1 and re_max > 0.0 and C > 0.0):
        raise ValueError(f"scan needs ell_max >= 1, re_max > 0, C > 0; got {ell_max, re_max, C}")
    p = cfg.exponent
    im_max = C * (re_max + 1.0) ** p + _IM_MARGIN
    edges = np.linspace(0.0, re_max, _N_TILES + 1)
    tiles = []
    for a, b in zip(edges[:-1], edges[1:]):
        im0 = C * (a + 1.0) ** p
        if im0 < im_max:
            tiles.append((float(a), float(b), float(im0), float(im_max)))
    hull = (tiles[0][0], tiles[-1][1], min(t[2] for t in tiles), im_max)
    modes = [(ell, pol) for ell in range(1, ell_max + 1) for pol in ("TE", "TM")]
    # one bounding contour for every mode first: winding 0 there certifies
    # every tile of the mode at once (counts are nonnegative); the tiles of
    # the other modes are then counted in one batch
    hull_counts = [n for n, _ in _count_safe(cfg, [(ell, pol, hull) for ell, pol in modes])]
    busy = [mode for mode, n in zip(modes, hull_counts) if n > 0]
    tile_counts = iter(_count_safe(cfg, [(ell, pol, t) for ell, pol in busy for t in tiles]))
    reports = []
    for (ell, pol), n_hull in zip(modes, hull_counts):
        if n_hull == 0:
            reports.extend(TileReport(*t, ell, pol, 0) for t in tiles)
            continue
        for rect in tiles:
            n, root = next(tile_counts)
            rep = TileReport(*rect, ell, pol, n)
            if n > 0:
                zs = _locate(cfg, ell, pol, root, n)
                rep.violators = [z for z in zs
                                 if z.imag >= C * (z.real + 1.0) ** p - _SLACK]
            reports.append(rep)
    return reports


def region_is_free(reports):
    return not any(r.violators for r in reports)


def calibrate_C(cfg: TransmissionConfig, ell_max, re_max):
    """Smallest C (to within _C_TOL) whose parabolic region is zero-free.

    The result of bisection on C from _C_HI down to a step g <= _C_TOL,
    plus a one-tol safety margin so the certified region stays clear of
    the last violator found.
    """
    return _calibrate(cfg, ell_max, re_max)[0]


def _calibrate(cfg: TransmissionConfig, ell_max, re_max):
    """(calibrate_C, witness): witness is (C*, ell, pol, z) of the violator
    with the largest ratio C* = (Im z + _SLACK) / (Re z + 1)^p in the first
    scan of C = _C_HI / 2^k that has violators, or None if none does.

    Bisection returns the first multiple of g above C*, so one scan there
    certifies it (none if it is a halving value scanned free); all these
    values are dyadic, so the result is bitwise bisection's.  A scan's Im
    cap rises with C, so that scan may see a violator the lower one did
    not; bisection then goes on from the last two halvings.
    """
    p = cfg.exponent
    if not region_is_free(region_scan(cfg, ell_max, re_max, _C_HI)):
        raise ValueError(f"region not zero-free even at C = {_C_HI}")
    halvings = [_C_HI]
    while halvings[-1] > _C_TOL:
        halvings.append(0.5 * halvings[-1])
    g = halvings[-1]
    for lo, hi in zip(halvings[1:], halvings):
        reports = region_scan(cfg, ell_max, re_max, lo)
        if not region_is_free(reports):
            break
    else:
        return g + _C_TOL, None
    witness = max((((z.imag + _SLACK) / (z.real + 1.0) ** p, r.ell, r.pol, z)
                   for r in reports for z in r.violators), key=lambda w: w[0])
    cand = (math.floor(witness[0] / g) + 1) * g
    if cand == hi or (lo < cand < hi and region_is_free(region_scan(cfg, ell_max, re_max, cand))):
        return cand + _C_TOL, witness
    while hi - lo > _C_TOL:
        mid = 0.5 * (lo + hi)
        if region_is_free(region_scan(cfg, ell_max, re_max, mid)):
            hi = mid
        else:
            lo = mid
    return hi + _C_TOL, witness


# ---------------------------------------------------------------------------
# two-media boundary symbol


def symbol_T(cfg: TransmissionConfig, sp, r0, beta):
    """(T, w, T_tilde, T_1) of the two-media matching at cotangent points.

    T = kappa (rho1 - rho2)(I - (rho1 rho2)^{-1} B) with kappa = c1/mu1;
    w = z^2 kappa (eps1 mu1 - eps2 mu2); T_tilde = T / w; and the
    approximate inverse T_1 = <xi'>^{-1} (rho1 + rho2)(I + (rho1 rho2 -
    r0)^{-1} B), so T_1 T_tilde = <xi'>^{-1} I.  Batched: r0 of shape
    (...), beta of shape (..., 3) and ``sp`` of a lambda of a shape that
    broadcasts with r0's give matrices of shape (..., 3, 3).
    Raises :class:`CoincidentMedia` when eps1 mu1 == eps2 mu2 (w = 0).
    """
    dm = cfg.eps1 * cfg.mu1 - cfg.eps2 * cfg.mu2
    if abs(dm) <= 1e-12 * (cfg.eps1 * cfg.mu1):
        raise CoincidentMedia("eps1*mu1 == eps2*mu2: w vanishes")
    z = sp.z
    kappa = cfg.c1 / cfg.mu1
    r0 = np.asarray(r0)[..., None, None]
    z2 = np.asarray(z * z)[..., None, None]        # a batch of lambda, as r0
    rho1 = sqrt_upper(z2 * cfg.eps1 * cfg.mu1 - r0)
    rho2 = sqrt_upper(z2 * cfg.eps2 * cfg.mu2 - r0)
    B = calB(np.asarray(beta, dtype=complex))
    eye = np.eye(3)
    T = kappa * (rho1 - rho2) * (eye - B / (rho1 * rho2))
    w = z * z * kappa * dm
    T_tilde = T / np.asarray(w)[..., None, None]
    bracket = np.sqrt(1.0 + np.real(r0))
    T1 = (rho1 + rho2) * (eye + B / (rho1 * rho2 - r0)) / bracket
    return T, w, T_tilde, T1
