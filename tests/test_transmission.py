"""Mode determinants, winding counts, zero location, and the region scan."""

import cmath
import math

import numpy as np
import pytest

import maxdtn.transmission
from calibration_oracle import bisect_C
from maxdtn.config import RunConfig
from maxdtn.errors import (CoincidentMedia, ContourThroughZero,
                           InteriorResonance)
from maxdtn.mie import exact_mode_impedance, riccati_bessel
from maxdtn.spectral import split_lambda
from maxdtn.transmission import (TileReport, TransmissionConfig, _count_batch,
                                 _count_safe, _newton, _value_and_slope, calibrate_C,
                                 count_zeros, locate_zeros, mode_determinant,
                                 region_is_free, region_scan, symbol_T)

CFG = TransmissionConfig(4.0, 1.0, 1.0, 1.0, 1.0, 1.0)

# zeros of the ell = 1 determinants in (0.5, 7) x (0.05, 1.5), located by
# subdivision + Newton and confirmed below by tiny-box winding counts
ROOTS_TM = [2.6945328938 + 0.7091600682j, 5.9602845158 + 0.4594139815j]
ROOTS_TE = [4.5478341831 + 0.6509818045j]


def test_config_validation():
    with pytest.raises(ValueError):
        TransmissionConfig(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.warns(UserWarning, match="c1/mu1"):
        TransmissionConfig(4.0, 1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.warns(UserWarning, match="coincident"):
        TransmissionConfig(2.0, 1.0, 1.0, 1.0, 2.0, 1.0)


def test_determinant_agrees_with_impedance_route():
    # clearing denominators from the difference of the two interior
    # impedances reproduces the determinant
    rng = np.random.default_rng(12)
    for _ in range(40):
        lam = complex(rng.uniform(0.5, 8), rng.uniform(0.05, 2))
        ell = int(rng.integers(1, 6))
        for pol in ("TE", "TM"):
            try:
                z1 = exact_mode_impedance(ell, lam, CFG.eps1, CFG.mu1, CFG.R, pol)
                z2 = exact_mode_impedance(ell, lam, CFG.eps2, CFG.mu2, CFG.R, pol)
            except InteriorResonance:
                continue
            p1 = riccati_bessel(ell, lam * CFG.n1 * CFG.R)
            p2 = riccati_bessel(ell, lam * CFG.n2 * CFG.R)
            if pol == "TE":
                alt = (CFG.c1 * z1 - CFG.c2 * z2) * p1.psi * p2.psi
            else:
                alt = (CFG.c1 * z1 - CFG.c2 * z2) * p1.dpsi * p2.dpsi
            val, _, _ = mode_determinant(CFG, ell, lam, pol)
            scale = max(abs(val), abs(alt))
            assert abs(val - alt) < 1e-11 * scale


def _true_determinant(cfg, ell, lam, pol):
    """The determinant itself, value * e^{log_scale}, for moderate |Im lam|."""
    val, _, log_scale = mode_determinant(cfg, ell, lam, pol)
    return val * np.exp(log_scale)


def test_determinant_conjugation():
    # real coefficients: D(conj(lam)) = conj(D(lam))
    lam = 3.1 + 0.8j
    for pol in ("TE", "TM"):
        a = _true_determinant(CFG, 2, lam, pol)
        b = _true_determinant(CFG, 2, lam.conjugate(), pol)
        # the determinant carries an overall factor +-i, so conjugation
        # flips its sign
        assert abs(a.conjugate() + b) < 1e-12 * abs(a)


def test_count_matches_located_roots():
    assert count_zeros(CFG, 1, "TM", (0.5, 7.0, 0.05, 1.5)) == len(ROOTS_TM)
    assert count_zeros(CFG, 1, "TE", (0.5, 7.0, 0.05, 1.5)) == len(ROOTS_TE)
    for z in ROOTS_TM:
        box = (z.real - 0.05, z.real + 0.05, z.imag - 0.05, z.imag + 0.05)
        assert count_zeros(CFG, 1, "TM", box) == 1


def test_located_roots_are_zeros():
    zs = locate_zeros(CFG, 1, "TM", (0.5, 7.0, 0.05, 1.5))
    assert len(zs) == len(ROOTS_TM)
    for z, ref in zip(zs, ROOTS_TM):
        assert abs(z - ref) < 1e-6
        _, rel, _ = mode_determinant(CFG, 1, z, "TM")
        assert rel < 1e-10


@pytest.mark.parametrize("half_width", [0.1, 0.2, 0.4])
def test_zero_on_bisection_lines_located_once(half_width):
    # centred on the zero, the first split lines pass through it; the four
    # children must still partition the box and report it once
    z = ROOTS_TM[0]
    box = (z.real - half_width, z.real + half_width,
           z.imag - half_width, z.imag + half_width)
    assert count_zeros(CFG, 1, "TM", box) == 1
    zs = locate_zeros(CFG, 1, "TM", box)
    assert len(zs) == 1
    assert abs(zs[0] - z) < 1e-6


def test_origin_zero_does_not_alias():
    # lam = 0 is a zero of order 2 ell + 3 (TE, c1/mu1 = c2/mu2) or
    # 2 ell + 1 (TM); a contour passing close by it must not pick up whole
    # turns of its phase, and one enclosing it counts all of them
    tile = (0.0, 1.0 / 3.0, 0.0625, 10.197307823612162)
    assert count_zeros(CFG, 4, "TE", tile) == 0
    assert locate_zeros(CFG, 4, "TE", tile) == []
    origin = (-0.3, 0.3, -0.3, 0.3)
    assert count_zeros(CFG, 1, "TE", origin) == 5
    assert count_zeros(CFG, 1, "TM", origin) == 3
    with pytest.raises(ContourThroughZero):
        count_zeros(CFG, 1, "TE", (0.0, 0.3, -0.3, 0.3))


@pytest.mark.parametrize("lam", [3.1 + 0.8j, 0.4 + 2.5j, 7.0 + 0.05j, 1.0 + 150j])
def test_analytic_slope_matches_central_difference(lam):
    # 1 + 150j puts |Im x1| at 300, where the pairs carry a scale near e^300
    h = 1e-5j
    for ell in (1, 3, 12):
        for pol in ("TE", "TM"):
            val, slope = _value_and_slope(CFG, ell, lam, pol)
            fd = (_true_determinant(CFG, ell, lam + h, pol)
                  - _true_determinant(CFG, ell, lam - h, pol)) / (2 * h)
            want = fd / _true_determinant(CFG, ell, lam, pol)
            assert abs(slope / val - want) < 1e-7 * abs(want)


def test_calibration_pinned():
    # smallest zero-free C on the test_08 media at ell <= 4, Re <= 4, and
    # the windings on each side of it: nothing at C, only the ell = 1 TM
    # eigenvalue 2.6945+0.7092i once C drops by two calibration steps
    C = calibrate_C(CFG, 4, 4.0)
    assert C == 0.33125
    reports = region_scan(CFG, 4, 4.0, C)
    assert len(reports) == 4 * 2 * 12
    assert all(r.winding == 0 for r in reports)
    below = [r for r in region_scan(CFG, 4, 4.0, C - 0.1) if r.winding]
    assert [(r.ell, r.pol, r.winding) for r in below] == [(1, "TM", 1)]
    assert below[0].re0 < ROOTS_TM[0].real < below[0].re1
    assert len(below[0].violators) == 1
    assert abs(below[0].violators[0] - ROOTS_TM[0]) < 1e-6


def _test_jobs():
    # the rectangles of the tests above, each with the modes counted there
    z = ROOTS_TM[0]
    jobs = [(1, pol, (0.5, 7.0, 0.05, 1.5)) for pol in ("TM", "TE")]
    jobs += [(1, "TM", (r.real - 0.05, r.real + 0.05, r.imag - 0.05, r.imag + 0.05))
             for r in ROOTS_TM]
    jobs += [(1, "TM", (z.real - w, z.real + w, z.imag - w, z.imag + w))
             for w in (0.1, 0.2, 0.4)]
    jobs += [(4, "TE", (0.0, 1.0 / 3.0, 0.0625, 10.197307823612162)),
             (1, "TE", (-0.3, 0.3, -0.3, 0.3)), (1, "TM", (-0.3, 0.3, -0.3, 0.3)),
             (1, "TM", (0.5, 5.0, 5.0, 8.0))]
    return jobs


def test_batched_counts_equal_one_job_counts():
    jobs = _test_jobs()
    counts = _count_batch(CFG, jobs)
    assert counts == [count_zeros(CFG, *job) for job in jobs]
    assert counts == [2, 1, 1, 1, 1, 1, 1, 0, 5, 3, 0]


def test_batched_contour_hit_fails_one_job_only():
    # a contour through a zero fails its own job; every other job of the
    # batch keeps the count it has alone, and only the failed job is
    # enlarged and counted again
    z = ROOTS_TM[0]
    through = (1, "TM", (z.real - 0.5, z.real + 0.5, z.imag, z.imag + 0.5))
    jobs = _test_jobs()
    alone = _count_batch(CFG, jobs)
    batch = _count_batch(CFG, jobs[:3] + [through] + jobs[3:])
    assert isinstance(batch[3], ContourThroughZero)
    assert batch[:3] + batch[4:] == alone
    safe = _count_safe(CFG, jobs[:3] + [through] + jobs[3:])
    assert [n for n, _ in safe[:3] + safe[4:]] == alone
    assert [r for _, r in safe[:3] + safe[4:]] == [rect for _, _, rect in jobs]
    n, rect = safe[3]
    assert n == 1 and rect != through[2]
    assert rect[0] < through[2][0] and rect[2] < z.imag < rect[3]


def _spy(monkeypatch, name):
    """Record the arguments of every call of a transmission function."""
    calls = []
    fn = getattr(maxdtn.transmission, name)

    def spying(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(maxdtn.transmission, name, spying)
    return calls


def test_region_scan_one_riccati_call_when_hull_is_free(monkeypatch):
    # every (ell, pol) hull count of a free region is one sweep for all
    # eight modes
    calls = _spy(monkeypatch, "riccati_bessel")
    assert region_is_free(region_scan(CFG, 4, 4.0, 2.0))
    assert len(calls) == 1


def test_region_scan_riccati_calls_with_a_violator(monkeypatch):
    # the hull, the tiles of the modes with positive hull winding, and the
    # Newton polish of the ell = 1 TM eigenvalue from its tile's centre
    # (about 20 steps, no split)
    calls = _spy(monkeypatch, "riccati_bessel")
    reports = region_scan(CFG, 4, 4.0, 0.25)
    assert not region_is_free(reports)
    assert len(calls) <= 30


def test_empty_rectangle():
    # far up the imaginary direction the determinant is zero-free
    assert count_zeros(CFG, 1, "TM", (0.5, 5.0, 5.0, 8.0)) == 0


def test_contour_through_zero_detected():
    z = ROOTS_TM[0]
    with pytest.raises(ContourThroughZero):
        count_zeros(CFG, 1, "TM", (z.real - 0.5, z.real + 0.5, z.imag, z.imag + 0.5))


def test_scaled_determinant_contract():
    val, rel, log_scale = mode_determinant(CFG, 3, 2 + 400j, "TE")
    assert 0.0 <= rel <= 2.0
    # true value = val * e^{log_scale}; the scale absorbs the exponential
    # growth so val itself stays representable
    assert np.isfinite(abs(val))
    assert log_scale > 300.0


def test_region_scan_free_at_large_C():
    reports = region_scan(CFG, 2, 10.0, 2.0)
    assert region_is_free(reports)
    assert all(r.winding == 0 for r in reports)


def test_region_scan_finds_violator_at_small_C():
    reports = region_scan(CFG, 1, 7.0, 0.05)
    assert not region_is_free(reports)
    violators = [z for r in reports for z in r.violators]
    assert any(abs(z - ROOTS_TM[0]) < 1e-6 for z in violators)


def test_symbol_T_identities():
    sp = split_lambda(5 + 2j)
    beta = np.array([0.0, 1.3, -0.4])
    r0 = float(beta @ beta)
    T, w, Tt, T1 = symbol_T(CFG, sp, r0, beta)
    assert np.max(np.abs(T - w * Tt)) < 1e-13 * np.max(np.abs(T))
    bracket = math.sqrt(1.0 + r0)
    assert np.max(np.abs(T1 @ Tt - np.eye(3) / bracket)) < 1e-13


def test_symbol_T_batched_matches_pointwise():
    sp = split_lambda(5 + 2j)
    rng = np.random.default_rng(11)
    beta = rng.uniform(-2.0, 2.0, (7, 3))
    r0 = np.sum(beta * beta, axis=-1)
    T, w, Tt, T1 = symbol_T(CFG, sp, r0, beta)
    assert T.shape == Tt.shape == T1.shape == (7, 3, 3)
    for i in range(7):
        Ti, wi, Tti, T1i = symbol_T(CFG, sp, float(r0[i]), beta[i])
        assert wi == w
        for got, want in ((T[i], Ti), (Tt[i], Tti), (T1[i], T1i)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("P", [3, 5])
def test_symbol_T_batch_of_lambda(P):
    # a (P,) lambda with a (P,) r0; at beta = sqrt(r0) e2, B = r0 e2 e2^T, so
    # T[0, 0] = kappa (rho1 - rho2) and T[1, 1] = kappa (rho1 - rho2)
    # (1 - r0 / (rho1 rho2)).  P = 3 once broadcast z against the matrix
    # axes without raising
    lam = np.linspace(3.0, 9.0, P) + 1j * np.linspace(0.5, 2.5, P)
    sp = split_lambda(lam)
    r0 = np.linspace(0.2, 4.0, P)
    beta = np.zeros((P, 3))
    beta[:, 1] = np.sqrt(r0)
    T, w, Tt, T1 = symbol_T(CFG, sp, r0, beta)
    assert T.shape == Tt.shape == T1.shape == (P, 3, 3) and w.shape == (P,)
    kappa = CFG.c1 / CFG.mu1
    for i in range(P):
        z2 = complex(sp.z[i]) ** 2
        rho1, rho2 = (cmath.sqrt(z2 * em - r0[i])
                      for em in (CFG.eps1 * CFG.mu1, CFG.eps2 * CFG.mu2))
        rho1, rho2 = (r if r.imag > 0.0 else -r for r in (rho1, rho2))
        want = kappa * (rho1 - rho2)
        assert abs(T[i, 0, 0] - want) <= 1e-13 * abs(want)
        want *= 1.0 - r0[i] / (rho1 * rho2)
        assert abs(T[i, 1, 1] - want) <= 1e-13 * abs(want)
        # and each element is the scalar-lambda build
        for got, one in zip((T, w, Tt, T1),
                            symbol_T(CFG, split_lambda(lam[i]), r0[i], beta[i])):
            assert np.array_equal(got[i], one)


def test_symbol_T_coincident_media():
    sp = split_lambda(5 + 2j)
    with pytest.warns(UserWarning):
        same = TransmissionConfig(2.0, 1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(CoincidentMedia):
        symbol_T(same, sp, 1.0, np.array([0.0, 1.0, 0.0]))


def test_determinant_bad_polarization():
    with pytest.raises(ValueError):
        mode_determinant(CFG, 1, 2 + 1j, "XX")


def _mpmath_relative_magnitude(cfg, ell, pol, lam):
    """|det| over the larger cleared product, from mpmath's Bessel J."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def pair(x):
            psi = lambda n: mp.sqrt(mp.pi * x / 2) * mp.besselj(n + mp.mpf(1) / 2, x)
            p = psi(ell)
            return p, psi(ell - 1) - ell / x * p

        lam = mp.mpc(lam)
        p1, d1 = pair(lam * mp.sqrt(cfg.eps1 * cfg.mu1) * cfg.R)
        p2, d2 = pair(lam * mp.sqrt(cfg.eps2 * cfg.mu2) * cfg.R)
        w1 = cfg.c1 * mp.sqrt(mp.mpf(cfg.eps1) / cfg.mu1)
        w2 = cfg.c2 * mp.sqrt(mp.mpf(cfg.eps2) / cfg.mu2)
        t1, t2 = (w1 * d1 * p2, w2 * d2 * p1) if pol == "TE" else (w1 * p1 * d2, w2 * p2 * d1)
        return float(abs(t1 - t2) / max(abs(t1), abs(t2)))


@pytest.mark.parametrize("ell", [100, 110, 120, 130])
def test_high_order_determinant_does_not_underflow(ell):
    # psi_120 is about 1e-157 at x1 = 4.58 and 1e-193 at x2 = 2.29: each
    # pair is representable, and so is the determinant's relative magnitude
    lam = 2.2911 + 0.09125j
    for pol in ("TE", "TM"):
        _, rel, _ = mode_determinant(CFG, ell, lam, pol)
        want = _mpmath_relative_magnitude(CFG, ell, pol, lam)
        assert abs(rel - want) <= 1e-10 * want


def test_region_scan_free_through_high_orders():
    # modes up to ell = 130 oscillate below Re 60 on these media; the scan
    # certifies them, and no mode above 40 adds a winding
    reports = region_scan(CFG, 130, 60.0, 0.33125)
    assert region_is_free(reports)
    assert len(reports) == 130 * 2 * 12
    assert not any(r.winding for r in reports if r.ell > 40)


def test_malformed_rectangle_raises():
    # a reversed edge winds clockwise, so its count has the wrong sign or
    # counts zeros outside; a zero-width or NaN rectangle bounds nothing
    for rect in [(7.0, 0.5, 0.05, 1.5), (7.0, 0.5, 1.5, 0.05),
                 (0.5, 0.5, 0.05, 1.5), (0.5, 7.0, math.nan, 1.5)]:
        for fn in (count_zeros, locate_zeros):
            with pytest.raises(ValueError, match="rectangle"):
                fn(CFG, 1, "TM", rect)


def test_scan_that_cannot_certify_raises():
    # no modes, zero-width tiles, or tiles down to the zero at lam = 0
    for ell_max, re_max, C in [(0, 10.0, 0.5), (2, 0.0, 0.5), (2, -1.0, 0.5),
                               (2, 10.0, 0.0), (2, 10.0, -0.1), (2, 10.0, math.nan)]:
        with pytest.raises(ValueError, match="scan needs"):
            region_scan(CFG, ell_max, re_max, C)


def test_default_scan_covers_the_oscillating_modes():
    # psi_ell oscillates only for |x| >~ ell + 1/2, so eigenvalues below
    # re_max need ell <~ n_max re_max R: ten orders past that, the default
    # scan is still free and no mode above its ell_max winds
    run = RunConfig()
    cfg = TransmissionConfig(run.eps, run.mu, run.c1, run.eps2, run.mu2, run.c2, R=run.radius)
    ell_top = math.ceil(max(cfg.n1, cfg.n2) * run.re_max * cfg.R) + 10
    assert ell_top == 53
    reports = region_scan(cfg, ell_top, run.re_max, run.region_C)
    assert region_is_free(reports)
    assert {(r.ell, r.pol) for r in reports if r.winding} == {(2, "TM")}
    assert not any(r.winding for r in reports if r.ell > run.ell_max)


def test_each_refinement_call_cuts_segments_into_equal_pieces(monkeypatch):
    # after the seeds, each round is one call on the 15 interior points of
    # 16 equal pieces of every unresolved segment
    seen = []
    determinant = maxdtn.transmission.mode_determinant

    def recording(cfg, ell, lam, pol):
        seen.append(np.asarray(lam))
        return determinant(cfg, ell, lam, pol)

    monkeypatch.setattr(maxdtn.transmission, "mode_determinant", recording)
    assert count_zeros(CFG, 1, "TM", (0.5, 7.0, 0.05, 1.5)) == 2
    seeds, *rounds = seen
    assert seeds.ndim == 1 and rounds
    for pts in rounds:
        assert pts.ndim == 2 and pts.shape[1] == 15
        step = np.diff(pts, axis=1)
        assert np.allclose(step, step[:, :1], rtol=1e-6, atol=0.0)


#: the C = 0.25 tile of region_scan(CFG, 4, 4.0, 0.25) that holds ROOTS_TM[0]
_TILE = (8.0 / 3.0, 3.0, 0.25 * (8.0 / 3.0 + 1.0) ** (5.0 / 7.0),
         0.25 * 5.0 ** (5.0 / 7.0) + 10.0)


def test_one_zero_box_is_polished_without_splitting(monkeypatch):
    # Newton from the centre of the tall tile stays inside it and reaches
    # the eigenvalue, which the tile's count of one makes its only zero
    splits = _spy(monkeypatch, "_split")
    zs = locate_zeros(CFG, 1, "TM", _TILE)
    assert splits == []
    assert len(zs) == 1 and abs(zs[0] - ROOTS_TM[0]) < 1e-10


def test_newton_leaving_a_one_zero_box_falls_back_to_splitting(monkeypatch):
    # from the centre of this flat box Newton's path leaves it, so the box
    # is split as any other, and its one zero is still located
    box = (2.6, 4.5, 0.6, 0.8)
    assert _newton(CFG, 1, "TM", box, confined=True) is None
    splits = _spy(monkeypatch, "_split")
    zs = locate_zeros(CFG, 1, "TM", box)
    assert splits
    assert len(zs) == count_zeros(CFG, 1, "TM", box) == 1
    assert abs(zs[0] - ROOTS_TM[0]) < 1e-10


def test_located_zero_that_does_not_vanish_raises(monkeypatch):
    # a Newton that never converges leaves every box, then reaches no zero
    # from the centre of a leaf: the leaf is named, and nothing is returned
    monkeypatch.setattr(maxdtn.transmission, "_value_and_slope",
                        lambda cfg, ell, lam, pol: (1.0 + 0.0j, 1.0 + 0.0j))
    z = ROOTS_TM[0]
    box = (z.real - 0.05, z.real + 0.05, z.imag - 0.05, z.imag + 0.05)
    with pytest.raises(ContourThroughZero, match=r"ell=1, TM.*reaches no zero"):
        locate_zeros(CFG, 1, "TM", box)


# media with their calibrated C at ell <= 4, Re <= 4, by bisection
_CALIBRATION_MEDIA = [
    ((4.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.33125),
    ((3.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.425),
    ((5.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.33125),
    ((2.5, 1.0, 1.0, 1.0, 1.0, 1.0), 0.45625),
    ((6.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.3),
    ((4.0, 1.0, 1.0, 1.5, 1.0, 1.0), 0.425),
    ((1.0, 1.0, 1.0, 4.0, 1.0, 1.0), 0.33125),
    ((3.0, 2.0, 2.0, 1.0, 1.0, 1.0), 0.3),
]


@pytest.mark.parametrize("media, C", _CALIBRATION_MEDIA)
def test_calibration_equals_bisection(media, C):
    cfg = TransmissionConfig(*media)
    assert calibrate_C(cfg, 4, 4.0) == bisect_C(cfg, 4, 4.0) == C


def test_calibration_scans(monkeypatch):
    # the halvings 8, 4, 2, 1, 0.5 are free and 0.25 locates the ell = 1 TM
    # eigenvalue; one scan certifies the grid value just above its ratio
    scans = _spy(monkeypatch, "region_scan")
    assert calibrate_C(CFG, 4, 4.0) == 0.33125
    assert [C for _, _, _, C in scans] == [8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.28125]


def test_calibration_falls_back_to_bisection(monkeypatch):
    # a violator that only the certifying scan sees (as a zero above the
    # lower scan's Im cap would be) sends calibration back to bisection
    scan = maxdtn.transmission.region_scan

    def stub(cfg, ell_max, re_max, C):
        reports = scan(cfg, ell_max, re_max, C)
        if C == 0.28125:
            reports.append(TileReport(0.0, 1.0, 0.0, 1.0, 1, "TE", 1, [0.5 + 2.0j]))
        return reports

    monkeypatch.setattr(maxdtn.transmission, "region_scan", stub)
    want = bisect_C(CFG, 4, 4.0)
    assert want == 0.3625
    assert calibrate_C(CFG, 4, 4.0) == want
