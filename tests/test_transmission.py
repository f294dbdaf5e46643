"""Mode determinants, winding counts, zero location, and the region scan."""

import cmath
import math

import numpy as np
import pytest

from maxdtn.errors import (CoincidentMedia, ContourThroughZero,
                           InteriorResonance)
from maxdtn.mie import exact_mode_impedance, riccati_bessel
from maxdtn.spectral import split_lambda
from maxdtn.transmission import (TransmissionConfig, _value_and_slope,
                                 calibrate_C, count_zeros, locate_zeros,
                                 mode_determinant, region_is_free, region_scan,
                                 symbol_T)

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
                z1 = exact_mode_impedance(ell, lam, CFG.eps1, CFG.mu1, CFG.R, pol).value
                z2 = exact_mode_impedance(ell, lam, CFG.eps2, CFG.mu2, CFG.R, pol).value
            except InteriorResonance:
                continue
            p1 = riccati_bessel(ell, lam * CFG.n1 * CFG.R)
            p2 = riccati_bessel(ell, lam * CFG.n2 * CFG.R)
            if pol == "TE":
                alt = (CFG.c1 * z1 - CFG.c2 * z2) * p1.psi * p2.psi
            else:
                alt = (CFG.c1 * z1 - CFG.c2 * z2) * p1.dpsi * p2.dpsi
            val, _, _ = mode_determinant(CFG, ell, lam, pol, scaled=True)
            scale = max(abs(val), abs(alt))
            assert abs(val - alt) < 1e-11 * scale


def test_determinant_conjugation():
    # real coefficients: D(conj(lam)) = conj(D(lam))
    lam = 3.1 + 0.8j
    for pol in ("TE", "TM"):
        a = mode_determinant(CFG, 2, lam, pol)
        b = mode_determinant(CFG, 2, lam.conjugate(), pol)
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
        _, rel, _ = mode_determinant(CFG, 1, z, "TM", scaled=True)
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
    # 1 + 150j puts |Im x1| on the 300 scaling threshold, between the
    # two difference points
    h = 1e-5j
    for ell in (1, 3, 12):
        for pol in ("TE", "TM"):
            val, slope = _value_and_slope(CFG, ell, lam, pol)
            fd = (mode_determinant(CFG, ell, lam + h, pol)
                  - mode_determinant(CFG, ell, lam - h, pol)) / (2 * h)
            want = fd / mode_determinant(CFG, ell, lam, pol)
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


def test_empty_rectangle():
    # far up the imaginary direction the determinant is zero-free
    assert count_zeros(CFG, 1, "TM", (0.5, 5.0, 5.0, 8.0)) == 0


def test_contour_through_zero_detected():
    z = ROOTS_TM[0]
    with pytest.raises(ContourThroughZero):
        count_zeros(CFG, 1, "TM", (z.real - 0.5, z.real + 0.5, z.imag, z.imag + 0.5))


def test_scaled_determinant_contract():
    val, rel, log_scale = mode_determinant(CFG, 3, 2 + 400j, "TE", scaled=True)
    assert 0.0 <= rel <= 2.0
    # true value = val * e^{log_scale}; the scale absorbs the exponential
    # growth so val itself stays representable
    assert np.isfinite(abs(val))
    assert log_scale > 300.0


def test_region_scan_free_at_large_C():
    reports = region_scan(CFG, 2, 10.0, 2.0, n_tiles=6)
    assert region_is_free(reports)
    assert all(r.winding == 0 for r in reports)


def test_region_scan_finds_violator_at_small_C():
    reports = region_scan(CFG, 1, 7.0, 0.05, n_tiles=6)
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


def test_symbol_T_coincident_media():
    sp = split_lambda(5 + 2j)
    with pytest.warns(UserWarning):
        same = TransmissionConfig(2.0, 1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(CoincidentMedia):
        symbol_T(same, sp, 1.0, np.array([0.0, 1.0, 0.0]))


def test_determinant_bad_polarization():
    with pytest.raises(ValueError):
        mode_determinant(CFG, 1, 2 + 1j, "XX")
