"""Riccati-Bessel evaluation and exact per-mode impedances on the ball."""

import cmath
import math

import numpy as np
import pytest

from maxdtn.errors import ConfigError, InteriorResonance
from maxdtn.mie import (dtn_compare, exact_mode_impedance, riccati_bessel,
                        riccati_second)
from maxdtn.numerics import sqrt_upper
from maxdtn.spectral import split_lambda

# reference pairs (ell, x, psi_ell(x), psi_ell'(x)) computed independently
# with 40-digit arithmetic and rounded to double precision
REFERENCE = [
    (0, (1.5 + 0.5j), (1.1248012470579227 + 0.03686082371280446j),
     (0.0797651053065419 - 0.5197899547729212j)),
    (3, (2 - 1j), (-0.011048021337478925 - 0.20171764724352423j),
     (0.1712259150092242 - 0.28784880682315406j)),
    (10, (3 + 4j), (-0.004033568445394206 - 0.0010749966002724894j),
     (-0.006915573355448806 + 0.0065227349210325225j)),
    (7, (0.05 + 0.02j), (-3.4724360637926427e-17 + 3.399916151490471e-18j),
     (-4.6018792728968975e-15 + 2.384811599039708e-15j)),
    (50, (20 + 10j), (-5.419430096117e-13 + 1.9276836747107377e-13j),
     (-7.823854614399819e-13 + 9.667093877571937e-13j)),
    (120, (100 + 40j), (-73.74884929278262 + 379.38421786691686j),
     (215.48580583117598 + 289.2365125524408j)),
    (200, (150 + 80j), (-16732.079214156005 + 1559.522361339014j),
     (-10294.56379698241 + 15073.289931346162j)),
]


@pytest.mark.parametrize("ell,x,psi_ref,dpsi_ref", REFERENCE,
                         ids=[f"l{c[0]}" for c in REFERENCE])
def test_against_reference(ell, x, psi_ref, dpsi_ref):
    rp = riccati_bessel(ell, x)
    fac = cmath.exp(rp.log_scale)
    assert abs(rp.psi * fac - psi_ref) < 1e-12 * abs(psi_ref)
    assert abs(rp.dpsi * fac - dpsi_ref) < 1e-12 * abs(dpsi_ref)


@pytest.mark.parametrize("ell", sorted({c[0] for c in REFERENCE}))
def test_mixed_batch_matches_scalar(ell):
    # one batch spans every regime at once: x = 0, the series, the sweep
    # (whose start index is set by the batch's largest |x|) and the scaled
    # |Im x| > 300 pairs; each element must equal its own scalar call
    xs = np.array([c[1] for c in REFERENCE] + [0j, 10 + 400j])
    batch = riccati_bessel(ell, xs)
    assert batch.psi.shape == batch.dpsi.shape == batch.log_scale.shape == xs.shape
    for i, x in enumerate(xs):
        one = riccati_bessel(ell, complex(x))
        shift = cmath.exp(batch.log_scale[i] - one.log_scale)
        for got, want in ((batch.psi[i], one.psi), (batch.dpsi[i], one.dpsi)):
            assert abs(got * shift - want) <= 1e-12 * abs(want)


def test_closed_forms_low_order():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
        if abs(x) < 0.3:
            continue
        r0 = riccati_bessel(0, x)
        assert abs(r0.psi - cmath.sin(x)) < 1e-12 * max(1.0, abs(cmath.sin(x)))
        assert abs(r0.dpsi - cmath.cos(x)) < 1e-12 * max(1.0, abs(cmath.cos(x)))
        r1 = riccati_bessel(1, x)
        want = cmath.sin(x) / x - cmath.cos(x)
        assert abs(r1.psi - want) < 1e-11 * max(1.0, abs(want))


def test_wronskian_with_second_kind():
    # psi chi' - psi' chi = -1; kept to moderate |Im x| where the product
    # does not cancel catastrophically in double precision
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(60):
        ell = int(rng.integers(0, 50))
        x = complex(rng.uniform(0.5, 60), rng.uniform(-5, 5))
        p = riccati_bessel(ell, x)
        c = riccati_second(ell, x)
        w = (p.psi * c.dpsi - p.dpsi * c.psi) * cmath.exp(p.log_scale + c.log_scale)
        worst = max(worst, abs(w + 1.0))
    assert worst < 1e-9


def test_conjugation_symmetry():
    for ell, x in [(4, 2 + 3j), (17, 12 - 5j), (60, 40 + 20j)]:
        a = riccati_bessel(ell, x)
        b = riccati_bessel(ell, x.conjugate())
        va = a.psi * cmath.exp(a.log_scale)
        vb = b.psi * cmath.exp(b.log_scale)
        assert abs(va.conjugate() - vb) < 1e-12 * abs(va)


def test_scaled_pair_far_from_axis():
    # |Im x| beyond the overflow threshold: values come back scaled, and the
    # scale-free log-derivative still matches sin/cos asymptotics
    x = 10 + 400j
    rp = riccati_bessel(3, x)
    assert rp.log_scale > 300.0
    assert np.isfinite(rp.psi.real) and np.isfinite(rp.dpsi.real)
    # for Im x -> +inf, psi'/psi -> -i (up to O(ell^2/|x|) corrections)
    assert abs(rp.dpsi / rp.psi + 1j) < 0.05


def test_zero_argument():
    r = riccati_bessel(0, 0.0)
    assert r.psi == 0.0 and r.dpsi == 1.0
    r5 = riccati_bessel(5, 0.0)
    assert r5.psi == 0.0 and r5.dpsi == 0.0


def test_series_regime_continuity():
    # values agree across the series/recurrence switchover
    ell = 30  # switchover sits near 0.2*sqrt(31) ~ 1.11
    lo = riccati_bessel(ell, 1.109 + 0.3j)
    hi = riccati_bessel(ell, 1.117 + 0.3j)
    ratio = (hi.psi * cmath.exp(hi.log_scale)) / (lo.psi * cmath.exp(lo.log_scale))
    # smooth function: nearby arguments give a ratio near (x_hi/x_lo)^(ell+1)
    model = (1.117 + 0.3j) ** 31 / (1.109 + 0.3j) ** 31
    assert abs(ratio / model - 1.0) < 1e-2


def test_impedance_flat_limit():
    # large frequency at fixed ell: TE approaches rho/(z mu0), TM z eps0/rho
    eps, mu, R, ell = 2.0, 1.5, 1.0, 4
    lam = (1 + 0.5j) * 300.0
    sp = split_lambda(lam)
    r0 = sp.h ** 2 * ell * (ell + 1.0) / R ** 2
    rv = sqrt_upper(sp.z ** 2 * eps * mu - r0)
    te = exact_mode_impedance(ell, lam, eps, mu, R, "TE").value
    tm = exact_mode_impedance(ell, lam, eps, mu, R, "TM").value
    assert abs(te - rv / (sp.z * mu)) < 2e-2 * abs(te)
    assert abs(tm - sp.z * eps / rv) < 2e-2 * abs(tm)


def test_interior_resonance_raised():
    # first zero of psi_1 (tan x = x) hits the TE denominator
    lam = 4.493409457909064
    with pytest.raises(InteriorResonance):
        exact_mode_impedance(1, lam, 1.0, 1.0, 1.0, "TE")
    # the TM mode at the same frequency is fine
    val = exact_mode_impedance(1, lam, 1.0, 1.0, 1.0, "TM").value
    assert np.isfinite(val.real)


def test_bad_polarization():
    with pytest.raises(ValueError):
        exact_mode_impedance(1, 2 + 1j, 1.0, 1.0, 1.0, "TEM")


def test_dtn_compare_frequency_region_guard():
    # theta below h^(2/5) is rejected
    with pytest.raises(ConfigError):
        dtn_compare([3], complex(1.0, 1e-3) / 0.01, (1.0, 1.0))


def test_dtn_compare_errors_shrink_with_h():
    rows = {}
    for h in (1 / 40, 1 / 160):
        ell = round(1 / (2 * h))
        out = dtn_compare([ell], complex(1.0, 0.5) / h, (1.0, 1.0))
        for r in out:
            assert not r["resonant"]
            rows[(h, r["pol"])] = r
    for pol in ("TE", "TM"):
        big, small = rows[(1 / 40, pol)], rows[(1 / 160, pol)]
        assert small["err_order0"] < big["err_order0"]
        assert small["err_order1"] < big["err_order1"]
        # the corrector helps at fixed h
        assert small["err_order1"] < small["err_order0"]
