"""Riccati-Bessel evaluation and exact per-mode impedances on the ball."""

import cmath
import math

import numpy as np
import pytest

import maxdtn.mie
import maxdtn.transport
from maxdtn.errors import ConfigError, InteriorResonance
from maxdtn.mie import dtn_compare, exact_mode_impedance, riccati_bessel
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
        # true values are the normalized pair times e^{log_scale}
        r0 = riccati_bessel(0, x)
        fac = cmath.exp(r0.log_scale)
        assert abs(r0.psi * fac - cmath.sin(x)) < 1e-12 * max(1.0, abs(cmath.sin(x)))
        assert abs(r0.dpsi * fac - cmath.cos(x)) < 1e-12 * max(1.0, abs(cmath.cos(x)))
        r1 = riccati_bessel(1, x)
        want = cmath.sin(x) / x - cmath.cos(x)
        assert abs(r1.psi * cmath.exp(r1.log_scale) - want) < 1e-11 * max(1.0, abs(want))


def riccati_second(ell, x):
    """Second-kind pair (chi_ell(x), chi_ell'(x)), chi_l = -x y_l(x), by the
    upward recurrence, which is stable for chi (the dominant solution).
    Unscaled, so only for moderate |Im x|."""
    pm, p = -cmath.sin(x), cmath.cos(x)          # chi_{-1}, chi_0
    for n in range(ell):
        pm, p = p, (2.0 * n + 1.0) / x * p - pm
    return p, pm - (ell / x) * p


def test_wronskian_with_second_kind():
    # psi chi' - psi' chi = -1; kept to moderate |Im x| where the product
    # does not cancel catastrophically in double precision
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(60):
        ell = int(rng.integers(0, 50))
        x = complex(rng.uniform(0.5, 60), rng.uniform(-5, 5))
        p = riccati_bessel(ell, x)
        chi, dchi = riccati_second(ell, x)
        w = (p.psi * dchi - p.dpsi * chi) * cmath.exp(p.log_scale)
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
    # far from the axis the scale carries e^{|Im x|}, and the scale-free
    # log-derivative still matches sin/cos asymptotics
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
    te = exact_mode_impedance(ell, lam, eps, mu, R, "TE")
    tm = exact_mode_impedance(ell, lam, eps, mu, R, "TM")
    assert abs(te - rv / (sp.z * mu)) < 2e-2 * abs(te)
    assert abs(tm - sp.z * eps / rv) < 2e-2 * abs(tm)


def test_interior_resonance_raised():
    # first zero of psi_1 (tan x = x) hits the TE denominator
    lam = 4.493409457909064
    with pytest.raises(InteriorResonance):
        exact_mode_impedance(1, lam, 1.0, 1.0, 1.0, "TE")
    # the TM mode at the same frequency is fine
    val = exact_mode_impedance(1, lam, 1.0, 1.0, 1.0, "TM")
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


def test_dtn_slopes_across_ell_h():
    # at theta = 0.5 the symbol's errors fall like h (order 0) and h^2
    # (order 1) at every ell h, through glancing (ell h = 1) too
    hs = (1 / 40, 1 / 80, 1 / 160)
    errs = {}
    for h in hs:
        ells = [round(eh / h) for eh in (0.25, 1.0, 2.0)]
        for r in dtn_compare(ells, complex(1.0, 0.5) / h, (1.0, 1.0)):
            assert not r["resonant"]
            for o in (0, 1):
                errs.setdefault((r["ell"] * h, r["pol"], o), []).append(r[f"err_order{o}"])
    assert len(errs) == 3 * 2 * 2
    for (_, _, o), e in errs.items():
        slope = np.polyfit(np.log(hs), np.log(e), 1)[0]
        assert slope >= (0.9 if o == 0 else 1.7)


def test_orders_must_be_nonnegative_integers():
    # a fractional order would run as its integer part (the impedance at
    # 1.7 as the ell = 1 one), and a negative order has no pair
    for ell in (2.5, 1.7, -1, np.array([1, 2.5]), np.array([[0], [-3]])):
        with pytest.raises(ValueError, match="nonnegative integers"):
            riccati_bessel(ell, 1.3 + 0.2j)
        with pytest.raises(ValueError, match="nonnegative integers"):
            exact_mode_impedance(ell, 2 + 1j, 1.0, 1.0, 1.0, "TE")
    # an integer-valued float is an order
    assert riccati_bessel(2.0, 1.3) == riccati_bessel(2, 1.3)


def test_dtn_compare_builds_one_symbol_for_every_ell_lam(monkeypatch):
    # ell and lam broadcast: both truncation orders of all 3 x 2 (ell, lam)
    # are read from one batched boundary-symbol build and the exact values
    # from one Riccati call, and every row equals the row of its own
    # dtn_compare: the exact value and err_order0 within 1e-12 relative.
    # err_order1 (1e-6..1e-4 here) is a difference of two nearly equal
    # numbers, so a last-bit change of the exact value (numpy rounds a
    # batched product differently from a one-element one) moves it by up to
    # 4e-12 relative; it is held to 1e-15 absolute, a few ulp of |exact|
    calls = {"boundary_symbol": [], "riccati_bessel": []}

    def counting(name):
        original = getattr(maxdtn.mie, name)

        def wrapper(*args, **kwargs):
            calls[name].append(1)
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(maxdtn.mie, name, counting(name))
    ells = np.array([[10], [20], [30]])
    lams = np.array([complex(1.0, 0.5) * 40, complex(1.0, 0.6) * 60])
    rows = dtn_compare(ells, lams, (1.3, 0.9))
    assert {k: len(v) for k, v in calls.items()} == {"boundary_symbol": 1, "riccati_bessel": 1}
    assert [(r["ell"], r["lam_re"], r["pol"]) for r in rows] == [
        (e, lam.real, p) for e in (10, 20, 30) for lam in lams for p in ("TE", "TM")]
    for r in rows:
        lam = complex(r["lam_re"], r["lam_im"])
        one, = [s for s in dtn_compare([r["ell"]], lam, (1.3, 0.9)) if s["pol"] == r["pol"]]
        assert abs(r["exact"] - one["exact"]) <= 1e-12 * abs(one["exact"])
        assert abs(r["err_order0"] - one["err_order0"]) <= 1e-12 * one["err_order0"]
        assert abs(r["err_order1"] - one["err_order1"]) <= 1e-15


def test_dtn_compare_builds_no_flattened_corrector(monkeypatch):
    # dtn_compare reads m and m_tilde_full only, so the flattened phase of
    # m_tilde is never run
    flattened = []
    phase = maxdtn.transport.eikonal_coeffs

    def recording(*args, **kwargs):
        flattened.append(kwargs.get("flattened", False))
        return phase(*args, **kwargs)

    monkeypatch.setattr(maxdtn.transport, "eikonal_coeffs", recording)
    rows = dtn_compare([20], complex(1.0, 0.5) / (1 / 40), (1.0, 1.0))
    assert len(rows) == 2
    assert not any(flattened)


def test_dtn_compare_one_riccati_pair_per_ell(monkeypatch):
    # TE and TM impedances are read from one Riccati pair at x = kR, and
    # match exact_mode_impedance exactly
    calls = []
    pair = maxdtn.mie.riccati_bessel

    def counting(*args, **kwargs):
        calls.append(args)
        return pair(*args, **kwargs)

    monkeypatch.setattr(maxdtn.mie, "riccati_bessel", counting)
    lam = complex(1.0, 0.5) / (1 / 40)
    rows = dtn_compare([20], lam, (1.3, 0.9))
    assert len(calls) == 1
    for r in rows:
        assert r["exact"] == exact_mode_impedance(20, lam, 1.3, 0.9, 1.0, r["pol"])


# orders on both sides of every regime boundary: the order-0 closed form,
# the l-dependent series radius 0.2 sqrt(l+1), and the renormalization of
# the ratio product every _RENORM_EVERY = 32 orders
ORDERS = np.array([0, 1, 5, 31, 32, 33, 40, 64])


def test_array_of_orders_matches_per_order_calls():
    # one sweep started for the largest order serves every order; each
    # order equals its own call, whose sweep starts lower
    assert maxdtn.mie._RENORM_EVERY == 32
    xs = np.array([0j, 0.15, 0.3 + 0.1j, 1.2 - 0.3j, math.pi, 3 + 4j,
                   12 - 5j, 25 + 10j, 10 + 400j])
    batch = riccati_bessel(ORDERS[:, None], xs)
    shape = (len(ORDERS), len(xs))
    assert batch.psi.shape == batch.dpsi.shape == batch.log_scale.shape == shape
    for i, ell in enumerate(ORDERS.tolist()):
        one = riccati_bessel(ell, xs)
        shift = np.exp(batch.log_scale[i] - one.log_scale)
        for got, want in ((batch.psi[i], one.psi), (batch.dpsi[i], one.dpsi)):
            assert np.all(np.abs(got * shift - want) <= 1e-14 * np.abs(want))
    # a scalar argument keeps only the order axis
    at = riccati_bessel(ORDERS, 3 + 4j)
    assert at.psi.shape == (len(ORDERS),)
    assert np.array_equal(at.psi, batch.psi[:, 5])


def test_array_of_orders_against_mpmath():
    mp = pytest.importorskip("mpmath")

    def pair(ell, x):
        with mp.workdps(40):
            x = mp.mpc(x)
            psi = lambda n: mp.sqrt(mp.pi * x / 2) * mp.besselj(n + mp.mpf(1) / 2, x)
            p = psi(ell)
            return p, mp.cos(x) if ell == 0 else psi(ell - 1) - ell / x * p

    radius = 0.2 * np.sqrt(ORDERS + 1.0)
    xs = [
        # each order's series radius, just inside and just outside
        *(r * f * cmath.exp(0.7j) for r in radius for f in (0.999, 1.001)),
        # psi_0 = sin x vanishes at pi: the sweep's cot x check fails there
        # and the series takes over
        math.pi, 2 * math.pi,
        # the sweep, with orders past 32 renormalized; |Im x| > 300 scaled
        3 + 4j, 25 + 10j, 60 - 20j, 10 + 400j, 3 - 350j,
    ]
    fallback = maxdtn.mie._sweep(ORDERS, np.array([math.pi + 0j]))[3]
    assert fallback[0] > 1e-8
    rp = riccati_bessel(ORDERS[:, None], np.array(xs))
    assert rp.log_scale[:, -1].min() > 300.0
    worst = 0.0
    for i, ell in enumerate(ORDERS.tolist()):
        for j, x in enumerate(xs):
            ref = pair(ell, x)
            with mp.workdps(40):
                fac = mp.exp(rp.log_scale[i, j])
                for got, want in ((rp.psi[i, j], ref[0]), (rp.dpsi[i, j], ref[1])):
                    worst = max(worst, float(abs(mp.mpc(got) * fac - want) / abs(want)))
    assert worst <= 1e-10
    # deep decay: the ratio product leaves [1e-150, 1e150] and its
    # exponent is carried in log_scale
    deep = riccati_bessel(np.array([[150], [200]]), np.array([3 + 0.5j, 3.3 + 1j]))
    assert deep.log_scale.max() < -300.0
    for i, ell in enumerate((150, 200)):
        for j, x in enumerate((3 + 0.5j, 3.3 + 1j)):
            ref = pair(ell, x)
            with mp.workdps(40):
                fac = mp.exp(deep.log_scale[i, j])
                for got, want in ((deep.psi[i, j], ref[0]), (deep.dpsi[i, j], ref[1])):
                    assert abs(mp.mpc(got) * fac - want) <= 1e-10 * abs(want)
    zero = riccati_bessel(ORDERS, 0.0)
    assert np.all(zero.psi == 0.0)
    assert np.array_equal(zero.dpsi, (ORDERS == 0).astype(complex))


def test_pairs_are_normalized_in_every_regime():
    # every (order, element) is scaled by a power of two into
    # max(|psi|, |psi'|) in [1, 2); a vanishing pair keeps log_scale = 0
    xs = np.array([0j, 0.05 + 0.02j, 0.3 + 0.1j, math.pi, 3 + 0.5j, 25 + 10j,
                   10 + 400j, 3 - 350j])
    rp = riccati_bessel(np.array([0, 1, 7, 40, 150, 200])[:, None], xs)
    big = np.maximum(np.abs(rp.psi), np.abs(rp.dpsi))
    live = big > 0.0
    assert np.all((big[live] >= 1.0) & (big[live] < 2.0))
    assert np.all(rp.log_scale[~live] == 0.0)
    assert np.count_nonzero(~live) == 5      # x = 0 at every order above 0
    # the scale spans far past the double range in both directions
    assert rp.log_scale.min() < -800.0 and rp.log_scale.max() > 300.0


def test_orders_and_arguments_broadcast():
    # (ell, x) broadcast like numpy; each element equals its own scalar call
    ells = np.array([[0], [3], [33]])
    xs = np.array([[0.2 + 0.1j, 3 + 4j], [12 - 5j, 10 + 400j]])
    rp = riccati_bessel(ells[:, :, None], xs)
    assert rp.psi.shape == rp.dpsi.shape == rp.log_scale.shape == (3, 2, 2)
    for i, ell in enumerate(ells[:, 0].tolist()):
        for j, k in np.ndindex(xs.shape):
            one = riccati_bessel(ell, complex(xs[j, k]))
            shift = cmath.exp(rp.log_scale[i, j, k] - one.log_scale)
            for got, want in ((rp.psi[i, j, k], one.psi), (rp.dpsi[i, j, k], one.dpsi)):
                assert abs(got * shift - want) <= 1e-14 * abs(want)
    # repeated orders and an order axis against one argument
    same = riccati_bessel(np.array([5, 2, 5]), 3 + 4j)
    assert same.psi.shape == (3,) and same.psi[0] == same.psi[2]
    assert isinstance(riccati_bessel(2, 3 + 4j).psi, complex)


def test_each_argument_swept_once(monkeypatch):
    # one sweep per argument, up to the largest order, serves every order
    seen = []
    sweep = maxdtn.mie._sweep

    def recording(ells, x):
        seen.append((ells.max(), x.size))
        return sweep(ells, x)

    monkeypatch.setattr(maxdtn.mie, "_sweep", recording)
    riccati_bessel(np.array([[4], [9], [4], [1]]), np.array([3 + 1j, 7 - 2j, 12 + 0.5j]))
    assert seen == [(9, 3)]


def test_batched_impedances_match_scalar_calls():
    ells = np.arange(1, 41)[:, None]
    pols = np.array(["TE", "TM"])
    for lam in (complex(1.0, 0.3) / 0.05, 2.0 + 0.7j):
        Z = exact_mode_impedance(ells, lam, 1.3, 0.9, 1.0, pols)
        assert Z.shape == (40, 2)
        for (i, p), z in np.ndenumerate(Z):
            one = exact_mode_impedance(i + 1, lam, 1.3, 0.9, 1.0, pols[p])
            assert abs(z - one) <= 1e-13 * abs(one)
    # lam broadcasts as well
    lams = np.array([2.0 + 0.7j, 3.0 + 0.2j])
    Z = exact_mode_impedance(3, lams, 1.3, 0.9, 1.0, "TM")
    assert Z.shape == (2,)
    one = exact_mode_impedance(3, lams[1], 1.3, 0.9, 1.0, "TM")
    assert abs(Z[1] - one) <= 1e-14 * abs(one)


def test_batched_resonance_names_the_mode():
    # psi_1 vanishes at the first root of tan x = x: only (1, TE) is resonant
    lam = 4.493409457909064
    with pytest.raises(InteriorResonance, match=r"ell=1, TE.*x = 4\.49341"):
        exact_mode_impedance(np.array([[2], [1]]), lam, 1.0, 1.0, 1.0, np.array(["TM", "TE"]))
    Z = exact_mode_impedance(np.array([2, 1]), lam, 1.0, 1.0, 1.0, "TM")
    assert np.all(np.isfinite(Z))


def test_dtn_compare_one_riccati_call_for_every_ell(monkeypatch):
    # several ell share one Riccati call, and each row equals the row of
    # its own dtn_compare to rounding
    calls = []
    pair = maxdtn.mie.riccati_bessel

    def counting(*args, **kwargs):
        calls.append(args)
        return pair(*args, **kwargs)

    monkeypatch.setattr(maxdtn.mie, "riccati_bessel", counting)
    lam = complex(1.0, 0.5) / (1 / 40)
    rows = dtn_compare([10, 20, 30], lam, (1.3, 0.9))
    assert len(calls) == 1
    assert [(r["ell"], r["pol"]) for r in rows] == [(e, p) for e in (10, 20, 30) for p in ("TE", "TM")]
    for r in rows:
        one, = [s for s in dtn_compare([r["ell"]], lam, (1.3, 0.9)) if s["pol"] == r["pol"]]
        assert abs(r["exact"] - one["exact"]) <= 1e-14 * abs(one["exact"])
        assert r["err_order0"] == pytest.approx(one["err_order0"], rel=1e-6)


def test_dtn_compare_flags_resonant_rows_from_the_mask(monkeypatch):
    # with a resonance floor above 1 every mode counts as resonant: its rows
    # are flagged, carry no errors, and no symbol is built
    monkeypatch.setattr(maxdtn.mie, "_RESONANCE_FLOOR", 2.0)
    builds = []
    monkeypatch.setattr(maxdtn.mie, "boundary_symbol", lambda *a: builds.append(a))
    rows = dtn_compare([10, 20], complex(1.0, 0.5) / (1 / 40), (1.0, 1.0))
    assert len(rows) == 4
    assert all(r["resonant"] and r["exact"] is None and "err_order0" not in r for r in rows)
    assert builds == []
