"""Release gate: nine end-to-end checks, one pass/fail line each.

Every check pins a contract of the boundary-symbol construction at a stated
tolerance and a wall-clock budget; expected values come from closed forms or
from independent high-precision references, never from the code under test.
"""

import cmath
import math
import time

import numpy as np
import pytest

from maxdtn.cli import cmd_identities
from maxdtn.config import RunConfig
from maxdtn.crosssys import CrossSystemInput, solve_cross_system
from maxdtn.eikonal import eikonal_coeffs, eikonal_residual
from maxdtn.geometry import GammaSeries, MediaField, ScalarField, SurfaceChart
from maxdtn.mie import dtn_compare, exact_mode_impedance
from maxdtn.numerics import dot
from maxdtn.quantizer import (boundedness_check, composition_defect,
                              operator_norm, quantize)
from maxdtn.spectral import split_lambda
from maxdtn.transmission import (TransmissionConfig, calibrate_C, count_zeros,
                                 locate_zeros, region_is_free, region_scan)
from maxdtn.transport import boundary_symbol, transport_coeffs

from coefficient_oracle import equation_residual
from dense_oracle import cross_solve_oracle


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _skew(v):
    return np.array([[0, -v[2], v[1]],
                     [v[2], 0, -v[0]],
                     [-v[1], v[0], 0]], dtype=complex)


def _cross(u, v):
    # bitwise equal to np.cross for real and complex 3-vectors, at a
    # tenth of its per-call overhead (test_02 makes 50,000 calls)
    return u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]]


# ---------------------------------------------------------------------------


def test_01_identity_suite():
    # six pointwise identities of the frame/covector/symbol algebra on the
    # sphere and on a triaxial ellipsoid, 5000 random points each
    t0 = time.time()
    worst = 0.0
    for chart in ("sphere", "ellipsoid"):
        cfg = RunConfig(chart=chart, npoints=5000, seed=1)
        cfg.validate()
        rows, _, _, _ = cmd_identities(cfg)
        worst = max(worst, max(r[2] for r in rows))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 10.0
    _report("identity-suite", ok,
            f"max relative residual {worst:.3e} (tol 1e-12), {dt:.1f}s")


def test_02_cross_system_oracle():
    # closed-form solver against an independently assembled 6x6 linear
    # system over ten thousand admissible inputs spanning |rho| in
    # [1e-3, 1e3]; residuals of all three equations checked as well
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst_agree = 0.0
    worst_res = 0.0
    n = 0
    while n < 10000:
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        t = rng.normal(size=3)
        t -= (t @ nu) * nu
        t /= np.linalg.norm(t)
        t2 = _cross(nu, t)
        rho = 10 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
        beta = ((rng.normal() + 1j * rng.normal()) * t
                + (rng.normal() + 1j * rng.normal()) * t2)
        r0 = beta @ beta
        eps0 = rng.uniform(0.5, 3)
        mu0 = rng.uniform(0.5, 3)
        # the dispersion relation ties z to (rho, r0); admissible data only
        z = cmath.sqrt((rho * rho + r0) / (eps0 * mu0))
        if abs(z) < 1e-6:
            continue
        n += 1
        psi0 = rho * nu - beta
        a_sh = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = rng.normal() + 1j * rng.normal()
        b_sh = (c * psi0 - _cross(psi0, a_sh)) / (z * mu0)
        g = ((rng.normal() + 1j * rng.normal()) * t
             + (rng.normal() + 1j * rng.normal()) * t2)
        a, b, _ = solve_cross_system(CrossSystemInput(
            nu=nu, beta=beta, rho=rho, z=z, eps0=eps0, mu0=mu0,
            a_sharp=a_sh, b_sharp=b_sh, g=g))
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        M = np.zeros((6, 6), dtype=complex)
        rhs = np.zeros(6, dtype=complex)
        M[0:3, 0:3] = _skew(psi0)
        M[0:3, 3:6] = -z * mu0 * np.eye(3)
        rhs[0:3] = a_sh
        rows = [i for i in range(3) if i != int(np.argmax(np.abs(nu)))]
        Snu = _skew(nu)
        M[3, 0:3] = Snu[rows[0]]
        rhs[3] = g[rows[0]]
        M[4, 0:3] = Snu[rows[1]]
        rhs[4] = g[rows[1]]
        M[5, 0:3] = z * eps0 * psi0
        rhs[5] = psi0 @ b_sh
        x, _ = cross_solve_oracle(M, rhs)
        ao, bo = x[:3], x[3:]
        # relative to the input magnitude through the solution map, whose
        # amplification factor grows like |rho|^-2 at glancing covectors
        amp = max(1.0, 1.0 / abs(rho) ** 2)
        data = max(np.linalg.norm(a_sh), np.linalg.norm(b_sh), np.linalg.norm(g))
        sc = max(np.linalg.norm(a), np.linalg.norm(b), amp * data, 1e-300)
        agree = max(np.linalg.norm(ao - a), np.linalg.norm(bo - b)) / sc
        r1 = np.linalg.norm(_cross(psi0, a) - z * mu0 * b - a_sh)
        r2 = np.linalg.norm(_cross(psi0, b) + z * eps0 * a - b_sh)
        r3 = np.linalg.norm(_cross(nu, a) - g)
        res = max(r1, r2, r3) / sc
        worst_agree = max(worst_agree, agree)
        worst_res = max(worst_res, res)
    dt = time.time() - t0
    ok = worst_res <= 1e-12 and worst_agree <= 1e-11 and dt < 10.0
    _report("cross-system-oracle", ok,
            f"residual {worst_res:.3e} (tol 1e-12), "
            f"oracle agreement {worst_agree:.3e} (tol 1e-11), {dt:.1f}s")


def test_03_eikonal_order():
    # truncation order N delivers an O(x1^N) phase residual; the flat chart
    # terminates exactly
    t0 = time.time()
    sp = split_lambda(5.0 + 2.0j)
    media = MediaField.constant(1.0, 1.0)
    chart = SurfaceChart.sphere(1.0)
    x1s = np.geomspace(1e-4, 1e-1, 13)
    slopes = {}
    ok = True
    for N in range(3, 9):
        gs = GammaSeries(chart, (1.1, 0.3), n1=N + 1, order=N + 3)
        ps = eikonal_coeffs(gs, media, sp, (0.7, -0.4), N=N)
        res = np.array([abs(eikonal_residual(ps, float(t))) for t in x1s])
        keep = res > 1e-13
        slope = np.polyfit(np.log(x1s[keep]), np.log(res[keep]), 1)[0]
        slopes[N] = slope
        ok = ok and slope >= N - 0.3
    gsf = GammaSeries(SurfaceChart.plane(), (0.1, -0.2), n1=5, order=7)
    psf = eikonal_coeffs(gsf, media, sp, (0.7, -0.4), N=4)
    flat = max(abs(eikonal_residual(psf, float(t))) for t in x1s)
    dt = time.time() - t0
    ok = ok and flat <= 1e-13 and dt < 60.0
    _report("eikonal-order", ok,
            "slopes " + " ".join(f"N={N}:{s:.2f}" for N, s in slopes.items())
            + f", flat {flat:.1e} (tol 1e-13), {dt:.1f}s")


def test_04_transport_recursion():
    # coefficient-level check of both first-order equations at every
    # retained slot, the higher-level boundary conditions, and the
    # phase-amplitude normalization
    t0 = time.time()
    sp = split_lambda(5.0 + 2.0j)
    chart = SurfaceChart.sphere(1.0)
    media = MediaField(
        ScalarField("affine", c0=1.3, g1=0.1, g2=-0.05, g3=0.2),
        ScalarField("affine", c0=1.1, g1=-0.07, g2=0.12, g3=0.03))
    N, J = 3, 2
    gs = GammaSeries(chart, (1.1, 0.7), n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, media, sp, (0.4, -0.3), N=N + J)
    table = transport_coeffs(ps, media, N=N, J=J)

    worst_eq = equation_residual(table)

    nu = np.array([c.value.real for c in gs.nu])
    worst_bc = 0.0
    for j in range(1, table.J + 1):
        A = table.matrix("A", j, 0)
        worst_bc = max(worst_bc,
                       max(np.max(np.abs(np.cross(nu, A[:, c]))) for c in range(3)))

    psi, ta = table.psis, table.batched["a"]
    worst_norm = 0.0
    for k in range(table.K[0]):
        acc = None
        for ell in range(k + 1):
            term = dot(psi[k - ell], ta[(0, ell)])
            acc = term if acc is None else acc + term
        worst_norm = max(worst_norm, np.max(np.abs(acc.value)))

    dt = time.time() - t0
    ok = worst_eq <= 1e-10 and worst_bc <= 1e-12 and worst_norm <= 1e-10 and dt < 60.0
    _report("transport-recursion", ok,
            f"equations {worst_eq:.3e} (tol 1e-10), "
            f"boundary {worst_bc:.3e} (tol 1e-12), "
            f"normalization {worst_norm:.3e} (tol 1e-10), {dt:.1f}s")


def test_05_corrector_media_independence():
    # mu0 * m_tilde depends only on geometry and the cotangent point beyond
    # the cutoff support: 100 points x 5 constant media pairs on the sphere
    t0 = time.time()
    sp = split_lambda(5.0 + 2.0j)
    chart = SurfaceChart.sphere(1.0)
    media_pairs = [(1.0, 1.0), (2.0, 1.3), (3.0, 0.7), (1.5, 2.2), (0.8, 1.6)]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        base = (rng.uniform(0.5, math.pi - 0.5), rng.uniform(0.0, 2 * math.pi))
        gs = GammaSeries(chart, base, n1=3, order=3)
        for _ in range(10):
            ang = rng.uniform(0, 2 * math.pi)
            # scale the covector so r0 lands well beyond the cutoff support
            scale = math.sqrt(rng.uniform(25.0, 60.0))
            xi = (scale * math.cos(ang), scale * math.sin(ang) * math.sin(base[0]))
            vals = []
            for e0, m0 in media_pairs:
                med = MediaField.constant(e0, m0)
                # a minimal outer table: the corrector block only needs the
                # frame, the cotangent point, and the media
                ps = eikonal_coeffs(gs, med, sp, xi, N=2)
                tab = transport_coeffs(ps, med, N=2, J=0, scheme="literal",
                                       media_corrections=False)
                vals.append(m0 * boundary_symbol(tab).m_tilde)
            worst = max(worst, max(np.max(np.abs(v - vals[0])) for v in vals[1:]))
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 30.0
    _report("corrector-media-independence", ok,
            f"max entrywise spread {worst:.3e} (tol 1e-10), {dt:.1f}s")


def test_06_dtn_convergence():
    # constructed boundary symbol against the exact per-mode impedance on
    # the unit ball: order-0 error O(h), order-1 error O(h^2)
    t0 = time.time()
    theta = 0.5
    hs = [1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640, 1 / 1280]
    errs = {}
    for h in hs:
        lam = complex(1.0, theta) / h
        ell = round(1.0 / (2.0 * h))
        for r in dtn_compare([ell], lam, (1.0, 1.0)):
            assert not r["resonant"]
            for o in (0, 1):
                errs.setdefault((r["pol"], o), []).append((h, r[f"err_order{o}"]))
    slopes = {}
    ok = True
    for (pol, o), pts in sorted(errs.items()):
        hv, ev = zip(*pts)
        slope = float(np.polyfit(np.log(hv), np.log(ev), 1)[0])
        slopes[(pol, o)] = slope
        ok = ok and slope >= (0.9 if o == 0 else 1.7)
    dt = time.time() - t0
    ok = ok and dt < 300.0
    _report("dtn-convergence", ok,
            ", ".join(f"{p} order-{o}: {s:.2f}" for (p, o), s in slopes.items())
            + f" (need 0.9 / 1.7), {dt:.1f}s")


def test_07_impedance_uniformity():
    # the scaled impedance magnitude |Z| theta^(1/2) / <h ell> stays within
    # a factor of 10 over the whole frequency strip; every (ell, pol) mode of
    # a theta is one batched call, which raises on any interior resonance
    t0 = time.time()
    h = 1.0 / 100.0
    ells = np.arange(1, 201)[:, None]
    bracket = np.sqrt(1.0 + (h * ells) ** 2)
    stats = []
    for theta in np.linspace(0.05, 1.0, 12):
        lam = complex(1.0, theta) / h
        Z = exact_mode_impedance(ells, lam, 1.0, 1.0, 1.0, np.array(["TE", "TM"]))
        stats.append(float(np.max(np.abs(Z) * math.sqrt(theta) / bracket)))
    variation = max(stats) / min(stats)
    dt = time.time() - t0
    ok = variation <= 10.0 and dt < 120.0
    _report("impedance-uniformity", ok,
            f"max/min over theta = {variation:.2f} (tol 10), {dt:.1f}s")


def test_08_eigenvalue_free_region():
    # calibrated parabolic region certified free of transmission
    # eigenvalues by winding counts, with at least one eigenvalue sitting
    # below the curve in the near-real strip
    t0 = time.time()
    cfg = TransmissionConfig(4.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    C = calibrate_C(cfg, 40, 60.0)
    reports = region_scan(cfg, 40, 60.0, C)
    free = region_is_free(reports)
    # known near-real eigenvalue of this configuration (ell = 1, TM)
    box = (2.5, 2.9, 0.5, 0.9)
    found = count_zeros(cfg, 1, "TM", box)
    zs = locate_zeros(cfg, 1, "TM", box)
    below = all(z.imag < C * (z.real + 1.0) ** cfg.exponent for z in zs)
    dt = time.time() - t0
    ok = free and found >= 1 and zs and below and dt < 600.0
    _report("eigenvalue-free-region", ok,
            f"C = {C:.4f}, region free = {free}, "
            f"eigenvalues below the curve: {[f'{z:.4f}' for z in zs]}, {dt:.1f}s")


def test_09_quantizer_contracts():
    # composition defect O(h), exact unit norm for the constant symbol, and
    # the theta^(-1/2) growth of the inverse-root multiplier
    t0 = time.time()
    a = lambda x1, x2, s1, s2: np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
    b = lambda x1, x2, s1, s2: np.cos(x2) * (1.0 + 0.4 * np.sin(s2 - 0.2))
    hs = [2.0 ** -k for k in range(3, 8)]
    _, slope = composition_defect(a, b, hs, n=32)
    norm1 = operator_norm(quantize(
        lambda x1, x2, s1, s2: 1.0 + 0.0 * x1 + 0.0 * s1, hs[0], 32))

    def factory(h, th):
        z2 = complex(1.0, th) ** 2

        def sym(x1, x2, s1, s2):
            w = np.sqrt(z2 - (s1 ** 2 + s2 ** 2))
            w = np.where(w.imag > 0.0, w, -w)
            return 1.0 / w + 0.0 * x1
        return sym

    _, expo = boundedness_check(factory, [0.1], (0.1, 0.2, 0.4, 0.8), n=32)
    dt = time.time() - t0
    ok = (abs(slope - 1.0) <= 0.2 and norm1 == 1.0
          and abs(-expo - 0.5) <= 0.15 and dt < 300.0)
    _report("quantizer-contracts", ok,
            f"composition slope {slope:.2f} (1.0 +- 0.2), |Op(1)| = {norm1}, "
            f"theta exponent {-expo:.2f} (0.5 +- 0.15), {dt:.1f}s")
