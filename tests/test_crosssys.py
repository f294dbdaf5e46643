"""Closed-form cross-product system solver against the dense 6x6 oracle."""

import cmath

import numpy as np
import pytest

from maxdtn.crosssys import CrossSystemInput, solve_cross_system
from maxdtn.errors import DegenerateRho
from maxdtn.jets import Jet
from maxdtn.numerics import dot

from dense_oracle import cross_solve_oracle, skew


def _sample(rng):
    """One admissible input with the dispersion relation rho^2 + r0 = z^2 e m."""
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    t = rng.normal(size=3)
    t -= (t @ nu) * nu
    t /= np.linalg.norm(t)
    t2 = np.cross(nu, t)
    rho = 10 ** rng.uniform(-2, 2) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
    beta = ((rng.normal() + 1j * rng.normal()) * t
            + (rng.normal() + 1j * rng.normal()) * t2)
    r0 = beta @ beta
    eps0, mu0 = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
    z = cmath.sqrt((rho * rho + r0) / (eps0 * mu0))
    psi0 = rho * nu - beta
    a_sh = rng.normal(size=3) + 1j * rng.normal(size=3)
    c = rng.normal() + 1j * rng.normal()
    # the mu- and eps-equations are jointly solvable only when
    # psi0 x a# + z mu0 b# lies in the span of psi0
    b_sh = (c * psi0 - np.cross(psi0, a_sh)) / (z * mu0)
    g = ((rng.normal() + 1j * rng.normal()) * t
         + (rng.normal() + 1j * rng.normal()) * t2)
    return dict(nu=nu, beta=beta, rho=rho, z=z, eps0=eps0, mu0=mu0,
                a_sharp=a_sh, b_sharp=b_sh, g=g), psi0


def test_solution_satisfies_all_equations():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        kw, psi0 = _sample(rng)
        if abs(kw["z"]) < 1e-6:
            continue
        a, b, _ = solve_cross_system(CrossSystemInput(**kw))
        a, b = np.asarray(a, complex), np.asarray(b, complex)
        z, mu0, eps0 = kw["z"], kw["mu0"], kw["eps0"]
        r1 = np.linalg.norm(np.cross(psi0, a) - z * mu0 * b - kw["a_sharp"])
        r2 = np.linalg.norm(np.cross(psi0, b) + z * eps0 * a - kw["b_sharp"])
        r3 = np.linalg.norm(np.cross(kw["nu"], a) - kw["g"])
        amp = max(1.0, 1.0 / abs(kw["rho"]) ** 2)
        scale = amp * max(np.linalg.norm(kw["a_sharp"]),
                          np.linalg.norm(kw["b_sharp"]),
                          np.linalg.norm(kw["g"]),
                          np.linalg.norm(a), np.linalg.norm(b))
        worst = max(worst, max(r1, r2, r3) / scale)
    assert worst < 1e-12


def test_nu_cross_b_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(100):
        kw, _ = _sample(rng)
        if abs(kw["z"]) < 1e-6:
            continue
        a, b, nxb = solve_cross_system(CrossSystemInput(**kw))
        b = np.asarray(b, complex)
        direct = np.cross(kw["nu"], b)
        err = np.linalg.norm(np.asarray(nxb, complex) - direct)
        assert err < 1e-10 * max(1.0, np.linalg.norm(direct))


def test_against_dense_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(500):
        kw, psi0 = _sample(rng)
        if abs(kw["z"]) < 1e-6:
            continue
        a, b, _ = solve_cross_system(CrossSystemInput(**kw))
        a, b = np.asarray(a, complex), np.asarray(b, complex)
        z, mu0, eps0, nu = kw["z"], kw["mu0"], kw["eps0"], kw["nu"]
        M = np.zeros((6, 6), dtype=complex)
        rhs = np.zeros(6, dtype=complex)
        M[0:3, 0:3] = np.array(skew(list(psi0)))
        M[0:3, 3:6] = -z * mu0 * np.eye(3)
        rhs[0:3] = kw["a_sharp"]
        rows = [i for i in range(3) if i != int(np.argmax(np.abs(nu)))]
        Snu = np.array(skew(list(nu)))
        M[3, 0:3], rhs[3] = Snu[rows[0]], kw["g"][rows[0]]
        M[4, 0:3], rhs[4] = Snu[rows[1]], kw["g"][rows[1]]
        # eps-equation content along psi0 (its other components follow from
        # the mu-equation once the data is admissible)
        M[5, 0:3], rhs[5] = z * eps0 * psi0, psi0 @ kw["b_sharp"]
        x, _ = cross_solve_oracle(M, rhs)
        amp = max(1.0, 1.0 / abs(kw["rho"]) ** 2)
        data = max(np.linalg.norm(kw["a_sharp"]), np.linalg.norm(kw["b_sharp"]),
                   np.linalg.norm(kw["g"]))
        sc = max(np.linalg.norm(a), np.linalg.norm(b), amp * data)
        worst = max(worst, max(np.linalg.norm(x[:3] - a),
                               np.linalg.norm(x[3:] - b)) / sc)
    assert worst < 1e-12


def test_degenerate_rho_rejected():
    kw, _ = _sample(np.random.default_rng(45))
    kw["rho"] = 1e-15
    with pytest.raises(DegenerateRho):
        CrossSystemInput(**kw)


def test_nontangential_beta_rejected():
    kw, _ = _sample(np.random.default_rng(46))
    kw["beta"] = kw["beta"] + 0.1 * kw["nu"]
    with pytest.raises(ValueError, match="rejected, not projected"):
        CrossSystemInput(**kw)


def test_nontangential_g_rejected():
    kw, _ = _sample(np.random.default_rng(47))
    kw["g"] = kw["g"] + 0.1 * kw["nu"]
    with pytest.raises(ValueError, match="rejected, not projected"):
        CrossSystemInput(**kw)


def test_tangency_checked_per_point():
    # each point against its own scale max(1, max_i |beta_i|): a point with
    # |beta| ~ 1 and <beta,nu> = 1e-10 is rejected alone and beside a
    # tangential point with |beta| = 1e4
    nu = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    beta = np.array([[1e-10, 1.0, 0.0], [0.0, 1e4, 0.0]])
    kw = dict(rho=np.array([1.0 + 1.0j, 2.0 + 1.0j]), z=1.0 + 0.5j, eps0=1.0, mu0=1.0,
              a_sharp=np.zeros(3), b_sharp=np.zeros(3), g=np.zeros((2, 3)))
    for rows in ([0], [0, 1]):
        with pytest.raises(ValueError, match="<beta,nu> != 0"):
            CrossSystemInput(nu=nu[rows], beta=beta[rows], **dict(kw, rho=kw["rho"][rows]))
    CrossSystemInput(nu=nu[[1]], beta=beta[[1]], **dict(kw, rho=kw["rho"][[1]]))
    g = np.array([[1e-10, 0.0, 1.0], [0.0, 0.0, 1e4]])
    with pytest.raises(ValueError, match="<g,nu> != 0"):
        CrossSystemInput(nu=nu, beta=np.zeros((2, 3)), **dict(kw, g=g))


def test_batch_matches_each_point():
    # a batch of points, arrays with a last axis of 3 components, solves
    # every point as its own input (one z, eps0, mu0 for the batch)
    rng = np.random.default_rng(48)
    kws = [_sample(rng)[0] for _ in range(4)]
    shared = {name: kws[0][name] for name in ("z", "eps0", "mu0")}
    kws = [dict(kw, **shared) for kw in kws]
    batch = {name: np.array([kw[name] for kw in kws])
             for name in ("rho", "nu", "beta", "a_sharp", "b_sharp", "g")}
    got = solve_cross_system(CrossSystemInput(**batch, **shared))
    for p, kw in enumerate(kws):
        one = solve_cross_system(CrossSystemInput(**kw))
        for g, w in zip(got, one):
            assert g.shape == (4, 3)
            assert np.max(np.abs(g[p] - w)) <= 1e-14 * max(1.0, np.max(np.abs(w)))


def test_jet_valued_inputs():
    # jets pass validation structurally and the solution satisfies the
    # equations at the jet level (constant terms checked here)
    order = 3
    x2 = Jet.variable("x2", 0.1, order)
    zero = 0.0 * x2
    nu = Jet.stack([1.0 + zero, zero, zero])
    beta = Jet.stack([zero, 1.2 + 0.3 * x2, zero])
    rho = Jet.constant(0.8 + 1.1j, order)
    z = 1.0 + 0.4j
    inp = CrossSystemInput(rho=rho, nu=nu, beta=beta, z=z, eps0=1.5, mu0=1.1,
                           a_sharp=Jet.stack([zero] * 3), b_sharp=Jet.stack([zero] * 3),
                           g=Jet.stack([zero, zero, 0.5 + zero]))
    a, b, _ = solve_cross_system(inp)
    assert a.batch == b.batch == (3,)
    av, bv = a.value, b.value
    psi0 = np.array([complex(rho.value), 0.0, 0.0]) - beta.value
    r1 = np.cross(psi0, av) - z * 1.1 * bv
    assert np.max(np.abs(r1)) < 1e-12
    nuv = np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(np.cross(nuv, av) - np.array([0, 0, 0.5]))) < 1e-12
