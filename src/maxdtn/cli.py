"""Command-line front end: every verification suite as a subcommand.

Each command runs its checks, writes a deterministic CSV report (full
resolved configuration embedded as a # comment header, floats at 17
significant digits), prints one summary line per check, and exits 0 when
everything is within tolerance, 1 on a check failure, 2 on a bad
configuration.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import warnings

import numpy as np

from .config import RunConfig, load_config
from .crosssys import TANGENCY_TOL, CrossSystemInput, solve_cross_system
from .eikonal import eikonal_coeffs, eikonal_residual
from .errors import ConfigError, MaxdtnError
from .geometry import GammaSeries, MediaField, SurfaceChart, \
    beta_from_gamma, gamma_pointwise
from .mie import dtn_compare
from .quantizer import boundedness_check, composition_defect, operator_norm, \
    quantize
from .numerics import sqrt_upper
from .spectral import calB, split_lambda
from .transmission import TransmissionConfig, _calibrate, region_is_free, \
    region_scan, symbol_T
from .transport import maxwell_residual, transport_coeffs


def _fmt(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (tuple, list)):
        return " ".join(_fmt(t) for t in v)
    return str(v)


def _write_csv(path, cfg: RunConfig, columns, rows, summary=()):
    with open(path, "w") as f:
        f.write("# maxdtn report\n")
        for key, val in cfg.items():
            f.write(f"# {key} = {_fmt(val)}\n")
        for line in summary:
            f.write(f"# {line}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _chart(cfg: RunConfig):
    if cfg.chart == "sphere":
        return SurfaceChart.sphere(cfg.radius)
    if cfg.chart == "plane":
        return SurfaceChart.plane()
    return SurfaceChart.ellipsoid(*cfg.axes)


def _media(cfg: RunConfig):
    return MediaField.constant(cfg.eps, cfg.mu)


def _sample_xs(cfg, rng, n):
    if cfg.chart == "plane":
        x2 = rng.uniform(-1.0, 1.0, n)
        x3 = rng.uniform(-1.0, 1.0, n)
    else:
        x2 = rng.uniform(0.4, math.pi - 0.4, n)
        x3 = rng.uniform(0.0, 2.0 * math.pi, n)
    return x2, x3


# ---------------------------------------------------------------------------
# identities


def cmd_identities(cfg: RunConfig, fault_gamma=0.0):
    chart = _chart(cfg)
    sp = split_lambda(cfg.lam)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.npoints
    x2s, x3s = _sample_xs(cfg, rng, n)
    x1s = rng.uniform(0.0, 0.05, n)
    xis = rng.uniform(-3.0, 3.0, (n, 2))
    gs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tcfg = TransmissionConfig(cfg.eps, cfg.mu, cfg.c1,
                                  cfg.eps2, cfg.mu2, cfg.c2, R=cfg.radius)

    def pair(u, v):
        return np.sum(u * v, axis=-1)

    def max_abs(m):
        return np.max(np.abs(m), axis=(-2, -1))

    # every identity is evaluated over all points at once; a point's
    # residual is its own, relative to its own scale
    gam = gamma_pointwise(chart, x2s, x3s, x1s) + fault_gamma
    gam0 = gamma_pointwise(chart, x2s, x3s)         # gamma(x', 0): nu and beta
    nu = gam0[..., :, 0] + fault_gamma
    beta = beta_from_gamma(gam0, xis[:, 0], xis[:, 1]) + fault_gamma
    r0 = pair(beta, beta)
    root = np.sqrt(np.maximum(1.0, r0))
    nu_beta = np.abs(pair(nu, beta))
    B = calB(beta)
    live = r0 > 1e-8
    # the solver rejects a non-tangential covector outright; report it as
    # the cross-system check failing, not a crash (each point on its own scale)
    beta_max = np.max(np.abs(beta), axis=-1)
    tangential = live & (nu_beta <= TANGENCY_TOL * np.maximum(1.0, beta_max))
    worst = {
        "tangent-frame": np.maximum(np.abs(pair(nu, gam[..., 1])),
                                    np.abs(pair(nu, gam[..., 2]))),
        "covector-orthogonality": nu_beta / root,
        "rank-one-square": max_abs(B @ B - r0[:, None, None] * B)
        / np.maximum(1.0, r0 ** 2),
        "two-media-inverse": np.zeros(0),
        "approximate-inverse": np.zeros(0),
    }
    trace = np.full(n, np.inf)
    keep = np.flatnonzero(tangential)
    if keep.size:
        nu_k, beta_k, r0_k, B_k = nu[keep], beta[keep], r0[keep], B[keep]
        rho = sqrt_upper(sp.z ** 2 * cfg.eps * cfg.mu - r0_k)
        g = np.cross(nu_k, gs[keep])
        _, b, _ = solve_cross_system(CrossSystemInput(
            rho=rho, nu=list(nu_k.T), beta=list(beta_k.T), z=sp.z, eps0=cfg.eps,
            mu0=cfg.mu, a_sharp=np.zeros(3, complex), b_sharp=np.zeros(3, complex),
            g=list(g.T)))
        nu_x_g = np.cross(nu_k, g)
        lhs = sp.z * cfg.mu * np.cross(nu_k, np.stack(b, axis=-1))
        rhs = (rho[:, None] * nu_x_g
               + (pair(beta_k, nu_x_g) / rho)[:, None] * beta_k)
        scale = np.maximum(np.maximum(np.max(np.abs(lhs), axis=-1),
                                      np.max(np.abs(rhs), axis=-1)), 1.0)
        trace[keep] = np.max(np.abs(lhs - rhs), axis=-1) / scale
        _, _, Tt, T1 = symbol_T(tcfg, sp, r0_k, beta_k)
        rho1 = rho[:, None, None]
        rho2 = sqrt_upper(sp.z ** 2 * cfg.eps2 * cfg.mu2 - r0_k)[:, None, None]
        eye = np.eye(3)
        prod = ((eye + B_k / (rho1 * rho2 - r0_k[:, None, None]))
                @ (eye - B_k / (rho1 * rho2)))
        worst["two-media-inverse"] = max_abs(prod - eye)
        bracket = np.sqrt(1.0 + r0_k)[:, None, None]
        worst["approximate-inverse"] = max_abs(T1 @ Tt - eye / bracket)
    # the trace identity is checked at every live point; a non-tangential
    # one counts as a failure
    worst["cross-system-trace"] = trace[live]

    # a check over zero points has shown nothing and reads FAIL
    rows, ok = [], True
    for name in sorted(worst):
        res = worst[name]
        top = float(np.max(res)) if res.size else float("nan")
        good = res.size > 0 and top <= cfg.tol
        ok = ok and good
        rows.append((name, res.size, top, cfg.tol, "pass" if good else "FAIL"))
    return rows, ["identity", "points", "max_residual", "tol", "status"], ok, []


# ---------------------------------------------------------------------------
# eikonal


def cmd_eikonal(cfg: RunConfig):
    chart = _chart(cfg)
    media = _media(cfg)
    sp = split_lambda(cfg.lam)
    rng = np.random.default_rng(cfg.seed)
    x2, x3 = [float(v[0]) for v in _sample_xs(cfg, rng, 1)]
    xi = tuple(rng.uniform(-1.5, 1.5, 2))
    rows, ok = [], True
    for N in range(3, max(4, cfg.N + 1)):
        gs = GammaSeries(chart, (x2, x3), n1=N + 1, order=N + 3)
        ps = eikonal_coeffs(gs, media, sp, xi, N=N)
        x1s = np.geomspace(1e-3, 0.5, 12) * ps.x1_max()
        res = np.abs(eikonal_residual(ps, x1s))
        keep = res > 3e-14
        slope = (np.polyfit(np.log(x1s[keep]), np.log(res[keep]), 1)[0]
                 if np.count_nonzero(keep) >= 3 else float("inf"))
        good = slope >= N - 0.3
        ok = ok and good
        rows.append((N, slope, float(res.max()), "pass" if good else "FAIL"))
    # flat chart: the recursion terminates and the residual sits at rounding
    gsf = GammaSeries(SurfaceChart.plane(), (0.1, -0.2), n1=5, order=7)
    psf = eikonal_coeffs(gsf, MediaField.constant(cfg.eps, cfg.mu), sp,
                         (0.7, -0.4), N=4)
    flat = float(np.max(np.abs(eikonal_residual(
        psf, np.linspace(1e-3, psf.x1_max(), 8)))))
    good = flat <= 1e-13
    ok = ok and good
    rows.append(("flat", 0.0, flat, "pass" if good else "FAIL"))
    return rows, ["N", "slope", "max_residual", "status"], ok, []


# ---------------------------------------------------------------------------
# transport residual


def cmd_residual(cfg: RunConfig):
    chart = _chart(cfg)
    media = _media(cfg)
    sp = split_lambda(cfg.lam)
    rng = np.random.default_rng(cfg.seed)
    x2, x3 = [float(v[0]) for v in _sample_xs(cfg, rng, 1)]
    xi = tuple(rng.uniform(-1.5, 1.5, 2))
    N, J = cfg.N, cfg.J
    gs = GammaSeries(chart, (x2, x3), n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, media, sp, xi, N=N + J)
    table = transport_coeffs(ps, media, N=N, J=J)
    x1s = np.geomspace(3e-4, 3e-2, 8)
    r1, r2 = np.max(np.abs(maxwell_residual(table, x1s, h=1e-6,
                                            ftilde=(0.3, -0.5, 0.8))), axis=-1)
    rows = [(float(x1), float(a), float(b)) for x1, a, b in zip(x1s, r1, r2)]
    res = np.maximum(r1, r2)
    keep = res > 3e-14
    slope = (np.polyfit(np.log(x1s[keep]), np.log(res[keep]), 1)[0]
             if np.count_nonzero(keep) >= 3 else float("inf"))
    good = slope >= N + J - 0.7
    summary = [f"fitted x1 slope = {_fmt(float(slope))} (expected >= {N + J - 0.7})"]
    return rows, ["x1", "residual_eq1", "residual_eq2"], bool(good), summary


# ---------------------------------------------------------------------------
# dtn-compare


def cmd_dtn_compare(cfg: RunConfig):
    rows = []
    errs = {}
    hs = sorted(cfg.h_list, reverse=True)
    # one (ell, lam) per h, every h in one call; its rows come TE, TM per h
    ells = [max(1, round(1.0 / (2.0 * h))) for h in hs]
    lams = [complex(1.0, cfg.theta) / h for h in hs]
    out = dtn_compare(ells, lams, (cfg.eps, cfg.mu), R=cfg.radius)
    for h, r in zip(np.repeat(hs, 2), out):
        if r["resonant"]:
            rows.append((r["ell"], r["pol"], r["lam_re"], r["lam_im"],
                         float("nan"), float("nan"),
                         float("nan"), float("nan")))
            continue
        rows.append((r["ell"], r["pol"], r["lam_re"], r["lam_im"],
                     r["exact"].real, r["exact"].imag,
                     r["err_order0"], r["err_order1"]))
        for o in (0, 1):
            errs.setdefault((r["pol"], o), []).append((h, r[f"err_order{o}"]))
    # a slope needs two distinct h: a pair with fewer (an empty h_list,
    # resonant modes) has shown nothing, so its slope is nan and reads FAIL
    ok = True
    summary = []
    for pol, o in itertools.product(("TE", "TM"), (0, 1)):
        pts = errs.get((pol, o), [])
        slope = float("nan")
        if len({h for h, _ in pts}) >= 2:
            hs, es = zip(*pts)
            slope = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
        need = 0.9 if o == 0 else 1.7
        good = slope >= need
        ok = ok and good
        summary.append(f"{pol} order-{o} slope = {_fmt(slope)} "
                       f"(required >= {need}) {'pass' if good else 'FAIL'}")
    cols = ["ell", "pol", "lam_re", "lam_im", "exact_re", "exact_im",
            "err_order0", "err_order1"]
    return rows, cols, ok, summary


# ---------------------------------------------------------------------------
# te-scan


def cmd_te_scan(cfg: RunConfig):
    tcfg = TransmissionConfig(cfg.eps, cfg.mu, cfg.c1,
                              cfg.eps2, cfg.mu2, cfg.c2, R=cfg.radius)
    C, witness = (_calibrate(tcfg, cfg.ell_max, cfg.re_max) if cfg.calibrate
                  else (cfg.region_C, None))
    reports = region_scan(tcfg, cfg.ell_max, cfg.re_max, C)
    rows = [(r.re0, r.re1, r.im0, r.im1, r.ell, r.pol, r.winding)
            for r in reports]
    free = region_is_free(reports)
    violators = [z for r in reports for z in r.violators]
    top = max(r.im1 for r in reports)
    summary = [f"C = {_fmt(float(C))}"]
    if witness is not None:
        c_star, ell, pol, z = witness
        summary.append(f"C* = {_fmt(c_star)} set by ell = {ell} {pol} at {_fmt(z)}")
    summary += [f"total winding = {sum(r.winding for r in reports)}",
                f"region free = {free}",
                f"scanned up to Im = {_fmt(top)}; the band above is not examined",
                f"modes scanned: ell = 1..{cfg.ell_max}, TE and TM; higher ell are not examined"]
    summary += [f"violator: {_fmt(z)}" for z in violators[:20]]
    ok = free if cfg.certify else True
    cols = ["re0", "re1", "im0", "im1", "ell", "pol", "winding"]
    return rows, cols, ok, summary


# ---------------------------------------------------------------------------
# quantizer


def _defect_pair():
    a = lambda x1, x2, s1, s2: np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
    b = lambda x1, x2, s1, s2: np.cos(x2) * (1.0 + 0.4 * np.sin(s2 - 0.2))
    return a, b


def _rho_inverse_factory(eps, mu):
    def factory(h, th):
        z2 = complex(1.0, th) ** 2 * eps * mu

        def a(x1, x2, s1, s2):
            w = np.sqrt(z2 - (s1 ** 2 + s2 ** 2))
            w = np.where(w.imag > 0.0, w, -w)
            return 1.0 / w
        return a
    return factory


def cmd_quantizer(cfg: RunConfig):
    n = cfg.grid_n
    h_all = sorted(cfg.h_list, reverse=True)
    hs = [h for h in h_all if h >= 2 ** -9]
    skipped = [h for h in h_all if h < 2 ** -9]
    if not hs:
        raise ConfigError(f"no h_list entry is >= 2^-9 (dropped {list(cfg.h_list)})")
    a, b = _defect_pair()
    defects, slope = composition_defect(a, b, hs, n=n)
    norm1 = operator_norm(quantize(lambda x1, x2, s1, s2: 1.0, hs[0], n))
    rows_b, expo = boundedness_check(_rho_inverse_factory(cfg.eps, cfg.mu),
                                     [0.1], cfg.thetas, n=max(n, 32))
    rows = [(h, float("nan"), float(d), float("nan")) for h, d in zip(hs, defects)]
    rows += [(h, th, float("nan"), float(r)) for (h, th, r) in rows_b]
    ok = (abs(slope - 1.0) <= 0.2 and abs(norm1 - 1.0) <= 1e-12
          and abs(-expo - 0.5) <= 0.15)
    summary = [f"composition slope = {_fmt(float(slope))} (1.0 +- 0.2)",
               f"|Op(1)| = {_fmt(float(norm1))}",
               f"theta exponent = {_fmt(float(-expo))} (0.5 +- 0.15)"]
    if skipped:
        summary.append(f"skipped h below 2^-9, not run: {_fmt(skipped)}")
    cols = ["h", "theta", "defect_norm", "bound_norm"]
    return rows, cols, ok, summary


# ---------------------------------------------------------------------------


_COMMANDS = {
    "identities": cmd_identities,
    "eikonal": cmd_eikonal,
    "residual": cmd_residual,
    "dtn-compare": cmd_dtn_compare,
    "te-scan": cmd_te_scan,
    "quantizer": cmd_quantizer,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="maxdtn",
        description="Boundary-symbol verification suites for the Maxwell "
                    "Dirichlet-to-Neumann map")
    p.add_argument("command", choices=sorted(_COMMANDS),
                   help="which verification suite to run")
    p.add_argument("--config", help="INI file with a [run] section")
    p.add_argument("--output-dir", help="directory for the CSV report")
    p.add_argument("--seed", type=int, help="seed for random test points")
    p.add_argument("--fault-gamma", type=float, default=0.0,
                   help="test hook: perturb the boundary frame by this much")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg.command = args.command
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "identities":
            rows, cols, ok, summary = cmd_identities(cfg, args.fault_gamma)
        else:
            rows, cols, ok, summary = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"{args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except MaxdtnError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, f"{args.command.replace('-', '_')}.csv")
    _write_csv(out, cfg, cols, rows, summary)
    for line in summary:
        print(line)
    print(f"{args.command}: {'pass' if ok else 'FAIL'} ({out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
