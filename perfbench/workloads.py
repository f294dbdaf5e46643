"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload drives maxdtn as a CLI user does: it builds a RunConfig,
calls the ``cli.cmd_*`` function and writes the CSV report.  symbol-sweep
also calls the symbol pipeline through the public API.  maxdtn functions
are looked up on their modules at call time, so the tracer's wrappers see
these calls too.

Pass k of a run gets fresh inputs drawn from (seed, k): no pass can reuse
another's results, and one seed always gives the same sequence.  The checks
run outside the timed section, on the first pass's outputs, against
mpmath, closed forms, fits made by the benchmark or the constants of a
contract, never against a tolerance or verdict the program chose.
"""

import math
import os
from collections import namedtuple
from contextlib import nullcontext

import numpy as np

from maxdtn import cli, eikonal, geometry, jets, mie, transmission, transport
from maxdtn.config import RunConfig
from maxdtn.errors import MaxdtnError
from maxdtn.spectral import split_lambda

import oracle

#: one output check; ``known_defect`` checks count in ``failed`` but do not
#: make the run incorrect (they exhibit a defect the program is known to have)
Check = namedtuple("Check", "name ok detail known_defect", defaults=(False,))

#: outputs of one pass, its count of units of work, and the typed errors
#: (maxdtn.errors) raised by units that failed
Pass = namedtuple("Pass", "out units errors")

#: media of tests/test_acceptance.py::test_08: (eps1, mu1, c1, eps2, mu2, c2)
TEST08_MEDIA = (4.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: test_08's box around its known l=1 TM eigenvalue
TEST08_BOX = (2.5, 2.9, 0.5, 0.9)
#: that eigenvalue, as a starting guess for the mpmath solver
TEST08_ZERO = 2.6945 + 0.7092j
#: calibrate_C's default step, which cmd_te_scan uses
CALIBRATE_TOL = 0.05


class NullProbe:
    """The timed run's stand-in for the tracer: records nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass


def _cli(probe, out_dir, command, report, **settings):
    """One CLI command as ``maxdtn.cli.main`` runs it: config, command, CSV."""
    with probe.span("cli.report"):
        cfg = RunConfig(output_dir=out_dir, **settings)
        cfg.validate()
    with probe.span("cli.command"):
        rows, cols, ok, summary = command(cfg)
    with probe.span("cli.report"):
        path = os.path.join(out_dir, report + ".csv")
        cli._write_csv(path, cfg, cols, rows, summary)
    probe.add("cli.csv_bytes", os.path.getsize(path))
    return rows, ok, summary


def _unit(errors, label, fn, *args, **kwargs):
    """Run one unit of work; a typed maxdtn error is recorded, not raised."""
    try:
        return fn(*args, **kwargs)
    except MaxdtnError as exc:
        errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def _slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _summary_value(summary, key):
    """The number after '<key> =' in a CLI summary line."""
    for line in summary:
        if line.startswith(key + " ="):
            return float(line.split("=", 1)[1].split()[0])
    raise KeyError(key)


# ---------------------------------------------------------------------------
# te-scan


class TeScan:
    """Calibrate and certify the eigenvalue-free region of the test_08 media."""

    name = "te-scan"
    uses_jets = False

    def __init__(self, tiny=False):
        self.ell_max, self.re_max = (2, 3) if tiny else (4, 4)
        self.mie_samples = (4, 1, 1) if tiny else (12, 3, 3)

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        # a narrow band keeps C* and the work per pass fixed across seeds
        return {"eps1": 4.0 + float(rng.uniform(-0.005, 0.005)),
                "seed": (seed, k)}

    def media(self, inp):
        return (inp["eps1"],) + TEST08_MEDIA[1:]

    def run(self, inp, probe, out_dir):
        errors = []
        eps1, mu1, c1, eps2, mu2, c2 = self.media(inp)
        out = _unit(errors, "te-scan", _cli, probe, out_dir, cli.cmd_te_scan,
                    "te_scan", eps=eps1, mu=mu1, c1=c1, eps2=eps2, mu2=mu2,
                    c2=c2, ell_max=self.ell_max, re_max=self.re_max,
                    calibrate=True, certify=True)
        return Pass(out, 1, errors)

    def checks(self, inp, out):
        if out is None:
            return [Check("te-scan produced a report", False, "command raised")]
        _, _, summary = out
        C = _summary_value(summary, "C")
        tcfg = transmission.TransmissionConfig(*self.media(inp))
        p = tcfg.exponent

        def free(c):
            return transmission.region_is_free(
                transmission.region_scan(tcfg, self.ell_max, self.re_max, c))

        checks = [
            Check("region free at the returned C", free(C), f"C = {C:.6g}"),
            # regions shrink as C grows, so a violator at C - 2 tol shows C
            # is minimal to within the calibration step
            Check("region not free at C - 2 tol", not free(C - 2 * CALIBRATE_TOL),
                  f"C - 2 tol = {C - 2 * CALIBRATE_TOL:.6g}"),
            self._known_eigenvalue(tcfg, C, p, self.media(inp)),
        ]
        checks += self._split_line_probes()
        checks += self._riccati_samples(inp, C, p, tcfg)
        return checks

    def _known_eigenvalue(self, tcfg, C, p, media):
        zs = transmission.locate_zeros(tcfg, 1, "TM", TEST08_BOX)
        res = [oracle.zero_residual(media, 1, "TM", z) for z in zs]
        below = all(z.imag < C * (z.real + 1.0) ** p for z in zs)
        ok = bool(zs) and min(res) <= 1e-8 and below
        return Check("l=1 TM eigenvalue located below the curve", ok,
                     f"zeros {[f'{z:.6f}' for z in zs]}, mpmath residuals "
                     f"{[f'{r:.1e}' for r in res]}, below = {below}")

    def _split_line_probes(self):
        """locate_zeros against count_zeros where bisection lines cross a zero.

        Rectangles centred on the test_08 eigenvalue put it on the first
        split lines.  This is a known defect of locate_zeros, so these
        checks are reported as failed operations without making the run
        incorrect; moving the rectangles off the split lines would hide it.
        """
        tcfg = transmission.TransmissionConfig(*TEST08_MEDIA)
        z0 = oracle.refine_zero(TEST08_MEDIA, 1, "TM", TEST08_ZERO)
        rects = [("test_08 box", TEST08_BOX)]
        rects += [(f"rectangle centred on the zero, half-width {w}",
                   (z0.real - w, z0.real + w, z0.imag - w, z0.imag + w))
                  for w in (0.1, 0.2, 0.4)]
        out = []
        for label, rect in rects:
            try:
                n = transmission.count_zeros(tcfg, 1, "TM", rect)
                located = len(transmission.locate_zeros(tcfg, 1, "TM", rect))
                ok, detail = located == n, f"count {n}, located {located}"
            except MaxdtnError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            out.append(Check(f"located == counted on {label}", ok, detail,
                             known_defect=True))
        return out

    def _riccati_samples(self, inp, C, p, tcfg):
        """psi and psi' against mpmath at seeded (ell, x), to 1e-10 relative.

        Samples come from the scan's contours, from the small-|x| series
        branch and from the |Im x| > 300 scaled branch.
        """
        rng = np.random.default_rng(list(inp["seed"]) + [1])
        n_contour, n_series, n_scaled = self.mie_samples
        im_top = C * (self.re_max + 1.0) ** p + 10.0
        samples = []
        for _ in range(n_contour):
            re = rng.uniform(0.0, self.re_max)
            lam = complex(re, rng.uniform(C * (re + 1.0) ** p, im_top))
            n = tcfg.n1 if rng.uniform() < 0.5 else tcfg.n2
            samples.append(("contour", int(rng.integers(1, self.ell_max + 1)),
                            lam * n * tcfg.R))
        for _ in range(n_series):
            ell = int(rng.integers(2, 12))
            r = rng.uniform(0.02, 0.19) * math.sqrt(ell + 1.0)
            t = rng.uniform(0.0, math.pi)
            samples.append(("series", ell, r * complex(math.cos(t), math.sin(t))))
        for _ in range(n_scaled):
            samples.append(("scaled", int(rng.integers(1, self.ell_max + 1)),
                            complex(rng.uniform(0.0, 40.0), rng.uniform(305.0, 400.0))))
        out = []
        for branch, ell, x in samples:
            rp = mie.riccati_bessel(ell, x)
            ref_p, ref_d = oracle.riccati_pair(ell, x)
            err = max(oracle.rel_err(rp.psi, rp.log_scale, ref_p),
                      oracle.rel_err(rp.dpsi, rp.log_scale, ref_d))
            out.append(Check(f"riccati_bessel vs mpmath ({branch}, l={ell}, x={x:.4g})",
                             err <= 1e-10, f"relative error {err:.1e} (tol 1e-10)"))
        return out


# ---------------------------------------------------------------------------
# symbol-sweep


_CHARTS = {"sphere": lambda: geometry.SurfaceChart.sphere(1.0),
           "ellipsoid": lambda: geometry.SurfaceChart.ellipsoid(1.0, 1.2, 0.8)}

#: (GammaSeries order, eikonal N, transport arguments) of the two builds:
#: the shape of test_05 and the N=3/J=1 shape dtn_compare uses
_SHAPES = {"test_05": (3, 2, dict(N=2, J=0, scheme="literal", media_corrections=False)),
           "N3J1": (6, 3, dict(N=2, J=1))}


class SymbolSweep:
    """Boundary symbols over media at shared geometry, then dtn-compare."""

    name = "symbol-sweep"
    uses_jets = True

    def __init__(self, tiny=False):
        self.n_const = 2 if tiny else 3
        self.h_list = (1 / 40, 1 / 80, 1 / 160) if tiny else RunConfig().h_list

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        points = []
        for name in _CHARTS:
            base = (float(rng.uniform(0.5, math.pi - 0.5)),
                    float(rng.uniform(0.0, 2.0 * math.pi)))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            _, r0 = geometry.beta_pointwise(_CHARTS[name](), base[0], base[1],
                                            math.cos(ang), math.sin(ang))
            # r0 in [25, 60]: beyond the cutoff support r0 <= 2 C0 = 20
            s = math.sqrt(rng.uniform(25.0, 60.0) / float(np.real(r0)))
            points.append((name, base, (s * math.cos(ang), s * math.sin(ang))))
        const = [(float(rng.uniform(0.7, 3.0)), float(rng.uniform(0.7, 2.2)))
                 for _ in range(self.n_const)]
        grad = [float(g) for g in rng.uniform(-0.1, 0.1, 6)]
        affine = geometry.MediaField(
            geometry.ScalarField("affine", c0=float(rng.uniform(1.1, 1.5)),
                                 g1=grad[0], g2=grad[1], g3=grad[2]),
            geometry.ScalarField("affine", c0=float(rng.uniform(0.9, 1.3)),
                                 g1=grad[3], g2=grad[4], g3=grad[5]))
        return {"points": points, "const": const, "affine": affine,
                "theta": float(rng.uniform(0.45, 0.55))}

    def run(self, inp, probe, out_dir):
        errors, units, spread = [], 0, {}
        sp = split_lambda(5.0 + 2.0j)
        media = [(geometry.MediaField.constant(e, m), m) for e, m in inp["const"]]
        media.append((inp["affine"], None))
        for chart_name, base, xi in inp["points"]:
            chart = _CHARTS[chart_name]()
            for shape, (order, N, targs) in _SHAPES.items():
                label = f"{chart_name} {shape}"
                units += 1
                gs = _unit(errors, label, geometry.GammaSeries, chart, base,
                           n1=3, order=order)
                if gs is None:
                    continue
                vals = []
                for med, mu0 in media:
                    units += 1
                    sym = _unit(errors, label, self._symbol, gs, med, sp, xi, N, targs)
                    if sym is not None and mu0 is not None:
                        vals.append(mu0 * sym.m_tilde)
                spread[label] = vals
        units += 1
        dtn = _unit(errors, "dtn-compare", _cli, probe, out_dir,
                    cli.cmd_dtn_compare, "dtn_compare", theta=inp["theta"],
                    h_list=self.h_list)
        return Pass({"spread": spread, "dtn": dtn}, units, errors)

    @staticmethod
    def _symbol(gs, media, sp, xi, N, targs):
        ps = eikonal.eikonal_coeffs(gs, media, sp, xi, N=N)
        return transport.boundary_symbol(transport.transport_coeffs(ps, media, **targs))

    def checks(self, inp, out):
        checks = []
        for label, vals in out["spread"].items():
            worst = max((np.max(np.abs(v - vals[0])) for v in vals[1:]), default=np.inf)
            checks.append(Check(f"media spread of mu0 m_tilde, {label}", worst <= 1e-10,
                                f"{worst:.2e} over {len(vals)} constant media (tol 1e-10)"))
        if out["dtn"] is None:
            return checks + [Check("dtn-compare produced a report", False, "command raised")]
        errs = {}
        for ell, pol, lam_re, lam_im, ex_re, ex_im, e0, e1 in out["dtn"][0]:
            errs.setdefault(pol, []).append((1.0 / lam_re, e0, e1))
        for pol in ("TE", "TM"):
            h, e0, e1 = zip(*errs.get(pol, [(1.0, 1.0, 1.0)]))
            for order, e, need in ((0, e0, 0.9), (1, e1, 1.7)):
                s = _slope(h, e) if len(h) >= 2 else float("nan")
                checks.append(Check(f"dtn {pol} order-{order} slope", s >= need,
                                    f"{s:.3f} (need >= {need})"))
        return checks


# ---------------------------------------------------------------------------
# identities


class Identities:
    """The pointwise identity suite on the sphere and on the ellipsoid."""

    name = "identities"
    uses_jets = False

    def __init__(self, tiny=False):
        self.npoints = 50 if tiny else 1000

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        return {"seed": int(rng.integers(0, 2 ** 31))}

    def run(self, inp, probe, out_dir):
        errors, rows = [], {}
        for chart in ("sphere", "ellipsoid"):
            out = _unit(errors, chart, _cli, probe, out_dir, cli.cmd_identities,
                        f"identities_{chart}", chart=chart,
                        npoints=self.npoints, seed=inp["seed"])
            rows[chart] = out and out[0]
        return Pass(rows, 2, errors)

    def checks(self, inp, out):
        checks = []
        for chart, rows in out.items():
            if rows is None:
                checks.append(Check(f"identities on the {chart}", False, "command raised"))
                continue
            for name, points, worst, _tol, _status in rows:
                checks.append(Check(f"{name} on the {chart}", worst <= 1e-12,
                                    f"max residual {worst:.2e} over {points} points "
                                    "(tol 1e-12)"))
        return checks


# ---------------------------------------------------------------------------
# quantizer


class Quantizer:
    """cmd_quantizer contracts at the grid size of test_09.

    The contract fixes every input, so the seed is unused.
    """

    name = "quantizer"
    uses_jets = False

    def __init__(self, tiny=False):
        self.grid_n = 16 if tiny else 32

    def inputs(self, seed, k):
        return {}

    def run(self, inp, probe, out_dir):
        errors = []
        out = _unit(errors, "quantizer", _cli, probe, out_dir, cli.cmd_quantizer,
                    "quantizer", grid_n=self.grid_n,
                    h_list=tuple(2.0 ** -k for k in range(3, 8)))
        return Pass(out, 1, errors)

    def checks(self, inp, out):
        if out is None:
            return [Check("quantizer produced a report", False, "command raised")]
        rows, _, summary = out
        comp = [(h, d) for h, th, d, r in rows if math.isnan(th)]
        bound = [(th, r) for h, th, d, r in rows if not math.isnan(th)]
        slope = _slope(*zip(*comp))
        expo = -_slope(*zip(*bound))
        norm1 = _summary_value(summary, "|Op(1)|")
        return [Check("composition defect slope", abs(slope - 1.0) <= 0.2,
                      f"{slope:.3f} (1 +- 0.2)"),
                Check("|Op(1)| = 1", abs(norm1 - 1.0) <= 1e-12, f"{norm1!r}"),
                Check("theta exponent", abs(expo - 0.5) <= 0.15,
                      f"{expo:.3f} (0.5 +- 0.15)")]


WORKLOADS = {w.name: w for w in (TeScan, SymbolSweep, Identities, Quantizer)}


def build_jet_tables():
    """Build the lazily made jet product tables the symbol builds use.

    A CLI process pays for these once, so they belong to set-up time.
    """
    build = getattr(jets, "_mul_matrix", None)
    if build is not None:
        for order in range(1, 9):
            build(2, order)
