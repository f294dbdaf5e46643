"""Outside-in call tracer for the traced benchmark run.

The tracer replaces functions of the maxdtn modules with timing wrappers:
in every maxdtn module namespace that binds the function (so
``from .x import f`` call sites are seen too) and, for methods, on their
class.  ``installed()`` puts every original back on exit.  Only the traced
run imports this module; the timed run never does.

Every wrapped call adds to an aggregate keyed by (parent span, function):
calls, inclusive time, time in wrapped children and exceptions raised.
Hot functions (above 1e5 calls in a run) live only in those aggregates;
every other call is also kept as one span (name, parent span, start, end).
"""

import json
import sys
import time
from contextlib import contextmanager

#: (metric base name, module, attribute, hot)
TARGETS = [
    ("transmission.calibrate_C", "maxdtn.transmission", "calibrate_C", False),
    ("transmission.region_scan", "maxdtn.transmission", "region_scan", False),
    ("transmission.count_zeros", "maxdtn.transmission", "count_zeros", False),
    ("transmission.mode_determinant", "maxdtn.transmission", "mode_determinant", True),
    ("transmission.locate_zeros", "maxdtn.transmission", "locate_zeros", False),
    ("transmission.symbol_T", "maxdtn.transmission", "symbol_T", False),
    ("mie.riccati_bessel", "maxdtn.mie", "riccati_bessel", True),
    ("mie.exact_mode_impedance", "maxdtn.mie", "exact_mode_impedance", False),
    ("mie.dtn_compare", "maxdtn.mie", "dtn_compare", False),
    ("jets.Jet.mul", "maxdtn.jets", "Jet.__mul__", True),
    ("jets.NormalSeries.mul", "maxdtn.jets", "NormalSeries.__mul__", True),
    ("geometry.GammaSeries", "maxdtn.geometry", "GammaSeries.__init__", False),
    ("geometry.gamma_pointwise", "maxdtn.geometry", "gamma_pointwise", True),
    ("geometry.beta_pointwise", "maxdtn.geometry", "beta_pointwise", True),
    ("eikonal.eikonal_coeffs", "maxdtn.eikonal", "eikonal_coeffs", False),
    ("transport.transport_coeffs", "maxdtn.transport", "transport_coeffs", False),
    ("transport.boundary_symbol", "maxdtn.transport", "boundary_symbol", False),
    ("crosssys.solve_cross_system", "maxdtn.crosssys", "solve_cross_system", True),
    ("numerics.sqrt_upper", "maxdtn.numerics", "sqrt_upper", True),
    ("quantizer.quantize", "maxdtn.quantizer", "quantize", False),
    ("quantizer.operator_norm", "maxdtn.quantizer", "operator_norm", False),
]


def _region_scan_hook(tracer, args, kwargs, reports):
    # locate_zeros runs on exactly the tiles with winding > 0; a tile is
    # useful when one of its located zeros is a violator
    tracer.add("transmission.locate_zeros.located", sum(r.winding > 0 for r in reports))
    tracer.add("transmission.locate_zeros.useful", sum(bool(r.violators) for r in reports))


def _quantize_hook(tracer, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[2]
    tracer.add("quantizer.quantize.bytes_computed", 16 * n ** 4)  # complex128 n^2 x n^2


HOOKS = {"transmission.region_scan": _region_scan_hook,
         "quantizer.quantize": _quantize_hook}


class Tracer:
    def __init__(self, targets=TARGETS, hooks=HOOKS):
        self.targets = targets
        self.hooks = hooks
        self.agg = {}           # (parent name, name) -> [calls, s, child_s, raised]
        self.spans = []         # (name, parent span index, start, end)
        self.counters = {}
        self.absent = set()
        self._root = ["", 0.0, None]   # name, child time, span index
        self._stack = [self._root]
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, hot):
        frame = [name, 0.0, None]
        if not hot:
            frame[2] = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, t0, raised):
        dt = time.perf_counter() - t0
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += dt
        a = self.agg.setdefault((parent[0], frame[0]), [0, 0.0, 0.0, 0])
        a[0] += 1
        a[1] += dt
        a[2] += frame[1]
        a[3] += raised
        if frame[2] is not None:
            self.spans[frame[2]] = (frame[0], parent[2], t0, t0 + dt)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around a CLI command."""
        frame = self._enter(name, hot=False)
        t0 = time.perf_counter()
        raised = 1
        try:
            yield
            raised = 0
        finally:
            self._exit(frame, t0, raised)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, name, fn, hot):
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            frame = self._enter(name, hot)
            t0 = time.perf_counter()
            raised = 1
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                self._exit(frame, t0, raised)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target wherever maxdtn binds it; restore on exit."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "maxdtn" or n.startswith("maxdtn.")) and m is not None]
        try:
            for name, modname, attr, hot in self.targets:
                owner_name, _, fname = attr.rpartition(".")
                owner = sys.modules.get(modname)
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                fn = vars(owner).get(fname) if owner is not None else None
                if fn is None:
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(name, fn, hot)
                for home in ([owner] if owner_name else modules):
                    for key, val in list(vars(home).items()):
                        if val is fn:
                            setattr(home, key, wrapper)
                            self._patched.append((home, key, fn))
            yield self
        finally:
            for home, key, fn in reversed(self._patched):
                setattr(home, key, fn)
            self._patched.clear()

    # -- results -----------------------------------------------------------

    def totals(self, name):
        """(calls, inclusive s, self s, raised) summed over parents, or None
        when the function is absent from this version of maxdtn."""
        if name in self.absent:
            return None
        calls = s = child = raised = 0
        for (_, n), (c, t, ch, r) in self.agg.items():
            if n == name:
                calls, s, child, raised = calls + c, s + t, child + ch, raised + r
        return calls, s, s - child, raised

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"aggregates": [{"parent": p, "name": n, "calls": c, "s": t,
                                       "child_s": ch, "raised": r}
                                      for (p, n), (c, t, ch, r) in self.agg.items()],
                       "spans": self.spans, "counters": self.counters,
                       "absent": sorted(self.absent)}, f)


def _ratio(a, b):
    return a / b if b else 0.0


def _stat(base, stat):
    """Metric getter for one field of a function's totals."""
    i = ("calls", "s", "self_s", "raised").index(stat)

    def get(tr):
        t = tr.totals(base)
        return None if t is None else t[i]
    return get


def _derived(fn, *needs):
    """Metric getter computed from the totals of ``needs`` (None if one is absent)."""
    def get(tr):
        ts = [tr.totals(n) for n in needs]
        return None if None in ts else fn(tr, *ts)
    return get


_STATS = [
    ("transmission.calibrate_C", ["s"]),
    ("transmission.region_scan", ["calls", "s"]),
    ("transmission.count_zeros", ["calls", "self_s", "raised"]),
    ("transmission.mode_determinant", ["calls", "self_s"]),
    ("transmission.locate_zeros", ["calls", "s"]),
    ("transmission.symbol_T", ["calls", "self_s"]),
    ("mie.riccati_bessel", ["calls", "self_s"]),
    ("mie.exact_mode_impedance", ["calls", "self_s"]),
    ("mie.dtn_compare", ["calls", "s"]),
    ("jets.Jet.mul", ["calls", "self_s"]),
    ("jets.NormalSeries.mul", ["calls", "self_s"]),
    ("geometry.GammaSeries", ["calls", "s"]),
    ("geometry.gamma_pointwise", ["calls", "self_s"]),
    ("geometry.beta_pointwise", ["calls", "self_s"]),
    ("eikonal.eikonal_coeffs", ["calls", "self_s"]),
    ("transport.transport_coeffs", ["calls", "self_s"]),
    ("transport.boundary_symbol", ["calls", "self_s"]),
    ("crosssys.solve_cross_system", ["calls", "self_s"]),
    ("numerics.sqrt_upper", ["calls", "self_s"]),
    ("quantizer.quantize", ["calls", "self_s"]),
    ("quantizer.operator_norm", ["calls", "self_s"]),
]

#: (metric name, unit, getter(tracer) -> value, or None when absent);
#: trace.overhead_frac is added by run.py, which has the untraced time
PER_LAYER = [(f"{base}.{stat}", "count" if stat in ("calls", "raised") else "s",
              _stat(base, stat)) for base, stats in _STATS for stat in stats] + [
    ("transmission.count_zeros.ok_ratio", "ratio", _derived(
        lambda tr, t: _ratio(t[0] - t[3], t[0]), "transmission.count_zeros")),
    ("transmission.locate_zeros.useful_ratio", "ratio", _derived(
        lambda tr, t: _ratio(tr.counters.get("transmission.locate_zeros.useful", 0),
                             tr.counters.get("transmission.locate_zeros.located", 0)),
        "transmission.locate_zeros")),
    ("mie.riccati_bessel.us_per_call", "us", _derived(
        lambda tr, t: 1e6 * _ratio(t[2], t[0]), "mie.riccati_bessel")),
    ("jets.Jet.mul.per_symbol", "count", _derived(
        lambda tr, t, b: _ratio(t[0], b[0]), "jets.Jet.mul", "transport.boundary_symbol")),
    ("quantizer.quantize.bytes_computed", "B", _derived(
        lambda tr, t: tr.counters.get("quantizer.quantize.bytes_computed", 0),
        "quantizer.quantize")),
    ("cli.command.s", "s", lambda tr: tr.totals("cli.command")[1]),
    ("cli.report_s", "s", lambda tr: tr.totals("cli.report")[1]),
    ("cli.csv_bytes", "B", lambda tr: tr.counters.get("cli.csv_bytes", 0)),
]


def layer_metrics(tracer):
    """Every per-layer metric but trace.overhead_frac, as name -> (value, unit).

    A metric whose function this version of maxdtn lacks has value None.
    """
    return {name: (get(tracer), unit) for name, unit, get in PER_LAYER}
