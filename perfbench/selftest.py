"""Self-tests of the benchmark.

  python3 perfbench/selftest.py

1. Two traced runs of one seed give identical ``.calls`` counts.
2. On one fixed rectangle, the tracer's mode_determinant count equals that
   of an independent wrapper installed for this test alone; every wrapped
   name is restored afterwards; a function missing from maxdtn is reported
   as absent instead of failing the run.
3. A tiny-size smoke run of run.py, timed and traced, exercises every
   workload, every check and the metric printer, and reports exactly the
   metrics BENCHMARK.json names.

Exits 0 when every test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import maxdtn  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from maxdtn import transmission  # noqa: E402

FAILURES = []


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def _traced_calls(cls, seed, out):
    wl = cls(tiny=True)
    tr = tracer.Tracer()
    inp = wl.inputs(seed, 0)
    with tr.installed():
        wl.run(inp, tr, out)
    return {k: v for k, (v, _) in tracer.layer_metrics(tr).items() if k.endswith(".calls")}


def test_calls_repeat(out):
    for name, cls in workloads.WORKLOADS.items():
        a, b = _traced_calls(cls, 5, out), _traced_calls(cls, 5, out)
        check(f"{name}: .calls repeat between two traced runs", a == b,
              f"{sum(v or 0 for v in a.values())} calls")


def _leftover_wrappers():
    homes = [m for n, m in sys.modules.items() if n.split(".")[0] == "maxdtn"]
    homes += [maxdtn.Jet, maxdtn.NormalSeries, maxdtn.GammaSeries]
    return [f"{getattr(h, '__name__', h)}.{k}" for h in homes
            for k, v in list(vars(h).items())
            if getattr(v, "__qualname__", "").startswith("Tracer._wrap")]


def test_independent_count():
    original = transmission.mode_determinant
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    transmission.mode_determinant = counting
    try:
        tr = tracer.Tracer()
        with tr.installed():
            transmission.count_zeros(transmission.TransmissionConfig(*workloads.TEST08_MEDIA),
                                     1, "TM", workloads.TEST08_BOX)
        traced = tr.totals("transmission.mode_determinant")[0]
        check("mode_determinant count matches an independent wrapper",
              traced == count[0] > 0, f"tracer {traced}, independent {count[0]}")
        check("tracer restored the wrapper it found", transmission.mode_determinant is counting)
    finally:
        transmission.mode_determinant = original
    left = _leftover_wrappers()
    check("no traced wrapper left in any maxdtn namespace", not left, ", ".join(left))

    targets = [(n, m, "no_such_function" if n == "transmission.mode_determinant" else a, h)
               for n, m, a, h in tracer.TARGETS]
    tr = tracer.Tracer(targets)
    with tr.installed():
        transmission.count_zeros(transmission.TransmissionConfig(*workloads.TEST08_MEDIA),
                                 1, "TM", workloads.TEST08_BOX)
    layers = tracer.layer_metrics(tr)
    check("a missing function is reported absent",
          layers["transmission.mode_determinant.calls"][0] is None
          and layers["transmission.count_zeros.calls"][0] > 0)


def test_smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    check("BENCHMARK.json names the four workloads", names == list(workloads.WORKLOADS))
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", "3", "--seconds", "1", "--trace", str(trace),
                                   "--tiny"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(f"{name} trace={trace}: smoke run", False, proc.stderr[-2000:])
                continue
            n_checks = sum(line.startswith(("[PASS]", "[FAIL]", "[KNOWN-DEFECT]"))
                           for line in lines)
            check(f"{name} trace={trace}: smoke run",
                  proc.returncode == 0 and res["correct"] and n_checks > 0
                  and set(res["metrics"]) == want[trace]
                  and all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                  f"{n_checks} checks, {len(res['metrics'])} metrics")


def main():
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    test_calls_repeat(str(out))
    test_independent_count()
    test_smoke()
    print(f"{'FAILED: ' + ', '.join(FAILURES) if FAILURES else 'all self-tests passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
