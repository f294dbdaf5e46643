"""One benchmark process, started by run.py with BLAS threads capped.

  worker.py setup --workload W --seed N
      times import maxdtn, the jet product tables and input generation
  worker.py run --workload W --seed N --seconds S --out DIR [--trace]
      timed passes until S seconds are used (at least --min-passes), then
      the output checks; with --trace, one traced pass and its layer metrics

Each mode also times the reference kernel (reference.py) around its work.
Prints one JSON object as its last line of standard output.  maxdtn is
imported only inside the timed set-up, and the tracer only with --trace.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import reference


def _setup(args):
    """(workloads module, workload, pass-0 inputs, seconds taken)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    if wl.uses_jets:
        workloads.build_jet_tables()
    inp = wl.inputs(args.seed, 0)
    return workloads, wl, inp, time.perf_counter() - t0


def _machine():
    import ctypes
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def _kernel_times():
    """Three reference kernel times, taken between passes (see reference.py)."""
    return [reference.kernel_s() for _ in range(3)]


def _timed(args, workloads, wl, inp0):
    times, units, errors, first = [], 0, [], None
    refs = _kernel_times()
    start = time.perf_counter()
    k = 0
    while True:
        inp = inp0 if k == 0 else wl.inputs(args.seed, k)
        t0 = time.perf_counter()
        p = wl.run(inp, workloads.NullProbe(), args.out)
        times.append(time.perf_counter() - t0)
        refs += _kernel_times()
        units += p.units
        errors += p.errors
        first = first or p
        k += 1
        # stop before the next pass would overrun the run's seconds
        if (k >= args.min_passes and
                time.perf_counter() - start + statistics.median(times) > args.seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = wl.checks(inp0, first.out)
    return {"times": times, "refs": refs, "units": units, "errors": errors,
            "peak_rss_mb": rss_mb, "machine": _machine(),
            "checks": [dict(c._asdict(), ok=bool(c.ok)) for c in checks]}


def _traced(args, wl, inp0):
    import tracer
    tr = tracer.Tracer()
    refs = _kernel_times()
    with tr.installed():
        t0 = time.perf_counter()
        wl.run(inp0, tr, args.out)
        dt = time.perf_counter() - t0
    refs += _kernel_times()
    tr.write(os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json"))
    return {"pass_s": dt, "refs": refs,
            "layers": {k: list(v) for k, v in tracer.layer_metrics(tr).items()}}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=3)
    ap.add_argument("--out", default=".")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if args.mode == "setup":
        before = reference.kernel_s()
        setup_s = _setup(args)[3]
        result = {"setup_s": setup_s, "refs": [before, reference.kernel_s()]}
    else:
        workloads, wl, inp0, _ = _setup(args)
        result = (_traced(args, wl, inp0) if args.trace
                  else _timed(args, workloads, wl, inp0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
