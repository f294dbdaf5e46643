"""maxdtn benchmark: one workload, timed end to end or traced per layer.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a maxdtn checkout; see perfbench/README.md.  With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones.  The last line of standard output is the JSON result.

This process imports neither numpy nor maxdtn.  Every measurement runs in
a worker process (worker.py), one at a time, with BLAS threads capped at
the CPUs this process may use.  Times are reported at the reference speed
of reference.py; the wall-clock figures are printed next to them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("te-scan", "symbol-sweep", "identities", "quantizer")
SETUP_SAMPLES = 5
#: everything, set-up samples included, must end within this many seconds
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _worker(args, env, deadline):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} overran the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, statistics.median(xs), q3


def _at_ref(times, refs):
    """Median wall time rescaled to the reference speed (see reference.py)."""
    return statistics.median(times) * REF_S / statistics.median(refs)


def _verdict(res):
    """(correct, attempted, failed) from a timed worker's result."""
    checks = res["checks"]
    print(f"# machine {json.dumps(res['machine'])}")
    for c in checks:
        tag = "PASS" if c["ok"] else ("KNOWN-DEFECT" if c["known_defect"] else "FAIL")
        print(f"[{tag}] {c['name']}: {c['detail']}")
    for e in res["errors"]:
        print(f"[FAIL] typed error: {e}")
    failed = sum(not c["ok"] for c in checks) + len(res["errors"])
    attempted = len(checks) + res["units"]
    correct = all(c["ok"] for c in checks if not c["known_defect"])
    return correct, attempted, failed


def run(args):
    if not (ROOT / "src" / "maxdtn" / "__init__.py").is_file():
        raise BenchError(f"no maxdtn sources under {ROOT / 'src'}; "
                         "run from the root of a maxdtn checkout")
    deadline = time.monotonic() + BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    env = _env(nproc)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    if args.tiny:
        common.append("--tiny")

    if not args.trace:
        setups = [_worker(["setup"] + common, env, deadline)
                  for _ in range(SETUP_SAMPLES)]
    timed = _worker(["run", "--seconds", str(args.seconds / (2 if args.trace else 1)),
                     "--min-passes", "2" if args.trace else "3"] + common, env, deadline)
    correct, attempted, failed = _verdict(timed)
    run_s = _at_ref(timed["times"], timed["refs"])
    q1, wall, q3 = _quartiles(timed["times"])
    print(f"# run_s {run_s:.4f} s at reference speed; wall time median {wall:.4f} s "
          f"of {len(timed['times'])} passes (quartiles {q1:.4f} .. {q3:.4f}), "
          f"reference kernel median {statistics.median(timed['refs']):.4f} s")

    if args.trace:
        traced = _worker(["run", "--trace"] + common, env, deadline)
        metrics = dict(traced["layers"])
        traced_s = _at_ref([traced["pass_s"]], traced["refs"])
        metrics["trace.overhead_frac"] = [traced_s / run_s - 1.0, "ratio"]
    else:
        walls = [s["setup_s"] for s in setups]
        setup_s = _at_ref(walls, [r for s in setups for r in s["refs"]])
        s_q1, s_wall, s_q3 = _quartiles(walls)
        print(f"# setup_s {setup_s:.4f} s at reference speed; wall time median "
              f"{s_wall:.4f} s of {len(walls)} processes "
              f"(quartiles {s_q1:.4f} .. {s_q3:.4f})")
        metrics = {"setup_s": [setup_s, "s"], "run_s": [run_s, "s"],
                   "peak_rss_mb": [timed["peak_rss_mb"], "MB"],
                   "ok_frac": [1.0 - failed / attempted, "ratio"]}
        print(f"# fail_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
