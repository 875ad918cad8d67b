"""Benchmark of the `rotpol` command line: one workload, one seed, one run.

    python3 rotbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports the program from
the checkout's `src/` (nothing is installed) and leaves its files under
`.rotbench_out/`.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a table of the same metrics and the run environment go to standard
error.  See rotbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".rotbench_out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is a fresh interpreter importing the CLI: noisy, so repeat it
SETUP_PROBES = 4
# a run must end within 180 s; keep a margin for the last iteration
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def child_env():
    """Children run single-threaded BLAS; the thread counts are part of the record."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def main():
    ap = argparse.ArgumentParser(description="rotpol benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "rotpolariton", "cli.py")):
        print(f"rotbench: {ROOT} holds no src/rotpolariton; run from a full checkout",
              file=sys.stderr)
        return 2

    wdir = os.path.join(OUT, args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    try:
        result_path = os.path.join(wdir, "result.json")
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", os.path.join(wdir, "run"), "--result", result_path,
             "--probes", str(0 if args.trace else SETUP_PROBES)],
            stdout=sys.stderr, env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        print(f"rotbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"rotbench: workload process exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    with open(result_path) as fh:
        res = json.load(fh)

    if args.trace:
        metrics = {name: {"value": res["layer"].get(name), "unit": unit}
                   for name, (unit, _, _) in tracing.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(res["setup"]),
            "wall_s": min(res["walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({"env": res["env"]}, sort_keys=True), file=sys.stderr)
    n_iter = len(res["walls"]) + len(res["walls_traced"])
    print(f"{args.workload} seed {args.seed}: {n_iter} iterations, "
          f"{res['attempted']} items, {res['failed']} failed", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    for line in res["problems"] + res["health"]:
        print(f"  problem: {line}", file=sys.stderr)
    if res["missing"]:
        print(f"  unmeasured (name not found): {', '.join(res['missing'])}", file=sys.stderr)

    summary = {
        "correct": res["failed"] == 0 and not res["health"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(wdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
