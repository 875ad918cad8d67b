"""Workload process: one fresh interpreter running one workload's `rotpol` calls.

    python3 rotbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --dir OUTDIR --result FILE
    python3 rotbench/worker.py --probe --workload NAME --seed N --dir OUTDIR

The worker imports `rotpolariton.cli` from the checkout's `src/`, writes the
workload's configs as YAML and repeats the workload's sequence of
`rotpolariton.cli.main(argv)` calls, each with `--threads 1`, until the time
is up.  Each repetition (an iteration) is timed as a whole and then judged by
the correctness gate, outside the timed region.  With --trace 1 untraced and
traced iterations alternate, so the traced ones give the per-layer metrics
and their cost relative to the untraced ones.

--probe is the set-up measurement: import the CLI, resolve the workload's
configs, print "ready" and exit.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a traced run needs two traced iterations to show that the counts repeat
MIN_TRACED = 2


def write_configs(steps, cfgdir):
    import yaml

    os.makedirs(cfgdir, exist_ok=True)
    paths = []
    for i, step in enumerate(steps):
        path = None
        if step["config"] is not None:
            path = os.path.join(cfgdir, f"step{i:02d}.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(step["config"], fh)
        paths.append(path)
    return paths


def argv_for(step, cfg_path, outdir, seed):
    argv = [step["command"], "--out", outdir, "--threads", "1", "--seed", str(seed)]
    if cfg_path is not None:
        argv += ["--config", cfg_path]
    if step["preset"] is not None:
        argv += ["--preset", step["preset"]]
    return argv


def probe(args):
    """Set-up: import the CLI and resolve every config the workload will pass."""
    import yaml

    from rotpolariton import cli

    steps = workloads.build(args.workload, args.seed)
    paths = write_configs(steps, os.path.join(args.dir, "cfg"))
    for step, path in zip(steps, paths):
        raw = {}
        if path is not None:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        cli.resolve_config(raw, preset=step["preset"])
    print(f"ready {time.monotonic()!r}", flush=True)


def setup_sample(args):
    """Seconds from spawning a probe interpreter until its configs are resolved.

    The probe stamps the moment it is ready with the monotonic clock, which
    all processes share, so its exit does not count.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
         "--seed", str(args.seed), "--dir", os.path.abspath("probe")],
        stdout=subprocess.PIPE, text=True, timeout=60)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(fields[1]) - t0


def tree_stats(top):
    """(sha256 over relative paths and contents, file count, byte count)."""
    h = hashlib.sha256()
    files = nbytes = 0
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, top).encode() + b"\0" + data + b"\0")
            files += 1
            nbytes += len(data)
    return h.hexdigest(), files, nbytes


def _read_cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "rotpol_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _read_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
    }


def run_sequence(cli, steps, argvs):
    """All of one iteration's main() calls; returns [(exit code, error)] and wall time."""
    results = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                results.append((cli.main(argv), None))
            except Exception as exc:  # an uncaught exception fails the step's items
                line = traceback.format_exception_only(type(exc), exc)[-1].strip()
                results.append((None, f"uncaught {line}"))
    return results, time.perf_counter() - t0


def judge(steps, outdirs, results, reference=None):
    """Items of every step, compared against the reference when one is given."""
    per_step = []
    for i, (step, outdir, (code, err)) in enumerate(zip(steps, outdirs, results)):
        items = checks.check_step(step, outdir, code, err)
        if reference is not None:
            checks.compare_reference(items, reference[i])
        per_step.append(items)
    return per_step


def record_step_errors(tracer):
    """Largest certified step error per record id, from the propagate spans."""
    out = {}
    for s in tracer.spans:
        if s.name == "control.propagate" and s.info is not None:
            err = s.info["meta"].get("step_error") or 0.0
            out[s.record] = max(out.get(s.record, 0.0), err)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--probes", type=int, default=0,
                    help="set-up samples, taken after the iterations")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.probe:
        probe(args)
        return 0

    from rotpolariton import cli

    steps = workloads.build(args.workload, args.seed)
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    paths = write_configs(steps, "cfg")
    outdirs = [os.path.join("out", f"step{i:02d}") for i in range(len(steps))]
    argvs = [argv_for(s, p, o, args.seed) for s, p, o in zip(steps, paths, outdirs)]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(os.path.join(HERE, "reference", "seed0.json")) as fh:
            reference = json.load(fh)[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    layer_runs = []
    spans_out = []
    digests = []
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        shutil.rmtree("out", ignore_errors=True)
        if traced:
            tracer.install()
        try:
            results, wall = run_sequence(cli, steps, argvs)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(wall)

        items = [it for step_items in judge(steps, outdirs, results, reference)
                 for it in step_items]
        digest, files, nbytes = tree_stats("out")
        digests.append(digest)
        if traced:
            errors = record_step_errors(tracer)
            # record ids follow item order when every step produced its items
            if all(code == 0 for code, _ in results):
                for rid, err in errors.items():
                    if rid is not None and rid < len(items) and err > checks.STEP_TOL:
                        items[rid].problems.append(f"step_error {err!r} > {checks.STEP_TOL:g}")
            m = tracing.iteration_metrics(tracer, wall)
            m["cli.files_written"] = files
            m["cli.bytes_written"] = nbytes
            layer_runs.append(m)
            spans_out.extend({"iteration": k, **s.as_dict()} for s in tracer.spans)
        attempted += len(items)
        for it in items:
            if it.problems:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"iteration {k} {args.workload}/{it.label}: "
                                    + "; ".join(it.problems))
        k += 1
        # stop before a pass that would end after --seconds, so a run lasts
        # --seconds at most, plus the passes a traced run needs
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds and (
                not args.trace or len(walls[True]) >= MIN_TRACED):
            break
    # set-up is sampled after the iterations, never during one
    setup = [setup_sample(args) for _ in range(args.probes)]

    health = []
    if len(set(digests)) != 1:
        health.append("output files differ between iterations"
                      + (" (traced vs untraced)" if args.trace else ""))
    layer = {}
    if args.trace:
        for name in tracing.PER_LAYER:
            vals = [m[name] for m in layer_runs if name in m]
            if not vals:
                continue
            if name in tracing.EXACT_METRICS:
                if len(set(vals)) > 1:
                    health.append(f"work count {name} differs between iterations: {vals}")
                layer[name] = vals[0]
            else:
                layer[name] = statistics.median(vals)
        layer["trace.overhead"] = min(walls[True]) / min(walls[False])
        for name in tracing.unmeasured(tracer.missing):
            layer[name] = None
        with open("spans.jsonl", "w") as fh:
            for s in spans_out:
                fh.write(json.dumps(s) + "\n")

    env = environment(args)
    with open("env.json", "w") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)
    result = {
        "setup": setup,
        "walls": walls[False],
        "walls_traced": walls[True],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "health": health,
        "layer": layer,
        "missing": sorted(tracer.missing) if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
