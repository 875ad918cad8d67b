"""Regenerate reference/seed0.json: the default seed's headline numbers.

    python3 rotbench/make_reference.py

Runs one untraced iteration of every workload at the default seed and
stores each item's fingerprint.  Run it only at a commit whose outputs are
trusted; the correctness gate then holds every later commit to them within
checks.REF_ATOL.
"""

import json
import os
import shutil

import worker
import workloads

REFERENCE = os.path.join(worker.HERE, "reference", "seed0.json")


def main():
    from rotpolariton import cli

    top = os.path.join(worker.ROOT, ".rotbench_out", "reference")
    out = {}
    for name in workloads.WORKLOADS:
        wdir = os.path.join(top, name)
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        os.chdir(wdir)
        steps = workloads.build(name, workloads.DEFAULT_SEED)
        paths = worker.write_configs(steps, "cfg")
        outdirs = [os.path.join("out", f"step{i:02d}") for i in range(len(steps))]
        argvs = [worker.argv_for(s, p, o, workloads.DEFAULT_SEED)
                 for s, p, o in zip(steps, paths, outdirs)]
        results, _ = worker.run_sequence(cli, steps, argvs)
        per_step = worker.judge(steps, outdirs, results)
        bad = [f"{it.label}: {it.problems}" for items in per_step for it in items if it.problems]
        if bad:
            raise SystemExit(f"{name}: outputs fail the gate, no reference written:\n"
                             + "\n".join(bad))
        out[name] = [[{"label": it.label, "fingerprint": it.fingerprint} for it in items]
                     for items in per_step]
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
