"""Print the kernel steps that two sets of rotpol output directories record.

    python tools/work_ledger.py BASE HEAD

BASE and HEAD each hold one output directory per config, as the base
comparison of CI writes them.  A record is a JSON object, in a .json or
.jsonl file, that holds a "steps" list: the kernel steps of each run of one
propagation.  For every config the ledger prints, for the base and the head,
the number of records and the total of all their steps, and whether the
steps lists are the same.  It only reports: the exit code is 0 unless BASE
or HEAD is not a directory.
"""

import argparse
import json
import os


def _records(node):
    """The steps lists of a JSON tree, in document order."""
    if isinstance(node, dict):
        if isinstance(node.get("steps"), list):
            yield node["steps"]
        for v in node.values():
            yield from _records(v)
    elif isinstance(node, list):
        for v in node:
            yield from _records(v)


def steps_lists(root):
    """Every steps list under one output directory, keyed by file."""
    out = {}
    for base, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            path = os.path.join(base, name)
            with open(path) as fh:
                if name.endswith(".jsonl"):
                    trees = [json.loads(line) for line in fh if line.strip()]
                elif name.endswith(".json"):
                    trees = [json.load(fh)]
                else:
                    continue
            out[os.path.relpath(path, root)] = [s for t in trees for s in _records(t)]
    return out


def _summary(lists):
    if lists is None:
        return "-", "-"
    flat = [s for v in lists.values() for s in v]
    return str(len(flat)), str(sum(map(sum, flat)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    for d in (args.base, args.head):
        if not os.path.isdir(d):
            parser.error(f"{d}: not a directory")
    configs = sorted(set(os.listdir(args.base)) | set(os.listdir(args.head)))
    rows = [("config", "base records", "base steps", "head records", "head steps", "lists")]
    for cfg in configs:
        sides = [steps_lists(os.path.join(d, cfg)) if os.path.isdir(os.path.join(d, cfg))
                 else None for d in (args.base, args.head)]
        same = "same" if sides[0] == sides[1] else "DIFFER"
        rows.append((cfg, *_summary(sides[0]), *_summary(sides[1]), same))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                        for i, (c, w) in enumerate(zip(r, widths))).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
