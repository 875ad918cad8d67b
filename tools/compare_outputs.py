"""Compare two rotpol output directories file by file and column by column.

    python tools/compare_outputs.py OLD NEW [--atol A] [--rtol R] [--tol NAME=X ...]

TSV files are compared per column (the names in their '# ' header line),
JSON and JSONL files per leaf, keyed by the nearest mapping key; a column is
all the values under one name.  Two numbers agree when |a - b| <= max(atol,
rtol * scale), where scale is the largest finite magnitude in their column
on either side: a spectrum or a trace is judged against its peak, not against
its zeros.  --tol NAME=X sets atol and rtol to X for one column, so --tol
t_max=0 demands exact equality.  nan agrees with nan.  Strings, booleans,
nulls, the shape of a table or a JSON tree, and any other file type must
match exactly.  manifest.json is skipped: it records the run's --threads
and --seed, and the config, whose changes the compared files show.

Prints one line per file: "identical" when its bytes match, "equal" when
its text differs but no value moved, else the worst difference per column
or, when no number moved, the first problem found.  Exits 1 when a file is
missing on either side or any value lies beyond its tolerance.
"""

import argparse
import json
import math
import os
import sys

SKIP = {"manifest.json"}


def _files(root):
    out = set()
    for base, _, names in os.walk(root):
        out |= {os.path.relpath(os.path.join(base, n), root) for n in names if n not in SKIP}
    return out


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _tsv(path):
    """(column, row, value) leaves of a TSV written by rotpol."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError("no '# ' header line")
        cols = header[2:].rstrip("\n").split("\t")
        for i, line in enumerate(fh):
            vals = line.rstrip("\n").split("\t")
            if len(vals) != len(cols):
                raise ValueError(f"row {i} has {len(vals)} fields for {len(cols)} columns")
            yield from ((c, f"{c}[{i}]", float(v)) for c, v in zip(cols, vals))


def _leaves(node, name, path):
    """(nearest key, path, value) leaves of a JSON tree; a container leaves its type."""
    if isinstance(node, dict):
        yield name, path, "dict"
        for k, v in node.items():
            yield from _leaves(v, k, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        yield name, path, "list"
        for i, v in enumerate(node):
            yield from _leaves(v, name, f"{path}[{i}]")
    else:
        yield name, path, node


def _json(path):
    with open(path) as fh:
        if path.endswith(".jsonl"):
            return [leaf for i, line in enumerate(fh)
                    for leaf in _leaves(json.loads(line), "", f"line{i}")]
        return list(_leaves(json.load(fh), "", ""))


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _diff(a, b):
    """|a - b|, 0 for two nans."""
    return 0.0 if a == b or math.isnan(a) and math.isnan(b) else abs(a - b)


def compare_file(old, new, atol, rtol, tols):
    """Problems found and the worst (absolute, column-relative) difference per column."""
    read = _tsv if old.endswith(".tsv") else _json if old.endswith((".json", ".jsonl")) else None
    if read is None:
        return ([] if _bytes(old) == _bytes(new) else ["bytes differ"]), {}
    try:
        la, lb = list(read(old)), list(read(new))
    except ValueError as exc:
        return [f"unreadable: {exc}"], {}
    if len(la) != len(lb) or any(x[1] != y[1] for x, y in zip(la, lb)):
        return ["shape differs"], {}
    scale = {}
    for name, _, x in la + lb:
        if _number(x) and math.isfinite(x):
            scale[name] = max(scale.get(name, 0.0), abs(x))
    problems, worst = [], {}
    for (name, path, a), (_, _, b) in zip(la, lb):
        if not (_number(a) and _number(b)):
            if a != b:
                problems.append(f"{path}: {a!r} != {b!r}")
            continue
        d, s = _diff(a, b), scale.get(name, 0.0)
        rel = d / s if s else (math.inf if d else 0.0)
        w = worst.setdefault(name, [0.0, 0.0])
        w[0], w[1] = max(w[0], d), max(w[1], rel)
        tol_a, tol_r = (tols[name], tols[name]) if name in tols else (atol, rtol)
        if not d <= max(tol_a, tol_r * s):
            problems.append(f"{path}: {a!r} != {b!r} (|d| {d:.3g}, {rel:.3g} of the column)")
    return problems, worst


def compare(old_dir, new_dir, atol=0.0, rtol=0.0, tols=None, out=sys.stdout):
    """Report every file of two output directories; True when all agree."""
    tols = tols or {}
    fa, fb = _files(old_dir), _files(new_dir)
    ok = True
    for rel in sorted(fa | fb):
        if rel not in fa or rel not in fb:
            print(f"FAIL {rel}: only in {old_dir if rel in fa else new_dir}", file=out)
            ok = False
            continue
        a, b = os.path.join(old_dir, rel), os.path.join(new_dir, rel)
        if _bytes(a) == _bytes(b):
            print(f"ok   {rel}: identical", file=out)
            continue
        problems, worst = compare_file(a, b, atol, rtol, tols)
        moved = {k: w for k, w in worst.items() if w[0] > 0}
        status = "FAIL" if problems else "ok  "
        summary = ", ".join(f"{k} |d| {w[0]:.2g} rel {w[1]:.2g}" for k, w in sorted(moved.items()))
        ok = ok and not problems
        if not summary and problems:
            # nothing numeric moved: the first problem is the headline
            summary, problems = problems[0], problems[1:]
        print(f"{status} {rel}: {summary or 'equal'}", file=out)
        for p in problems[:10]:
            print(f"     {p}", file=out)
        if len(problems) > 10:
            print(f"     ... {len(problems) - 10} more", file=out)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--atol", type=float, default=0.0, help="absolute tolerance (default 0)")
    parser.add_argument("--rtol", type=float, default=0.0, help="relative tolerance (default 0)")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=X",
                        help="absolute and relative tolerance X for one column or key")
    args = parser.parse_args(argv)
    tols = {}
    for item in args.tol:
        name, _, val = item.partition("=")
        try:
            tols[name] = float(val)
        except ValueError:
            parser.error(f"--tol {item!r}: expected NAME=NUMBER")
    for d in (args.old, args.new):
        if not os.path.isdir(d):
            parser.error(f"{d}: not a directory")
    return 0 if compare(args.old, args.new, args.atol, args.rtol, tols) else 1


if __name__ == "__main__":
    raise SystemExit(main())
