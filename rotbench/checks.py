"""Correctness gate: read each step's output files and judge every item.

An item is one scan record or one simulate invocation.  An item fails on a nonzero exit code, an
uncaught exception, a record with `converged: false`, or any check below.
Each item also yields a fingerprint of its headline numbers; for the default
seed those are compared against reference/seed0.json.

Tolerances are the acceptance targets of the source paper, except the
reference match, whose tolerance sits above the certified step error (1e-8)
and below the tightest acceptance tolerance (1e-4).
"""

import json
import math
import os

SQRT3INV = 1.0 / math.sqrt(3.0)
NORM_TOL = 1e-10
STEP_TOL = 1e-8          # integrator.tol every workload runs at
REF_ATOL = 1e-6
POPS_TARGET = (0.5, 0.25, 0.25)
POPS_TOL = 0.02
PHASE_TARGET = math.pi / 9.0
PHASE_TOL = 0.05


class Item:
    """One result item: its problems and its fingerprint."""

    def __init__(self, label):
        self.label = label
        self.problems = []
        self.fingerprint = {}

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)

    def close(self, name, value, target, tol):
        ok = value is not None and abs(value - target) <= tol
        self.require(ok, f"{name} = {value!r}, want {target:.6g} +- {tol:g}")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _units(outdir):
    """Coupling g and rotational period tau of a step, from its manifest."""
    system = _load_json(os.path.join(outdir, "manifest.json"))["config"]["system"]
    b = system["rot_const_au"]
    return system["coupling_ratio"] * 2.0 * b, math.pi / b


def _tsv_rows(path):
    with open(path) as fh:
        return sum(1 for line in fh if not line.startswith("#"))


def _invariants(item, rec):
    item.require(rec.get("converged", True), f"not converged: {rec.get('error')}")
    norm = rec.get("norm_final")
    item.require(norm is not None and abs(norm - 1.0) <= NORM_TOL, f"norm_final = {norm!r}")
    err = rec.get("step_error")
    if err is not None:
        item.require(err <= STEP_TOL, f"step_error {err!r} > {STEP_TOL:g}")


def _revival_tau(period_au, tau):
    return None if period_au is None else period_au / tau


def _check_pops(item, pops, prefix):
    for name, value, target in zip(("0;0", "+;0", "-;0"), pops, POPS_TARGET):
        item.close(f"{prefix}[{name}]", value, target, POPS_TOL)


def _scan_detuning(step, outdir):
    cfg = step["config"]["scan"]
    recs = _jsonl(os.path.join(outdir, "records.jsonl"))
    g, tau = _units(outdir)
    items = []
    anchor = {}
    for rec in recs:
        cav = rec.get("cavity")
        bw_g = rec["bandwidth"] / g
        det_g = rec["detuning"] / g
        item = Item(f"cav{'on' if cav else 'off'}_bw{bw_g:.4g}_det{det_g:+.6f}")
        _invariants(item, rec)
        item.fingerprint = {"orientation_max": rec.get("orientation_max"),
                            "orientation_snapshot": rec.get("orientation_snapshot"),
                            "revival_tau": _revival_tau(rec.get("revival_period"), tau)}
        if det_g == 0.0 and abs(bw_g - 0.1) < 1e-9:
            anchor[cav] = (item, rec)
        items.append(item)
    # the anchors: bare resonant kick reaches 1/sqrt(3) and revives at tau;
    # the same kick in the cavity is blockaded to <= 10 % of that
    if False in anchor:
        item, rec = anchor[False]
        item.close("bare orientation_max", rec.get("orientation_max"), SQRT3INV, 0.005)
        item.close("bare revival/tau", item.fingerprint["revival_tau"], 1.0, 1e-3)
    if True in anchor and False in anchor:
        item, rec = anchor[True]
        bare = anchor[False][1].get("orientation_max") or 0.0
        coupled = rec.get("orientation_max")
        item.require(coupled is not None and coupled <= 0.1 * bare,
                     f"cavity orientation_max {coupled!r} > 10% of bare {bare!r}")
    # every converged record must reach the per-group TSVs
    for cav in cfg["cavity"]:
        for bw in cfg["bandwidths_g"]:
            name = f"orientation_cav{'on' if cav else 'off'}_bw{bw:g}.tsv"
            rows = _tsv_rows(os.path.join(outdir, name))
            if rows != len(cfg["detunings_g"]) and items:
                items[0].problems.append(f"{name}: {rows} rows, want {len(cfg['detunings_g'])}")
    return items


def _simulate(step, outdir):
    body = _load_json(os.path.join(outdir, "populations.json"))
    exp = _load_json(os.path.join(outdir, "manifest.json"))["config"]["experiment"]
    _, tau = _units(outdir)
    item = Item(step["tag"])
    _invariants(item, body)
    # every file the command promises, at the sizes the config asks for
    n_trace = exp["n_trace"]
    want = {"orientation.tsv": n_trace, "spectrum.tsv": n_trace // 2 + 1,
            "trajectory.tsv": exp["n_trajectory"]}
    for name, rows in want.items():
        got = _tsv_rows(os.path.join(outdir, name))
        item.require(got == rows, f"{name}: {got} rows, want {rows}")
    rev = _revival_tau(body.get("revival_period"), tau)
    item.fingerprint = {"orientation_max": body.get("orientation_max"),
                        "orientation_snapshot": body.get("orientation_snapshot"),
                        "revival_tau": rev}
    if step["tag"] == "bare_anchor":
        item.close("bare orientation_max", body.get("orientation_max"), SQRT3INV, 0.005)
        item.close("bare revival/tau", rev, 1.0, 1e-3)
    # a designed anchor without its design report fails as unreadable output
    if "design_report" in body or step["tag"] == "designed_anchor":
        phase = body["field"]["components"][0][1]
        item.fingerprint["solved_phase_up"] = phase
        _check_pops(item, body["design_report"]["predicted_populations"], "predicted")
        if step["tag"] == "designed_anchor":
            pops = body["populations"]
            _check_pops(item, [pops.get(k) for k in ("0;0", "+;0", "-;0")], "populations")
            item.close("solved phase_up", phase, PHASE_TARGET, PHASE_TOL)
    return [item]


def check_step(step, outdir, exit_code, error):
    """Items of one step; a failed invocation fails every item it owed."""
    if exit_code != 0 or error is not None:
        why = error or f"exit code {exit_code}"
        items = [Item(f"{step['tag']}#{i}") for i in range(step["items"])]
        for item in items:
            item.problems.append(why)
        return items
    cmd = step["command"]
    try:
        items = {"scan": _scan_detuning, "simulate": _simulate}[cmd](step, outdir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        item = Item(step["tag"])
        item.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        items = [item]
    # a record the program silently dropped still counts as attempted and failed
    for i in range(len(items), step["items"]):
        item = Item(f"{step['tag']}#missing{i}")
        item.problems.append("record missing from the output")
        items.append(item)
    return items


def compare_reference(items, reference):
    """Mark items whose fingerprint leaves the reference by more than REF_ATOL."""
    if len(items) != len(reference):
        for item in items:
            item.problems.append(f"reference has {len(reference)} items, run has {len(items)}")
        return
    for item, ref in zip(items, reference):
        if item.label != ref["label"]:
            item.problems.append(f"reference item {ref['label']!r}, run item {item.label!r}")
            continue
        for key, want in ref["fingerprint"].items():
            got = item.fingerprint.get(key)
            if want is None or got is None:
                ok = want is None and got is None
            else:
                ok = abs(got - want) <= REF_ATOL
            item.require(ok, f"reference mismatch {key}: {got!r} vs {want!r}")
