"""Command-line entry point: config ingestion, experiments, file export.

This is the package's only I/O boundary.  A run is described by one YAML
config (optionally layered on a named preset); every omitted field is filled
from defaults and the fully resolved config is echoed into the output
manifest together with its hash, so a directory is reproducible from its own
manifest.  Outputs are tab-separated columns plus JSON summaries; nothing
carries a timestamp, so identical configs produce bit-identical directories.

Exit codes: 0 success, 2 invalid config or arguments, 3 integration or
quadrature failed to converge, 4 requested design infeasible.
"""

import argparse
import copy
import hashlib
import json
import os
import sys

import numpy as np
import yaml

from . import __version__
from .control import (
    DESIGN_AREA,
    KICK_AREA,
    design_composite,
    kick_response,
    scan_composite_bandwidth,
    scan_detuning_bandwidth,
)
from .errors import (
    ConfigError,
    DesignInfeasible,
    NotConverged,
    QuadratureNotConverged,
)
from .model import SystemParams, build_dressed_basis, convert_units, dressed_cos_matrix
from .observables import orientation_max_oracle
from .pulse import composite_for_area, field_to_dict, gaussian_for_area

DEFAULTS = {
    "system": {
        "rot_const": {"value": 0.20286, "unit": "cm-1"},
        "dipole": {"value": 0.715, "unit": "debye"},
        "coupling_ratio": 0.1,
        "cavity": True,
        "j_max": 8,
        "n_max": 4,
    },
    "field": {
        "kind": "gaussian",       # gaussian | composite | designed
        "area": None,             # default: pi/4 gaussian, pi sqrt(2)/8 otherwise
        "bandwidth_g": 0.1,       # 1/tau0 in units of g_ref
        "detuning_g": 0.0,        # gaussian carrier offset from omega01, units of g_ref
        "phase": 0.0,             # gaussian carrier phase
        "carriers": None,         # composite: list of {detuning_g, phase}, offsets from omega_c
        "phase_minus": 0.0,       # designed: fixed lower-carrier phase
        "branch": "auto",         # designed: +, -, or auto
    },
    "experiment": {
        "dressed": None,          # default: follow system.cavity
        "trace_window_tau": 40.0,
        "n_trace": 16384,
        "snapshot_tau": 6.75,
        "n_trajectory": 257,
    },
    "scan": {
        "kind": "detuning",       # detuning | composite
        "detunings_g": [0.0],
        "bandwidths_g": [0.1],
        "cavity": [True],
        "write_spectra": False,
        "reference_bandwidth_g": 0.1,
    },
    "integrator": {
        "method": "yoshida4",
        "tol": 1e-8,
        "dt": None,
        "max_halvings": 6,
    },
    "output": {
        "directory": "out",
    },
}

PRESETS = {
    # bare molecule, narrowband quarter-area kick: revival pi/B, max 1/sqrt(3)
    "bare": {
        "system": {"cavity": False, "n_max": 0},
        "field": {"kind": "gaussian", "bandwidth_g": 0.1},
    },
    # orientation maps vs carrier detuning at three bandwidths, cavity on/off
    "fig2": {
        "scan": {
            "kind": "detuning",
            "detunings_g": {"start": -2.0, "stop": 2.0, "num": 81},
            "bandwidths_g": [0.1, 0.5, 1.0],
            "cavity": [True, False],
        },
    },
    # resonant kick spectra: doublet lines flanking the bare transition
    "fig3": {
        "scan": {
            "kind": "detuning",
            "detunings_g": [0.0],
            "bandwidths_g": [0.1, 0.5, 1.0],
            "cavity": [True],
            "write_spectra": True,
        },
    },
    # designed two-color pulse at 0.1 g: restored orientation maximum
    "fig4": {
        "field": {"kind": "designed", "bandwidth_g": 0.1},
    },
    # composite performance vs bandwidth, exact against first-order analytic
    "fig5": {
        "scan": {
            "kind": "composite",
            "bandwidths_g": {"start": 0.05, "stop": 1.5, "num": 25, "log": True},
            "reference_bandwidth_g": 0.1,
        },
    },
}


# ---------------------------------------------------------------- config


def _deep_merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _lookup(cfg, path):
    """The mapping that holds a dotted config path, and its last key."""
    *parents, key = path.split(".")
    for part in parents:
        cfg = cfg[part]
    return cfg, key


def _as_float(cfg, path, allow_none=False, positive=False, nonnegative=False):
    """Validate a number in place: the resolved config keeps the float."""
    node, key = _lookup(cfg, path)
    val = node[key]
    if val is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}: value required")
    if isinstance(val, bool):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    try:
        val = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {val!r}") from None
    if positive and val <= 0:
        raise ConfigError(f"{path}: must be positive")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}: must be nonnegative")
    node[key] = val
    return val


def _as_int(cfg, path, minimum=None):
    """Validate an integer in place: the resolved config keeps the int."""
    node, key = _lookup(cfg, path)
    val = node[key]
    if isinstance(val, bool):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    try:
        ival = int(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected an integer, got {val!r}") from None
    if ival != float(val):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    if minimum is not None and ival < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    node[key] = ival
    return ival


def _as_bool(cfg, path):
    """A true boolean; strings such as "false" are rejected, never coerced."""
    node, key = _lookup(cfg, path)
    if not isinstance(node[key], bool):
        raise ConfigError(f"{path}: expected true or false, got {node[key]!r}")
    return node[key]


def _as_choice(cfg, path, choices):
    node, key = _lookup(cfg, path)
    val = node[key]
    if val not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {val!r}")
    return val


def _quantity(node, path, unit_choices, default_unit):
    """Scalar or {value, unit} mapping, converted to atomic units."""
    if isinstance(node, dict):
        extra = set(node) - {"value", "unit"}
        if extra:
            raise ConfigError(f"{path}: unknown keys {sorted(extra)}")
        value = node.get("value")
        unit = node.get("unit", default_unit)
    else:
        value, unit = node, default_unit
    if unit not in unit_choices:
        raise ConfigError(f"{path}.unit: expected one of {sorted(unit_choices)}, got {unit!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.value: expected a number, got {value!r}") from None
    if value <= 0:
        raise ConfigError(f"{path}.value: must be positive")
    return convert_units(value, unit, "au" if unit in ("cm-1", "au") else "au-dipole")


def _grid(node, path, positive=False):
    """List of numbers, or {start, stop, num[, log]} expanded to a grid."""
    if isinstance(node, dict):
        extra = set(node) - {"start", "stop", "num", "log"}
        if extra:
            raise ConfigError(f"{path}: unknown keys {sorted(extra)}")
        try:
            start, stop = float(node["start"]), float(node["stop"])
            num = int(node["num"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{path}: grid needs numeric start, stop, num") from None
        if num < 1:
            raise ConfigError(f"{path}.num: must be >= 1")
        if node.get("log"):
            if start <= 0 or stop <= 0:
                raise ConfigError(f"{path}: log grid needs positive endpoints")
            vals = np.geomspace(start, stop, num)
        else:
            vals = np.linspace(start, stop, num)
        out = [float(v) for v in vals]
    elif isinstance(node, (list, tuple)):
        try:
            out = [float(v) for v in node]
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: expected numbers") from None
    else:
        raise ConfigError(f"{path}: expected a list or a start/stop/num mapping")
    if not out:
        raise ConfigError(f"{path}: grid is empty")
    if positive and any(v <= 0 for v in out):
        raise ConfigError(f"{path}: values must be positive")
    return out


def resolve_config(raw, preset=None):
    """Layer raw config over a preset and the defaults; validate everything."""
    # deep copy: resolution fills derived keys in place and must never
    # write back into the module-level defaults
    base = copy.deepcopy(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        base = _deep_merge(base, PRESETS[preset])
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for section, body in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{section}: must be a mapping")
        for key in body:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key!r}")
    cfg = _deep_merge(base, raw)

    # system
    cfg["system"]["rot_const_au"] = _quantity(cfg["system"]["rot_const"], "system.rot_const",
                                              ("cm-1", "au"), "cm-1")
    cfg["system"]["dipole_au"] = _quantity(cfg["system"]["dipole"], "system.dipole",
                                           ("debye", "au-dipole"), "debye")
    _as_float(cfg, "system.coupling_ratio", positive=True)
    _as_bool(cfg, "system.cavity")
    _as_int(cfg, "system.j_max", minimum=1)
    _as_int(cfg, "system.n_max", minimum=0)
    if cfg["system"]["cavity"] and cfg["system"]["n_max"] < 1:
        raise ConfigError("system.n_max: a coupled cavity needs n_max >= 1")

    # field
    kind = _as_choice(cfg, "field.kind", {"gaussian", "composite", "designed"})
    if cfg["field"]["area"] is None:
        cfg["field"]["area"] = KICK_AREA if kind == "gaussian" else DESIGN_AREA
    _as_float(cfg, "field.area", nonnegative=True)
    _as_float(cfg, "field.bandwidth_g", positive=True)
    _as_float(cfg, "field.detuning_g")
    _as_float(cfg, "field.phase")
    _as_float(cfg, "field.phase_minus")
    _as_choice(cfg, "field.branch", {"+", "-", "auto"})
    if kind == "composite":
        carriers = cfg["field"]["carriers"]
        if not isinstance(carriers, (list, tuple)) or not carriers:
            raise ConfigError("field.carriers: composite field needs a nonempty list")
        parsed = []
        for i, c in enumerate(carriers):
            if not isinstance(c, dict) or set(c) - {"detuning_g", "phase"}:
                raise ConfigError(f"field.carriers[{i}]: expected {{detuning_g, phase}}")
            try:
                parsed.append((float(c.get("detuning_g", 0.0)), float(c.get("phase", 0.0))))
            except (TypeError, ValueError):
                raise ConfigError(f"field.carriers[{i}]: expected numbers") from None
        cfg["field"]["carriers"] = [{"detuning_g": d, "phase": p} for d, p in parsed]
    if kind == "designed" and not cfg["system"]["cavity"]:
        raise ConfigError("field.kind: designed fields need the cavity on")

    # experiment
    if cfg["experiment"]["dressed"] is None:
        cfg["experiment"]["dressed"] = cfg["system"]["cavity"]
    _as_bool(cfg, "experiment.dressed")
    if cfg["experiment"]["dressed"] and not cfg["system"]["cavity"]:
        raise ConfigError("experiment.dressed: no resonant cavity to dress (system.cavity is off)")
    if not cfg["experiment"]["dressed"] and cfg["system"]["cavity"]:
        raise ConfigError("experiment.dressed: product-basis runs need system.cavity off")
    _as_float(cfg, "experiment.trace_window_tau", positive=True)
    _as_int(cfg, "experiment.n_trace", minimum=64)
    _as_float(cfg, "experiment.snapshot_tau", nonnegative=True)
    _as_int(cfg, "experiment.n_trajectory", minimum=2)

    # scan
    _as_choice(cfg, "scan.kind", {"detuning", "composite"})
    cfg["scan"]["detunings_g"] = _grid(cfg["scan"]["detunings_g"], "scan.detunings_g")
    cfg["scan"]["bandwidths_g"] = _grid(cfg["scan"]["bandwidths_g"], "scan.bandwidths_g",
                                        positive=True)
    cav = cfg["scan"]["cavity"]
    if not isinstance(cav, (list, tuple)) or not cav or \
            any(not isinstance(c, bool) for c in cav):
        raise ConfigError("scan.cavity: expected a nonempty list of booleans")
    _as_bool(cfg, "scan.write_spectra")
    _as_float(cfg, "scan.reference_bandwidth_g", positive=True)

    # integrator
    _as_choice(cfg, "integrator.method", {"yoshida4", "strang", "midpoint"})
    _as_float(cfg, "integrator.tol", positive=True)
    _as_float(cfg, "integrator.dt", allow_none=True, positive=True)
    _as_int(cfg, "integrator.max_halvings", minimum=0)

    # output
    if not isinstance(cfg["output"]["directory"], str) or not cfg["output"]["directory"]:
        raise ConfigError("output.directory: expected a nonempty string")
    return cfg


def build_params(cfg):
    """SystemParams for the run plus the coupling reference g_ref.

    g_ref = coupling_ratio * omega01 scales the field bandwidths and
    detunings even when the cavity itself is switched off, so bare and
    coupled runs share pulse definitions.
    """
    s = cfg["system"]
    b = s["rot_const_au"]
    mu = s["dipole_au"]
    omega01 = 2.0 * b
    g_ref = s["coupling_ratio"] * omega01
    params = SystemParams(
        rot_const=b,
        dipole=mu,
        cavity_freq=omega01 if s["cavity"] else 0.0,
        coupling=g_ref if s["cavity"] else 0.0,
        j_max=s["j_max"],
        n_max=s["n_max"] if s["cavity"] else 0,
    )
    return params, g_ref


def build_field(cfg, params, g_ref):
    """Field spec from the config; designed kinds also return their report."""
    f = cfg["field"]
    tau0 = 1.0 / (f["bandwidth_g"] * g_ref)
    if f["kind"] == "gaussian":
        carrier = params.omega01 + f["detuning_g"] * g_ref
        return gaussian_for_area(params, f["area"], tau0, carrier, f["phase"]), None
    if f["kind"] == "composite":
        comps = [(params.cavity_freq + c["detuning_g"] * g_ref, c["phase"])
                 for c in f["carriers"]]
        return composite_for_area(params, f["area"], tau0, comps), None
    pulse, report = design_composite(params, bandwidth=f["bandwidth_g"] * g_ref,
                                     area=f["area"], phase_minus=f["phase_minus"],
                                     branch=f["branch"])
    return pulse, report


# ---------------------------------------------------------------- output


def _json_safe(obj):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            safe = _json_safe(v)
            if safe is not _DROP:
                out[str(k)] = safe
        return out
    if isinstance(obj, (list, tuple)):
        vals = [_json_safe(v) for v in obj]
        return [v for v in vals if v is not _DROP]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return _DROP


_DROP = object()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(v):
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return str(int(v))
    v = float(v)
    return repr(v)


def _per(value, unit):
    """value / unit, or None (written as nan) when the record lacks the value."""
    return None if value is None else value / unit


def _write_tsv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write("# " + "\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _write_manifest(outdir, cfg, args, command):
    canon = json.dumps(_json_safe(cfg), sort_keys=True, separators=(",", ":"))
    manifest = {
        "package": "rotpolariton",
        "version": __version__,
        "command": command,
        "preset": args.preset,
        "seed": args.seed,
        "threads": args.threads,
        "config": cfg,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _prepare_outdir(cfg, args):
    outdir = args.out or cfg["output"]["directory"]
    cfg["output"]["directory"] = outdir
    os.makedirs(outdir, exist_ok=True)
    return outdir


# ---------------------------------------------------------------- commands


def _integrator_kwargs(cfg):
    integ = cfg["integrator"]
    return {"method": integ["method"], "tol": integ["tol"],
            "dt": integ["dt"], "max_halvings": integ["max_halvings"]}


def cmd_simulate(cfg, args):
    params, g_ref = build_params(cfg)
    fld, design_report = build_field(cfg, params, g_ref)
    exp = cfg["experiment"]
    tau = params.revival_time
    rec = kick_response(
        params, fld,
        dressed=exp["dressed"],
        trace_window=exp["trace_window_tau"] * tau,
        n_trace=exp["n_trace"],
        snapshot_offset=exp["snapshot_tau"] * tau,
        keep_series=True, keep_spectrum=True,
        n_pulse_samples=exp["n_trajectory"],
        integrator=_integrator_kwargs(cfg),
    )
    outdir = _prepare_outdir(cfg, args)
    _write_manifest(outdir, cfg, args, "simulate")

    series = rec["series"]
    _write_tsv(os.path.join(outdir, "orientation.tsv"),
               ["time_au", "time_over_tau", "orientation"],
               [(t, t / tau, v) for t, v in zip(series.times, series.values)])

    spec = rec["spectrum"]
    _write_tsv(os.path.join(outdir, "spectrum.tsv"),
               ["omega_au", "omega_over_B", "amplitude"],
               [(w, w / params.rot_const, a) for w, a in zip(spec.omega, spec.amplitude)])

    traj = rec.get("trajectory")
    if traj is not None:
        cols = ["time_au"]
        for lab in traj.labels:
            cols += [f"re({lab})", f"im({lab})"]
        rows = []
        for i, t in enumerate(traj.times):
            row = [t]
            for a in traj.states[i]:
                row += [a.real, a.imag]
            rows.append(row)
        _write_tsv(os.path.join(outdir, "trajectory.tsv"), cols, rows)

    summary = {k: v for k, v in rec.items() if k not in ("series", "spectrum", "trajectory")}
    if design_report is not None:
        summary["design_report"] = design_report.as_dict()
        summary["field"] = field_to_dict(fld)
    _write_json(os.path.join(outdir, "populations.json"), summary)

    if rec["revival_period"] is None:
        revival = "none"
    else:
        revival = f"{rec['revival_period'] / tau:.4f} tau"
    print(f"simulate: orientation max {rec['orientation_max']:.6f} "
          f"at {rec['t_max'] / tau:.4f} tau after the pulse; revival {revival}")
    print(f"wrote {outdir}/orientation.tsv, spectrum.tsv, trajectory.tsv, populations.json")
    return 0


def cmd_scan(cfg, args):
    params, g_ref = build_params(cfg)
    if not cfg["system"]["cavity"]:
        raise ConfigError("scan: system.cavity must stay on; bare runs come from scan.cavity")
    sc = cfg["scan"]
    exp = cfg["experiment"]
    tau = params.revival_time
    outdir = _prepare_outdir(cfg, args)
    _write_manifest(outdir, cfg, args, "scan")

    if sc["kind"] == "detuning":
        result = scan_detuning_bandwidth(
            params,
            detunings=[d * g_ref for d in sc["detunings_g"]],
            bandwidths=[b * g_ref for b in sc["bandwidths_g"]],
            cavity=sc["cavity"],
            trace_window=exp["trace_window_tau"] * tau,
            n_trace=exp["n_trace"],
            snapshot_offset=exp["snapshot_tau"] * tau,
            threads=args.threads,
            keep_spectrum=sc["write_spectra"],
            integrator=_integrator_kwargs(cfg),
        )
        for cav in sc["cavity"]:
            for bw in sc["bandwidths_g"]:
                rows = [(rec["detuning"] / g_ref, rec.get("orientation_max"),
                         rec.get("orientation_snapshot"), _per(rec.get("t_max"), tau),
                         _per(rec.get("revival_period"), tau), rec["converged"])
                        for rec in result.records if rec["cavity"] == cav
                        and abs(rec["bandwidth"] - bw * g_ref) <= 1e-15 * g_ref]
                name = f"orientation_cav{'on' if cav else 'off'}_bw{bw:g}.tsv"
                _write_tsv(os.path.join(outdir, name),
                           ["detuning_g", "orientation_max", "orientation_snapshot",
                            "t_max_tau", "revival_tau", "converged"], rows)
        if sc["write_spectra"]:
            for i, rec in enumerate(result.records):
                spec = rec.get("spectrum")
                if spec is None:
                    continue
                _write_tsv(os.path.join(outdir, f"spectrum_{i:04d}.tsv"),
                           ["omega_au", "omega_over_B", "amplitude"],
                           [(w, w / params.rot_const, a)
                            for w, a in zip(spec.omega, spec.amplitude)])
    else:
        result = scan_composite_bandwidth(
            params,
            bandwidths=[b * g_ref for b in sc["bandwidths_g"]],
            reference_bandwidth=sc["reference_bandwidth_g"] * g_ref,
            n_trace=exp["n_trace"],
            threads=args.threads,
            integrator=_integrator_kwargs(cfg),
        )
        rows = [(rec["bandwidth"] / g_ref, rec.get("orientation_max_exact"),
                 rec.get("orientation_max_magnus"), rec.get("max_population_diff"),
                 _per(rec.get("revival_period"), tau), rec["converged"])
                for rec in result.records]
        _write_tsv(os.path.join(outdir, "composite_bandwidth.tsv"),
                   ["bandwidth_g", "orientation_max_exact", "orientation_max_magnus",
                    "max_population_diff", "revival_tau", "converged"], rows)

    with open(os.path.join(outdir, "records.jsonl"), "w") as fh:
        for i, rec in enumerate(result.records):
            body = _json_safe({"index": i, **rec})
            fh.write(json.dumps(body, sort_keys=True) + "\n")
    _write_json(os.path.join(outdir, "scan_meta.json"), result.meta)

    print(f"scan: {len(result)} records -> {outdir}")
    return 0


def cmd_design(cfg, args):
    params, g_ref = build_params(cfg)
    f = cfg["field"]
    # a leftover gaussian kind means the user never chose a composite area
    area = DESIGN_AREA if f["kind"] == "gaussian" else f["area"]
    pulse, report = design_composite(
        params,
        bandwidth=f["bandwidth_g"] * g_ref,
        area=area,
        phase_minus=f["phase_minus"],
        branch=f["branch"],
    )
    outdir = _prepare_outdir(cfg, args)
    _write_manifest(outdir, cfg, args, "design")
    _write_json(os.path.join(outdir, "field.json"), field_to_dict(pulse))
    body = report.as_dict()
    body["carriers"] = [list(c) for c in pulse.components]
    body["solved_phase_up"] = pulse.components[0][1]
    _write_json(os.path.join(outdir, "report.json"), body)
    print(f"design: solved upper-carrier phase {pulse.components[0][1]:.9f} rad "
          f"(phase functional {report.phase_value_g:.6f} g, "
          f"residual {report.phase_residual_g:.2e} g)")
    print(f"wrote {outdir}/field.json, report.json")
    return 0


def cmd_oracle(cfg, args):
    params, _ = build_params(cfg)
    if not cfg["system"]["cavity"]:
        raise ConfigError("oracle: needs the cavity on (dressed states undefined otherwise)")
    basis = build_dressed_basis(params)
    cos_op = dressed_cos_matrix(params)
    result = orientation_max_oracle(cos_op, basis.energies, basis.labels)
    outdir = _prepare_outdir(cfg, args)
    _write_manifest(outdir, cfg, args, "oracle")
    _write_json(os.path.join(outdir, "oracle.json"), result)
    print(f"oracle: max orientation {result['max']:.8f} at populations "
          f"({result['populations'][0]:.4f}, {result['populations'][1]:.4f}, "
          f"{result['populations'][2]:.4f})")
    return 0


# ---------------------------------------------------------------- entry


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rotpol",
        description="Simulate and design orientation dynamics of a single polar "
                    "molecule strongly coupled to a resonant cavity mode.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML run config")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="named base config to layer --config over")
    common.add_argument("--out", help="output directory (overrides output.directory)")
    common.add_argument("--threads", type=int, default=None,
                        help="worker processes for scans; a detuning scan gives each "
                             "(cavity, bandwidth) group to one process")
    common.add_argument("--seed", type=int, default=None,
                        help="recorded in the manifest; runs are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="one pulse: trajectory, orientation trace, spectrum")
    sub.add_parser("scan", parents=[common],
                   help="grids over detuning/bandwidth or composite bandwidth")
    sub.add_parser("design", parents=[common],
                   help="solve the two-color phase condition")
    sub.add_parser("oracle", parents=[common],
                   help="brute-force orientation bound on the lowest dressed states")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "scan": cmd_scan,
    "design": cmd_design,
    "oracle": cmd_oracle,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    raw = yaml.safe_load(fh) or {}
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
            except yaml.YAMLError as exc:
                raise ConfigError(f"config is not valid YAML: {exc}") from None
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        cfg = resolve_config(raw, preset=args.preset)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotConverged, QuadratureNotConverged) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except DesignInfeasible as exc:
        print(f"design infeasible: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
