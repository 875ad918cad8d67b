"""Command-line entry point: config ingestion, experiments, file export.

This is the package's only I/O boundary.  A run is described by one YAML
config (optionally layered on a named preset); every omitted field is filled
from defaults and the fully resolved config is echoed into the output
manifest together with its hash, so a directory is reproducible from its own
manifest.  Outputs are tab-separated columns plus JSON summaries; nothing
carries a timestamp, so identical configs produce bit-identical directories.

Exit codes: 0 success, 2 invalid config or arguments (a grid or sample count
above 100,000, --threads above 256 and sample times floating point cannot
resolve included), a run above the propagation step cap, or an output
directory that cannot be written, 3 the certified propagation failed to
converge (a tol below the run's norm drift included), 4 requested design
infeasible.  A failed run writes no output directory.  Pulse areas are
closed forms and cannot fail.
"""

import argparse
import copy
import hashlib
import json
import os
import reprlib
import sys
from functools import cache, partial

import numpy as np
import yaml

from . import __version__
from .control import (
    _MAGNUS_N_TRACE,
    DESIGN_AREA,
    KICK_AREA,
    design_composite,
    kick_response,
    scan_composite_bandwidth,
    scan_detuning_bandwidth,
)
from .errors import ConfigError, DesignInfeasible, NotConverged
from .model import AU_PER_DEBYE, HARTREE_PER_CM1, SystemParams, build_model
from .observables import orientation_max_oracle
from .pulse import composite_for_area, field_to_dict, gaussian_for_area


# ---------------------------------------------------------------- config


def _deep_merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


# quotes config values: a YAML alias can stand for far more data than its file holds
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 2


def _finite(val):
    """float(val) when val is a finite number (a boolean is not), else None."""
    if isinstance(val, bool):
        return None
    try:
        num = float(val)
    except (TypeError, ValueError, OverflowError):
        return None
    return num if np.isfinite(num) else None


def _number(val, path):
    num = _finite(val)
    if num is None:
        raise ConfigError(f"{path}: expected a finite number, got {_QUOTE.repr(val)}")
    return num


def _integer(val, path):
    num = _finite(val)
    if num is None or num != int(num):
        raise ConfigError(f"{path}: expected an integer, got {_QUOTE.repr(val)}")
    return int(num)


def _boolean(val, path):
    """A true boolean; strings such as "false" are rejected, never coerced."""
    if not isinstance(val, bool):
        raise ConfigError(f"{path}: expected true or false, got {_QUOTE.repr(val)}")
    return val


# a derived scale below the smallest normal float has lost its precision, and
# at zero it divides by zero downstream
_TINY = np.finfo(float).tiny


def _normal(value, path):
    """value when it is a finite float no smaller than the smallest normal one."""
    if not (np.isfinite(value) and value >= _TINY):
        raise ConfigError(f"{path}: scales to {value:g} in atomic units, "
                          f"outside the normal floating-point range")
    return value


def _quantity(node, path, units):
    """Scalar or {value, unit} mapping, converted to atomic units.

    units maps each accepted unit to its atomic-unit factor; the first is the default.
    """
    if isinstance(node, dict):
        extra = set(node) - {"value", "unit"}
        if extra:
            raise ConfigError(f"{path}: unknown keys {sorted(extra, key=str)}")
        value = node.get("value")
        unit = node.get("unit", next(iter(units)))
    else:
        value, unit = node, next(iter(units))
    if not (isinstance(unit, str) and unit in units):
        raise ConfigError(f"{path}.unit: expected one of {sorted(units)}, got {_QUOTE.repr(unit)}")
    value = _number(value, f"{path}.value")
    if value <= 0:
        raise ConfigError(f"{path}.value: must be positive")
    return _normal(value * units[unit], path)


# a start/stop/num grid or sample count larger than this is a typo, not a run
_MAX_GRID = 100_000
# worker processes a scan may ask for; a process pool starts all of them at once
_MAX_THREADS = 256
# basis states of a run: j_max + 1 on the rotor alone, 2 (n_max + 1) dressed;
# the states of a trajectory of _MAX_GRID samples x 64 states take 102 MB
_MAX_DIM = 64


def _grid(node, path, positive=False):
    """List of numbers, or {start, stop, num[, log]} expanded to a grid."""
    if isinstance(node, dict):
        extra = set(node) - {"start", "stop", "num", "log"}
        if extra:
            raise ConfigError(f"{path}: unknown keys {sorted(extra, key=str)}")
        if not {"start", "stop", "num"} <= set(node):
            raise ConfigError(f"{path}: grid needs numeric start, stop, num")
        start = _number(node["start"], f"{path}.start")
        stop = _number(node["stop"], f"{path}.stop")
        num = _integer(node["num"], f"{path}.num")
        if not 1 <= num <= _MAX_GRID:
            raise ConfigError(f"{path}.num: must be between 1 and {_MAX_GRID}")
        if _boolean(node.get("log", False), f"{path}.log"):
            if start <= 0 or stop <= 0:
                raise ConfigError(f"{path}: log grid needs positive endpoints")
            vals = np.geomspace(start, stop, num)
        elif np.isfinite(stop - start):
            vals = np.linspace(start, stop, num)
        else:
            raise ConfigError(f"{path}: start and stop are too far apart")
        out = [float(v) for v in vals]
    elif isinstance(node, (list, tuple)):
        out = [_number(v, f"{path}[{i}]") for i, v in enumerate(node)]
    else:
        raise ConfigError(f"{path}: expected a list or a start/stop/num mapping")
    if not out:
        raise ConfigError(f"{path}: grid is empty")
    if positive and any(v <= 0 for v in out):
        raise ConfigError(f"{path}: values must be positive")
    return out


def _carriers(node, path):
    """Composite carriers: a nonempty list of {detuning_g, phase}, each 0 if omitted."""
    if not isinstance(node, (list, tuple)) or not node:
        raise ConfigError(f"{path}: composite field needs a nonempty list")
    out = []
    for i, c in enumerate(node):
        if not isinstance(c, dict) or set(c) - {"detuning_g", "phase"}:
            raise ConfigError(f"{path}[{i}]: expected {{detuning_g, phase}}")
        out.append({k: _number(c.get(k, 0.0), f"{path}[{i}].{k}")
                    for k in ("detuning_g", "phase")})
    return out


def _flags(node, path):
    if not isinstance(node, (list, tuple)) or not node or \
            any(not isinstance(c, bool) for c in node):
        raise ConfigError(f"{path}: expected a nonempty list of booleans")
    return node


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key given twice in one mapping, at any depth."""

    def construct_mapping(self, node, deep=False):
        # the pairs as written: the parent flattens merge keys (<<) into them
        pairs = [p for p in node.value if p[0].tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node, _ in pairs:
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {_QUOTE.repr(key)}", key_node.start_mark)
            seen.add(key)
        return mapping


def _directory(node, path):
    if not isinstance(node, str) or not node:
        raise ConfigError(f"{path}: expected a nonempty string")
    return node


# SCHEMA[section][key] = (default, rule).  A rule is float or bool; (float,
# "positive"), (float, "nonnegative") or (int, minimum); a tuple of allowed
# strings; a dict of unit factors, for a quantity whose value in atomic units
# is stored as <key>_au; or a check(value, path) returning the value to store.
# A key whose default is None may stay None.
SCHEMA = {
    "system": {
        "rot_const": ({"value": 0.20286, "unit": "cm-1"}, {"cm-1": HARTREE_PER_CM1, "au": 1.0}),
        "dipole": ({"value": 0.715, "unit": "debye"}, {"debye": AU_PER_DEBYE, "au-dipole": 1.0}),
        "coupling_ratio": (0.1, (float, "positive")),
        "cavity": (True, bool),
        "j_max": (8, (int, 1)),
        "n_max": (4, (int, 0)),
    },
    "field": {
        "kind": ("gaussian", ("gaussian", "composite", "designed")),
        # null: each pulse's own default, pi/4 for a kick, pi sqrt(2)/8 otherwise
        "area": (None, (float, "nonnegative")),
        "bandwidth_g": (0.1, (float, "positive")),  # 1/tau0 in units of g_ref
        "detuning_g": (0.0, float),     # gaussian carrier offset from omega01, units of g_ref
        "phase": (0.0, float),          # gaussian carrier phase
        "carriers": (None, _carriers),  # composite: offsets from omega01, units of g_ref
        "phase_minus": (0.0, float),    # designed: fixed lower-carrier phase
        "branch": ("+", ("+", "-")),    # designed: root of the phase condition
    },
    "experiment": {
        "trace_window_tau": (40.0, (float, "positive")),
        "n_trace": (16384, (int, 64)),
        "snapshot_tau": (6.75, (float, "nonnegative")),
        "n_trajectory": (257, (int, 2)),
    },
    "scan": {
        "kind": ("detuning", ("detuning", "composite")),
        "detunings_g": ([0.0], _grid),
        "bandwidths_g": ([0.1], partial(_grid, positive=True)),
        "cavity": ([True], _flags),
        "write_spectra": (False, bool),
        "reference_bandwidth_g": (0.1, (float, "positive")),
    },
    "integrator": {
        "tol": (1e-8, (float, "positive")),
    },
    "output": {
        "directory": ("out", _directory),
    },
}

DEFAULTS = {section: {key: default for key, (default, _) in rules.items()}
            for section, rules in SCHEMA.items()}

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


def _check(rule, val, path):
    """val checked against a SCHEMA rule other than a quantity; the value to store."""
    if isinstance(rule, tuple) and isinstance(rule[0], str):
        if not isinstance(val, str) or val not in rule:
            raise ConfigError(f"{path}: expected one of {sorted(rule)}, got {_QUOTE.repr(val)}")
        return val
    kind, bound = rule if isinstance(rule, tuple) else (rule, None)
    if kind is bool:
        return _boolean(val, path)
    if kind is int:
        num = _integer(val, path)
        if num < bound:
            raise ConfigError(f"{path}: must be >= {bound}")
        return num
    if kind is float:
        if val is None:
            raise ConfigError(f"{path}: value required")
        num = _number(val, path)
        if bound == "positive" and num <= 0 or bound == "nonnegative" and num < 0:
            raise ConfigError(f"{path}: must be {bound}")
        return num
    return rule(val, path)


def resolve_config(raw, preset=None):
    """Layer raw config over a preset and the defaults; validate everything."""
    # deep copy: resolution fills derived keys in place and must never
    # write back into the module-level defaults
    base = copy.deepcopy(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        base = _deep_merge(base, PRESETS[preset])
    # an empty document loads as None: the one config that overrides nothing
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for section, body in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section {_QUOTE.repr(section)}")
        if not isinstance(body, dict):
            raise ConfigError(f"{section}: must be a mapping")
        for key in body:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{_QUOTE.repr(key)}")
    cfg = _deep_merge(base, raw)
    system, field, exp, scan = (cfg[s] for s in ("system", "field", "experiment", "scan"))

    for section, rules in SCHEMA.items():
        for key, (default, rule) in rules.items():
            val, path = cfg[section][key], f"{section}.{key}"
            if val is None and default is None:
                continue
            if isinstance(rule, dict):
                cfg[section][f"{key}_au"] = _quantity(val, path, rule)
            else:
                cfg[section][key] = _check(rule, val, path)

    # checks across keys
    _normal(2.0 * system["rot_const_au"], "system.rot_const")  # omega01
    g_ref = _normal(_g_ref(system), "system.coupling_ratio")
    _normal(field["bandwidth_g"] * g_ref, "field.bandwidth_g")
    for i, bw in enumerate(scan["bandwidths_g"]):
        _normal(bw * g_ref, f"scan.bandwidths_g[{i}]")
    _normal(scan["reference_bandwidth_g"] * g_ref, "scan.reference_bandwidth_g")
    for key in ("n_trace", "n_trajectory"):
        if exp[key] > _MAX_GRID:
            raise ConfigError(f"experiment.{key}: must be <= {_MAX_GRID}")
    for key, cap in (("j_max", _MAX_DIM - 1), ("n_max", _MAX_DIM // 2 - 1)):
        if system[key] > cap:
            raise ConfigError(f"system.{key}: must be <= {cap}")
    if system["cavity"] and system["n_max"] < 1:
        raise ConfigError("system.n_max: a coupled cavity needs n_max >= 1")
    if field["kind"] == "composite" and field["carriers"] is None:
        raise ConfigError("field.carriers: composite field needs a nonempty list")
    if field["kind"] == "designed" and not system["cavity"]:
        raise ConfigError("field.kind: designed fields need the cavity on")
    # a scan key its kind does not read would otherwise be dropped silently
    for key in (("reference_bandwidth_g",) if scan["kind"] == "detuning" else
                ("detunings_g", "cavity", "write_spectra")):
        if scan[key] != DEFAULTS["scan"][key]:
            raise ConfigError(f"scan.{key}: a {scan['kind']} scan does not read it")
    if scan["kind"] == "detuning":
        # each (cavity, bandwidth) group writes its own TSV
        if len(set(scan["cavity"])) < len(scan["cavity"]):
            raise ConfigError("scan.cavity: true and false may each appear once")
        names = [_orientation_tsv(True, bw) for bw in scan["bandwidths_g"]]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"scan.bandwidths_g: two bandwidths would both write "
                                  f"{name.replace('cavon', 'cav*')}")
    return cfg


def _g_ref(system):
    """The coupling reference coupling_ratio * omega01, in atomic units."""
    return system["coupling_ratio"] * (2.0 * system["rot_const_au"])


def build_params(cfg):
    """SystemParams for the run plus the coupling reference g_ref.

    g_ref = coupling_ratio * omega01 scales the field bandwidths and
    detunings even when the cavity itself is switched off, so bare and
    coupled runs share pulse definitions.
    """
    s = cfg["system"]
    g_ref = _g_ref(s)
    params = SystemParams(
        rot_const=s["rot_const_au"],
        dipole=s["dipole_au"],
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
        area = KICK_AREA if f["area"] is None else f["area"]
        return gaussian_for_area(params, area, tau0, carrier, f["phase"]), None
    area = DESIGN_AREA if f["area"] is None else f["area"]
    if f["kind"] == "composite":
        comps = [(params.omega01 + c["detuning_g"] * g_ref, c["phase"])
                 for c in f["carriers"]]
        return composite_for_area(params, area, tau0, comps), None
    return design_composite(params, bandwidth=f["bandwidth_g"] * g_ref, area=area,
                            phase_minus=f["phase_minus"], branch=f["branch"])


# ---------------------------------------------------------------- output


def _plain(obj):
    """json's hook for what it cannot write: a numpy scalar or array becomes
    its Python value or list; anything else, a complex number included,
    raises TypeError."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_plain)
        fh.write("\n")


# _write_tsv formats and writes this many values at a time (whole rows), so
# the text it holds is bounded by the chunk and the digit arithmetic's
# temporaries stay in a 2 MB L2 cache: the 395k values of one simulate_io
# iteration took 0.83x the time of one chunk per array (16,384 values: 0.91x)
_TSV_VALUES = 8192

# 10^k as int64, k = 0 ... 18
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@cache
def _digit_tables():
    """10^s for s = 0 ... 45 as hi + lo doubles, hi split by Veltkamp into
    halves of 26 bits, and the template piece of each text class by index
    ((exponent class * 21 + zeros class) * 2 + minus) * 2 + row end.

    s = 45 is there for 1e-28 should log10 round it down a decade."""
    tens = [10 ** s for s in range(46)]
    hi = np.array([float(t) for t in tens])
    lo = np.array([float(t - int(float(t))) for t in tens])
    split = hi * 134217729.0
    hi_h = split - (split - hi)
    pieces = []
    # exponent class 0 is fixed notation, k > 0 the exponent -(k + 4); zeros
    # class 0 has no fraction (whole.0; d alone before an exponent), z > 0 has
    # z - 1 zeros between the point and the fraction's digits
    for k in range(25):
        for z in range(21):
            body = ("%d.%d" if k == 0 else "%d%.0s") if z == 0 else "%d." + "0" * (z - 1) + "%d"
            if k:
                body += "e-%02d" % (k + 4)
            pieces += [minus + body + end for minus in ("", "-") for end in ("\t", "\n")]
    return hi, lo, hi_h, hi - hi_h, np.array(pieces, dtype=object)


def _shortest_digits(x):
    """repr's digits of each double x in [1e-28, 1e16), in integer and exact
    float arithmetic: Ryu's idea (Adams, PLDI 2018) that on a bounded
    exponent range the shortest digits need only fixed-width numbers.

    Returns (digits, count, decpt, ok): x reads 0.d1...dn 10^decpt, where
    digits is the integer d1...dn and count is n.  ok is False where the
    float arithmetic stops short of a sure answer, which repr then gives: an
    end of x's rounding interval within 1e-9 of an integer (the even-mantissa
    rule decides an end), or two candidates within 1e-12 of a tie.
    """
    hi, lo, hi_h, hi_l, _ = _digit_tables()
    # v = x 10^s lies in [1e16, 1e17), or a decade off where log10 rounds
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    big = hi[s]
    p = x * big
    # Dekker's product: v = p + e, exact for s <= 22, where 10^s is a double;
    # past that x lo adds an error near 1e-15, as do the rounded ends below,
    # far inside the guards
    t = x * 134217729.0
    xh = t - (t - x)
    xl = x - xh
    bh, bl = hi_h[s], hi_l[s]
    e = ((xh * bh - p) + xh * bl + xl * bh) + xl * bl + x * lo[s]
    # half the gaps to x's neighbours, scaled alike; the gap below a power of
    # two is half the one above
    m, expo = np.frexp(x)
    up = np.ldexp(big, expo - 54)
    down = np.where(m == 0.5, 0.5 * up, up)
    # v as the integer n plus f in [0, 1], and the integers [low, high] of
    # its rounding interval
    pf = np.floor(p)
    e += p - pf
    fe = np.floor(e)
    n = pf.astype(np.int64) + fe.astype(np.int64)
    f = e - fe
    a, b = f - down, f + up
    ca, fb = np.ceil(a), np.floor(b)
    low, high = n + ca.astype(np.int64), n + fb.astype(np.int64)
    # the shortest digits are a multiple of 10^j in [low, high], for the
    # largest j that has one; few intervals hold a multiple of 100, so the
    # search past j = 2 runs on those alone
    j = ((high // 10) * 10 >= low).astype(np.int64)
    wide = np.flatnonzero((high // 100) * 100 >= low)
    if wide.size:
        hw, lw, jw = high[wide], low[wide], np.full(wide.size, 2, dtype=np.int64)
        for k in range(3, 19):
            hit = (hw // _POW10[k]) * _POW10[k] >= lw
            if not hit.any():
                break
            jw += hit
        j[wide] = jw
    # of those, the one nearest v: q or q + 1 by the sign of d = 2 (v - q P) - P,
    # then the next one up if that falls below the interval
    P = _POW10[j]
    q = n // P
    d = (2 * (n - q * P) - P).astype(float) + 2.0 * f
    digits = q + (d > 0)
    digits += digits * P < low
    ok = ((np.minimum(ca - a, b - fb) > 1e-9) & (np.maximum(ca - a, b - fb) < 1.0 - 1e-9)
          & (low <= high) & (np.abs(d) > 2e-12))
    # the multiple's length, 18 where the digits rolled over to 10^17
    length = np.searchsorted(_POW10, digits * P, side="right")
    return digits, length - j, length - s, ok


def _tsv_text(values, ends):
    """The text of a 1d float array: each value as repr writes it, then a tab,
    or a newline where `ends` is set.

    A finite |value| in [1e-28, 1e16) is written from _shortest_digits in
    repr's layout, by one % over a template of per-value pieces: whole.frac
    for decpt in [-3, 16], d.ddde-XX below.  Any other value, 0 included, and
    any value the digits leave to repr, is its repr in the template.
    """
    x = np.abs(values)
    ok = (x >= 1e-28) & (x < 1e16)
    digits, count, decpt, exact = _shortest_digits(np.where(ok, x, 1.0))
    ok &= exact
    fixed = decpt > -4
    point = np.where(fixed, count - decpt, count - 1)  # digits after the point
    scale = _POW10[np.clip(point, 0, 18)]
    whole = digits // scale
    frac = digits - whole * scale
    whole *= _POW10[np.clip(-point, 0, 18)]
    zeros = np.where(point > 0, point - np.searchsorted(_POW10, frac, side="right") + 1, 0)
    code = ((np.where(fixed, 0, -3 - decpt) * 21 + zeros) * 2 + np.signbit(values)) * 2 + ends
    pieces = _digit_tables()[4][np.where(ok, code, 0)]
    args = np.stack([whole, frac], axis=1)
    if not ok.all():
        held = np.flatnonzero(~ok)
        for i, v, end in zip(held.tolist(), values[held].tolist(), ends[held].tolist()):
            pieces[i] = repr(v) + ("\n" if end else "\t")
        args = args[ok]
    return "".join(pieces.tolist()) % tuple(args.ravel().tolist())


def _write_tsv(path, columns, rows):
    """A '# ' header, then the rows of a 2d float array, each value written as
    Python's repr writes it.

    Every value is repr's text, the shortest that reads back as the same
    double.  It is written _TSV_VALUES values at a time from digits computed
    in numpy (_tsv_text); the values those digits cannot settle, nan, inf and
    0 included, go through repr itself.  An array that is not 2d, or of
    another width than `columns`, raises ValueError.
    """
    width = len(columns)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{path}: a row does not have {width} values")
    flat = np.asarray(rows, dtype=float).ravel()
    step = max(1, _TSV_VALUES // width) * width
    ends = np.arange(min(step, flat.size)) % width == width - 1
    with open(path, "w") as fh:
        fh.write("# " + "\t".join(columns) + "\n")
        for a in range(0, flat.size, step):
            chunk = flat[a:a + step]
            fh.write(_tsv_text(chunk, ends[:chunk.size]))


def _write_spectrum(path, spec, params):
    omega, amp = spec
    _write_tsv(path, ["omega_au", "omega_over_B", "amplitude"],
               np.column_stack([omega, omega / params.rot_const, amp]))


def _outdir(cfg, args, command):
    """Create the output directory and write its manifest, once the run succeeded.

    A run that fails before this call leaves no directory behind.
    """
    outdir = cfg["output"]["directory"]
    os.makedirs(outdir, exist_ok=True)
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=_plain)
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
    return outdir


# ---------------------------------------------------------------- commands


def _check_trace_times(exp, tau, t_end, n_trace, snapshot=True):
    """ConfigError naming the key whose post-pulse sample times floating point
    cannot tell apart: rounding moves a time t by up to np.spacing(t), so a
    step must exceed two spacings.  The snapshot pair is checked if read."""
    window = exp["trace_window_tau"] * tau
    checks = [("trace_window_tau", t_end + window, window / n_trace)]
    if snapshot:
        checks.append(("snapshot_tau", t_end + exp["snapshot_tau"] * tau, tau))
    for key, t, step in checks:
        if not step > 2.0 * np.spacing(t):
            raise ConfigError(f"experiment.{key}: a step of {step:.3g} au after "
                              f"t = {t:.3g} au is below the floating-point resolution")


def _orientation_tsv(cav, bw):
    """File name of the detuning-scan TSV of one (cavity, bandwidth in g) group."""
    return f"orientation_cav{'on' if cav else 'off'}_bw{bw:g}.tsv"


def cmd_simulate(cfg, args):
    params, g_ref = build_params(cfg)
    fld, design_report = build_field(cfg, params, g_ref)
    exp = cfg["experiment"]
    tau = params.revival_time
    _check_trace_times(exp, tau, fld.t_end, exp["n_trace"])
    rec = kick_response(
        params, fld,
        trace_window_tau=exp["trace_window_tau"],
        n_trace=exp["n_trace"],
        snapshot_tau=exp["snapshot_tau"],
        n_pulse_samples=exp["n_trajectory"],
        tol=cfg["integrator"]["tol"],
    )
    outdir = _outdir(cfg, args, "simulate")
    written = ["orientation.tsv", "spectrum.tsv", "trajectory.tsv"]

    series = rec["series"]
    _write_tsv(os.path.join(outdir, "orientation.tsv"),
               ["time_au", "time_over_tau", "orientation"],
               np.column_stack([series.times, series.times / tau, series.values]))

    _write_spectrum(os.path.join(outdir, "spectrum.tsv"), rec["spectrum"], params)

    traj = rec["trajectory"]
    cols = ["time_au"] + [f"{part}({lab})" for lab in build_model(params).labels
                          for part in ("re", "im")]
    # a complex row viewed as floats is re, im of each amplitude in turn
    _write_tsv(os.path.join(outdir, "trajectory.tsv"), cols,
               np.column_stack([traj.times, traj.states.view(float)]))

    summary = {k: v for k, v in rec.items() if k not in ("series", "spectrum", "trajectory")}
    if design_report is not None:
        summary["design_report"] = design_report
        summary["field"] = field_to_dict(fld)
    _write_json(os.path.join(outdir, "populations.json"), summary)
    written.append("populations.json")

    def in_tau(t):
        return "none" if t is None else f"{t / tau:.4f} tau"

    print(f"simulate: orientation max {rec['orientation_max']:.6f} "
          f"at {in_tau(rec['t_max'])} after the pulse; revival {in_tau(rec['revival_period'])}")
    print(f"wrote {outdir}/" + ", ".join(written))
    return 0


def cmd_scan(cfg, args):
    params, g_ref = build_params(cfg)
    if not cfg["system"]["cavity"]:
        raise ConfigError("scan: system.cavity must stay on; bare runs come from scan.cavity")
    sc = cfg["scan"]
    if sc["kind"] == "composite" and params.n_max < 2:
        raise ConfigError("system.n_max: a composite scan compares against the first-order "
                          "state, which needs |+-;1>, so n_max >= 2")
    exp = cfg["experiment"]
    tau = params.revival_time
    area = cfg["field"]["area"]
    kw = {"bandwidths": [b * g_ref for b in sc["bandwidths_g"]],
          "trace_window_tau": exp["trace_window_tau"],
          "n_trace": exp["n_trace"],
          "threads": args.threads,
          "tol": cfg["integrator"]["tol"]}
    # the narrowest bandwidth's field ends last; a composite record reads no
    # snapshot, and also traces the first-order state at _MAGNUS_N_TRACE samples
    t_end = gaussian_for_area(params, 1.0, 1.0 / min(kw["bandwidths"]), params.omega01).t_end
    detuning = sc["kind"] == "detuning"
    _check_trace_times(exp, tau, t_end, exp["n_trace"] if detuning else
                       max(exp["n_trace"], _MAGNUS_N_TRACE), snapshot=detuning)
    if detuning:
        records, meta = scan_detuning_bandwidth(
            params,
            detunings=[d * g_ref for d in sc["detunings_g"]],
            cavity=sc["cavity"],
            area=KICK_AREA if area is None else area,
            snapshot_tau=exp["snapshot_tau"],
            keep_spectrum=sc["write_spectra"],
            **kw,
        )
        # records come in job order: detunings within (cavity, bandwidth) groups
        n = len(sc["detunings_g"])
        groups = [(cav, bw) for cav in sc["cavity"] for bw in sc["bandwidths_g"]]
        columns = ["detuning_g", "orientation_max", "orientation_snapshot",
                   "t_max_tau", "revival_tau", "converged"]
        # a missing value (None) reads nan, and the converged flag 1.0 or 0.0
        table = np.array([(rec["detuning"], rec.get("orientation_max"),
                           rec.get("orientation_snapshot"), rec.get("t_max"),
                           rec.get("revival_period"), rec["converged"])
                          for rec in records], dtype=float)
        table[:, 0] /= g_ref
        table[:, 3:5] /= tau
        tables = [(_orientation_tsv(cav, bw), columns, table[k * n:(k + 1) * n])
                  for k, (cav, bw) in enumerate(groups)]
    else:
        records, meta = scan_composite_bandwidth(
            params,
            reference_bandwidth=sc["reference_bandwidth_g"] * g_ref,
            area=DESIGN_AREA if area is None else area,
            phase_minus=cfg["field"]["phase_minus"],
            branch=cfg["field"]["branch"],
            **kw,
        )
        table = np.array([(rec["bandwidth"], rec.get("orientation_max_exact"),
                           rec.get("orientation_max_magnus"), rec.get("max_population_diff"),
                           rec.get("revival_period"), rec["converged"])
                          for rec in records], dtype=float)
        table[:, 0] /= g_ref
        table[:, 4] /= tau
        tables = [("composite_bandwidth.tsv",
                   ["bandwidth_g", "orientation_max_exact", "orientation_max_magnus",
                    "max_population_diff", "revival_tau", "converged"],
                   table)]

    outdir = _outdir(cfg, args, "scan")
    for name, columns, rows in tables:
        _write_tsv(os.path.join(outdir, name), columns, rows)
    with open(os.path.join(outdir, "records.jsonl"), "w") as fh:
        for i, rec in enumerate(records):
            # spectra go to their own files, never into the records
            body = {k: v for k, v in rec.items() if k != "spectrum"}
            fh.write(json.dumps({"index": i, **body}, sort_keys=True, default=_plain) + "\n")
            if rec.get("spectrum") is not None:
                _write_spectrum(os.path.join(outdir, f"spectrum_{i:04d}.tsv"),
                                rec["spectrum"], params)
    _write_json(os.path.join(outdir, "scan_meta.json"), meta)

    print(f"scan: {len(records)} records -> {outdir}")
    return 0


def cmd_design(cfg, args):
    params, g_ref = build_params(cfg)
    pulse, report = build_field({"field": {**cfg["field"], "kind": "designed"}}, params, g_ref)
    outdir = _outdir(cfg, args, "design")
    _write_json(os.path.join(outdir, "field.json"), field_to_dict(pulse))
    report["carriers"] = [list(c) for c in pulse.components]
    report["solved_phase_up"] = pulse.components[0][1]
    _write_json(os.path.join(outdir, "report.json"), report)
    print(f"design: solved upper-carrier phase {pulse.components[0][1]:.9f} rad "
          f"(phase functional {report['phase_value_g']:.6f} g, "
          f"residual {report['phase_residual_g']:.2e} g)")
    print(f"wrote {outdir}/field.json, report.json")
    return 0


def cmd_oracle(cfg, args):
    params, _ = build_params(cfg)
    if not cfg["system"]["cavity"]:
        raise ConfigError("oracle: needs the cavity on (dressed states undefined otherwise)")
    model = build_model(params)
    result = orientation_max_oracle(model.cos, model.energies, model.labels)
    outdir = _outdir(cfg, args, "oracle")
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
                        help=f"worker processes for scans (at most {_MAX_THREADS}, and "
                             "no more than the scan has jobs); a detuning scan gives "
                             "each (cavity, bandwidth) group to one process, 256 "
                             "detunings at a time, a composite scan each bandwidth")
    common.add_argument("--seed", type=int, default=None,
                        help="recorded in the manifest; runs are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


# each command's function and its help line, in the order --help lists them
_COMMANDS = {
    "simulate": (cmd_simulate, "one pulse: trajectory, orientation trace, spectrum"),
    "scan": (cmd_scan, "grids over detuning/bandwidth or composite bandwidth"),
    "design": (cmd_design, "solve the two-color phase condition"),
    "oracle": (cmd_oracle, "orientation bound on the lowest dressed states "
                           "(top eigenpair of cos theta)"),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = None
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    raw = yaml.load(fh, Loader=_ConfigLoader)
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
            except UnicodeDecodeError:
                raise ConfigError(f"config {args.config!r} is not UTF-8 text") from None
            except yaml.YAMLError as exc:
                raise ConfigError(f"config is not valid YAML: {exc}") from None
        if args.threads is not None and not 1 <= args.threads <= _MAX_THREADS:
            raise ConfigError(f"--threads: must be between 1 and {_MAX_THREADS}, "
                              f"got {args.threads}")
        cfg = resolve_config(raw, preset=args.preset)
        if args.out is not None:
            cfg["output"]["directory"] = _directory(args.out, "--out")
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except DesignInfeasible as exc:
        print(f"design infeasible: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # the config was read above, so this is the output: an --out that
        # names a file, or a directory that cannot be made or written
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
