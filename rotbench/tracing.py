"""Span tracing of the `rotpolariton` layers from outside the package.

The tracer rebinds public names where their callers look them up (for
example `control.propagate`, `pulse.spectral_area`, `cli.design_composite`)
to wrappers that record a span: name, layer, start, end, parent span and the
record the span belongs to.  Nothing under `src/` changes.  Spans are kept in
memory and turned into per-layer metrics after the traced iteration, outside
its timed region.  A name that no longer exists is reported as unmeasured,
never as zero.

Layer self time is a span's duration minus the part of it covered by its
child spans, summed over the layer's spans.
"""

import functools
import importlib
import math
import statistics
import time

# (module, attribute, layer).  Every entry is a binding site: the module whose
# globals the caller reads the name from.
SPAN_SITES = (
    ("rotpolariton.cli", "main", "cli"),
    ("rotpolariton.cli", "kick_response", "control"),
    ("rotpolariton.cli", "design_composite", "control"),
    ("rotpolariton.cli", "scan_detuning_bandwidth", "control"),
    ("rotpolariton.cli", "convert_units", "model"),
    # the per-record unit of the detuning scan
    ("rotpolariton.control", "_kick_worker", "control"),
    ("rotpolariton.control", "kick_response", "control"),
    ("rotpolariton.control", "check_conditions", "control"),
    ("rotpolariton.control", "compute_areas", "control"),
    ("rotpolariton.control", "propagate", "dynamics"),
    ("rotpolariton.control", "orientation_trace", "observables"),
    ("rotpolariton.control", "spectrum", "observables"),
    ("rotpolariton.control", "spectrum_peaks", "observables"),
    ("rotpolariton.control", "revival_period", "observables"),
    ("rotpolariton.control", "pulse_area_ground", "pulse"),
    ("rotpolariton.control", "pulse_area_doublet", "pulse"),
    ("rotpolariton.control", "build_dressed_hamiltonian", "model"),
    ("rotpolariton.control", "build_full_hamiltonian", "model"),
    ("rotpolariton.control", "dressed_cos_matrix", "model"),
    ("rotpolariton.control", "cos_theta_elements", "model"),
    ("rotpolariton.control", "doublet_energies", "model"),
    ("rotpolariton.control", "mu_tilde_ground", "model"),
    ("rotpolariton.control", "mu_tilde_doublet", "model"),
    ("rotpolariton.pulse", "spectral_area", "pulse"),
)

# field_value is counted, not timed: its cost belongs to the caller's layer
COUNT_SITES = (
    ("rotpolariton.dynamics", "field_value", "dynamics.field_evals"),
    ("rotpolariton.pulse", "field_value", "pulse.field_evals"),
)

# spans that start a new record: one scan record, or one non-scan invocation
_RECORD_ROOTS = {"control._kick_worker"}

LAYERS = ("cli", "control", "dynamics", "observables", "pulse", "model")


def _short(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "record", "start", "end", "info")

    def __init__(self, sid, parent, name, layer, record):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.record = record
        self.start = self.end = None
        self.info = None

    def as_dict(self):
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "layer": self.layer, "record": self.record,
                "start": self.start, "end": self.end}


def _propagate_info(args, kwargs, result):
    """What the step ladder needs: sample times, field window, trajectory meta."""
    fld = args[2] if len(args) > 2 else kwargs["fld"]
    times = args[4] if len(args) > 4 else kwargs["times"]
    return {"times": times, "window": (fld.t_start, fld.t_end), "meta": result.meta}


def _trace_info(args, kwargs, result):
    return {"samples": len(result.times)}


_INFO = {
    "control.propagate": _propagate_info,
    "control.orientation_trace": _trace_info,
}


class Tracer:
    """Records spans and counters while installed; restores every name on removal."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.missing = set()
        self._stack = []
        self._record = None
        self._next_record = 0
        self._saved = []

    def reset(self):
        self.spans = []
        self.counters = {name: 0 for _, _, name in COUNT_SITES}
        self._stack = []
        self._record = None
        self._next_record = 0

    # ------------------------------------------------------------ install

    def install(self):
        self.reset()
        for module, attr, layer in SPAN_SITES:
            self._rebind(module, attr, lambda fn, n=_short(module, attr), l=layer:
                         self._span_wrapper(fn, n, l))
        for module, attr, counter in COUNT_SITES:
            self._rebind(module, attr, lambda fn, c=counter: self._count_wrapper(fn, c))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _rebind(self, module, attr, make):
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.add(_short(module, attr))
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def _span_wrapper(self, fn, name, layer):
        info = _INFO.get(name)
        is_root = name in _RECORD_ROOTS
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._record
            if is_root or (is_main and (args[0] if args else kwargs["argv"])[0] != "scan"):
                record = self._next_record
                self._next_record += 1
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, layer, record)
            self.spans.append(span)
            self._stack.append(span.sid)
            outer_record, self._record = self._record, record
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._record = outer_record
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        def wrapper(spec, t):
            n = getattr(t, "size", None)
            self.counters[counter] += 1 if n is None else int(n)
            return fn(spec, t)

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------ metrics

    def self_times(self):
        """Self time of every span: duration minus the union of its children."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for s in self.spans:
            covered, cur_a, cur_b = 0.0, None, None
            for a, b in sorted(children.get(s.sid, ())):
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out.append((s.end - s.start) - covered)
        return out


def ladder_steps(info):
    """Propagation steps at each halving level, recomputed from the trajectory.

    propagate runs the kernel at dt0, dt0/2, ..., dt0/2^h over every sample
    interval that overlaps the field window, with max(1, ceil(len/dt)) steps
    per interval; the trajectory meta gives the final dt and h.
    """
    meta = info["meta"]
    halvings = meta.get("halvings") or 0
    dt = meta.get("dt")
    if not dt:
        return []
    dt0 = dt * 2 ** halvings
    fa, fb = info["window"]
    times = info["times"]
    spans = []
    for i in range(len(times) - 1):
        lo, hi = max(times[i], fa), min(times[i + 1], fb)
        if hi > lo:
            spans.append(hi - lo)
    return [sum(max(1, int(math.ceil(s / (dt0 / 2 ** k)))) for s in spans)
            for k in range(halvings + 1)]


# metric name -> (unit, better, the sites it needs)
_DYN = ("control.propagate",)
_RECORDS = ("control._kick_worker", "cli.main")
PER_LAYER = {
    "dynamics.calls": ("count", "lower", _DYN),
    "dynamics.self_s": ("s", "lower", _DYN),
    "dynamics.steps_total": ("count", "lower", _DYN),
    "dynamics.steps_final": ("count", "lower", _DYN),
    "dynamics.ladder_ratio": ("ratio", "higher", _DYN),
    "dynamics.halvings_mean": ("count", "lower", _DYN),
    "dynamics.steps_per_s": ("1/s", "higher", _DYN),
    "dynamics.field_evals": ("count", "lower", ("dynamics.field_value",)),
    "dynamics.step_error_max": ("1", "lower", _DYN),
    "observables.trace_calls": ("count", "lower", ("control.orientation_trace",)),
    "observables.trace_samples": ("count", "lower", ("control.orientation_trace",)),
    "observables.trace_s": ("s", "lower", ("control.orientation_trace",)),
    "observables.analysis_s": ("s", "lower", ("control.spectrum", "control.spectrum_peaks",
                                              "control.revival_period")),
    "pulse.area_calls": ("count", "lower", ("pulse.spectral_area",)),
    "pulse.area_s": ("s", "lower", ("pulse.spectral_area",)),
    "pulse.field_evals": ("count", "lower", ("pulse.field_value",)),
    "control.records": ("count", "higher", _RECORDS),
    "control.record_s_p50": ("s", "lower", _RECORDS),
    "control.record_s_tail": ("s", "lower", _RECORDS),
    "control.self_s": ("s", "lower", ()),
    "control.design_calls": ("count", "lower", ("cli.design_composite",)),
    "control.design_s": ("s", "lower", ("cli.design_composite",)),
    "control.design_evals": ("count", "lower", ("cli.design_composite",
                                                "control.pulse_area_ground")),
    "model.calls": ("count", "lower", ()),
    "model.self_s": ("s", "lower", ()),
    "cli.invocations": ("count", "higher", ("cli.main",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "cli.bytes_written": ("B", "lower", ()),
    "cli.files_written": ("count", "lower", ()),
    "trace.overhead": ("ratio", "lower", ()),
    "trace.attributed_frac": ("ratio", "higher", ()),
}

# deterministic work counts: they must repeat exactly from run to run
EXACT_METRICS = tuple(name for name, (unit, _, _) in PER_LAYER.items()
                      if unit not in ("s", "1/s") and not name.startswith("trace."))


def iteration_metrics(tracer, wall_s):
    """Per-layer metrics of one traced iteration (trace.overhead is added by the caller)."""
    spans = tracer.spans
    selfs = tracer.self_times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, st in zip(spans, selfs):
        layer_self[s.layer] += st

    def named(*names):
        return [(s, st) for s, st in zip(spans, selfs) if s.name in names]

    props = named("control.propagate")
    ladders = [ladder_steps(s.info) for s, _ in props]
    steps_total = sum(sum(l) for l in ladders)
    steps_final = sum(l[-1] for l in ladders if l)
    halvings = [s.info["meta"].get("halvings") or 0 for s, _ in props]
    errors = [s.info["meta"].get("step_error") or 0.0 for s, _ in props]

    traces = named("control.orientation_trace")
    designs = [s for s, _ in named("cli.design_composite")]
    design_ids = {s.sid for s in designs}
    evals = sum(1 for s in spans if s.name == "control.pulse_area_ground"
                and s.parent in design_ids)

    roots = {}
    for s in spans:
        if s.record is not None and s.record not in roots:
            roots[s.record] = s.end - s.start
    record_times = list(roots.values())

    m = {
        "dynamics.calls": len(props),
        "dynamics.self_s": layer_self["dynamics"],
        "dynamics.steps_total": steps_total,
        "dynamics.steps_final": steps_final,
        "dynamics.ladder_ratio": steps_final / steps_total if steps_total else 0.0,
        "dynamics.halvings_mean": statistics.fmean(halvings) if halvings else 0.0,
        "dynamics.steps_per_s": (steps_total / layer_self["dynamics"]
                                 if steps_total and layer_self["dynamics"] > 0 else 0.0),
        "dynamics.field_evals": tracer.counters.get("dynamics.field_evals", 0),
        "dynamics.step_error_max": max(errors) if errors else 0.0,
        "observables.trace_calls": len(traces),
        "observables.trace_samples": sum(s.info["samples"] for s, _ in traces),
        "observables.trace_s": sum(st for _, st in traces),
        "observables.analysis_s": sum(st for _, st in named(
            "control.spectrum", "control.spectrum_peaks", "control.revival_period")),
        "pulse.area_calls": len(named("pulse.spectral_area")),
        "pulse.area_s": layer_self["pulse"],
        "pulse.field_evals": tracer.counters.get("pulse.field_evals", 0),
        "control.records": len(record_times),
        "control.record_s_p50": statistics.median(record_times) if record_times else 0.0,
        "control.record_s_tail": max(record_times) if record_times else 0.0,
        "control.self_s": layer_self["control"],
        "control.design_calls": len(designs),
        "control.design_s": sum(s.end - s.start for s in designs),
        "control.design_evals": evals,
        "model.calls": sum(1 for s in spans if s.layer == "model"),
        "model.self_s": layer_self["model"],
        "cli.invocations": len(named("cli.main")),
        "cli.self_s": layer_self["cli"],
        "trace.attributed_frac": sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0,
    }
    return m


def unmeasured(missing):
    """Names of metrics that need a binding site which no longer exists."""
    return {name for name, (_, _, needs) in PER_LAYER.items()
            if any(n in missing for n in needs)}
