"""Two-color pulse design, design-condition checks, and parameter scans.

The orientation-restoring scheme drives both ground-to-doublet lines with one
Gaussian envelope.  Amplitude fixes the populations (1/2, 1/4, 1/4); the
carrier phases decide whether the free evolution ever aligns the three
amplitudes.  Writing Phi = w_lo arg(Theta_up) - w_up arg(-Theta_lo) with
w_up, w_lo the two transition frequencies, the alignment manifold is

    Phi = g pi  (mod 2 g pi)

because w_lo/g and w_up/g are coprime integers for the resonant defaults and
the torus line traced by the two free phases conserves exactly this
combination.  The designer solves Phi(phi_up) on that manifold by bracketed
root finding on numerically integrated areas, never on the asymptotic
closed forms.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
from scipy import optimize

from .dynamics import (
    magnus_wavefunction,
    propagate,
    propagate_batch,
    to_schrodinger,
    unit_state,
)
from .errors import DesignInfeasible, NoRevivalFound, NotConverged, QuadratureNotConverged
from .model import (
    OperatorMatrix,
    SystemParams,
    build_dressed_hamiltonian,
    build_full_hamiltonian,
    cos_theta_elements,
    dressed_cos_matrix,
    doublet_energies,
    mu_tilde_doublet,
    mu_tilde_ground,
)
from .observables import (
    dressed_populations_phases,
    orientation_trace,
    revival_period,
    spectrum,
    spectrum_peaks,
)
from .pulse import (
    aggregate_areas,
    composite_for_area,
    gaussian_for_area,
    pulse_area_doublet,
    pulse_area_ground,
)

__all__ = [
    "DESIGN_AREA",
    "KICK_AREA",
    "compute_areas",
    "phase_functional",
    "ConditionReport",
    "check_conditions",
    "design_composite",
    "kick_response",
    "composite_response",
    "ScanResult",
    "scan_detuning_bandwidth",
    "scan_composite_bandwidth",
]

# per-carrier area pi sqrt(2)/8: doublet populations 1/4 each, ground 1/2
DESIGN_AREA = np.pi * np.sqrt(2.0) / 8.0
# single-carrier area pi/4: equal ground/excited split on one line
KICK_AREA = np.pi / 4.0


def _wrap(x, period):
    """Wrap into (-period/2, period/2]."""
    y = np.mod(x + 0.5 * period, period) - 0.5 * period
    return y + period if y <= -0.5 * period else y


def compute_areas(params, fld, t=None, tol=1e-10):
    """All design-relevant spectral areas of a field, as one PulseAreaSet."""
    w0 = doublet_energies(params, 0)
    w1 = doublet_energies(params, 1)
    up, lo = pulse_area_ground(fld, w0, mu_tilde_ground(params), t=t, tol=tol)
    dbl = pulse_area_doublet(fld, w0, w1, mu_tilde_doublet(params), t=t, tol=tol)
    return aggregate_areas(up, lo, dbl)


def phase_functional(params, areas):
    """Phase combination conserved by the post-pulse free evolution.

    Phi = w_lo arg(Theta_up) - w_up arg(-Theta_lo), in energy units; divide
    by the coupling to read it against the g pi manifold.
    """
    w_up, w_lo = doublet_energies(params, 0)
    return w_lo * np.angle(areas.theta_up0) - w_up * np.angle(-areas.theta_lo0)


@dataclass(frozen=True)
class ConditionReport:
    """Diagnostics of a candidate field against the design conditions.

    All phase quantities are in units of the coupling g; amplitude residuals
    are radians of spectral area.
    """

    area_target: float
    amp_residuals: dict
    phase_value_g: float
    phase_residual_g: float
    phase_residual_alt_g: float
    branch_residuals_g: dict
    blockade_residuals: dict
    theta0: float
    theta1: float
    predicted_populations: tuple
    predicted_orientation_max: float
    areas: object = None

    def as_dict(self):
        d = {
            "area_target": self.area_target,
            "amp_residuals": dict(self.amp_residuals),
            "phase_value_g": self.phase_value_g,
            "phase_residual_g": self.phase_residual_g,
            "phase_residual_alt_g": self.phase_residual_alt_g,
            "branch_residuals_g": dict(self.branch_residuals_g),
            "blockade_residuals": dict(self.blockade_residuals),
            "theta0": self.theta0,
            "theta1": self.theta1,
            "predicted_populations": list(self.predicted_populations),
            "predicted_orientation_max": self.predicted_orientation_max,
        }
        return d


def check_conditions(params, fld, area_target=DESIGN_AREA, tol=1e-10):
    """Measure a field against the amplitude, phase, and blockade conditions."""
    areas = compute_areas(params, fld, tol=tol)
    g = params.coupling
    phi = phase_functional(params, areas)
    resid = abs(_wrap(phi - g * np.pi, 2.0 * g * np.pi)) / g
    # the same condition written without the lower-area sign flip lands on
    # 0 mod 2 g pi; reported alongside so either convention can be audited
    w_up, w_lo = doublet_energies(params, 0)
    phi_alt = w_lo * np.angle(areas.theta_up0) - w_up * np.angle(areas.theta_lo0)
    resid_alt = abs(_wrap(phi_alt, 2.0 * g * np.pi)) / g
    branch = {
        "+": abs(phi - g * np.pi) / g,
        "-": abs(phi + g * np.pi) / g,
    }
    leak = {f"{s:+d},{l:+d}": abs(areas.doublet[(s, l)]) for s in (+1, -1) for l in (+1, -1)}
    state = magnus_wavefunction(areas)
    pops = np.abs(state.amplitudes) ** 2
    p0, pu, pl = pops[0], pops[1], pops[2]
    predicted = (2.0 / np.sqrt(6.0)) * (np.sqrt(p0 * pu) + np.sqrt(p0 * pl))
    return ConditionReport(
        area_target=float(area_target),
        amp_residuals={"up": float(abs(areas.theta_up0) - area_target),
                       "lo": float(abs(areas.theta_lo0) - area_target)},
        phase_value_g=float(phi / g),
        phase_residual_g=float(resid),
        phase_residual_alt_g=float(resid_alt),
        branch_residuals_g=branch,
        blockade_residuals=leak,
        theta0=areas.theta0,
        theta1=areas.theta1,
        predicted_populations=tuple(float(p) for p in pops),
        predicted_orientation_max=float(predicted),
        areas=areas,
    )


def _ground_phase_functional(params, fld, tol):
    w0 = doublet_energies(params, 0)
    up, lo = pulse_area_ground(fld, w0, mu_tilde_ground(params), tol=tol)
    w_up, w_lo = w0
    return w_lo * np.angle(up) - w_up * np.angle(-lo)


def design_composite(params, bandwidth=None, tau0=None, area=DESIGN_AREA,
                     phase_minus=0.0, branch="auto", max_bandwidth_ratio=0.2,
                     quad_tol=1e-12, residual_tol=1e-6):
    """Solve the upper-carrier phase of the two-color orientation pulse.

    Give either the bandwidth (1/tau0) or tau0.  The carriers must resolve
    the doublet (bandwidth <= max_bandwidth_ratio * g), otherwise the phase
    picture the design rests on is meaningless and DesignInfeasible is
    raised.  branch selects the +g pi or -g pi root of the phase functional;
    "auto" solves both and keeps the one with the larger predicted
    orientation maximum (ties go to "+").  Returns (pulse, report).
    """
    if (bandwidth is None) == (tau0 is None):
        raise ValueError("give exactly one of bandwidth or tau0")
    if tau0 is None:
        tau0 = 1.0 / bandwidth
    bw = 1.0 / tau0
    g = params.coupling
    if g <= 0:
        raise DesignInfeasible("design needs a coupled cavity (g > 0)")
    if bw > max_bandwidth_ratio * g * (1 + 1e-12):
        raise DesignInfeasible(
            f"bandwidth {bw:g} does not resolve the doublet; "
            f"need <= {max_bandwidth_ratio:g} g = {max_bandwidth_ratio * g:g}"
        )
    w_up, w_lo = doublet_energies(params, 0)

    def make(phi_up):
        return composite_for_area(params, area, tau0,
                                  [(w_up, phi_up), (w_lo, phase_minus)])

    def solve(sign):
        target = sign * g * np.pi

        def f(phi_up):
            val = _ground_phase_functional(params, make(phi_up), quad_tol)
            return _wrap(val - target, 2.0 * g * np.pi)

        guess = (target + w_up * phase_minus) / w_lo
        half = np.pi * g / w_lo  # half period of the wrapped residual in phi_up
        lo_x, hi_x = guess - 0.6 * half, guess + 0.6 * half
        f_lo, f_hi = f(lo_x), f(hi_x)
        if not (f_lo < 0 < f_hi):
            grid = np.linspace(guess - 2 * half, guess + 2 * half, 33)
            vals = [f(x) for x in grid]
            hit = None
            for i in range(len(grid) - 1):
                if vals[i] < 0 <= vals[i + 1] and vals[i + 1] - vals[i] < np.pi * g:
                    hit = (grid[i], grid[i + 1])
                    break
            if hit is None:
                raise DesignInfeasible("no root of the phase condition in the scanned range")
            lo_x, hi_x = hit
        return float(optimize.brentq(f, lo_x, hi_x, xtol=1e-14, rtol=8.9e-16))

    signs = {"+": (1.0,), "-": (-1.0,), "auto": (1.0, -1.0)}[branch]
    best = None
    for sgn in signs:  # "+" first, so it keeps ties
        phi_up = solve(sgn)
        cand_pulse = make(phi_up)
        cand_report = check_conditions(params, cand_pulse, area_target=area, tol=quad_tol)
        if best is None or cand_report.predicted_orientation_max > best[0] + 1e-9:
            best = (cand_report.predicted_orientation_max, cand_pulse, cand_report)
    _, pulse, report = best

    if report.phase_residual_g > residual_tol:
        raise DesignInfeasible(
            f"solved phase misses the manifold by {report.phase_residual_g:.3e} g"
        )
    if max(abs(r) for r in report.amp_residuals.values()) > residual_tol * max(1.0, area):
        raise DesignInfeasible("carrier cross-talk spoils the amplitude condition")
    return pulse, report


def _refined_trace_max(state, energies, cos_op, t0, window, n):
    """Max of the free-evolution orientation over [t0, t0 + window)."""
    dt = window / n
    ts = t0 + dt * np.arange(n)
    series = orientation_trace(state, energies, cos_op, ts)
    i = int(np.argmax(series.values))
    if 0 < i < n - 1:
        vm1, v0, vp1 = series.values[i - 1], series.values[i], series.values[i + 1]
        den = vm1 - 2.0 * v0 + vp1
        delta = 0.5 * (vm1 - vp1) / den if den < 0 else 0.0
    else:
        delta = 0.0
    t_best = ts[i] + delta * dt
    v_best = orientation_trace(state, energies, cos_op, np.array([t_best, t_best + dt])).values[0]
    return float(max(v_best, series.values[i])), float(t_best), series


def _trace_revival(series, tau):
    """Revival period of an orientation trace, None when there is none.

    An orientation is bounded by 1, so a trace that never leaves the double
    precision noise floor is flat; correlating its roundoff would fabricate
    a period.
    """
    if float(np.max(np.abs(series.values))) < 1e-10:
        return None
    try:
        return revival_period(series, min_lag=0.05 * tau)
    except NoRevivalFound:
        return None


def _bare_cos_operator(params):
    cosm = cos_theta_elements(params.j_max).matrix.real
    full = np.kron(np.eye(params.n_max + 1), cosm)
    return OperatorMatrix(full, basis="product", label="cos_theta")


def _kick_setup(params, fld, dressed):
    """Hamiltonian, initial state, cos theta and drift energies of a kick."""
    if dressed:
        h0, v, basis = build_dressed_hamiltonian(params)
        state0 = unit_state(basis.labels, "0;0", basis="dressed", time=fld.t_start)
        return h0, v, state0, dressed_cos_matrix(params), basis.energies
    if params.coupling != 0.0:
        raise ValueError("product-basis kick response expects an uncoupled cavity; "
                         "zero the coupling or use dressed=True")
    h0, v = build_full_hamiltonian(params)
    labels = tuple(f"J{j},n{n}" for n in range(params.n_max + 1)
                   for j in range(params.j_max + 1))
    state0 = unit_state(labels, 0, basis="product", time=fld.t_start)
    return h0, v, state0, _bare_cos_operator(params), np.diag(h0.matrix).real


def _kick_summary(params, fld, traj, cos_op, energies, dressed, trace_window=None,
                  n_trace=16384, snapshot_offset=None, peaks_rel_height=0.05,
                  keep_series=False, keep_spectrum=False):
    """Post-pulse record of one propagated kick; see kick_response."""
    tau = params.revival_time
    if trace_window is None:
        trace_window = 40.0 * tau
    if snapshot_offset is None:
        snapshot_offset = 6.75 * tau
    end = traj.state_at(len(traj) - 1)

    vmax, t_max, series = _refined_trace_max(end, energies, cos_op,
                                             fld.t_end, trace_window, n_trace)
    snap_t = fld.t_end + snapshot_offset
    snap = orientation_trace(end, energies, cos_op, np.array([snap_t, snap_t + tau])).values[0]

    period = _trace_revival(series, tau)

    spec = spectrum(series)
    pw, ph = spectrum_peaks(spec, rel_height=peaks_rel_height)

    pops = {lab: float(abs(a) ** 2) for lab, a in zip(traj.labels, end.amplitudes)}
    rec = {
        "dressed": bool(dressed),
        "orientation_max": vmax,
        "t_max": t_max - fld.t_end,
        "orientation_snapshot": float(snap),
        "snapshot_offset": float(snapshot_offset),
        "revival_period": period,
        "peaks_omega": pw.tolist(),
        "peaks_height": ph.tolist(),
        "populations": pops,
        "phases": dressed_populations_phases(end) if dressed else None,
        "norm_final": end.norm(),
        "halvings": traj.meta.get("halvings"),
        "step_error": traj.meta.get("step_error"),
        "trace_window": float(trace_window),
        "n_trace": int(n_trace),
    }
    if keep_series:
        rec["series"] = series
    if keep_spectrum:
        rec["spectrum"] = spec
    if len(traj) > 2:
        rec["trajectory"] = traj
    return rec


def _integrator_kwargs(integrator, tol):
    integ = dict(integrator or {})
    integ.setdefault("tol", tol)
    return integ


def kick_response(params, fld, dressed=True, trace_window=None, n_trace=16384,
                  snapshot_offset=None, peaks_rel_height=0.05, tol=1e-8,
                  keep_series=False, keep_spectrum=False, n_pulse_samples=2,
                  integrator=None):
    """Propagate one pulse and summarize the post-pulse orientation.

    dressed=True runs in the polariton eigenbasis (cavity on resonance);
    dressed=False runs in the rotor x photon product basis with whatever
    coupling the params carry, which is the bare molecule when g = 0.  The
    product-basis drift must stay diagonal for the closed-form trace, so
    dressed=False with g > 0 is rejected.  Returns a plain dict: orientation
    max (parabola-refined), value at the snapshot offset after the pulse,
    revival period (None if undetected), spectral peaks, final populations.
    keep_series / keep_spectrum / n_pulse_samples > 2 attach the full trace,
    spectrum, and in-pulse trajectory under non-JSON keys for file export.
    """
    h0, v, state0, cos_op, energies = _kick_setup(params, fld, dressed)
    n_samples = max(2, int(n_pulse_samples))
    traj = propagate(h0, v, fld, state0, np.linspace(fld.t_start, fld.t_end, n_samples),
                     **_integrator_kwargs(integrator, tol))
    return _kick_summary(params, fld, traj, cos_op, energies, dressed,
                         trace_window=trace_window, n_trace=n_trace,
                         snapshot_offset=snapshot_offset,
                         peaks_rel_height=peaks_rel_height,
                         keep_series=keep_series, keep_spectrum=keep_spectrum)


def composite_response(params, fld, trace_window=None, n_trace=16384, tol=1e-8,
                       integrator=None):
    """Exact dressed propagation of a composite pulse plus trace summary."""
    tau = params.revival_time
    if trace_window is None:
        trace_window = 40.0 * tau
    h0, v, basis = build_dressed_hamiltonian(params)
    cos_op = dressed_cos_matrix(params)
    state0 = unit_state(basis.labels, "0;0", basis="dressed", time=fld.t_start)
    traj = propagate(h0, v, fld, state0, np.array([fld.t_start, fld.t_end]),
                     **_integrator_kwargs(integrator, tol))
    end = traj.state_at(len(traj) - 1)
    vmax, t_max, series = _refined_trace_max(end, basis.energies, cos_op,
                                             fld.t_end, trace_window, n_trace)
    period = _trace_revival(series, tau)
    pops = {lab: float(abs(a) ** 2) for lab, a in zip(basis.labels, end.amplitudes)}
    return {
        "final_state": end,
        "basis": basis,
        "series": series,
        "orientation_max": vmax,
        "t_max": t_max - fld.t_end,
        "revival_period": period,
        "populations": pops,
        "norm_final": end.norm(),
        "halvings": traj.meta.get("halvings"),
        "step_error": traj.meta.get("step_error"),
    }


def magnus_final_state(params, fld, tol=1e-10):
    """First-order analytic end-of-pulse state in the schrodinger picture."""
    areas = compute_areas(params, fld, tol=tol)
    state = magnus_wavefunction(areas, time=fld.t_end)
    w0 = doublet_energies(params, 0)
    w1 = doublet_energies(params, 1)
    energies = np.array([0.0, w0[0], w0[1], w1[0], w1[1]])
    return to_schrodinger(state, energies, t_ref=0.0), energies


@dataclass(frozen=True)
class ScanResult:
    """Ordered scan records plus the axes and parameters that made them."""

    records: tuple
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self):
        return len(self.records)

    def as_dict(self):
        return {"meta": dict(self.meta), "records": [dict(r) for r in self.records]}


def _kick_worker(params, fld, traj, cos_op, energies, dressed, kw):
    """One detuning-scan record, from its propagated trajectory or its failure."""
    if isinstance(traj, NotConverged):
        return {"converged": False, "error": str(traj)}
    rec = _kick_summary(params, fld, traj, cos_op, energies, dressed, **kw)
    return {**rec, "converged": True}


def _kick_group_worker(payload):
    """All detunings of one (cavity, bandwidth) group, propagated as one batch."""
    pdict, fdicts, dressed, integ, kw = payload
    from .pulse import field_from_dict

    params = SystemParams(**pdict)
    fields = [field_from_dict(f) for f in fdicts]
    h0, v, state0, cos_op, energies = _kick_setup(params, fields[0], dressed)
    times = np.array([fields[0].t_start, fields[0].t_end])
    trajs = propagate_batch(h0, v, fields, [state0] * len(fields), times, **integ)
    return [_kick_worker(params, fld, traj, cos_op, energies, dressed, kw)
            for fld, traj in zip(fields, trajs)]


def scan_detuning_bandwidth(params, detunings, bandwidths, cavity=(True, False),
                            area=KICK_AREA, trace_window=None, n_trace=16384,
                            snapshot_offset=None, threads=None, tol=1e-8,
                            keep_spectrum=False, integrator=None):
    """Kick-pulse response over carrier detuning x bandwidth x cavity on/off.

    Detunings and bandwidths are absolute angular frequencies; the carrier is
    omega01 + detuning.  Bare runs reuse the same parameters with the
    coupling switched off and no photon ladder.  All detunings of one
    (cavity, bandwidth) group share the Hamiltonian and the field window, so
    they propagate as one batch, at the finest step any of them needs; each
    record still carries its own halvings and certified step error.  Worker
    processes take whole groups, so no more than one process per group is
    busy, and the records do not depend on `threads`.
    Records keep the axes, the orientation maximum and snapshot, the revival
    period, and the strongest spectral peaks, in deterministic axis order.
    """
    from .pulse import field_to_dict

    cavity = tuple(cavity) if isinstance(cavity, (tuple, list)) else (cavity,)
    kw = {"trace_window": trace_window, "n_trace": n_trace,
          "snapshot_offset": snapshot_offset, "keep_spectrum": keep_spectrum}
    integ = _integrator_kwargs(integrator, tol)
    jobs = []
    axes = []
    for cav in cavity:
        run_params = params if cav else SystemParams(
            rot_const=params.rot_const, dipole=params.dipole, cavity_freq=0.0,
            coupling=0.0, j_max=params.j_max, n_max=0)
        for bw in bandwidths:
            fdicts = [field_to_dict(gaussian_for_area(run_params, area, 1.0 / bw,
                                                      params.omega01 + det))
                      for det in detunings]
            jobs.append((asdict(run_params), fdicts, cav, integ, kw))
            axes += [(bool(cav), float(bw), float(det)) for det in detunings]

    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            groups = list(pool.map(_kick_group_worker, jobs, chunksize=1))
    else:
        groups = [_kick_group_worker(job) for job in jobs]

    records = []
    for (cav, bw, det), rec in zip(axes, (rec for group in groups for rec in group)):
        rec.update({"cavity": cav, "bandwidth": bw, "detuning": det})
        records.append(rec)
    meta = {
        "kind": "detuning_bandwidth",
        "area": float(area),
        "detunings": [float(d) for d in detunings],
        "bandwidths": [float(b) for b in bandwidths],
        "cavity": [bool(c) for c in cavity],
        "params": asdict(params),
    }
    return ScanResult(records=tuple(records), meta=meta)


def _composite_worker(payload):
    idx, pdict, fdict, n_trace, tol, integrator = payload
    from .pulse import field_from_dict

    params = SystemParams(**pdict)
    fld = field_from_dict(fdict)
    try:
        exact = composite_response(params, fld, n_trace=n_trace, tol=tol,
                                   integrator=integrator)
    except (NotConverged, QuadratureNotConverged) as exc:
        return idx, {"converged": False, "error": str(exc)}
    mstate, men = magnus_final_state(params, fld)
    cos_op = dressed_cos_matrix(params)
    sub = cos_op.matrix[np.ix_(range(5), range(5))]
    mmax, mt, _ = _refined_trace_max(
        mstate, men, OperatorMatrix(sub, basis="dressed", label="cos_theta"),
        fld.t_end, exact["series"].window, 8192)
    mpops = {lab: float(abs(a) ** 2) for lab, a in zip(mstate.labels, mstate.amplitudes)}
    epops = exact["populations"]
    pop_diff = max(abs(mpops[lab] - epops[lab]) for lab in mstate.labels)
    rec = {
        "orientation_max_exact": exact["orientation_max"],
        "orientation_max_magnus": float(mmax),
        "populations_exact": epops,
        "populations_magnus": mpops,
        "max_population_diff": float(pop_diff),
        "revival_period": exact["revival_period"],
        "norm_final": exact["norm_final"],
        "halvings": exact["halvings"],
        "step_error": exact["step_error"],
        "converged": True,
    }
    return idx, rec


def scan_composite_bandwidth(params, bandwidths, reference_bandwidth=None,
                             area=DESIGN_AREA, phase_minus=0.0, branch="auto",
                             n_trace=16384, threads=None, tol=1e-8,
                             integrator=None):
    """Composite-pulse performance versus bandwidth, exact and analytic.

    The carrier phases are solved once at reference_bandwidth (default: the
    smallest bandwidth if it resolves the doublet, else 0.1 g) and then held
    fixed while the envelope width sweeps, since the phase manifold does not
    depend on the envelope.  Each record carries the exact and first-order
    orientation maxima and their population mismatch.
    """
    from .pulse import field_to_dict

    g = params.coupling
    if reference_bandwidth is None:
        reference_bandwidth = min(min(bandwidths), 0.1 * g)
    ref_pulse, report = design_composite(params, bandwidth=reference_bandwidth,
                                         area=area, phase_minus=phase_minus,
                                         branch=branch)
    carriers = ref_pulse.components
    pdict = asdict(params)
    jobs = []
    for i, bw in enumerate(bandwidths):
        fld = composite_for_area(params, area, 1.0 / bw, carriers)
        jobs.append((i, pdict, field_to_dict(fld), n_trace, tol, integrator))

    results = [None] * len(jobs)
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for idx, rec in pool.map(_composite_worker, jobs, chunksize=1):
                results[idx] = rec
    else:
        for job in jobs:
            idx, rec = _composite_worker(job)
            results[idx] = rec

    records = []
    for bw, rec in zip(bandwidths, results):
        rec = dict(rec)
        rec["bandwidth"] = float(bw)
        records.append(rec)
    meta = {
        "kind": "composite_bandwidth",
        "area": float(area),
        "bandwidths": [float(b) for b in bandwidths],
        "reference_bandwidth": float(reference_bandwidth),
        "carriers": [list(c) for c in carriers],
        "design_report": report.as_dict(),
        "params": asdict(params),
    }
    return ScanResult(records=tuple(records), meta=meta)
