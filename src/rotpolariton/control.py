"""Two-color pulse design, design-condition checks, and parameter scans.

The orientation-restoring scheme drives both ground-to-doublet lines with one
Gaussian envelope.  Amplitude fixes the populations (1/2, 1/4, 1/4); the
carrier phases decide whether the free evolution ever aligns the three
amplitudes.  Writing Phi = w_lo arg(Theta_up) - w_up arg(-Theta_lo) with
w_up, w_lo the two transition frequencies, the alignment manifold is

    Phi = g pi  (mod 2 g pi)

because w_lo/g and w_up/g are coprime integers for the resonant defaults and
the torus line traced by the two free phases conserves exactly this
combination.  Phi is linear in phi_up between the 2 pi jumps of an angle, so
the designer writes its roots down and polishes the one nearest the unwrapped
guess with one Newton step on the closed-form areas (pulse.spectral_area).
The designed pulse is then checked against every condition.

Both scans run through one driver.  A scan job holds fields that share one
window; the job propagates them as one batch and turns each trajectory into a
record with the job's per-record function.  The detuning scan sends one job
per 256 detunings of a (cavity, bandwidth) group, the composite scan one
single-field job per bandwidth, whose record adds the first-order comparison.
Jobs go to worker processes as they are, and the records come back in job
order.  Both scans return (records, meta), plain lists and dicts.
"""

from dataclasses import asdict, replace

import numpy as np

from .dynamics import magnus_wavefunction, propagate, propagate_batch
from .errors import DesignInfeasible, NotConverged
from .model import (
    Model,
    build_model,
    doublet_energies,
    mu_tilde_doublet,
    mu_tilde_ground,
)
from .observables import (
    _vertex,
    dressed_populations_phases,
    orientation_trace,
    revival_period,
    spectrum,
    spectrum_peaks,
)
from .pulse import (
    PulseAreaSet,
    _within_turn,
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
    "check_conditions",
    "design_composite",
    "kick_response",
    "scan_detuning_bandwidth",
    "scan_composite_bandwidth",
]

# per-carrier area pi sqrt(2)/8: doublet populations 1/4 each, ground 1/2
DESIGN_AREA = np.pi * np.sqrt(2.0) / 8.0
# single-carrier area pi/4: equal ground/excited split on one line
KICK_AREA = np.pi / 4.0
# the carriers resolve the doublet only up to this bandwidth, in units of g
_MAX_BANDWIDTH_RATIO = 0.2
# the largest phase (units of g) and amplitude residuals a designed pulse
# may keep
_RESIDUAL_TOL = 1e-6
# the most fields one scan job propagates as a batch: the kernel holds about
# _CHUNK field values per row at once (82 kB), so a group of 20,000 detunings
# in one job needs 1.6 GB
_JOB_ROWS = 256
# samples of the first-order trace a composite record compares against
_MAGNUS_N_TRACE = 8192
# a value read off a propagated state is reported only where the certified
# error resolves it to this fraction: the error band of a trace against its
# largest value, of a sample for the time of its maximum, of a radian for a
# phase.  A coarser resolution lets roundoff, which sits below the certified
# error, move the value beyond 1e-10 of its column
_RESOLUTION = 0.05


def _wrap(x, period):
    """Wrap into (-period/2, period/2]."""
    y = np.mod(x + 0.5 * period, period) - 0.5 * period
    return y + period if y <= -0.5 * period else y


def compute_areas(params, fld):
    """All design-relevant spectral areas of a field, as one PulseAreaSet."""
    w0 = doublet_energies(params, 0)
    w1 = doublet_energies(params, 1)
    up, lo = pulse_area_ground(fld, w0, mu_tilde_ground(params))
    dbl = pulse_area_doublet(fld, w0, w1, mu_tilde_doublet(params))
    return PulseAreaSet(up, lo, dbl)


def phase_functional(params, areas):
    """Phase combination conserved by the post-pulse free evolution.

    Phi = w_lo arg(Theta_up) - w_up arg(-Theta_lo), in energy units; divide
    by the coupling to read it against the g pi manifold.
    """
    w_up, w_lo = doublet_energies(params, 0)
    return w_lo * np.angle(areas.theta_up0) - w_up * np.angle(-areas.theta_lo0)


def check_conditions(params, fld, area_target=DESIGN_AREA):
    """Measure a field against the amplitude, phase, and blockade conditions.

    Returns a plain dict.  Phase quantities are in units of the coupling g;
    amplitude residuals are radians of spectral area.
    """
    areas = compute_areas(params, fld)
    g = params.coupling
    phi = phase_functional(params, areas)
    resid = abs(_wrap(phi - g * np.pi, 2.0 * g * np.pi)) / g
    # the same condition written without the lower-area sign flip lands on
    # 0 mod 2 g pi; reported alongside so either convention can be audited
    w_up, w_lo = doublet_energies(params, 0)
    phi_alt = w_lo * np.angle(areas.theta_up0) - w_up * np.angle(areas.theta_lo0)
    resid_alt = abs(_wrap(phi_alt, 2.0 * g * np.pi)) / g
    leak = {f"{s:+d},{l:+d}": abs(areas.doublet[(s, l)]) for s in (+1, -1) for l in (+1, -1)}
    pops = np.abs(magnus_wavefunction(areas)) ** 2
    p0, pu, pl = pops[0], pops[1], pops[2]
    predicted = (2.0 / np.sqrt(6.0)) * (np.sqrt(p0 * pu) + np.sqrt(p0 * pl))
    return {
        "area_target": float(area_target),
        "amp_residuals": {"up": float(abs(areas.theta_up0) - area_target),
                          "lo": float(abs(areas.theta_lo0) - area_target)},
        "phase_value_g": float(phi / g),
        "phase_residual_g": float(resid),
        "phase_residual_alt_g": float(resid_alt),
        "blockade_residuals": leak,
        "theta0": areas.theta0,
        "theta1": areas.theta1,
        "predicted_populations": tuple(float(p) for p in pops),
        "predicted_orientation_max": float(predicted),
    }


def design_composite(params, bandwidth, area=DESIGN_AREA, phase_minus=0.0, branch="+"):
    """Solve the upper-carrier phase of the two-color orientation pulse.

    The bandwidth is 1/tau0 of the shared envelope.  The carriers must
    resolve the doublet (bandwidth <= 0.2 g), otherwise the phase condition
    the design rests on is meaningless and DesignInfeasible is raised.
    branch ("+" or "-") selects the root of Phi = +g pi or -g pi (mod 2 g pi).
    arg Theta_up is the upper carrier phase, so between its 2 pi jumps
    Phi = w_lo phi_up + const and the roots are written down.  The one nearest
    (target + w_up phase_minus) / w_lo is taken, with phase_minus beyond one
    turn reduced to one as field_value does, and one Newton step of slope
    w_lo removes the carriers' cross-talk.  An area at which either ground
    area of that guess vanishes, 0 or one that underflows, leaves no phase
    to solve and raises DesignInfeasible.  Returns (pulse, report), the
    report being check_conditions' dict.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    tau0 = 1.0 / bandwidth
    g = params.coupling
    if g <= 0:
        raise DesignInfeasible("design needs a coupled cavity (g > 0)")
    if bandwidth > _MAX_BANDWIDTH_RATIO * g * (1 + 1e-12):
        raise DesignInfeasible(
            f"bandwidth {bandwidth:g} does not resolve the doublet; "
            f"need <= {_MAX_BANDWIDTH_RATIO:g} g = {_MAX_BANDWIDTH_RATIO * g:g}"
        )
    w_up, w_lo = doublet_energies(params, 0)
    if w_lo == 0:
        raise DesignInfeasible("the lower doublet line sits at zero frequency")
    target = (1.0 if branch == "+" else -1.0) * g * np.pi
    # the lower phase as the field applies it: beyond one turn, reduced to one
    pm = _within_turn(phase_minus)
    c = (target + w_up * _wrap(pm, 2.0 * np.pi)) / w_lo
    step = 2.0 * np.pi * g / abs(w_lo)
    # the roots c + k step whose upper phase lies in (-pi, pi]; their copies
    # are 2 pi apart
    k_lo, k_hi = np.ceil((-np.pi - c) / step), np.floor((np.pi - c) / step)
    if k_lo > k_hi:
        raise DesignInfeasible(f"the phase condition has no root with the lower "
                               f"doublet line at {w_lo / g:g} g")
    guess = (target + w_up * pm) / w_lo
    # there are |w_lo| / g of them; the nearest to the guess on the circle
    # neighbours the wrapped guess or is one of the two ends
    near = np.floor((_wrap(guess, 2.0 * np.pi) - c) / step)
    ks = sorted({k_lo, k_hi} | {min(max(near + d, k_lo), k_hi) for d in (-1.0, 0.0, 1.0, 2.0)})
    phi_up = guess - min((_wrap(guess - (c + step * k), 2.0 * np.pi) for k in ks), key=abs)

    def make(phi):
        return composite_for_area(params, area, tau0, [(w_up, phi), (w_lo, phase_minus)])

    areas = compute_areas(params, make(phi_up))
    if areas.theta_up0 == 0 or areas.theta_lo0 == 0:
        raise DesignInfeasible(f"at area {area:g} a carrier's ground area vanishes, "
                               f"so it has no phase to solve")
    val = phase_functional(params, areas)
    pulse = make(phi_up - _wrap(val - target, 2.0 * g * np.pi) / w_lo)
    report = check_conditions(params, pulse, area_target=area)

    if report["phase_residual_g"] > _RESIDUAL_TOL:
        raise DesignInfeasible(
            f"solved phase misses the manifold by {report['phase_residual_g']:.3e} g"
        )
    if max(abs(r) for r in report["amp_residuals"].values()) > _RESIDUAL_TOL * max(1.0, area):
        raise DesignInfeasible("carrier cross-talk spoils the amplitude condition")
    return pulse, report


def _refined_trace_max(amplitudes, model, t0, window, n, error):
    """Max of the free-evolution orientation over [t0, t0 + window), its time and trace.

    The amplitudes, the state at t0, evolve freely in `model`.  The max is
    the larger of the best sample and the trace at the parabola vertex
    around it.  A state error `error` moves the trace by up to twice that,
    so its time is the earliest sample within 2 `error` of the best one,
    moved to the vertex there where that band resolves it: roundoff then
    cannot choose among the copies of a maximum that the trace repeats with
    its revivals, nor move the vertex of a shallow one.
    """
    dt = window / n
    series = orientation_trace(amplitudes, t0, model.energies, model.cos, t0, dt, n)
    ts, vals = series.times, series.values
    top = int(np.argmax(vals))
    t_top = ts[top] + _vertex(vals, top) * dt
    # a trace holds at least two samples; the vertex value is the first
    v_top = orientation_trace(amplitudes, t0, model.energies, model.cos,
                              t_top, dt, 2).values[0]
    first = int(np.argmax(vals >= vals[top] - 2.0 * error))
    t_first = ts[first] + _vertex(vals, first, 2.0 * error / _RESOLUTION) * dt
    return float(max(v_top, vals[top])), float(t_first), series


def _kick_setup(params):
    """Drift, drive, initial state and model of a kick.

    The model is build_model's: h0 = diag(energies), v = mu cos theta, and
    the run starts in its first state.
    """
    model = build_model(params)
    state0 = np.zeros(len(model.labels), dtype=complex)
    state0[0] = 1.0
    return np.diag(model.energies), params.dipole * model.cos, state0, model


def _kick_summary(params, fld, traj, model, trace_window=None,
                  n_trace=16384, snapshot_offset=None):
    """(record, series, (omega, amplitude)) of one propagated kick; see kick_response."""
    tau = params.revival_time
    if trace_window is None:
        trace_window = 40.0 * tau
    if snapshot_offset is None:
        snapshot_offset = 6.75 * tau
    end = traj.states[-1]
    error = traj.meta["step_error"]

    vmax, t_max, series = _refined_trace_max(end, model, fld.t_end, trace_window,
                                             n_trace, error)
    snap_t = fld.t_end + snapshot_offset
    snap = orientation_trace(end, fld.t_end, model.energies, model.cos,
                             snap_t, tau, 2).values[0]

    omega, amp = spectrum(series)
    # a trace whose error band the certificate does not resolve is flat: its
    # time of maximum, revival and spectrum would be read off roundoff
    if 2.0 * error > _RESOLUTION * float(np.max(np.abs(series.values))):
        t_max = period = None
        amp = np.full(omega.size, np.nan)
        pw = ph = np.array([])
    else:
        t_max -= fld.t_end
        period = revival_period(series, min_lag=0.05 * tau)
        pw, ph = spectrum_peaks(omega, amp)

    dressed = bool(params.coupling > 0)
    pops = {lab: float(abs(a) ** 2) for lab, a in zip(model.labels, end)}
    rec = {
        "dressed": dressed,
        "orientation_max": vmax,
        "t_max": t_max,
        "orientation_snapshot": float(snap),
        "snapshot_offset": float(snapshot_offset),
        "revival_period": period,
        "peaks_omega": pw.tolist(),
        "peaks_height": ph.tolist(),
        "populations": pops,
        "phases": (dressed_populations_phases(end, model.labels, error / _RESOLUTION)
                   if dressed else None),
        "norm_final": float(np.linalg.norm(end)),
        "halvings": traj.meta["halvings"],
        "steps": traj.meta["steps"],
        "step_error": error,
        "trace_window": float(trace_window),
        "n_trace": int(n_trace),
    }
    return rec, series, (omega, amp)


def kick_response(params, fld, trace_window=None, n_trace=16384,
                  snapshot_offset=None, n_pulse_samples=2, tol=1e-8):
    """Propagate one pulse and summarize the post-pulse orientation.

    The run propagates the model build_model picks: the polariton eigenbasis
    of the cavity on the 0-1 line when coupled (g > 0), otherwise the rotor
    alone, which needs n_max = 0 (otherwise ValueError); the drive is
    mu cos theta in both.  Returns a plain dict: orientation max
    (parabola-refined), value at the snapshot offset after the pulse,
    revival period (None if undetected), spectral peaks, final populations.
    No value is read off roundoff: each must be resolved by the certified
    step error ε to _RESOLUTION (5 %).  A trace moves by up to 2 ε, so one
    whose largest |value| is below 2 ε / 5 % = 40 ε is flat, with t_max and
    the revival period None, no peaks and a spectrum of nan.  Otherwise
    t_max is the earliest trace sample within 2 ε of the best one, moved to
    the parabola vertex there where that resolves the vertex to 5 % of a
    sample.  A dressed phase, resolved to ε / |amplitude| radians, is None
    where its amplitude is at most ε / 5 % = 20 ε.
    The full trace ("series"), its spectrum ("spectrum", the pair
    (omega, amplitude)) and the in-pulse trajectory of n_pulse_samples
    samples ("trajectory"; fewer than 2 raise ValueError) are attached
    under non-JSON keys for file export.
    tol is the step error the propagation is certified to (see propagate).
    """
    h0, v, state0, model = _kick_setup(params)
    traj = propagate(h0, v, fld, state0,
                     np.linspace(fld.t_start, fld.t_end, n_pulse_samples), tol=tol)
    rec, series, spec = _kick_summary(params, fld, traj, model, trace_window=trace_window,
                                      n_trace=n_trace, snapshot_offset=snapshot_offset)
    return {**rec, "series": series, "spectrum": spec, "trajectory": traj}


def magnus_final_state(params, fld):
    """First-order analytic end-of-pulse state, with its drift phases since t = 0.

    It lives on the first five dressed states, |0;0>, |+-;0> and |+-;1>, so
    it needs n_max >= 2, otherwise ValueError.  Returns the amplitudes at
    the end of the pulse, fld.t_end, and the dressed model cut to those five
    states, whose labels name the amplitudes.
    """
    if params.n_max < 2:
        raise ValueError(f"the first-order state needs |+-;1>, so n_max >= 2, "
                         f"got {params.n_max}")
    amps = magnus_wavefunction(compute_areas(params, fld))
    full = build_model(params)
    model = Model(full.labels[:5], full.energies[:5], full.cos[:5, :5])
    return np.exp(-1j * model.energies * fld.t_end) * amps, model


def _kick_worker(params, fld, traj, model, keep_spectrum=False, **kw):
    """One kick record, from its propagated trajectory or its failure.

    keep_spectrum attaches the trace's (omega, amplitude) as "spectrum".
    """
    if isinstance(traj, NotConverged):
        return {"converged": False, "error": str(traj)}
    rec, _, spec = _kick_summary(params, fld, traj, model, **kw)
    if keep_spectrum:
        rec["spectrum"] = spec
    return {**rec, "converged": True}


def _composite_worker(params, fld, traj, model, **kw):
    """One composite record: the exact kick against the first-order pulse map."""
    if isinstance(traj, NotConverged):
        return {"converged": False, "error": str(traj)}
    exact, series, _ = _kick_summary(params, fld, traj, model, **kw)
    mstate, mmodel = magnus_final_state(params, fld)
    mmax, _, _ = _refined_trace_max(mstate, mmodel, fld.t_end, series.window,
                                    _MAGNUS_N_TRACE, 0.0)
    mpops = {lab: float(abs(a) ** 2) for lab, a in zip(mmodel.labels, mstate)}
    epops = exact["populations"]
    pop_diff = max(abs(mpops[lab] - epops[lab]) for lab in mmodel.labels)
    return {
        "orientation_max_exact": exact["orientation_max"],
        "orientation_max_magnus": float(mmax),
        "populations_exact": epops,
        "populations_magnus": mpops,
        "max_population_diff": float(pop_diff),
        "revival_period": exact["revival_period"],
        "norm_final": exact["norm_final"],
        "halvings": exact["halvings"],
        "steps": exact["steps"],
        "step_error": exact["step_error"],
        "converged": True,
    }


def _kick_group_worker(job):
    """The records of one scan job: its fields, propagated as one batch.

    A job is (params, fields that share one window, the step tolerance,
    the per-record function's keywords, per-record function).
    """
    params, fields, tol, kw, record = job
    h0, v, state0, model = _kick_setup(params)
    times = np.array([fields[0].t_start, fields[0].t_end])
    trajs = propagate_batch(h0, v, fields, [state0] * len(fields), times, tol=tol)
    return [record(params, fld, traj, model, **kw) for fld, traj in zip(fields, trajs)]


def _scan_groups(jobs, threads):
    """The records of all jobs, in job order.

    Where min(threads, jobs) is above 1, that many worker processes run the
    jobs; the process pool is imported only then.
    """
    workers = min(threads or 1, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_kick_group_worker, jobs, chunksize=1))
    else:
        groups = [_kick_group_worker(job) for job in jobs]
    return [rec for group in groups for rec in group]


def scan_detuning_bandwidth(params, detunings, bandwidths, cavity=(True, False),
                            area=KICK_AREA, trace_window=None, n_trace=16384,
                            snapshot_offset=None, threads=None,
                            keep_spectrum=False, tol=1e-8):
    """Kick-pulse response over carrier detuning x bandwidth x cavity on/off.

    Detunings and bandwidths are absolute angular frequencies; the carrier is
    omega01 + detuning.  Bare runs reuse the same parameters with the
    coupling switched off and no photon ladder, so they run on the rotor
    alone.  All detunings of one (cavity, bandwidth) group share the
    Hamiltonian and the field window, so they propagate in batches of up to
    _JOB_ROWS (256), in order, each from the finest pilot step any of its
    fields needs; each record still carries its own runs ("halvings",
    "steps") and certified step error.  Worker processes take whole batches,
    so the records do not depend on `threads`.
    Returns (records, meta).  Records keep the axes, the orientation maximum
    and snapshot, the revival period, and the strongest spectral peaks, in
    deterministic axis order.
    """
    kw = {"trace_window": trace_window, "n_trace": n_trace,
          "snapshot_offset": snapshot_offset, "keep_spectrum": keep_spectrum}
    jobs = []
    axes = []
    for cav in cavity:
        run_params = params if cav else replace(params, coupling=0.0, n_max=0)
        for bw in bandwidths:
            fields = [gaussian_for_area(run_params, area, 1.0 / bw, params.omega01 + det)
                      for det in detunings]
            jobs += [(run_params, fields[i:i + _JOB_ROWS], tol, kw, _kick_worker)
                     for i in range(0, len(fields), _JOB_ROWS)]
            axes += [(bool(cav), float(bw), float(det)) for det in detunings]

    records = _scan_groups(jobs, threads)
    for (cav, bw, det), rec in zip(axes, records):
        rec.update({"cavity": cav, "bandwidth": bw, "detuning": det})
    meta = {
        "kind": "detuning_bandwidth",
        "area": float(area),
        "detunings": [float(d) for d in detunings],
        "bandwidths": [float(b) for b in bandwidths],
        "cavity": [bool(c) for c in cavity],
        "params": asdict(params),
    }
    return records, meta


def scan_composite_bandwidth(params, bandwidths, reference_bandwidth, area=DESIGN_AREA,
                             phase_minus=0.0, branch="+", trace_window=None,
                             n_trace=16384, threads=None, tol=1e-8):
    """Composite-pulse performance versus bandwidth, exact and first-order.

    The carrier phases are solved once at reference_bandwidth, with the
    given area, lower-carrier phase and branch (see design_composite), and
    then held fixed while the envelope width sweeps, since the phase
    manifold does not depend on the envelope.  Each bandwidth is one scan
    job, so `threads` worker processes take one bandwidth each, and the
    records do not depend on `threads`.  Each record carries the exact and
    first-order orientation maxima, over the post-pulse trace window, and
    their population mismatch.  Returns (records, meta).
    """
    ref_pulse, report = design_composite(params, bandwidth=reference_bandwidth,
                                         area=area, phase_minus=phase_minus,
                                         branch=branch)
    carriers = ref_pulse.components
    kw = {"trace_window": trace_window, "n_trace": n_trace}
    jobs = [(params, [composite_for_area(params, area, 1.0 / bw, carriers)],
             tol, kw, _composite_worker) for bw in bandwidths]
    records = _scan_groups(jobs, threads)
    for bw, rec in zip(bandwidths, records):
        rec["bandwidth"] = float(bw)
    meta = {
        "kind": "composite_bandwidth",
        "area": float(area),
        "bandwidths": [float(b) for b in bandwidths],
        "reference_bandwidth": float(reference_bandwidth),
        "carriers": [list(c) for c in carriers],
        "design_report": report,
        "params": asdict(params),
    }
    return records, meta
