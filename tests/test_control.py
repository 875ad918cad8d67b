"""Pulse design conditions, the composite solver, and the scan harness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rotpolariton as rp
from rotpolariton import control
from conftest import (
    B,
    G,
    TAU,
    SQRT3INV,
    build_full_hamiltonian,
    dressed_operators,
    ocs_params,
    unit_params,
)


# ------------------------------------------------------------ area bookkeeping

def test_compute_areas_on_designed_pulse(designed, p_cavity):
    fld, _report = designed
    areas = rp.compute_areas(p_cavity, fld)
    assert abs(areas.theta_up0) == pytest.approx(rp.DESIGN_AREA, abs=1e-9)
    assert abs(areas.theta_lo0) == pytest.approx(rp.DESIGN_AREA, abs=1e-9)
    assert areas.theta0 == pytest.approx(np.pi / 4.0, abs=1e-9)
    # nearest leakage line sits 0.586 g away: tails of order exp(-17)
    assert areas.theta1 < 1e-6


def test_zero_field_condition_report(p_cavity):
    fld = rp.CompositePulse(e0=0.0, tau0=1.0 / (0.1 * G), components=((2.0 * B, 0.0),),
                            t_start=-7.0 / (0.1 * G), t_end=7.0 / (0.1 * G))
    rep = rp.check_conditions(p_cavity, fld)
    assert rep["amp_residuals"]["up"] == pytest.approx(-rp.DESIGN_AREA)
    assert rep["amp_residuals"]["lo"] == pytest.approx(-rp.DESIGN_AREA)
    assert rep["predicted_orientation_max"] == 0.0
    assert rep["predicted_populations"][0] == pytest.approx(1.0)


def test_single_resonant_carrier_misses_both_lines(p_cavity):
    # narrowband carrier between the doublet lines: both areas blockaded
    fld = rp.gaussian_for_area(p_cavity, rp.KICK_AREA, tau0=1.0 / (0.1 * G),
                               omega0=p_cavity.omega01)
    rep = rp.check_conditions(p_cavity, fld)
    assert rep["amp_residuals"]["up"] == pytest.approx(-rp.DESIGN_AREA, abs=1e-6)
    assert rep["amp_residuals"]["lo"] == pytest.approx(-rp.DESIGN_AREA, abs=1e-6)
    assert rep["predicted_orientation_max"] < 1e-6


# ------------------------------------------------------------------ design

def test_designed_pulse_meets_all_conditions(designed):
    _fld, rep = designed
    assert rep["phase_residual_g"] < 1e-6
    # the same manifold written without the lower-line sign flip sits at
    # 0 mod 2 g pi; both bookkeepings must agree on the solution
    assert rep["phase_residual_alt_g"] < 1e-6
    assert abs(rep["amp_residuals"]["up"]) < 1e-9
    assert abs(rep["amp_residuals"]["lo"]) < 1e-9
    assert max(rep["blockade_residuals"].values()) < 1e-6
    assert rep["predicted_orientation_max"] == pytest.approx(SQRT3INV, abs=1e-6)
    pp = rep["predicted_populations"]
    assert pp[0] == pytest.approx(0.5, abs=1e-9)
    assert pp[1] == pytest.approx(0.25, abs=1e-9)
    assert pp[2] == pytest.approx(0.25, abs=1e-9)


def test_default_design_lands_on_the_analytic_root(designed):
    # with closed-form areas the solve is limited by roundoff alone
    fld, rep = designed
    assert abs(fld.components[0][1] - np.pi / 9.0) <= 1e-14
    assert max(abs(r) for r in rep["amp_residuals"].values()) <= 1e-14


def test_designed_phase_is_the_analytic_root(designed):
    fld, _rep = designed
    # with the lower carrier phase at zero, the conserved combination is
    # linear in the upper phase with slope omega_lo = 9 g, so the +g pi
    # root is pi/9 exactly
    phi_up = fld.components[0][1]
    assert phi_up == pytest.approx(np.pi / 9.0, abs=1e-9)


def test_design_scales_with_coupling():
    # doubling the coupling: omega_lo = 2B - g' = 4 g', so the +g' pi root
    # moves from pi/9 to pi/4
    p = unit_params(coupling=0.4 * B)
    fld, rep = rp.design_composite(p, bandwidth=0.1 * 0.4 * B)
    assert fld.components[0][1] == pytest.approx(np.pi / 4.0, abs=1e-9)
    assert rep["phase_residual_g"] < 1e-6


def test_phase_functional_root_is_unique_per_period(designed, p_cavity):
    fld, _rep = designed
    phi_star = fld.components[0][1]
    w_up, w_lo = rp.doublet_energies(p_cavity, 0)
    period = 2.0 * np.pi * G / w_lo
    # signed wrapped distance to the +g pi manifold along a phase grid
    # covering one period: exactly one sign change, at the solved root
    grid = np.linspace(phi_star - 0.5 * period, phi_star + 0.5 * period, 21)
    resid = []
    for phi in grid:
        f = rp.composite_for_area(p_cavity, rp.DESIGN_AREA, fld.tau0,
                                  [(w_up, phi), (w_lo, 0.0)])
        val = rp.phase_functional(p_cavity, rp.compute_areas(p_cavity, f))
        wrapped = np.mod(val - G * np.pi + G * np.pi, 2.0 * G * np.pi) - G * np.pi
        resid.append(wrapped)
    signs = np.sign(resid)
    flips = np.sum(np.abs(np.diff(signs)) > 1)
    assert flips == 1
    i = int(np.argmin(np.abs(resid)))
    assert abs(grid[i] - phi_star) < period / 20.0


@settings(max_examples=15, deadline=None)
@given(phi=st.floats(-np.pi, np.pi), phase_minus=st.floats(-np.pi, np.pi))
def test_areas_are_linear_in_the_upper_carrier_phasor(p_cavity, phi, phase_minus):
    # cos(wt + phi) = cos(phi) cos(wt) + sin(phi) cos(wt + pi/2)
    w_up, w_lo = rp.doublet_energies(p_cavity, 0)

    def areas(*carriers):
        return rp.compute_areas(p_cavity, rp.composite_for_area(
            p_cavity, rp.DESIGN_AREA, 1.0 / (0.1 * G), carriers))

    got = areas((w_up, phi), (w_lo, phase_minus))
    parts = (areas((w_up, 0.0)), areas((w_up, 0.5 * np.pi)), areas((w_lo, phase_minus)))
    weights = (np.cos(phi), np.sin(phi), 1.0)
    for name in ("theta_up0", "theta_lo0"):
        want = sum(w * getattr(a, name) for w, a in zip(weights, parts))
        assert abs(getattr(got, name) - want) <= 1e-10
    for key, val in got.doublet.items():
        want = sum(w * a.doublet[key] for w, a in zip(weights, parts))
        assert abs(val - want) <= 1e-10


@pytest.mark.parametrize("bandwidth_g, phase_minus, branch",
                         [(0.16, 1.963, "+"), (0.1, 3.0, "-")])
def test_design_finds_the_root_past_an_angle_jump(bandwidth_g, phase_minus, branch):
    # at coupling 0.15 omega01 the lower line sits at 17/3 g, so the 2 pi jump
    # of an area's angle does not vanish mod 2 g pi; Phi is linear in the
    # upper phase only between those jumps, and the root must not sit on one
    p = ocs_params(coupling_ratio=0.15)
    fld, rep = rp.design_composite(p, bandwidth=bandwidth_g * p.coupling,
                                   phase_minus=phase_minus, branch=branch)
    assert fld.components[1][1] == phase_minus
    assert rep["phase_residual_g"] < 1e-6
    assert rep["predicted_orientation_max"] == pytest.approx(SQRT3INV, abs=1e-6)


@pytest.mark.parametrize("coupling_ratio, phase_minus", [(0.3, 1.0), (0.15, 2.0)])
def test_design_root_does_not_depend_on_roundoff(coupling_ratio, phase_minus):
    # non-integer w_lo/g: the roots of Phi are not evenly spaced, and the
    # root taken must follow from the rule alone; a shift of 1e-12 in the
    # lower phase moves it by about as much, never to another root
    p = ocs_params(coupling_ratio=coupling_ratio)
    roots = [rp.design_composite(p, bandwidth=0.05 * p.coupling, phase_minus=phase_minus + d,
                                 branch="+")[0].components[0][1] for d in (-1e-12, 0.0, 1e-12)]
    assert max(roots) - min(roots) <= 1e-9


def _phase_residual(p, fld, phi_up, target):
    """Phi - target, wrapped into [-g pi, g pi), at one upper-carrier phase."""
    w_up, w_lo = rp.doublet_energies(p, 0)
    trial = rp.composite_for_area(p, rp.DESIGN_AREA, fld.tau0,
                                  [(w_up, phi_up), fld.components[1]])
    val = rp.phase_functional(p, rp.compute_areas(p, trial)) - target
    return np.mod(val + np.pi * p.coupling, 2.0 * np.pi * p.coupling) - np.pi * p.coupling


# a wrapped guess between the last root below pi and the first above -pi,
# nearer the last one (the guess of phase_minus -21.5, from within a turn)
@example(coupling_ratio=0.13, bandwidth_g=0.05, phase_minus=-2.150013390278801, branch="-")
@settings(max_examples=25, deadline=None)
@given(coupling_ratio=st.floats(0.05, 0.45), bandwidth_g=st.floats(0.02, 0.2),
       phase_minus=st.floats(-7.0, 7.0), branch=st.sampled_from("+-"))
def test_design_takes_the_root_nearest_the_guess(coupling_ratio, bandwidth_g, phase_minus,
                                                 branch):
    p = ocs_params(coupling_ratio=coupling_ratio)
    g = p.coupling
    fld, rep = rp.design_composite(p, bandwidth=bandwidth_g * g, phase_minus=phase_minus,
                                   branch=branch)
    assert rep["phase_residual_g"] <= 1e-12
    w_up, w_lo = rp.doublet_energies(p, 0)
    target = (1.0 if branch == "+" else -1.0) * g * np.pi
    if abs(phase_minus) > 2.0 * np.pi:
        # the phase the field applies
        phase_minus = math.atan2(math.sin(phase_minus), math.cos(phase_minus))
    guess = (target + w_up * phase_minus) / w_lo
    dist = abs(fld.components[0][1] - guess)
    # Phi moves with slope w_lo and jumps where the upper area's angle
    # passes pi; scan every phase within dist of the guess, at an eighth of
    # the period of the wrapped residual, with nodes straddling each jump so
    # that no interval spans one
    jumps = np.pi * np.arange(np.ceil((guess - dist) / np.pi), np.floor((guess + dist) / np.pi) + 1)
    jumps = jumps[np.mod(np.rint(jumps / np.pi), 2) == 1]
    n = int(np.ceil(8.0 * dist * w_lo / (np.pi * g))) + 2
    nodes = np.unique(np.concatenate([np.linspace(guess - dist, guess + dist, n),
                                      jumps - 1e-9, jumps + 1e-9]))
    res = np.array([_phase_residual(p, fld, x, target) for x in nodes])
    for a, b, ra, rb in zip(nodes[:-1], nodes[1:], res[:-1], res[1:]):
        if np.any(abs(jumps - 0.5 * (a + b)) < 1e-9) or ra * rb > 0 or abs(rb - ra) > np.pi * g:
            continue
        root = a - ra * (b - a) / (rb - ra) if rb != ra else a
        assert abs(root - guess) >= dist - 1e-9


def test_newton_step_absorbs_the_carrier_cross_talk():
    # at coupling 0.7 omega01 the lower line sits at 3/7 g and the carriers
    # of a 0.2 g pulse overlap by more than 1e-6 g: the linear root alone
    # misses the manifold
    p = ocs_params(coupling_ratio=0.7)
    fld, rep = rp.design_composite(p, bandwidth=0.2 * p.coupling, phase_minus=-5.5,
                                   branch="+")
    assert rep["phase_residual_g"] <= 1e-12
    assert max(abs(r) for r in rep["amp_residuals"].values()) <= 1e-6


@pytest.mark.parametrize("phase_minus", [1.0e300, 1.0e6, -7.0])
def test_a_lower_phase_beyond_a_turn_designs_as_its_reduced_angle(p_cavity, phase_minus):
    # the field applies such a phase reduced to one turn, so the design does
    reduced = math.atan2(math.sin(phase_minus), math.cos(phase_minus))
    far, rep = rp.design_composite(p_cavity, bandwidth=0.1 * G, phase_minus=phase_minus)
    near, _ = rp.design_composite(p_cavity, bandwidth=0.1 * G, phase_minus=reduced)
    assert far.components[0][1] == near.components[0][1]
    assert abs(far.components[0][1]) <= np.pi
    assert rep["phase_residual_g"] <= 1e-12


def test_design_with_custom_area(p_cavity):
    fld, rep = rp.design_composite(p_cavity, bandwidth=0.1 * G, area=0.3)
    areas = rp.compute_areas(p_cavity, fld)
    assert abs(areas.theta_up0) == pytest.approx(0.3, abs=1e-9)
    assert abs(areas.theta_lo0) == pytest.approx(0.3, abs=1e-9)
    assert rep["phase_residual_g"] < 1e-6
    # smaller area, smaller transfer: the predicted maximum drops
    assert rep["predicted_orientation_max"] < SQRT3INV


def test_design_infeasible_cases(p_cavity):
    with pytest.raises(rp.DesignInfeasible):
        rp.design_composite(p_cavity, bandwidth=0.5 * G)
    with pytest.raises(rp.DesignInfeasible):
        rp.design_composite(unit_params(coupling=0.0, n_max=0),
                            bandwidth=0.1 * G)
    with pytest.raises(ValueError, match="branch"):
        rp.design_composite(p_cavity, bandwidth=0.1 * G, branch="auto")
    # the lower line at g/9: Phi spans less than 2 g pi over a turn of the
    # upper phase and misses g pi; at coupling omega01 the line sits at zero
    for ratio, message in [(0.9, "no root"), (1.0, "zero frequency")]:
        p = ocs_params(coupling_ratio=ratio)
        with pytest.raises(rp.DesignInfeasible, match=message):
            rp.design_composite(p, bandwidth=0.1 * p.coupling)


def test_design_at_a_tiny_coupling_does_not_list_its_roots():
    # |w_lo| / g = 1e12 roots of the phase condition lie in (-pi, pi]; the
    # one nearest the guess is found without an array or a loop over them
    p = ocs_params(coupling_ratio=1e-12)
    _fld, rep = rp.design_composite(p, bandwidth=0.1 * p.coupling)
    assert rep["phase_residual_g"] < 1e-6


def test_design_boundary_bandwidth_is_accepted(p_cavity):
    fld, rep = rp.design_composite(p_cavity, bandwidth=0.2 * G)
    assert rep["phase_residual_g"] < 1e-6


# ----------------------------------------------------------------- responses

def _refined_max(state, energies, m, t0, window, n):
    """Largest sample of the post-pulse trace from the state at t0, or the
    trace at the parabola vertex through it and its neighbours where that
    is larger."""
    dt = window / n
    ts = t0 + dt * np.arange(n)
    vals = rp.orientation_trace(state, t0, energies, m, t0, dt, n).values
    i = int(np.argmax(vals))
    den = vals[i - 1] - 2.0 * vals[i] + vals[i + 1] if 0 < i < n - 1 else 0.0
    shift = 0.5 * (vals[i - 1] - vals[i + 1]) / den if den < 0 else 0.0
    t = ts[i] + shift * dt
    vertex = rp.orientation_trace(state, t0, energies, m, t, dt, 2)
    return float(max(vertex.values[0], vals[i]))


def _assert_matches_reference(p, fld, rec):
    # the rotor alone against the counter-rotating reference at n_max = 0,
    # whose photon ladder is one state, and the dressed model against its
    # diag E and mu cos theta: the same arithmetic, so equal bits
    if p.coupling > 0:
        h0, v, model = dressed_operators(p)
        labels, cos_op = model.labels, model.cos
    else:
        h0, v = build_full_hamiltonian(p)
        labels = tuple(f"J{j},n0" for j in range(p.j_max + 1))
        cos_op = rp.cos_theta_elements(p.j_max)
    s0 = np.eye(len(labels), dtype=complex)[0]
    traj = rp.propagate(h0, v, fld, s0, np.linspace(fld.t_start, fld.t_end, 2))
    end = traj.states[1]
    assert rec["populations"] == {lab: float(abs(a) ** 2) for lab, a in zip(labels, end)}
    assert rec["step_error"] == traj.meta["step_error"]
    assert rec["halvings"] == traj.meta["halvings"]
    assert rec["orientation_max"] == _refined_max(
        end, np.diag(h0), cos_op, fld.t_end, 40.0 * p.revival_time, 16384)


@pytest.mark.parametrize("model", ["bare", "dressed"])
def test_kick_equals_its_reference(model, request):
    cavity = model == "dressed"
    p = request.getfixturevalue("p_cavity" if cavity else "p_bare")
    fld = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / (0.1 * G), omega0=p.omega01)
    _assert_matches_reference(p, fld, request.getfixturevalue(
        "cavity_kick" if cavity else "bare_kick"))
    # B and mu away from 1, and a longer rotor ladder; the dressed kick is
    # broadband (bandwidth g), so both doublet lines take population
    p = ocs_params(cavity=cavity, j_max=30)
    fld = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / (0.1 * p.omega01),
                               omega0=p.omega01)
    _assert_matches_reference(p, fld, rp.kick_response(p, fld))


def test_uncoupled_kick_rejects_a_photon_ladder():
    p = unit_params(coupling=0.0)
    fld = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / G, omega0=p.omega01)
    with pytest.raises(ValueError, match="n_max"):
        rp.kick_response(p, fld)


def test_kick_records_its_trace_spectrum_and_pulse_samples(bare_kick, p_bare):
    assert {"series", "spectrum", "trajectory"} <= set(bare_kick)
    assert len(bare_kick["trajectory"].times) == 2
    # a trajectory needs both ends of the pulse; no count is rounded up to it
    fld = rp.gaussian_for_area(p_bare, rp.KICK_AREA, tau0=1.0 / G, omega0=p_bare.omega01)
    with pytest.raises(ValueError, match="length >= 2"):
        rp.kick_response(p_bare, fld, n_pulse_samples=1)


def test_magnus_final_state_matches_exact_at_narrow_bandwidth(
        designed, composite_exact, p_cavity):
    fld, _rep = designed
    state, model = rp.magnus_final_state(p_cavity, fld)
    assert model.labels == ("0;0", "+;0", "-;0", "+;1", "-;1") and state.shape == (5,)
    w0 = rp.doublet_energies(p_cavity, 0)
    w1 = rp.doublet_energies(p_cavity, 1)
    assert np.allclose(model.energies, [0.0, w0[0], w0[1], w1[0], w1[1]])
    # cos theta of the five states is the full model's block
    assert np.array_equal(model.cos, rp.build_model(p_cavity).cos[:5, :5])
    mpops = {lab: float(abs(a) ** 2) for lab, a in zip(model.labels, state)}
    epops = composite_exact["populations"]
    diff = max(abs(mpops[lab] - epops[lab]) for lab in model.labels)
    assert diff < 1e-3


def test_first_order_state_needs_the_first_doublet_rung(designed):
    fld, _rep = designed
    with pytest.raises(ValueError, match="n_max"):
        rp.magnus_final_state(unit_params(n_max=1), fld)


# -------------------------------------------------------------------- scans

@pytest.fixture(scope="module")
def narrow_scan(p_cavity):
    """Narrowband kicks on and off the doublet lines, cavity coupled."""
    return rp.scan_detuning_bandwidth(
        p_cavity, detunings=[-G, 0.0, G], bandwidths=[0.1 * G],
        cavity=(True,), n_trace=8192)


@pytest.fixture(scope="module")
def broad_scan(p_cavity):
    """Broadband kicks, cavity on and off; cheap enough for layout checks."""
    return rp.scan_detuning_bandwidth(
        p_cavity, detunings=[-G, 0.0, G], bandwidths=[1.0 * G],
        cavity=(True, False), n_trace=8192)


def test_scan_record_layout(broad_scan):
    records, meta = broad_scan
    assert len(records) == 6
    # axis order: cavity block, then bandwidth, then detuning
    assert [r["cavity"] for r in records] == [True] * 3 + [False] * 3
    assert [r["detuning"] for r in records][:3] == [-G, 0.0, G]
    assert all(r["converged"] for r in records)
    assert meta["kind"] == "detuning_bandwidth"


@pytest.mark.parametrize("amplitude", [1.0, 1e-5])
def test_time_of_maximum_is_the_earliest_copy_the_error_resolves(amplitude):
    # a J = 0, 1 superposition orients as A cos(2 B t - 1) / sqrt(3): its
    # maximum repeats every revival period at t = 0.5 + k pi, and the 8-period
    # trace samples every copy alike, so roundoff alone ranks them
    from rotpolariton.control import _refined_trace_max

    a = np.zeros(9, dtype=complex)
    a[0] = np.sqrt(1.0 - amplitude ** 2 / 2.0)
    a[1] = amplitude / np.sqrt(2.0) * np.exp(1j * 1.0)
    a /= np.linalg.norm(a)
    model = rp.build_model(unit_params(coupling=0.0, n_max=0))
    vmax, t_max, series = _refined_trace_max(a, model, 0.0, 8.0 * TAU, 1024, 1e-9)
    # the maximum itself is refined either way
    assert vmax == pytest.approx(2.0 * abs(a[0] * a[1]) / np.sqrt(3.0), rel=1e-8)
    dt = 8.0 * TAU / 1024
    if amplitude == 1.0:
        # the parabola vertex of the first copy
        assert t_max == pytest.approx(0.5, abs=1e-5)
    else:
        # 2e-9 in the samples does not resolve the vertex of an 8e-6 trace:
        # the time is that of the first copy's best sample
        assert t_max == pytest.approx(round(0.5 / dt) * dt, abs=1e-12)


def test_bare_resonant_kick_hits_the_bound(broad_scan):
    # with no cavity the quarter-area resonant kick balances J = 0 and 1
    # regardless of bandwidth
    records, _ = broad_scan
    bare = {r["detuning"]: r for r in records if not r["cavity"]}
    assert bare[0.0]["orientation_max"] == pytest.approx(SQRT3INV, abs=0.01)
    # detuned carriers lose spectral weight on the line, never gain
    assert bare[-G]["orientation_max"] < bare[0.0]["orientation_max"] + 1e-9
    assert bare[G]["orientation_max"] < bare[0.0]["orientation_max"] + 1e-9


def test_cavity_enhancement_at_doublet_lines(narrow_scan):
    records, _ = narrow_scan
    cav = {r["detuning"]: r for r in records}
    on_line = min(cav[-G]["orientation_max"], cav[G]["orientation_max"])
    blocked = cav[0.0]["orientation_max"]
    assert on_line > 5.0 * blocked


def test_detuning_sign_selects_the_doublet_branch(narrow_scan):
    # driving below resonance feeds the lower line (slower beat, longer
    # period); above resonance the upper line (faster beat)
    records, _ = narrow_scan
    cav = {r["detuning"]: r for r in records}
    for det, line in ((-G, 2.0 * B - G), (G, 2.0 * B + G)):
        pw = np.array(cav[det]["peaks_omega"])
        ph = np.array(cav[det]["peaks_height"])
        assert abs(pw[np.argmax(ph)] - line) < 0.05 * B


def test_scan_is_deterministic_across_thread_counts(p_cavity):
    # three detunings per (cavity, bandwidth) group, so each group is a batch
    kw = dict(detunings=[-G, 0.0, G], bandwidths=[0.5 * G, 1.0 * G],
              cavity=(True,), n_trace=4096)
    r1, _ = rp.scan_detuning_bandwidth(p_cavity, threads=1, **kw)
    r2, _ = rp.scan_detuning_bandwidth(p_cavity, threads=2, **kw)
    assert len(r1) == len(r2) == 6
    for a, b in zip(r1, r2):
        assert a["orientation_max"] == b["orientation_max"]   # bit-identical
        assert a["populations"] == b["populations"]
        assert (a["halvings"], a["step_error"]) == (b["halvings"], b["step_error"])
        assert a["step_error"] <= 1e-8


def test_a_group_above_the_job_bound_runs_as_consecutive_batches(p_cavity, monkeypatch):
    # with room for two rows per job, three detunings run as [d0, d1] and
    # [d2]: each batch starts from the finest pilot step of its own fields
    kw = dict(bandwidths=[1.0 * G], cavity=(True,), n_trace=2048)
    dets = [-G, 0.0, G]
    first, _ = rp.scan_detuning_bandwidth(p_cavity, dets[:2], **kw)
    last, _ = rp.scan_detuning_bandwidth(p_cavity, dets[2:], **kw)
    monkeypatch.setattr(control, "_JOB_ROWS", 2)
    split, meta = rp.scan_detuning_bandwidth(p_cavity, dets, **kw)
    assert split == first + last   # bit-identical, every key
    assert meta["detunings"] == dets


def test_composite_scan_is_deterministic_across_thread_counts(p_cavity):
    # one bandwidth per job, so two processes share the three jobs
    kw = dict(bandwidths=[0.5 * G, 0.75 * G, 1.0 * G], reference_bandwidth=0.1 * G,
              n_trace=2048)
    r1 = rp.scan_composite_bandwidth(p_cavity, threads=1, **kw)
    r2 = rp.scan_composite_bandwidth(p_cavity, threads=2, **kw)
    assert len(r1[0]) == len(r2[0]) == 3
    assert r1 == r2   # bit-identical, every key of the records and the meta
    assert all(r["converged"] for r in r1[0])


def test_composite_scan_reuses_reference_carriers(magnus_sweep, designed):
    fld, _rep = designed
    records, meta = magnus_sweep
    assert [c[0] for c in meta["carriers"]] == [fld.components[0][0],
                                                fld.components[1][0]]
    assert meta["carriers"][0][1] == pytest.approx(fld.components[0][1], abs=1e-12)
    assert all(r["converged"] for r in records)
    for r in records:
        assert 0.0 < r["orientation_max_exact"] <= SQRT3INV + 1e-6
        assert r["max_population_diff"] >= 0.0
