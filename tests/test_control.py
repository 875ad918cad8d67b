"""Pulse design conditions, the composite solver, and the scan harness."""

import numpy as np
import pytest

import rotpolariton as rp
from conftest import B, G, TAU, SQRT3INV, unit_params


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
    fld = rp.GaussianPulse(e0=0.0, tau0=1.0 / (0.1 * G), omega0=2.0 * B, phi0=0.0,
                           t_start=-7.0 / (0.1 * G), t_end=7.0 / (0.1 * G))
    rep = rp.check_conditions(p_cavity, fld)
    assert rep.amp_residuals["up"] == pytest.approx(-rp.DESIGN_AREA)
    assert rep.amp_residuals["lo"] == pytest.approx(-rp.DESIGN_AREA)
    assert rep.predicted_orientation_max == 0.0
    assert rep.predicted_populations[0] == pytest.approx(1.0)


def test_single_resonant_carrier_misses_both_lines(p_cavity):
    # narrowband carrier between the doublet lines: both areas blockaded
    fld = rp.gaussian_for_area(p_cavity, rp.KICK_AREA, tau0=1.0 / (0.1 * G),
                               omega0=p_cavity.omega01)
    rep = rp.check_conditions(p_cavity, fld)
    assert rep.amp_residuals["up"] == pytest.approx(-rp.DESIGN_AREA, abs=1e-6)
    assert rep.amp_residuals["lo"] == pytest.approx(-rp.DESIGN_AREA, abs=1e-6)
    assert rep.predicted_orientation_max < 1e-6


# ------------------------------------------------------------------ design

def test_designed_pulse_meets_all_conditions(designed):
    _fld, rep = designed
    assert rep.phase_residual_g < 1e-6
    # the same manifold written without the lower-line sign flip sits at
    # 0 mod 2 g pi; both bookkeepings must agree on the solution
    assert rep.phase_residual_alt_g < 1e-6
    assert abs(rep.amp_residuals["up"]) < 1e-9
    assert abs(rep.amp_residuals["lo"]) < 1e-9
    assert max(rep.blockade_residuals.values()) < 1e-6
    assert rep.branch_residuals_g["+"] < 1e-6
    assert rep.predicted_orientation_max == pytest.approx(SQRT3INV, abs=1e-6)
    pp = rep.predicted_populations
    assert pp[0] == pytest.approx(0.5, abs=1e-9)
    assert pp[1] == pytest.approx(0.25, abs=1e-9)
    assert pp[2] == pytest.approx(0.25, abs=1e-9)


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
    assert rep.phase_residual_g < 1e-6


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


def test_design_with_custom_area(p_cavity):
    fld, rep = rp.design_composite(p_cavity, bandwidth=0.1 * G, area=0.3)
    areas = rp.compute_areas(p_cavity, fld)
    assert abs(areas.theta_up0) == pytest.approx(0.3, abs=1e-9)
    assert abs(areas.theta_lo0) == pytest.approx(0.3, abs=1e-9)
    assert rep.phase_residual_g < 1e-6
    # smaller area, smaller transfer: the predicted maximum drops
    assert rep.predicted_orientation_max < SQRT3INV


def test_design_infeasible_cases(p_cavity):
    with pytest.raises(rp.DesignInfeasible):
        rp.design_composite(p_cavity, bandwidth=0.5 * G)
    with pytest.raises(rp.DesignInfeasible):
        rp.design_composite(unit_params(cavity_freq=0.0, coupling=0.0, n_max=0),
                            bandwidth=0.1 * G)
    with pytest.raises(ValueError):
        rp.design_composite(p_cavity)
    with pytest.raises(ValueError):
        rp.design_composite(p_cavity, bandwidth=0.1 * G, tau0=1.0 / (0.1 * G))


def test_design_boundary_bandwidth_is_accepted(p_cavity):
    fld, rep = rp.design_composite(p_cavity, bandwidth=0.2 * G)
    assert rep.phase_residual_g < 1e-6


# ----------------------------------------------------------------- responses

def test_kick_response_rejects_coupled_product_run(p_cavity):
    fld = rp.gaussian_for_area(p_cavity, rp.KICK_AREA, tau0=1.0 / G,
                               omega0=p_cavity.omega01)
    with pytest.raises(ValueError):
        rp.kick_response(p_cavity, fld, dressed=False)


def test_magnus_final_state_matches_exact_at_narrow_bandwidth(
        designed, composite_exact, p_cavity):
    fld, _rep = designed
    state, energies = rp.magnus_final_state(p_cavity, fld)
    assert state.labels == ("0;0", "+;0", "-;0", "+;1", "-;1")
    w0 = rp.doublet_energies(p_cavity, 0)
    w1 = rp.doublet_energies(p_cavity, 1)
    assert np.allclose(energies, [0.0, w0[0], w0[1], w1[0], w1[1]])
    mpops = {lab: float(abs(a) ** 2) for lab, a in zip(state.labels, state.amplitudes)}
    epops = composite_exact["populations"]
    diff = max(abs(mpops[lab] - epops[lab]) for lab in state.labels)
    assert diff < 1e-3


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
    res = broad_scan
    assert len(res) == 6
    # axis order: cavity block, then bandwidth, then detuning
    assert [r["cavity"] for r in res.records] == [True] * 3 + [False] * 3
    assert [r["detuning"] for r in res.records][:3] == [-G, 0.0, G]
    assert all(r["converged"] for r in res.records)
    assert res.meta["kind"] == "detuning_bandwidth"
    d = res.as_dict()
    assert len(d["records"]) == 6


def test_bare_resonant_kick_hits_the_bound(broad_scan):
    # with no cavity the quarter-area resonant kick balances J = 0 and 1
    # regardless of bandwidth
    bare = {r["detuning"]: r for r in broad_scan.records if not r["cavity"]}
    assert bare[0.0]["orientation_max"] == pytest.approx(SQRT3INV, abs=0.01)
    # detuned carriers lose spectral weight on the line, never gain
    assert bare[-G]["orientation_max"] < bare[0.0]["orientation_max"] + 1e-9
    assert bare[G]["orientation_max"] < bare[0.0]["orientation_max"] + 1e-9


def test_cavity_enhancement_at_doublet_lines(narrow_scan):
    cav = {r["detuning"]: r for r in narrow_scan.records}
    on_line = min(cav[-G]["orientation_max"], cav[G]["orientation_max"])
    blocked = cav[0.0]["orientation_max"]
    assert on_line > 5.0 * blocked


def test_detuning_sign_selects_the_doublet_branch(narrow_scan):
    # driving below resonance feeds the lower line (slower beat, longer
    # period); above resonance the upper line (faster beat)
    cav = {r["detuning"]: r for r in narrow_scan.records}
    for det, line in ((-G, 2.0 * B - G), (G, 2.0 * B + G)):
        pw = np.array(cav[det]["peaks_omega"])
        ph = np.array(cav[det]["peaks_height"])
        assert abs(pw[np.argmax(ph)] - line) < 0.05 * B


def test_scan_is_deterministic_across_thread_counts(p_cavity):
    # three detunings per (cavity, bandwidth) group, so each group is a batch
    kw = dict(detunings=[-G, 0.0, G], bandwidths=[0.5 * G, 1.0 * G],
              cavity=(True,), n_trace=4096)
    r1 = rp.scan_detuning_bandwidth(p_cavity, threads=1, **kw)
    r2 = rp.scan_detuning_bandwidth(p_cavity, threads=2, **kw)
    assert len(r1) == len(r2) == 6
    for a, b in zip(r1.records, r2.records):
        assert a["orientation_max"] == b["orientation_max"]   # bit-identical
        assert a["populations"] == b["populations"]
        assert (a["halvings"], a["step_error"]) == (b["halvings"], b["step_error"])
        assert a["step_error"] <= 1e-8


def test_composite_scan_reuses_reference_carriers(magnus_sweep, designed):
    fld, _rep = designed
    res = magnus_sweep
    assert [c[0] for c in res.meta["carriers"]] == [fld.components[0][0],
                                                    fld.components[1][0]]
    assert res.meta["carriers"][0][1] == pytest.approx(fld.components[0][1], abs=1e-12)
    assert all(r["converged"] for r in res.records)
    for r in res.records:
        assert 0.0 < r["orientation_max_exact"] <= SQRT3INV + 1e-6
        assert r["max_population_diff"] >= 0.0
