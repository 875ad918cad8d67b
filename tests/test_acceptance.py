"""End-to-end acceptance checks, one test per headline claim.

Each test exercises a session fixture from conftest (shared expensive runs)
and asserts the quantitative targets with their stated tolerances, printing
the measured numbers so a failing run shows how far off it landed.
"""

import numpy as np
import pytest

import rotpolariton as rp
from conftest import (
    B,
    G,
    SQRT3INV,
    SWEEP_BW,
    TAU,
    W01,
    area_by_quadrature,
    build_full_hamiltonian,
    cos_matrix_quadrature,
    dressed_transform,
)
from rotpolariton import DESIGN_AREA


def test_bare_molecule_kick_reaches_the_two_level_maximum(bare_kick):
    vmax = bare_kick["orientation_max"]
    period = bare_kick["revival_period"]
    print(f"bare orientation max {vmax:.6f} (target {SQRT3INV:.6f} +- 0.005); "
          f"revival {period:.6f} (target {TAU:.6f} +- 0.1%)")
    assert vmax == pytest.approx(SQRT3INV, abs=0.005)
    assert period == pytest.approx(TAU, rel=1e-3)


def test_resonant_cavity_blockades_the_same_kick(bare_kick, cavity_kick):
    bare = bare_kick["orientation_max"]
    coupled = cavity_kick["orientation_max"]
    print(f"coupled orientation max {coupled:.6f} vs bare {bare:.6f} "
          f"(target <= {0.1 * bare:.6f})")
    assert coupled <= 0.1 * bare


def test_broadband_spectrum_shows_doublet_and_leakage_lines(broadband_kick):
    spec = broadband_kick["spectrum"]
    # the doublet lines flanking the bare transition, located by peak finding
    pw, ph = rp.spectrum_peaks(spec, rel_height=0.3)
    for target in (W01 - G, W01 + G):
        dist = np.min(np.abs(pw - target))
        print(f"main line near {target:.4f}: off by {dist:.5f} "
              f"(bin {spec.domega:.5f})")
        assert dist < spec.domega
    # weaker lines from one-photon leakage into the second doublet
    amax = float(np.max(spec.amplitude))
    for target in (W01 + (np.sqrt(2.0) - 1.0) * G,
                   W01 - (np.sqrt(2.0) + 1.0) * G):
        mask = np.abs(spec.omega - target) <= 0.4 * G
        i = np.argmax(np.where(mask, spec.amplitude, -np.inf))
        height = spec.amplitude[i] / amax
        print(f"leakage line near {target:.4f}: found {spec.omega[i]:.4f} "
              f"at {height:.4f} of the global max")
        assert height > 0.01
        assert abs(spec.omega[i] - target) < spec.domega


def test_designed_pulse_restores_populations_maximum_and_revival(composite_exact):
    pops = composite_exact["populations"]
    trio = (pops["0;0"], pops["+;0"], pops["-;0"])
    vmax = composite_exact["orientation_max"]
    period = composite_exact["revival_period"]
    print(f"populations {trio[0]:.4f}/{trio[1]:.4f}/{trio[2]:.4f} "
          f"(target 0.5/0.25/0.25 +- 0.02); "
          f"max {vmax:.6f} (target {SQRT3INV:.6f} +- 0.01); "
          f"revival {period / TAU:.4f} tau (target 10 +- 0.5%)")
    assert trio[0] == pytest.approx(0.5, abs=0.02)
    assert trio[1] == pytest.approx(0.25, abs=0.02)
    assert trio[2] == pytest.approx(0.25, abs=0.02)
    assert pops["+;1"] <= 0.01
    assert pops["-;1"] <= 0.01
    assert vmax == pytest.approx(SQRT3INV, abs=0.01)
    assert period == pytest.approx(10.0 * TAU, rel=5e-3)


def test_solved_carrier_phase_matches_the_analytic_root(designed):
    fld, _ = designed
    phase_up = fld.components[0][1]
    print(f"solved upper-carrier phase {phase_up:.6f} rad "
          f"(target pi/9 = {np.pi / 9.0:.6f} +- 0.05)")
    assert abs(phase_up - np.pi / 9.0) < 0.05


def test_first_order_model_tracks_exact_dynamics_and_degrades_monotonically(
        magnus_sweep):
    recs = sorted(magnus_sweep.records, key=lambda r: r["bandwidth"])
    assert [r["bandwidth"] for r in recs] == pytest.approx(
        [b * G for b in SWEEP_BW])
    diffs = [r["max_population_diff"] for r in recs]
    print("population disagreement vs bandwidth: "
          + ", ".join(f"{b:g}g: {d:.5f}" for b, d in zip(SWEEP_BW, diffs)))
    assert diffs[0] <= 0.02
    assert np.all(np.diff(diffs) > 0)


def test_bruteforce_search_finds_the_bound_populations_and_phases(oracle_result):
    res = oracle_result
    pops = res["populations"]
    print(f"oracle max {res['max']:.8f} (target 0.57735 +- 1e-4); "
          f"populations {pops[0]:.4f}/{pops[1]:.4f}/{pops[2]:.4f}")
    assert res["max"] == pytest.approx(0.57735, abs=1e-4)
    assert pops[0] == pytest.approx(0.5, abs=0.01)
    assert pops[1] == pytest.approx(0.25, abs=0.01)
    assert pops[2] == pytest.approx(0.25, abs=0.01)
    # optimal phases obey the commensurate doublet relation: the weighted
    # combination of the two coherence phases sits an odd multiple of pi
    # away from zero once scaled by the integer line frequencies 9 and 11
    a1, a2 = res["phases"]
    combo = 9.0 * a1 - 11.0 * a2
    wrapped = np.mod(combo - np.pi, 2.0 * np.pi)
    dist = min(wrapped, 2.0 * np.pi - wrapped)
    print(f"phase combination 9*{a1:.6f} - 11*{a2:.6f} = {combo:.6f}, "
          f"{dist:.2e} rad from an odd multiple of pi")
    assert dist < 5e-3


def test_numerical_invariants_hold_at_machine_level(
        p_cavity, bare_kick, cavity_kick, composite_exact, designed):
    # norms survive the propagations
    for name, rec in (("bare", bare_kick), ("coupled", cavity_kick),
                      ("composite", composite_exact)):
        drift = abs(rec["norm_final"] - 1.0)
        print(f"{name} norm drift {drift:.2e}")
        assert drift <= 1e-10
        total = sum(rec["populations"].values())
        assert total == pytest.approx(1.0, abs=1e-10)

    # operators stay hermitian, the dressing transform orthogonal
    h0, v = build_full_hamiltonian(p_cavity)
    for op in (h0.matrix, v.matrix, rp.build_model(p_cavity).cos.matrix):
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12
    t = dressed_transform(p_cavity)
    assert np.max(np.abs(t @ t.T - np.eye(t.shape[0]))) <= 1e-12

    # dipole matrix against an independent quadrature
    cosm = rp.cos_theta_elements(p_cavity.j_max).matrix.real
    err = np.max(np.abs(cosm - cos_matrix_quadrature(p_cavity.j_max)))
    print(f"cos theta matrix vs quadrature {err:.2e}")
    assert err <= 1e-10

    # closed-form pulse areas against a quadrature of the field
    fld, _ = designed
    mu0 = rp.mu_tilde_ground(p_cavity)
    w0 = rp.doublet_energies(p_cavity, 0)
    w1 = rp.doublet_energies(p_cavity, 1)
    up, lo = rp.pulse_area_ground(fld, w0, mu0)
    assert abs(up - area_by_quadrature(fld, w0[0], mu0)) <= 1e-8
    assert abs(lo + area_by_quadrature(fld, w0[1], mu0)) <= 1e-8
    assert abs(abs(up) - DESIGN_AREA) <= 1e-8
    mu1 = rp.mu_tilde_doublet(p_cavity)
    leak = rp.pulse_area_doublet(fld, w0, w1, mu1)
    for (s, ell), got in leak.items():
        freq = w1[0 if ell > 0 else 1] - w0[0 if s > 0 else 1]
        want = ell * area_by_quadrature(fld, freq, mu1)
        assert abs(got - want) <= 1e-8
