"""Orientation, spectra, revivals, and the closed-form maximum oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rotpolariton as rp
from conftest import B, TAU, SQRT3INV, orientation_dense


@pytest.fixture(scope="module")
def dressed(p_cavity):
    model = rp.build_model(p_cavity)
    return model, model.cos


def _dressed_state(bas, amps):
    a = np.zeros(len(bas.labels), dtype=complex)
    for lab, c in amps.items():
        a[bas.labels.index(lab)] = c
    return a


# ------------------------------------------------------------- orientation

def test_orientation_of_pure_states_is_zero(dressed):
    bas, cos_op = dressed
    for lab in ("0;0", "+;0", "-;0"):
        a = _dressed_state(bas, {lab: 1.0})
        assert np.vdot(a, cos_op @ a).real == 0.0


def test_orientation_of_bare_two_state_superposition():
    # (|J0> + e^{i phi}|J1>)/sqrt(2) -> cos(phi)/sqrt(3)
    cosm = rp.cos_theta_elements(8)
    for phi in (0.0, 0.7, np.pi / 2.0, np.pi):
        a = np.zeros(9, dtype=complex)
        a[0] = 1.0 / np.sqrt(2.0)
        a[1] = np.exp(1j * phi) / np.sqrt(2.0)
        val = np.vdot(a, cosm @ a).real
        assert val == pytest.approx(np.cos(phi) / np.sqrt(3.0), abs=1e-12)


def test_orientation_of_optimal_dressed_triplet(dressed):
    bas, cos_op = dressed
    # the lower doublet member carries the opposite-sign dipole element, so
    # the even-weight maximum needs a pi between the doublet amplitudes
    a = _dressed_state(bas, {"0;0": 1.0 / np.sqrt(2.0), "+;0": 0.5, "-;0": -0.5})
    assert np.vdot(a, cos_op @ a).real == pytest.approx(SQRT3INV, abs=1e-12)
    b = _dressed_state(bas, {"0;0": 1.0 / np.sqrt(2.0), "+;0": 0.5, "-;0": 0.5})
    assert np.vdot(b, cos_op @ b).real == pytest.approx(0.0, abs=1e-12)


def test_subspace_bound_under_random_sampling(dressed):
    bas, cos_op = dressed
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        a = _dressed_state(bas, {"0;0": c[0], "+;0": c[1], "-;0": c[2]})
        val = abs(np.vdot(a, cos_op @ a).real)
        worst = max(worst, val)
        assert val <= SQRT3INV + 1e-9
    assert worst > 0.4   # the sampler does approach the bound


# the draw that reaches the largest phase arguments: t - t0 up to 780, so the
# rotor's phases E (t - t0) reach 5.6e4 rad, where an ulp is 7e-12
@example(dressed_op=False, seed=3249, t0=-50.0, start=100.0, step=8.860749512610457, n=64)
@settings(max_examples=40, deadline=None)
@given(dressed_op=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       t0=st.floats(-50.0, 50.0), start=st.floats(-100.0, 100.0),
       step=st.floats(1e-3, 10.0), n=st.integers(2, 64))
def test_orientation_trace_matches_explicit_free_evolution(dressed, dressed_op, seed, t0,
                                                           start, step, n):
    # <cos theta>(t) = Re(psi(t)^H M psi(t)) with psi(t) = a exp(-i E (t - t0)),
    # from a random unit snapshot a taken at t0, on a uniform grid.  Both
    # sides round their phase arguments: the dense formula E_i (t - t0) per
    # state, the trace w_k (t - t0) per coupling, |w_k| <= |E_i| + |E_j|.
    # Each rounding moves a cosine of amplitude c_k by up to
    # u |c_k| (|E_i| + |E_j|) |t - t0|, u the unit roundoff, and two of them
    # bound what the draws reach (0.3 at most in 6,000 draws)
    if dressed_op:
        bas, cos_op = dressed
        energies = bas.energies
    else:
        cos_op = rp.cos_theta_elements(8)
        energies = np.array([B * j * (j + 1) for j in range(9)])
    rng = np.random.default_rng(seed)
    a = rng.normal(size=energies.size) + 1j * rng.normal(size=energies.size)
    a /= np.linalg.norm(a)
    series = rp.orientation_trace(a, t0, energies, cos_op, start, step, n)
    times = series.times
    want = orientation_dense(a, energies, cos_op, times, t0)
    m = cos_op
    i, j = np.nonzero(np.triu(m, 1))
    amplitudes = np.abs(2.0 * a[i] * m[i, j] * a[j])
    args = (np.abs(energies[i]) + np.abs(energies[j])) * np.max(np.abs(times - t0))
    rounding = 2.0 * (np.finfo(float).eps / 2.0) * np.sum(amplitudes * args)
    assert np.max(np.abs(series.values - want)) <= 1e-12 + rounding


@pytest.mark.parametrize("n", [2, 7, 16384])
@pytest.mark.parametrize("coupling", ["tridiagonal", "dense"])
def test_transition_sum_trace_matches_the_dense_formula(coupling, n):
    rng = np.random.default_rng(n)
    dim = 10
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = 0.5 * (m + m.conj().T) / dim
    if coupling == "tridiagonal":
        m = np.triu(np.tril(m, 1), -1)
    energies = np.sort(rng.uniform(0.0, 30.0, dim))
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a /= np.linalg.norm(a)
    t0 = rng.uniform(-5.0, 5.0)
    times = t0 + 0.3 + 40.0 * TAU / n * np.arange(n)
    series = rp.orientation_trace(a, t0, energies, m, t0 + 0.3, 40.0 * TAU / n, n)
    assert np.array_equal(series.times, times)
    want = orientation_dense(a, energies, m, times, t0)
    assert np.max(np.abs(series.values - want)) <= 1e-12


# ----------------------------------------------------------------- spectrum

def test_spectrum_of_pure_cosine_recovers_amplitude():
    # rectangular-window magnitude at an on-grid line: amplitude * window / 2
    w = 64.0
    n = 4096
    t = np.linspace(0.0, w, n, endpoint=False)
    omega0 = 2.0 * np.pi * 24.0 / w
    series = rp.TimeSeries(t0=0.0, dt=w / n, values=0.37 * np.cos(omega0 * t) + 0.11)
    omega, amp = rp.spectrum(series)
    assert omega[1] - omega[0] == pytest.approx(2.0 * np.pi / w, rel=1e-9)
    line = amp[np.argmin(np.abs(omega - omega0))]
    assert line == pytest.approx(0.37 * w / 2.0, rel=0.05)
    # the mean is subtracted, so there is no zero-frequency line
    assert amp[0] < 1e-10 * line


def test_spectrum_peak_positions_stable_under_window_doubling():
    rng = np.random.default_rng(5)
    w = 40.0 * TAU
    n = 8192
    t = np.linspace(0.0, 2.0 * w, 2 * n, endpoint=False)
    sig = (0.3 * np.cos(1.8 * t + 0.2) + 0.2 * np.cos(2.2 * t - 1.0)
           + 0.01 * rng.normal(size=t.size))
    half = rp.spectrum(rp.TimeSeries(t0=0.0, dt=w / n, values=sig[:n]))
    full = rp.spectrum(rp.TimeSeries(t0=0.0, dt=w / n, values=sig))
    bin_half = half[0][1] - half[0][0]
    for omega, amp in (half, full):
        pw, _ph = rp.spectrum_peaks(omega, amp, rel_height=0.3)
        assert len(pw) == 2
        assert abs(pw[0] - 1.8) <= bin_half
        assert abs(pw[1] - 2.2) <= bin_half


def test_spectrum_peaks_match_scipy_find_peaks(broadband_kick):
    # scipy is a test-only dependency, kept as the reference peak finder
    from scipy.signal import find_peaks

    omega, amp = broadband_kick["spectrum"]
    for rel in (0.05, 0.3):
        pw, ph = rp.spectrum_peaks(omega, amp, rel_height=rel)
        idx, _ = find_peaks(amp, height=rel * float(np.max(amp)))
        assert len(idx) >= 2
        assert np.array_equal(pw, omega[idx])
        assert np.array_equal(ph, amp[idx])


def test_spectrum_peaks_are_strict_local_maxima_at_or_above_the_floor():
    # floor 0.25 * 4 = 1: the plateau at 2 is no peak, 0.9 is below the
    # floor, 1.0 sits on it, and the end points are never peaks
    amp = np.array([0.0, 2.0, 2.0, 0.0, 3.0, 0.5, 0.9, 0.4, 1.0, 0.2, 4.0])
    pw, ph = rp.spectrum_peaks(np.arange(amp.size, dtype=float), amp, rel_height=0.25)
    assert list(pw) == [4.0, 8.0]
    assert list(ph) == [3.0, 1.0]


def test_time_series_validation():
    for dt in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            rp.TimeSeries(t0=0.0, dt=dt, values=np.zeros(3))
    for values in (np.array([1.0]), np.zeros((2, 2)), np.array(0.5)):
        with pytest.raises(ValueError, match="1d"):
            rp.TimeSeries(t0=0.0, dt=1.0, values=values)
    series = rp.TimeSeries(t0=2.5, dt=0.5, values=[1, 2, 3, 4])
    assert series.times.tolist() == [2.5, 3.0, 3.5, 4.0]
    assert series.window == 1.5
    assert series.values.dtype == float and not series.values.flags.writeable


def test_a_late_grid_runs_through_the_trace_spectrum_and_revival():
    # a trace of 0.1 revival periods after a 0.1 g bare kick, in atomic units:
    # rounding near t = 3.8e8 moves the 20.7 au steps of t0 + dt k by 3e-9
    # of a step.  A beat of 64 periods in the window sits on spectrum bin 64
    # and repeats every 256 samples
    start, dt, n = 3.79e8, 20.7, 16384
    t0 = start - 1e6
    w = 2.0 * np.pi * 64 / (n * dt)
    energies = np.array([0.0, w])
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    series = rp.orientation_trace(a, t0, energies, m, start, dt, n)
    assert np.ptp(np.diff(series.times)) > 1e-9 * dt
    want = orientation_dense(a, energies, m, series.times, t0)
    # both sides round the phase w (t - t0), of up to 1.6e3 rad, and the
    # trace reads t_k as t_{qs} + t_r - start: four times rounded by half a
    # spacing each, so up to two spacings of t (6e-8 au here) apart
    rounding = w * (np.finfo(float).eps * (series.times[-1] - t0)
                    + 2.0 * np.spacing(series.times[-1]))
    assert np.max(np.abs(series.values - want)) <= 1e-12 + rounding
    omega, amp = rp.spectrum(series)
    pw, _ph = rp.spectrum_peaks(omega, amp)
    assert pw.tolist() == [omega[64]]
    assert omega[64] == pytest.approx(w, rel=1e-12)
    # the parabola through the lagged correlations lands within a thousandth
    # of a sample of the beat period (5e-5 of one here)
    assert abs(rp.revival_period(series) - 256 * dt) <= 1e-3 * dt


# --------------------------------------------------- populations and phases

def test_dressed_populations_phases_known_state(dressed):
    bas, _ = dressed
    s = _dressed_state(bas, {"0;0": np.sqrt(0.5) * np.exp(0.25j),
                             "+;0": 0.5 * np.exp(1j * (0.25 + 0.9)),
                             "-;0": 0.5 * np.exp(1j * (0.25 - 2.0))})
    rec = rp.dressed_populations_phases(s, bas.labels, 1e-9)
    assert rec["0;0"]["population"] == pytest.approx(0.5, abs=1e-12)
    assert rec["0;0"]["phase"] == pytest.approx(0.0, abs=1e-12)   # gauged to ground
    assert rec["+;0"]["phase"] == pytest.approx(0.9, abs=1e-12)
    assert rec["-;0"]["phase"] == pytest.approx(-2.0, abs=1e-12)
    assert sum(v["population"] for v in rec.values()) == pytest.approx(1.0, abs=1e-12)
    # no amplitude at or below the floor has a phase
    assert all(rec[lab]["phase"] is None for lab in bas.labels if lab not in ("0;0", "+;0", "-;0"))
    tiny = _dressed_state(bas, {"0;0": 1.0, "+;1": 1e-9, "-;1": 2e-9})
    rec = rp.dressed_populations_phases(tiny, bas.labels, 1e-9)
    assert rec["+;1"]["phase"] is None and rec["-;1"]["phase"] == 0.0


def test_initial_state_populations(dressed):
    bas, _ = dressed
    rec = rp.dressed_populations_phases(_dressed_state(bas, {"0;0": 1.0}), bas.labels, 0.0)
    assert rec["0;0"]["population"] == 1.0
    assert rec["0;0"]["phase"] == 0.0


# ------------------------------------------------------------------ revival

def test_revival_period_of_bare_superposition():
    cosm = rp.cos_theta_elements(8)
    en = np.array([B * j * (j + 1) for j in range(9)])
    a = np.zeros(9, dtype=complex)
    a[0] = a[1] = 1.0 / np.sqrt(2.0)
    series = rp.orientation_trace(a, 0.0, en, cosm, 0.0, 12.0 * TAU / 4095, 4096)
    T = rp.revival_period(series, min_lag=0.05 * TAU)
    assert abs(T - TAU) / TAU < 1e-3


def test_revival_period_shift_invariance():
    cosm = rp.cos_theta_elements(8)
    en = np.array([B * j * (j + 1) for j in range(9)])
    a = np.zeros(9, dtype=complex)
    a[0], a[1], a[2] = 0.8, 0.5, np.sqrt(1.0 - 0.64 - 0.25)
    periods = []
    for t0 in (0.0, 3.7 * TAU):
        series = rp.orientation_trace(a, 0.0, en, cosm, t0, 10.0 * TAU / 4095, 4096)
        periods.append(rp.revival_period(series, min_lag=0.05 * TAU))
    assert periods[0] == pytest.approx(periods[1], rel=1e-6)


def test_revival_period_is_none_without_a_revival():
    t = np.linspace(0.0, 10.0, 512)
    noise = np.random.default_rng(0).normal(size=512)
    # constant (0.25 exactly, and 0.3, whose mean rounds off by 6e-17),
    # never decorrelating (a ramp correlates 1 at every lag), decorrelating
    # without recurrence
    for values in (np.full(512, 0.25), np.full(512, 0.3), t, noise):
        assert rp.revival_period(rp.TimeSeries(t0=0.0, dt=t[1], values=values)) is None


# ------------------------------------------------------------------- oracle

def test_oracle_two_state_subspace(dressed):
    bas, cos_op = dressed
    res = rp.orientation_max_oracle(cos_op, bas.energies, bas.labels,
                                    states=("0;0", "+;0"))
    # single coherence: max 2 * (1/2) * 1/sqrt(6)
    assert res["max"] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-6)
    assert res["populations"][0] == pytest.approx(0.5, abs=1e-3)


def test_oracle_three_state_subspace(dressed, oracle_result):
    bas, cos_op = dressed
    res = oracle_result
    assert res["max"] == pytest.approx(SQRT3INV, abs=1e-6)
    p = res["populations"]
    assert p[0] == pytest.approx(0.5, abs=1e-3)
    assert p[1] == pytest.approx(0.25, abs=1e-3)
    assert p[2] == pytest.approx(0.25, abs=1e-3)
    assert sum(p) == pytest.approx(1.0, abs=1e-10)
    # the bound recurs within the common period of the two splittings
    assert res["period"] == pytest.approx(10.0 * TAU, rel=1e-9)
    assert 0.0 <= res["time"] < res["period"]


_SUBSPACE = ("0;0", "+;0", "-;0", "+;1", "-;1")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=5).filter(lambda a: np.linalg.norm(a) > 1e-3))
def test_no_state_in_the_subspace_beats_the_oracle(dressed, amps):
    bas, cos_op = dressed
    states = _SUBSPACE[:len(amps)]
    res = rp.orientation_max_oracle(cos_op, bas.energies, bas.labels, states=states)
    idx = [bas.labels.index(s) for s in states]
    sub = cos_op[np.ix_(idx, idx)]
    c = np.array(amps) / np.linalg.norm(amps)
    assert np.vdot(c, sub @ c).real <= res["max"] + 1e-12
    # the reported populations and phases attain the bound
    best = np.sqrt(res["populations"]) * np.exp(1j * np.concatenate([[0.0], res["phases"]]))
    assert sum(res["populations"]) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(best, sub @ best).real == pytest.approx(res["max"], abs=1e-12)
    assert res["time"] == 0.0


@pytest.mark.parametrize("states", [_SUBSPACE[:3], _SUBSPACE])
def test_oracle_gives_the_same_bits_for_a_real_and_a_complex_cos(dressed, states):
    # the oracle diagonalizes a complex copy: on the five lowest dressed
    # states the real eigensolver gives populations and phases that differ
    # in their last bits
    bas, cos_op = dressed
    real = rp.orientation_max_oracle(cos_op, bas.energies, bas.labels, states=states)
    cplx = rp.orientation_max_oracle(np.array(cos_op, dtype=complex), bas.energies,
                                     bas.labels, states=states)
    assert real == cplx


def test_oracle_rejects_other_sizes(dressed):
    bas, cos_op = dressed
    with pytest.raises(ValueError):
        rp.orientation_max_oracle(cos_op, bas.energies, bas.labels, states=("0;0",))
